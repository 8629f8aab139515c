"""Semi-naive fixpoint evaluation over integer-encoded facts.

Facts are tuples of dense term ids grouped per relation.  Each round fires
every rule once per body atom whose relation has new facts: that atom ranges
over the previous round's delta, the remaining atoms over the full store,
and new conclusions are merged at the round barrier.  A delta atom is
skipped while an earlier atom's relation has no facts older than the round's
delta (in round 1, every relation): each derivation it could find uses a new
fact at that earlier atom, whose firing finds it first.  So round 1 fires
each rule once.  The result is the least fixpoint of the rule set and is
independent of rule order, join order and delta scheduling (the program is
positive and monotone, and the store has set semantics).

Join order is size-driven.  Each rule is compiled to one plan per (delta
atom, driver atom) pair: the driver comes first, and the remaining atoms,
the delta atom among them, follow most-bound first (the delta atom wins
ties).  At each round barrier the smallest atom drives, measured by the
delta's size for the delta atom and the store's for every other atom, so a
large delta is probed from a small schema relation instead of being walked
fact by fact.  Pairs that this choice can never pick get no plan: another
atom of the delta's relation is never smaller than the delta, and of two
atoms of one relation the first wins.  Round 1 takes every stored fact as
new, so its delta is the store itself.  Each later round's delta is a fact
store of its own: its indexes are built on demand, shared by every rule of
the round and dropped with it at the barrier.  A probe whose key binds every
position of its atom is a membership test on the fact set itself, in the
store and in the delta.

Plans and merges run as generated Python.  A plan becomes one function of
nested loops over plain locals, one per binding slot: it unpacks each fact,
probes each step with a literal key tuple and builds the head tuple inline.
Its source depends only on the plan's shape (which slot each atom binds,
checks or keys on, and the head's slots); the rule's constant ids come in as
an argument.  Each relation's set of store indexes gets one appender that
adds a fact to the fact set and to every index.  Both are compiled on first
use through one process-wide cache keyed by shape, so every closure of a
process shares them.  Generated source holds only slot numbers, argument
positions and fixed names: no term text and no user string.

A ``Budget`` is ticked once per driver fact and once per head in joins,
once per fact in index builds and in the round barrier, and read at the
start of each round.  It keeps the exact number of ticks taken.  A closure
passes the same budget on to its seeding and materialize loops.  A barrier
stopped by the budget keeps the facts it merged.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from ckrbench.errors import BudgetExceeded
from ckrbench.engine.rules import Rule, Var

logger = logging.getLogger(__name__)

IntFact = tuple  # (id, id, ...) — relation kept outside the tuple

#: Ticks (driver facts, join heads, facts indexed or merged) between two
#: looks at the clock.
_CHECK_EVERY = 8192


class FactStore:
    """Per-relation fact sets with lazily built, incrementally maintained
    hash indexes keyed on argument positions."""

    __slots__ = ("rels", "_indexes", "_appenders")

    def __init__(self, rels: dict[str, set[IntFact]] | None = None) -> None:
        self.rels: dict[str, set[IntFact]] = {} if rels is None else rels
        self._indexes: dict[tuple[str, tuple[int, ...]], dict] = {}
        # rel -> its generated appender, bound to its fact set and indexes
        self._appenders: dict[str, Callable[[Iterable[IntFact]], None]] = {}

    def facts(self, relation: str) -> set[IntFact]:
        return self.rels.setdefault(relation, set())

    def size(self, relation: str) -> int:
        bucket = self.rels.get(relation)
        return len(bucket) if bucket is not None else 0

    def __len__(self) -> int:
        return sum(len(s) for s in self.rels.values())

    def merge(self, relation: str, facts: Iterable[IntFact]) -> None:
        """Add and index ``facts``, none of which the store holds yet."""
        self._appender(relation)(facts)

    def _appender(self, relation: str) -> Callable[[Iterable[IntFact]], None]:
        append = self._appenders.get(relation)
        if append is None:
            indexed = [(pos, ix) for (rel, pos), ix in self._indexes.items() if rel == relation]
            code = _generated(_APPENDERS, _appender_source, tuple(pos for pos, _ in indexed))
            append = partial(code, self.facts(relation), *(ix for _, ix in indexed))
            self._appenders[relation] = append
        return append

    def get_index(
        self, relation: str, positions: tuple[int, ...], budget: Budget
    ) -> dict[tuple, list[IntFact]]:
        index = self._indexes.get((relation, positions))
        if index is None:
            index = _build_index(self.rels.get(relation, ()), positions, budget)
            self._indexes[relation, positions] = index
            self._appenders.pop(relation, None)
        return index

    def probe(self, step: _JoinStep, budget: Budget) -> set[IntFact] | dict:
        """What ``step`` probes here: the fact set for a full-key step, the
        index on its key positions otherwise."""
        relation, positions, full = step
        return self.facts(relation) if full else self.get_index(relation, positions, budget)


def _build_index(
    facts, positions: tuple[int, ...], budget: Budget
) -> dict[tuple, list[IntFact]]:
    if len(positions) > 1:
        key_of = itemgetter(*positions)  # builds the key tuple in C
    else:
        (p,) = positions
        key_of = lambda fact: (fact[p],)
    index: dict[tuple, list[IntFact]] = {}
    for fact in budget.ticks(facts):
        key = key_of(fact)
        hit = index.get(key)
        if hit is None:
            index[key] = [fact]
        else:
            hit.append(fact)
    return index


# -- rule compilation -------------------------------------------------------
#
# A rule's variables and constants share one numbering of binding slots, the
# variables first; every key, check and head reads slots only.

# The role of an atom position: it binds its slot, is checked against a slot
# already bound, or (in a probed step) is part of the probe's key.
_BIND, _CHECK, _KEY = range(3)


def _roles(atom: tuple[int, ...], bound: set[int], probed: bool) -> tuple:
    """Per position of ``atom`` (its slots), ``(role, slot)`` given the slots
    bound before it; adds the slots that the atom binds to ``bound``."""
    roles = []
    fresh: set[int] = set()
    for slot in atom:
        if slot in bound:
            roles.append((_KEY if probed else _CHECK, slot))
        elif slot in fresh:
            roles.append((_CHECK, slot))
        else:
            roles.append((_BIND, slot))
            fresh.add(slot)
    bound |= fresh
    return tuple(roles)


class _JoinStep(NamedTuple):
    relation: str
    key_positions: tuple[int, ...]  # ascending
    full: bool  # the key is the whole fact: probe by set membership


class _Plan(NamedTuple):
    steps: tuple[_JoinStep, ...]
    delta_step: int  # the step probing the delta; -1: the driver is the delta
    # (variable count, slot count, per atom in join order its roles, head
    # slots): all that the plan's generated join depends on
    shape: tuple


@dataclass(frozen=True)
class CompiledRule:
    name: str
    head_relation: str
    constants: tuple[int, ...]  # the ids of the constant slots, in order
    # per delta position: (driver position, plan) pairs, the delta's own first
    plans: tuple[tuple[tuple[int, _Plan], ...], ...]
    body_relations: tuple[str, ...]


def compile_rule(rule: Rule, intern) -> CompiledRule:
    """Compile one rule; ``intern`` maps constant terms to ids."""
    body = rule.body
    slots: dict = {}  # variable name or constant term -> slot
    # Slot numbering must be identical across plans: pre-assign in body order.
    for pattern in body:
        for arg in pattern.args:
            if isinstance(arg, Var):
                slots.setdefault(arg.name, len(slots))
    n_vars = len(slots)
    constants: list[int] = []

    def slot_of(arg) -> int:
        if isinstance(arg, Var):
            return slots[arg.name]
        if arg not in slots:
            slots[arg] = n_vars + len(constants)
            constants.append(intern(arg))
        return slots[arg]

    atom_slots = [tuple(map(slot_of, p.args)) for p in body]
    head_slots = tuple(map(slot_of, rule.head.args))
    n_slots = n_vars + len(constants)

    def plan(delta: int, driver: int) -> _Plan:
        bound = set(range(n_vars, n_slots))
        atoms = [_roles(atom_slots[driver], bound, probed=False)]
        # The delta atom leads the remaining list, so the stable greedy
        # sort below lets it win ties.
        remaining = [delta] if delta != driver else []
        remaining += [k for k in range(len(body)) if k not in (delta, driver)]
        steps: list[_JoinStep] = []
        delta_step = -1

        # Greedy: prefer the atom with the most bound positions.
        def boundness(k: int) -> tuple[int, int]:
            n = 0
            for slot in atom_slots[k]:
                if slot in bound:
                    n += 1
            return (n, -len(atom_slots[k]))

        while remaining:
            remaining.sort(key=boundness, reverse=True)
            k = remaining.pop(0)
            if k == delta:
                delta_step = len(steps)
            roles = _roles(atom_slots[k], bound, probed=True)
            keyed = tuple(pos for pos, (role, _) in enumerate(roles) if role == _KEY)
            steps.append(_JoinStep(body[k].relation, keyed, len(keyed) == len(roles)))
            atoms.append(roles)
        return _Plan(tuple(steps), delta_step, (n_vars, n_slots, tuple(atoms), head_slots))

    def drivers(delta: int) -> list[int]:
        """The driver positions the size rule can pick for this delta atom:
        the delta atom itself, then the first atom of each other relation.
        The delta is a subset of its relation in the store, and atoms of one
        relation have one store size, so no other atom can be smallest."""
        seen = {body[delta].relation}
        picks = [delta]
        for j, p in enumerate(body):
            if p.relation not in seen:
                seen.add(p.relation)
                picks.append(j)
        return picks

    plans = tuple(tuple((j, plan(i, j)) for j in drivers(i)) for i in range(len(body)))
    return CompiledRule(
        rule.name,
        rule.head.relation,
        tuple(constants),
        plans,
        tuple(p.relation for p in body),
    )


def compile_rules(rules, intern) -> list[CompiledRule]:
    return [compile_rule(r, intern) for r in rules]


# -- generated code -----------------------------------------------------------
#
# Sources are built from ints and fixed names only.  In a join, slot s is the
# local ``v<s>``, step k probes ``I<k>`` and a checked position p is
# unpacked to ``t<p>``.

#: Process-wide caches of generated functions, keyed by shape.  A function
#: depends on its key alone, so every caller can share it; the caches hold
#: one entry per shape of the rules and index sets met so far.
_JOINS: dict[tuple, Callable] = {}
_APPENDERS: dict[tuple, Callable] = {}


def _generated(cache: dict, source_of: Callable[[tuple], str], shape: tuple) -> Callable:
    """The function that ``source_of(shape)`` defines, compiled once."""
    code = cache.get(shape)
    if code is None:
        # Defined into its own namespace, not its globals, so the function
        # and its globals form no reference cycle.
        namespace: dict = {}
        exec(source_of(shape), {}, namespace)
        (code,) = namespace.values()
        cache[shape] = code
    return code


def _tuple_source(items: Iterable[str]) -> str:
    return f"({', '.join(items)},)"


def _join_source(shape: tuple) -> str:
    """``join(facts, indexes, constants, existing, bucket, budget)``: join
    the driver ``facts`` through ``indexes`` (one per step: a hash index, or
    the fact set itself for a full-key step) and add the heads missing from
    ``existing`` to ``bucket``.  Ticks ``budget`` once per driver fact and
    once per head."""
    n_vars, n_slots, atoms, head = shape
    lines = ["def join(facts, indexes, constants, existing, bucket, budget):"]

    def emit(depth: int, line: str) -> None:
        lines.append("    " * depth + line)

    def tick(depth: int) -> None:
        emit(depth, "left -= 1")
        emit(depth, "if not left:")
        emit(depth + 1, "left = budget.refill()")

    if n_slots > n_vars:
        emit(1, _tuple_source(f"v{s}" for s in range(n_vars, n_slots)) + " = constants")
    if len(atoms) > 1:
        emit(1, _tuple_source(f"I{k}" for k in range(len(atoms) - 1)) + " = indexes")
    emit(1, "add = bucket.add")
    emit(1, "left = budget.left")
    emit(1, "try:")
    emit(2, "for f in facts:")
    depth = 3
    tick(depth)
    names = {_BIND: "v{s}", _CHECK: "t{p}", _KEY: "_"}
    for k, roles in enumerate(atoms):
        fact = "f" if k == 0 else f"f{k}"
        if k:
            key = _tuple_source(f"v{s}" for role, s in roles if role == _KEY)
            if all(role == _KEY for role, _ in roles):
                emit(depth, f"if {key} not in I{k - 1}: continue")
                continue
            emit(depth, f"for {fact} in I{k - 1}.get({key}, ()):")
            depth += 1
        targets = (names[role].format(s=s, p=p) for p, (role, s) in enumerate(roles))
        emit(depth, f"{_tuple_source(targets)} = {fact}")
        checks = [f"t{p} != v{s}" for p, (role, s) in enumerate(roles) if role == _CHECK]
        if checks:
            emit(depth, f"if {' or '.join(checks)}: continue")
    tick(depth)
    emit(depth, f"head = {_tuple_source(f'v{s}' for s in head)}")
    emit(depth, "if head not in existing:")
    emit(depth + 1, "add(head)")
    emit(1, "finally:")
    emit(2, "budget.left = left")
    return "\n".join(lines) + "\n"


def _appender_source(indexes: tuple[tuple[int, ...], ...]) -> str:
    """``append(bucket, I0, ..., facts)``: add each fact to ``bucket`` and to
    the store index ``I<k>`` keyed on positions ``indexes[k]``."""
    names = [f"I{k}" for k in range(len(indexes))]
    lines = [f"def append({', '.join(['bucket', *names, 'facts'])}):"]
    if not indexes:
        return lines[0] + "\n    bucket.update(facts)\n"
    lines += ["    add = bucket.add", "    for f in facts:", "        add(f)"]
    for name, positions in zip(names, indexes):
        lines += [
            f"        k = {_tuple_source(f'f[{p}]' for p in positions)}",
            f"        h = {name}.get(k)",
            "        if h is None:",
            f"            {name}[k] = [f]",
            "        else:",
            "            h.append(f)",
        ]
    return "\n".join(lines) + "\n"


# -- evaluation -------------------------------------------------------------


class Budget:
    """Wall-clock deadline (``time.perf_counter`` seconds; ``None``: none),
    read once every ``_CHECK_EVERY`` ticks."""

    __slots__ = ("deadline", "left", "_spent")

    def __init__(self, deadline: float | None = None) -> None:
        self.deadline = deadline
        self.left = _CHECK_EVERY  # ticks before the next look at the clock
        self._spent = 0  # ticks of the runs before the current one

    @property
    def spent(self) -> int:
        """The ticks taken so far."""
        return self._spent + _CHECK_EVERY - self.left

    def check(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise BudgetExceeded("closure time budget exhausted")

    def refill(self) -> int:
        """End a run of ``_CHECK_EVERY`` ticks with a look at the clock;
        returns the next run's length."""
        self.check()
        self._spent += _CHECK_EVERY
        return _CHECK_EVERY

    def ticks(self, items: Iterable) -> Iterator:
        """``items``, ticking once per item taken; raises
        ``BudgetExceeded`` between items once the deadline has passed."""
        return chain.from_iterable(self._runs(iter(items)))

    def _runs(self, items: Iterator) -> Iterator[list]:
        # Runs of items up to the next look at the clock, so that the
        # caller's loop iterates in C between looks.
        while True:
            run = list(islice(items, self.left))
            if not run:
                return
            self.left -= len(run)
            yield run
            if not self.left:
                self.left = self.refill()


def run_fixpoint(store: FactStore, rules: list[CompiledRule], budget: Budget) -> None:
    """Saturate the store under the rules.  Raises ``BudgetExceeded`` when
    the budget runs out; the store then holds every fact merged so far."""
    # The store does not change before the round barrier, so it can serve
    # as round 1's delta.
    delta = store
    rounds = 0
    while any(delta.rels.values()):
        budget.check()
        rounds += 1
        out: dict[str, set[IntFact]] = {}
        driven = seeded = 0
        # Relations with no facts older than their delta.
        all_new = {rel for rel, facts in delta.rels.items() if len(facts) == store.size(rel)}
        for rule in rules:
            body = rule.body_relations
            # A rule cannot fire while any of its body relations is empty.
            if any(not store.size(rel) for rel in body):
                continue
            existing = store.facts(rule.head_relation)
            bucket = out.setdefault(rule.head_relation, set())
            for i, rel in enumerate(body):
                seed_facts = delta.rels.get(rel)
                if not seed_facts:
                    continue
                choices = rule.plans[i]
                (driver, plan), smallest = choices[0], len(seed_facts)
                for j, candidate in choices[1:]:
                    size = store.size(body[j])
                    if size < smallest:
                        driver, plan, smallest = j, candidate, size
                if driver == i:
                    seeded += 1
                else:
                    driven += 1
                    seed_facts = store.facts(body[driver])
                indexes = [
                    (delta if k == plan.delta_step else store).probe(step, budget)
                    for k, step in enumerate(plan.steps)
                ]
                join = _generated(_JOINS, _join_source, plan.shape)
                join(seed_facts, indexes, rule.constants, existing, bucket, budget)
                if rel in all_new:
                    # Every later delta atom's derivations use a new fact
                    # here, so this firing found them all.
                    break
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "round %d: delta %s; %d driver firings, %d delta-seeded",
                rounds,
                {rel: len(facts) for rel, facts in sorted(delta.rels.items()) if facts},
                driven,
                seeded,
            )
        # Every head was checked against the store, which the round leaves
        # unchanged until here: each bucket holds new facts only.
        delta = FactStore({rel: facts for rel, facts in out.items() if facts})
        for rel, facts in delta.rels.items():
            store.merge(rel, budget.ticks(facts))
