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
atoms of one relation the first wins.  The delta atom is probed through a
per-round delta index that every rule shares and that is dropped at the
barrier.  A probe whose key binds every position of its atom is a
membership test on the fact set itself, in the store and in the delta.

A ``Budget`` is ticked once per driver fact and once per head in joins,
once per fact in index builds and in the round barrier, and read at the
start of each round.  A closure passes the same budget on to its seeding
and materialize loops.  A barrier stopped by the budget keeps the facts it
merged.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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

    __slots__ = ("rels", "_index_lists", "_index_map")

    def __init__(self) -> None:
        self.rels: dict[str, set[IntFact]] = {}
        self._index_lists: dict[str, list] = {}  # rel -> [(key getter, dict)]
        self._index_map: dict[tuple[str, tuple[int, ...]], dict] = {}

    def facts(self, relation: str) -> set[IntFact]:
        return self.rels.setdefault(relation, set())

    def size(self, relation: str) -> int:
        bucket = self.rels.get(relation)
        return len(bucket) if bucket is not None else 0

    def __len__(self) -> int:
        return sum(len(s) for s in self.rels.values())

    def add(self, relation: str, fact: IntFact) -> bool:
        bucket = self.rels.get(relation)
        if bucket is None:
            bucket = self.rels[relation] = set()
        if fact in bucket:
            return False
        bucket.add(fact)
        indexes = self._index_lists.get(relation)
        if indexes:
            for key_of, index in indexes:
                key = key_of(fact)
                hit = index.get(key)
                if hit is None:
                    index[key] = [fact]
                else:
                    hit.append(fact)
        return True

    def get_index(
        self, relation: str, positions: tuple[int, ...], budget: Budget
    ) -> dict[tuple, list[IntFact]]:
        index = self._index_map.get((relation, positions))
        if index is None:
            index = _build_index(self.rels.get(relation, ()), positions, budget)
            self._index_map[(relation, positions)] = index
            self._index_lists.setdefault(relation, []).append(
                (_key_getter(positions), index)
            )
        return index


def _key_getter(positions: tuple[int, ...]) -> Callable[[Sequence], tuple]:
    """The function mapping a fact, or a binding list, to the tuple of its
    items at ``positions``."""
    if len(positions) > 1:
        return itemgetter(*positions)  # builds the tuple in C
    return lambda items: tuple([items[p] for p in positions])


def _build_index(
    facts, positions: tuple[int, ...], budget: Budget
) -> dict[tuple, list[IntFact]]:
    key_of = _key_getter(positions)
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
# A rule's variables and constants share one numbering of binding slots;
# constant slots are filled before a firing starts, so every key and head
# reads slots only.


class _Atom(NamedTuple):
    relation: str
    binders: tuple[tuple[int, int], ...]  # (position, slot) first occurrence
    checks: tuple[tuple[int, int], ...]  # (position, slot) slot already bound


class _JoinStep(NamedTuple):
    atom: _Atom  # binders, and checks on slots this atom binds itself
    key_positions: tuple[int, ...]  # ascending
    key_of: Callable[[list], tuple]  # binding -> key on key_positions
    full: bool  # the key is the whole fact: probe by set membership


class _Plan(NamedTuple):
    seed: _Atom  # the driver atom
    steps: tuple[_JoinStep, ...]
    delta_step: int  # the step probing the delta; -1: the driver is the delta


@dataclass(frozen=True)
class CompiledRule:
    name: str
    head_relation: str
    head_of: Callable[[list], tuple]  # binding -> head fact
    binding: tuple  # initial binding: None per variable, then constant ids
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
    binding: list = [None] * n_vars

    def slot_of(arg) -> int:
        if isinstance(arg, Var):
            return slots[arg.name]
        if arg not in slots:
            slots[arg] = len(binding)
            binding.append(intern(arg))
        return slots[arg]

    atom_slots = [tuple(map(slot_of, p.args)) for p in body]
    constant_slots = set(range(n_vars, len(binding)))

    def split(k: int, bound: set[int]) -> tuple[tuple, tuple]:
        """(binders, checks) of atom ``k`` given the slots bound before it."""
        binders: list[tuple[int, int]] = []
        checks: list[tuple[int, int]] = []
        fresh: set[int] = set()
        for pos, slot in enumerate(atom_slots[k]):
            if slot in bound or slot in fresh:
                checks.append((pos, slot))
            else:
                binders.append((pos, slot))
                fresh.add(slot)
        return tuple(binders), tuple(checks)

    def plan(delta: int, driver: int) -> _Plan:
        bound = set(constant_slots)
        binders, checks = split(driver, bound)
        seed = _Atom(body[driver].relation, binders, checks)
        bound.update(slot for _, slot in binders)
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
            binders, checks = split(k, bound)
            keyed = [(pos, slot) for pos, slot in checks if slot in bound]
            # checks on slots bound within this same atom stay as post-checks
            post_checks = tuple(c for c in checks if c[1] not in bound)
            steps.append(
                _JoinStep(
                    _Atom(body[k].relation, binders, post_checks),
                    tuple(pos for pos, _ in keyed),
                    _key_getter(tuple(slot for _, slot in keyed)),
                    len(keyed) == len(atom_slots[k]),
                )
            )
            bound.update(slot for _, slot in binders)
        return _Plan(seed, tuple(steps), delta_step)

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
        _key_getter(tuple(map(slot_of, rule.head.args))),
        tuple(binding),
        plans,
        tuple(p.relation for p in body),
    )


def compile_rules(rules, intern) -> list[CompiledRule]:
    return [compile_rule(r, intern) for r in rules]


# -- evaluation -------------------------------------------------------------


class Budget:
    """Wall-clock deadline (``time.perf_counter`` seconds; ``None``: none),
    read once every ``_CHECK_EVERY`` ticks."""

    __slots__ = ("deadline", "left")

    def __init__(self, deadline: float | None = None) -> None:
        self.deadline = deadline
        self.left = _CHECK_EVERY  # ticks before the next look at the clock

    def check(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise BudgetExceeded("closure time budget exhausted")

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
                self.check()
                self.left = _CHECK_EVERY


def _fire(
    rule: CompiledRule,
    plan: _Plan,
    seed_facts,
    step_indexes: list,
    existing: set[IntFact],
    bucket: set[IntFact],
    budget: Budget,
) -> None:
    """Join ``seed_facts`` (the driver) through ``step_indexes`` (one per
    step: a hash index, or the fact set itself for a full-key step) and add
    the heads missing from ``existing`` to ``bucket``.  Ticks ``budget``
    once per driver fact and once per head."""
    steps = plan.steps
    head_of = rule.head_of
    binding = list(rule.binding)
    last = len(steps)
    left = budget.left

    def join(level: int) -> None:
        nonlocal left
        if level == last:
            left -= 1
            if not left:
                budget.check()
                left = _CHECK_EVERY
            head = head_of(binding)
            if head not in existing:
                bucket.add(head)
            return
        step = steps[level]
        key = step.key_of(binding)
        if step.full:
            if key in step_indexes[level]:
                join(level + 1)
            return
        candidates = step_indexes[level].get(key)
        if not candidates:
            return
        binders, checks = step.atom.binders, step.atom.checks
        for fact in candidates:
            for pos, slot in binders:
                binding[slot] = fact[pos]
            for pos, slot in checks:
                if binding[slot] != fact[pos]:
                    break
            else:
                join(level + 1)

    binders, checks = plan.seed.binders, plan.seed.checks
    try:
        for fact in seed_facts:
            left -= 1
            if not left:
                budget.check()
                left = _CHECK_EVERY
            for pos, slot in binders:
                binding[slot] = fact[pos]
            for pos, slot in checks:
                if binding[slot] != fact[pos]:
                    break
            else:
                join(0)
    finally:
        budget.left = left
        # ``join`` refers to itself through its closure cell; break that
        # cycle so this firing's indexes and buckets die with the call.
        join = None  # noqa: F841


def _step_indexes(
    plan: _Plan,
    store: FactStore,
    delta: dict[str, set[IntFact]],
    delta_indexes: dict[tuple[str, tuple[int, ...]], dict],
    budget: Budget,
) -> list:
    """What each step of ``plan`` probes: the round's delta for the delta
    step, the store for the others; a full-key step probes the fact set."""
    indexes = []
    for k, step in enumerate(plan.steps):
        rel, positions = step.atom.relation, step.key_positions
        if k != plan.delta_step:
            if step.full:
                index = store.facts(rel)
            else:
                index = store.get_index(rel, positions, budget)
        elif step.full:
            index = delta[rel]
        else:
            index = delta_indexes.get((rel, positions))
            if index is None:
                index = _build_index(delta[rel], positions, budget)
                delta_indexes[rel, positions] = index
        indexes.append(index)
    return indexes


def run_fixpoint(
    store: FactStore,
    rules: list[CompiledRule],
    budget: Budget | None = None,
) -> int:
    """Saturate the store under the rules; returns the number of new facts.
    Raises ``BudgetExceeded`` when the budget runs out; the store then holds
    every fact merged so far."""
    if budget is None:
        budget = Budget()
    delta: dict[str, set[IntFact]] = {
        rel: set(facts) for rel, facts in store.rels.items() if facts
    }
    added_total = 0
    rounds = 0
    while delta:
        budget.check()
        rounds += 1
        out: dict[str, set[IntFact]] = {}
        # Per-round delta indexes, shared by every rule of the round.
        delta_indexes: dict[tuple[str, tuple[int, ...]], dict] = {}
        driven = seeded = 0
        # Relations with no facts older than their delta.
        all_new = {rel for rel, facts in delta.items() if len(facts) == store.size(rel)}
        for rule in rules:
            body = rule.body_relations
            # A rule cannot fire while any of its body relations is empty.
            if any(not store.size(rel) for rel in body):
                continue
            existing = store.facts(rule.head_relation)
            bucket = out.setdefault(rule.head_relation, set())
            for i, rel in enumerate(body):
                seed_facts = delta.get(rel)
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
                indexes = _step_indexes(plan, store, delta, delta_indexes, budget)
                _fire(rule, plan, seed_facts, indexes, existing, bucket, budget)
                if rel in all_new:
                    # Every later delta atom's derivations use a new fact
                    # here, so this firing found them all.
                    break
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "round %d: delta %s; %d driver firings, %d delta-seeded",
                rounds,
                {rel: len(facts) for rel, facts in sorted(delta.items())},
                driven,
                seeded,
            )
        new_delta: dict[str, set[IntFact]] = {}
        for rel, facts in out.items():
            fresh = {f for f in budget.ticks(facts) if store.add(rel, f)}
            if fresh:
                new_delta[rel] = fresh
                added_total += len(fresh)
        delta = new_delta
    return added_total
