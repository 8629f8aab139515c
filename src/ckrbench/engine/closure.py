"""Staged closure computation over an assembled repository.

The regime's rules are compiled once per closure, and every stage runs that
one program.  Stage "global" saturates the translated global knowledge.
Stage "assoc" reads the context set and the context-module associations out
of that closure.  Stage "local" (local regimes only) seeds every context with
its module knowledge plus the object-level part of the global knowledge and
runs one joint fixpoint across all contexts, so eval chains between contexts
resolve no matter how deep they go.

Derived facts are written back as quads into one inference graph per context
(base graph name + ``-inf``) plus one for the global context; asserted
knowledge is never duplicated there.  The global inference graph also links
each context to its inference graph, which makes a closed dataset reload as
an already-closed repository: a second pass infers nothing.  Inference quads
come out in no particular order; ordering belongs to the writer.

The engine keeps one fact representation, the integer fact sets plus the
term table; ``ClosureResult.facts`` is a read-only view over them that
decodes terms on demand.  The closure never writes to the repository.
"""
from __future__ import annotations

import gc
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ckrbench import calculus as cal
from ckrbench.calculus import Fact
from ckrbench.engine.fixpoint import (
    Budget,
    FactStore,
    IntFact,
    compile_rules,
    run_fixpoint,
)
from ckrbench.engine.rules import Regime
from ckrbench.errors import (
    AssemblyError,
    BudgetExceeded,
    InstanceQueryError,
    UnknownContextError,
)
from ckrbench.model.axioms import Axiom
from ckrbench.model.encoding import encode_axiom, skolem_minter
from ckrbench.model.repository import CkrRepository
from ckrbench.namespaces import (
    CTX_CLASS,
    GLOBAL_GRAPH,
    INCONSISTENT_CLASS,
    MOD_PROPERTY,
    OWL_SAMEAS,
    RDF_TYPE,
    inference_graph,
)
from ckrbench.rdf.dataset import Dataset, Quad, is_valid_quad
from ckrbench.rdf.terms import Term, TermTable

logger = logging.getLogger(__name__)

#: Default closure budget: thirty minutes.
DEFAULT_BUDGET_MILLIS = 1_800_000


class FactView:
    """Read-only term-level view of the closure's integer-encoded facts.

    Facts read as tuples ``(relation, *terms)`` with the context last.  A
    lookup never interns its query terms: a fact naming a term that the
    closure never saw is simply absent.
    """

    __slots__ = ("_rels", "_table")

    def __init__(self, rels: dict[str, set[IntFact]], table: TermTable) -> None:
        self._rels = rels
        self._table = table

    def _decode(self, relation: str, enc: IntFact) -> Fact:
        return (relation, *map(self._table.term, enc))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._rels.values())

    def __contains__(self, f: Fact) -> bool:
        enc = tuple(map(self._table.lookup, f[1:]))
        return None not in enc and enc in self._rels.get(f[0], ())

    def __iter__(self) -> Iterator[Fact]:
        for relation, bucket in self._rels.items():
            for enc in bucket:
                yield self._decode(relation, enc)

    def relation(self, relation: str) -> frozenset:
        return frozenset(
            self._decode(relation, enc) for enc in self._rels.get(relation, ())
        )

    def match(self, relation: str, *pattern: Term | None) -> list[Fact]:
        """Facts of a relation whose arguments unify with the pattern
        (``None`` is a wildcard over one argument incl. the context)."""
        lookup = self._table.lookup
        ids = [None if t is None else lookup(t) for t in pattern]
        if ids.count(None) != pattern.count(None):
            return []  # a term the closure never saw matches nothing
        return [
            self._decode(relation, enc)
            for enc in self._rels.get(relation, ())
            if all(i is None or i == v for i, v in zip(ids, enc))
        ]

    def as_set(self) -> frozenset:
        return frozenset(self)


@dataclass
class ClosureResult:
    regime_id: str
    facts: FactView
    asserted_fact_count: int
    inferred_fact_count: int
    asserted_quad_count: int
    inferred_quad_count: int
    per_stage_ms: dict[str, float]
    total_ms: float
    contexts: set[Term]
    mod_assoc: set[tuple[Term, Term]]
    inconsistent_contexts: set[Term]
    inference_quads: list[Quad]
    timed_out: bool
    ticks: int  # budget ticks taken, reached so far when timed out
    _source: Dataset

    def closed_dataset(self) -> Dataset:
        """Asserted input plus all inference graphs."""
        out = self._source.copy()
        out.add_quads(self.inference_quads)
        return out


@contextmanager
def _stage(stage_ms: dict[str, float], name: str) -> Iterator[None]:
    """Add the time spent in the block to ``stage_ms[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        took = (time.perf_counter() - start) * 1000.0
        stage_ms[name] = stage_ms.get(name, 0.0) + took


def compute_closure(
    repo: CkrRepository,
    regime: Regime,
    budget_millis: int = DEFAULT_BUDGET_MILLIS,
) -> ClosureResult:
    # The engine allocates only acyclic containers; generational collection
    # would otherwise rescan the growing fact heap and skew large closures.
    if gc.isenabled():
        gc.disable()
        try:
            return compute_closure(repo, regime, budget_millis)
        finally:
            gc.enable()
    t0 = time.perf_counter()
    budget = Budget(t0 + budget_millis / 1000.0)
    stage_ms: dict[str, float] = {}
    table = TermTable()
    store = FactStore()
    asserted: dict[str, set[IntFact]] = {}  # asserted facts per relation

    def add_facts(translate, axioms, context: Term, *, is_asserted: bool) -> None:
        facts = (f for ax in axioms for f in translate(ax, context))
        new: dict[str, set[IntFact]] = {}
        for f in budget.ticks(facts):
            new.setdefault(f[0], set()).add(tuple(map(table.intern, f[1:])))
        for rel, encs in new.items():
            if is_asserted:
                asserted.setdefault(rel, set()).update(encs)
            store.merge(rel, encs - store.facts(rel))

    timed_out = False
    contexts: set[Term] = set()
    mod_assoc: set[tuple[Term, Term]] = set()
    inference_quads: list[Quad] = []
    inconsistent: set[Term] = set()

    try:
        with _stage(stage_ms, "global"):
            add_facts(cal.translate_rl, repo.global_axioms, GLOBAL_GRAPH, is_asserted=True)
            program = compile_rules(regime.rules, table.intern)
            run_fixpoint(store, program, budget)

        with _stage(stage_ms, "assoc"):
            contexts, mod_assoc = _read_associations(store, table, repo)

        if regime.local:
            with _stage(stage_ms, "local"):
                not_iri = [c for c in contexts if c.kind != "iri"]
                if not_iri:
                    raise AssemblyError(
                        f"context {min(not_iri)!r} is not an IRI, so it cannot "
                        "name an inference graph"
                    )
                propagated = repo.global_object_axioms()
                for c in contexts:
                    kb = repo.context_kb(c, mod_assoc)
                    add_facts(cal.translate_axiom, kb, c, is_asserted=True)
                    add_facts(cal.translate_rl, propagated, c, is_asserted=False)
                run_fixpoint(store, program, budget)

        with _stage(stage_ms, "materialize"):
            inference_quads, inconsistent = _materialize(
                store, table, asserted, repo, contexts, budget
            )
    except BudgetExceeded:
        timed_out = True

    asserted_facts = sum(len(bucket) for bucket in asserted.values())
    total_facts = len(store)
    result = ClosureResult(
        regime_id=regime.id,
        # the rels only: the store's join indexes are freed on return
        facts=FactView(store.rels, table),
        asserted_fact_count=asserted_facts,
        inferred_fact_count=total_facts - asserted_facts,
        asserted_quad_count=len(repo.dataset),
        inferred_quad_count=len(inference_quads),
        per_stage_ms=stage_ms,
        total_ms=(time.perf_counter() - t0) * 1000.0,
        contexts=contexts,
        mod_assoc=mod_assoc,
        inconsistent_contexts=inconsistent,
        inference_quads=inference_quads,
        timed_out=timed_out,
        ticks=budget.spent,
        _source=repo.dataset,
    )
    logger.debug(
        "closure %s: %d asserted / %d inferred facts, %d inferred quads, %.1f ms",
        regime.id,
        result.asserted_fact_count,
        result.inferred_fact_count,
        result.inferred_quad_count,
        result.total_ms,
    )
    return result


def _read_associations(
    store: FactStore, table: TermTable, repo: CkrRepository
) -> tuple[set[Term], set[tuple[Term, Term]]]:
    g_id = table.intern(GLOBAL_GRAPH)
    ctx_id = table.intern(CTX_CLASS)
    mod_id = table.intern(MOD_PROPERTY)

    contexts: set[Term] = set()
    for fact in store.facts(cal.INST):
        if fact[1] == ctx_id and fact[2] == g_id:
            contexts.add(table.term(fact[0]))

    mod_assoc: set[tuple[Term, Term]] = set()
    ctx_ids = {table.intern(c) for c in contexts}
    for fact in store.facts(cal.TRIPLE):
        if fact[1] == mod_id and fact[3] == g_id and fact[0] in ctx_ids:
            ctx_term = table.term(fact[0])
            mod_term = table.term(fact[2])
            if mod_term not in repo.modules:
                raise AssemblyError(
                    f"derived module link {ctx_term!r} -> {mod_term!r} "
                    "references a graph absent from the dataset"
                )
            mod_assoc.add((ctx_term, mod_term))
    return contexts, mod_assoc


#: The fixed predicate of the relations whose quad is (arg 0, predicate, arg 1).
_FIXED_PREDICATE = {cal.INST: RDF_TYPE, cal.EQ: OWL_SAMEAS}


def _materialize(
    store: FactStore,
    table: TermTable,
    asserted: dict[str, set[IntFact]],
    repo: CkrRepository,
    contexts: set[Term],
    budget: Budget,
) -> tuple[list[Quad], set[Term]]:
    """The quads, each once, of every non-asserted fact that the dataset
    lacks and can hold, plus the module links of the inference graphs they go
    to, in no particular order; and the inconsistent contexts.  A fact whose
    quad no dataset holds (a literal subject, a predicate that is not an IRI)
    stays in the facts only.  Ticks ``budget`` once per fact.

    ``inst``, ``triple`` and ``eq`` facts take a fast path in term-id space:
    each quad is built once from the id-to-term list, and its validity
    follows from the kinds of its subject and predicate (the inference graph
    is an IRI).  Other relations go through ``_fact_triples``.  The dataset
    is probed for a quad only when it holds the quad's inference graph, as
    it does when a closed dataset is closed again."""
    dataset = repo.dataset
    terms = table.terms
    unsat = store.rels.get(cal.UNSAT, ())
    inconsistent = {terms[enc[0]] for enc in unsat}
    # unsat(c) has the quad of inst(c, ckr:Inconsistent, c): write it for
    # the inst fact alone when that fact is derived too.  No axiom asserts
    # unsat, and the quads stay a list in fact order: hashing all of them
    # makes materialize grow faster than the fact count.
    inc = table.lookup(INCONSISTENT_CLASS)
    inst = store.rels.get(cal.INST, ())
    asserted_inst = asserted.get(cal.INST, ())
    skip = {**asserted, cal.UNSAT: {
        enc for enc in unsat
        if (twin := (enc[0], inc, enc[0])) in inst and twin not in asserted_inst
    }}
    # context id -> (its inference graph, whether the dataset holds that graph)
    targets: dict[int, tuple[Term, bool]] = {}

    def target(c: int) -> tuple[Term, bool]:
        graph = inference_graph(terms[c])
        found = targets[c] = (graph, dataset.has_graph(graph))
        return found

    linked: set[int] = set()  # contexts that received a quad
    quads: list[Quad] = []
    for rel, bucket in store.rels.items():
        known = skip.get(rel, ())
        facts = budget.ticks(bucket)
        predicate = _FIXED_PREDICATE.get(rel)
        if predicate is None and rel != cal.TRIPLE:
            for enc in facts:
                if enc in known:
                    continue
                c = enc[-1]
                graph, held = targets.get(c) or target(c)
                for s, p, o in _fact_triples((rel, *map(terms.__getitem__, enc))):
                    quad = Quad(s, p, o, graph)
                    if not (held and quad in dataset) and is_valid_quad(quad):
                        quads.append(quad)
                        linked.add(c)
            continue
        for enc in facts:
            if enc in known:
                continue
            if predicate is None:  # triple
                s, p, o, c = enc
                p = terms[p]
                if p.kind != "iri":
                    continue
            else:
                s, o, c = enc
                p = predicate
            s = terms[s]
            if s.kind == "literal":
                continue
            graph, held = targets.get(c) or target(c)
            quad = Quad(s, p, terms[o], graph)
            if not (held and quad in dataset):
                quads.append(quad)
                linked.add(c)

    g_inf = inference_graph(GLOBAL_GRAPH)
    for c in linked:
        ctx = terms[c]
        if ctx != GLOBAL_GRAPH and ctx in contexts:
            link = Quad(ctx, MOD_PROPERTY, targets[c][0], g_inf)
            if link not in dataset:
                quads.append(link)
    return quads, inconsistent


def _fact_triples(f: Fact) -> list[tuple[Term, Term, Term]]:
    rel = f[0]
    if rel == cal.UNSAT:
        return [(f[1], RDF_TYPE, INCONSISTENT_CLASS)]
    mint = skolem_minter(rel, *map(_skolem_part, f[1:]))
    return encode_axiom(cal.fact_to_axiom(f), mint)


def _skolem_part(t: Term) -> str:
    """A term as a skolem key part: a literal keeps its datatype, so it
    collides neither with a literal of another datatype nor with an IRI."""
    return f'"{t.lexical}"^^{t.datatype}' if t.kind == "literal" else t.lexical


def check_entailment(
    repo: CkrRepository,
    axiom: Axiom,
    context: Term,
    regime: Regime,
    budget_millis: int = DEFAULT_BUDGET_MILLIS,
) -> bool:
    """True when the repository entails the assertion in the context."""
    if not axiom.is_assertion:
        raise InstanceQueryError(f"not an instance query: {axiom!r}")
    result = compute_closure(repo, regime, budget_millis)
    if result.timed_out:
        raise BudgetExceeded("closure timed out before the entailment check")
    if context != GLOBAL_GRAPH and context not in result.contexts:
        raise UnknownContextError(f"unknown context: {context!r}")
    return cal.output_translation(axiom, context) in result.facts
