"""Naive bottom-up reference evaluator.

Deliberately dumb: every rule is a hand-written nested loop over the current
fact sets, and every iteration recomputes all rules from scratch until
nothing changes.  No deltas, no join planning, no shared rule machinery with
the engine; only the input side (parsing, assembly, axiom translation) is
reused, because those have their own round-trip tests.

The staged pipeline is duplicated here on purpose: global saturation,
association read-off, module/global seeding, local saturation.
"""
from __future__ import annotations

from collections import defaultdict

from ckrbench.calculus import translate_axiom, translate_rl
from ckrbench.model.repository import assemble_repository
from ckrbench.namespaces import CKR_NS, CTX_CLASS, GLOBAL_GRAPH, MOD_PROPERTY, NOMINAL_NS
from ckrbench.rdf.dataset import Dataset

_RDFS_STAGE = "rdfs"
_OWL_STAGE = "owl"

# regime -> (global stage, local stage or None, eval in local stage)
_REGIMES = {
    "ckr-rdfs-global": (_RDFS_STAGE, None, False),
    "ckr-owl-global": (_OWL_STAGE, None, False),
    "ckr-rdfs-local": (_RDFS_STAGE, _RDFS_STAGE, False),
    "ckr-owl-local": (_OWL_STAGE, _OWL_STAGE, True),
}


def _mentions_meta(axiom) -> bool:
    return any(
        t.kind == "iri" and (t.lexical.startswith(CKR_NS) or t.lexical.startswith(NOMINAL_NS))
        for t in axiom.args
    )


def _group_by_ctx(tuples, ctx_pos=-1):
    grouped = defaultdict(list)
    for t in tuples:
        grouped[t[ctx_pos]].append(t)
    return grouped


def _apply_rules(facts: dict[str, set], stage: str, with_eval: bool, g):
    """One full recomputation of every active rule; returns candidate facts."""
    out: set[tuple] = set()
    inst_c = _group_by_ctx(facts["inst"])
    triple_c = _group_by_ctx(facts["triple"])
    eq_c = _group_by_ctx(facts["eq"])

    for (y, z, c) in facts["subClass"]:
        for (x, y2, _) in inst_c.get(c, ()):
            if y2 == y:
                out.add(("inst", x, z, c))
    for (r, t, c) in facts["subRole"]:
        for (x, r2, w, _) in triple_c.get(c, ()):
            if r2 == r:
                out.add(("triple", x, t, w, c))

    if stage == _OWL_STAGE:
        for (y1, y2, z, c) in facts["subConj"]:
            for (x, cls, _) in inst_c.get(c, ()):
                if cls == y1 and (x, y2, c) in facts["inst"]:
                    out.add(("inst", x, z, c))
        for (r, y, z, c) in facts["subEx"]:
            for (x, r2, w, _) in triple_c.get(c, ()):
                if r2 == r and (w, y, c) in facts["inst"]:
                    out.add(("inst", x, z, c))
        for (y, r, a, c) in facts["subHasValue"]:
            for (x, cls, _) in inst_c.get(c, ()):
                if cls == y:
                    out.add(("triple", x, r, a, c))
        for (y, r, z, c) in facts["supAll"]:
            for (x, cls, _) in inst_c.get(c, ()):
                if cls != y:
                    continue
                for (x2, r2, w, _) in triple_c.get(c, ()):
                    if x2 == x and r2 == r:
                        out.add(("inst", w, z, c))
        for (y, r, z, c) in facts["supMax1"]:
            for (x, cls, _) in inst_c.get(c, ()):
                if cls != y:
                    continue
                for (x1, r1, w1, _) in triple_c.get(c, ()):
                    if x1 != x or r1 != r or (w1, z, c) not in facts["inst"]:
                        continue
                    for (x2, r2, w2, _) in triple_c.get(c, ()):
                        if x2 == x and r2 == r and (w2, z, c) in facts["inst"]:
                            out.add(("eq", w1, w2, c))
        for (r, s, c) in facts["invRole"]:
            for (x, r2, y, _) in triple_c.get(c, ()):
                if r2 == r:
                    out.add(("triple", y, s, x, c))
                if r2 == s:
                    out.add(("triple", y, r, x, c))
        for (r, s, t, c) in facts["subRChain"]:
            for (x, r2, y, _) in triple_c.get(c, ()):
                if r2 != r:
                    continue
                for (y2, s2, z, _) in triple_c.get(c, ()):
                    if y2 == y and s2 == s:
                        out.add(("triple", x, t, z, c))
        for (x, y, c) in facts["eq"]:
            out.add(("eq", y, x, c))
            for (x2, z, _) in eq_c.get(c, ()):
                if x2 == y:
                    out.add(("eq", x, z, c))
            for (x2, cls, _) in inst_c.get(c, ()):
                if x2 == x:
                    out.add(("inst", y, cls, c))
            for (s, r, o, _) in triple_c.get(c, ()):
                if s == x:
                    out.add(("triple", y, r, o, c))
                if o == x:
                    out.add(("triple", s, r, y, c))
        for (y, z, c) in facts["subClassNeg"]:
            for (x, cls, _) in inst_c.get(c, ()):
                if cls == y and (x, z, c) in facts["inst"]:
                    out.add(("unsat", c))
        for (r, s, c) in facts["disRole"]:
            for (x, r2, y, _) in triple_c.get(c, ()):
                if r2 == r and (x, s, y, c) in facts["triple"]:
                    out.add(("unsat", c))
        for (r, c) in facts["irrRole"]:
            for (x, r2, y, _) in triple_c.get(c, ()):
                if r2 == r and x == y:
                    out.add(("unsat", c))
        for (x, r, y, c) in facts["ntriple"]:
            if (x, r, y, c) in facts["triple"]:
                out.add(("unsat", c))
        for (x, y, c) in facts["neq"]:
            if (x, y, c) in facts["eq"]:
                out.add(("unsat", c))

    if with_eval:
        for (a, c1, b, c) in facts["subEval"]:
            for (cp, cls, gg) in facts["inst"]:
                if cls != c1 or gg != g:
                    continue
                for (x, a2, _) in inst_c.get(cp, ()):
                    if a2 == a:
                        out.add(("inst", x, b, c))
        for (r, c1, s, c) in facts["subEvalR"]:
            for (cp, cls, gg) in facts["inst"]:
                if cls != c1 or gg != g:
                    continue
                for (x, r2, y, _) in triple_c.get(cp, ()):
                    if r2 == r:
                        out.add(("triple", x, s, y, c))

    return out


def _saturate(facts: dict[str, set], stage: str, with_eval: bool, g) -> None:
    while True:
        grew = False
        for f in _apply_rules(facts, stage, with_eval, g):
            rel, args = f[0], f[1:]
            bucket = facts[rel]
            if args not in bucket:
                bucket.add(args)
                grew = True
        if not grew:
            return


def naive_closure(dataset: Dataset, regime_id: str) -> frozenset:
    """All facts (asserted and derived) of the closure, as (relation, *terms)."""
    global_stage, local_stage, with_eval = _REGIMES[regime_id]
    repo = assemble_repository(dataset)
    g = GLOBAL_GRAPH

    facts: dict[str, set] = defaultdict(set)

    def store(new) -> None:
        for f in new:
            facts[f[0]].add(f[1:])

    for axiom in repo.global_axioms:
        store(translate_rl(axiom, g))
    _saturate(facts, global_stage, False, g)

    contexts = {
        args[0]
        for args in facts["inst"]
        if args[1] == CTX_CLASS and args[2] == g
    }
    assoc = {
        (args[0], args[2])
        for args in facts["triple"]
        if args[1] == MOD_PROPERTY and args[3] == g and args[0] in contexts
    }

    if local_stage is not None:
        propagated = [a for a in repo.global_axioms if not _mentions_meta(a)]
        for (c, m) in assoc:
            for axiom in repo.modules[m].axioms:
                store(translate_axiom(axiom, c))
        for c in contexts:
            for axiom in propagated:
                store(translate_rl(axiom, c))
        _saturate(facts, local_stage, with_eval, g)

    return frozenset(
        (rel, *args) for rel, bucket in facts.items() for args in bucket
    )
