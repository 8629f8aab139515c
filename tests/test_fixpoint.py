"""Rule-by-rule fixpoint behaviour against hand-enumerated closures.

Each deduction rule gets a micro fact base and the full expected derived
set, computed by hand; the fixpoint runs with only the rules under test so
the enumeration stays auditable.
"""
import logging
import random
import re
from collections import defaultdict
from types import SimpleNamespace

import pytest

from ckrbench.engine import fixpoint
from ckrbench.engine.fixpoint import Budget, FactStore, compile_rules, run_fixpoint
from ckrbench.errors import BudgetExceeded
from ckrbench.engine.rules import EVAL_RULES, RL_RULES, SUBSUMPTION_RULES
from ckrbench.namespaces import GLOBAL_GRAPH
from ckrbench.rdf.terms import TermTable
from oracle import _saturate
from util import gen

G = GLOBAL_GRAPH
RULES = {r.name: r for r in RL_RULES + EVAL_RULES}


def interned(table, facts):
    """Term-level facts as a fact set per relation, interned in ``table``."""
    rels = defaultdict(set)
    for f in facts:
        rels[f[0]].add(tuple(table.intern(t) for t in f[1:]))
    return rels


def close(facts, rule_names):
    """Term-level facts in, closed term-level fact set out."""
    table = TermTable()
    store = FactStore()
    for rel, encs in interned(table, facts).items():
        store.merge(rel, encs)
    rules = compile_rules([RULES[n] for n in rule_names], table.intern)
    run_fixpoint(store, rules, Budget())
    return {
        (rel, *(table.term(i) for i in enc))
        for rel, bucket in store.rels.items()
        for enc in bucket
    }


A, B, C, D = gen("A"), gen("B"), gen("C"), gen("D")
R, S, T = gen("R"), gen("S"), gen("T")
x, y, z, v1, v2 = gen("x"), gen("y"), gen("z"), gen("v1"), gen("v2")
c, c2 = gen("c"), gen("c2")


def test_empty_base_stays_empty():
    assert close([], ["sub-class"]) == set()


def test_subclass_rule_single_step():
    base = [("subClass", A, B, c), ("inst", x, A, c)]
    assert close(base, ["sub-class"]) == set(base) | {("inst", x, B, c)}


def test_subclass_chain_of_three():
    base = [
        ("subClass", A, B, c),
        ("subClass", B, C, c),
        ("subClass", C, D, c),
        ("inst", x, A, c),
    ]
    derived = {("inst", x, B, c), ("inst", x, C, c), ("inst", x, D, c)}
    assert close(base, ["sub-class"]) == set(base) | derived


def test_subclass_respects_context():
    base = [("subClass", A, B, c), ("inst", x, A, c2)]
    assert close(base, ["sub-class"]) == set(base)


def test_conjunction_rule():
    base = [("subConj", A, B, C, c), ("inst", x, A, c), ("inst", x, B, c), ("inst", y, A, c)]
    assert close(base, ["sub-conj"]) == set(base) | {("inst", x, C, c)}


def test_existential_body_rule():
    base = [("subEx", R, A, B, c), ("triple", x, R, y, c), ("inst", y, A, c)]
    assert close(base, ["sub-ex"]) == set(base) | {("inst", x, B, c)}


def test_has_value_rule():
    base = [("subHasValue", A, R, v1, c), ("inst", x, A, c)]
    assert close(base, ["has-value"]) == set(base) | {("triple", x, R, v1, c)}


def test_all_values_rule():
    base = [("supAll", A, R, B, c), ("inst", x, A, c), ("triple", x, R, y, c)]
    assert close(base, ["all-values"]) == set(base) | {("inst", y, B, c)}


def test_max_one_rule_derives_all_equality_pairs():
    base = [
        ("supMax1", A, R, B, c),
        ("inst", x, A, c),
        ("triple", x, R, v1, c),
        ("triple", x, R, v2, c),
        ("inst", v1, B, c),
        ("inst", v2, B, c),
    ]
    derived = {
        ("eq", v1, v1, c),
        ("eq", v1, v2, c),
        ("eq", v2, v1, c),
        ("eq", v2, v2, c),
    }
    assert close(base, ["max-one"]) == set(base) | derived


def test_subrole_rule():
    base = [("subRole", R, T, c), ("triple", x, R, y, c)]
    assert close(base, ["sub-role"]) == set(base) | {("triple", x, T, y, c)}


def test_inverse_role_both_directions():
    base = [
        ("invRole", R, S, c),
        ("triple", x, R, y, c),
        ("triple", v1, S, v2, c),
    ]
    derived = {("triple", y, S, x, c), ("triple", v2, R, v1, c)}
    assert close(base, ["inv-role-fwd", "inv-role-bwd"]) == set(base) | derived


def test_role_chain_rule():
    base = [
        ("subRChain", R, S, T, c),
        ("triple", x, R, y, c),
        ("triple", y, S, z, c),
    ]
    assert close(base, ["role-chain"]) == set(base) | {("triple", x, T, z, c)}


def test_equality_symmetry_and_transitivity_close_the_clique():
    a_, b_, d_ = gen("ea"), gen("eb"), gen("ed")
    base = [("eq", a_, b_, c), ("eq", b_, d_, c)]
    expected = {("eq", u, v, c) for u in (a_, b_, d_) for v in (a_, b_, d_)}
    assert close(base, ["eq-sym", "eq-trans"]) == expected


def test_equality_congruence_copies_memberships_and_edges():
    base = [
        ("eq", x, y, c),
        ("inst", x, A, c),
        ("triple", x, R, z, c),
        ("triple", z, S, x, c),
    ]
    derived = {
        ("inst", y, A, c),
        ("triple", y, R, z, c),
        ("triple", z, S, y, c),
    }
    assert close(base, ["eq-class", "eq-subject", "eq-object"]) == set(base) | derived


@pytest.mark.parametrize(
    "name,base",
    [
        ("neg-class", [("subClassNeg", A, B, c), ("inst", x, A, c), ("inst", x, B, c)]),
        ("dis-role", [("disRole", R, S, c), ("triple", x, R, y, c), ("triple", x, S, y, c)]),
        ("irr-role", [("irrRole", R, c), ("triple", x, R, x, c)]),
        ("neg-triple", [("ntriple", x, R, y, c), ("triple", x, R, y, c)]),
        ("neq-eq", [("neq", x, y, c), ("eq", x, y, c)]),
    ],
)
def test_inconsistency_rules_flag_only_their_context(name, base):
    closed = close(base + [("inst", x, A, c2)], [name])
    assert ("unsat", c) in closed
    assert ("unsat", c2) not in closed


def test_repeated_variable_is_checked_in_a_driver_plan():
    # Round 2's delta holds 21 T edges against one irrRole fact, so irr-role
    # drives from irrRole and meets triple(x, T, x) as a probed step.
    base = [("irrRole", T, c), ("subRole", R, T, c), ("triple", z, R, z, c)]
    base += [("triple", gen(f"u{k}"), R, gen(f"w{k}"), c) for k in range(20)]
    assert ("unsat", c) in close(base, ["irr-role", "sub-role"])


def test_eval_rule_moves_membership_across_contexts():
    base = [
        ("subEval", A, C, B, c),
        ("inst", c2, C, G),
        ("inst", x, A, c2),
    ]
    assert close(base, ["eval-class"]) == set(base) | {("inst", x, B, c)}


def test_eval_role_rule():
    base = [
        ("subEvalR", R, C, S, c),
        ("inst", c2, C, G),
        ("triple", x, R, y, c2),
    ]
    assert close(base, ["eval-role"]) == set(base) | {("triple", x, S, y, c)}


MICRO_BASE = [
    ("subClass", A, B, c),
    ("subClass", B, C, c),
    ("subConj", B, C, D, c),
    ("subRole", R, S, c),
    ("invRole", S, T, c),
    ("inst", x, A, c),
    ("triple", x, R, y, c),
    ("eq", x, y, c),
    ("neq", x, y, c),
]


def data_heavy_base():
    """The micro base under a few hundred more data facts: the data
    relations outgrow the schema ones, so rules take driver plans."""
    rng = random.Random(0)
    people = [gen(f"i{k}") for k in range(40)]
    base = set(MICRO_BASE)
    while len(base) < 300:
        u, v = rng.choice(people), rng.choice(people)
        kind = rng.random()
        if kind < 0.45:
            base.add(("inst", u, rng.choice((A, B, C, D)), c))
        elif kind < 0.98:
            # a third of the edges sit in c2, where no schema applies
            ctx = rng.choice((c, c, c2))
            base.add(("triple", u, rng.choice((R, S, T)), v, ctx))
        else:
            base.add(("eq", u, v, c))
    return sorted(base)


def oracle_close(facts):
    """The same facts closed by the naive oracle under every rule."""
    by_rel = defaultdict(set)
    for f in facts:
        by_rel[f[0]].add(f[1:])
    _saturate(by_rel, "owl", True, G)
    return {(rel, *args) for rel, bucket in by_rel.items() for args in bucket}


def test_rule_order_does_not_change_the_fixpoint(caplog):
    names = list(RULES)
    for base in (MICRO_BASE, data_heavy_base()):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="ckrbench.engine.fixpoint"):
            reference = close(base, names)
        assert reference == oracle_close(base)
        for seed in range(4):
            shuffled = names[:]
            random.Random(seed).shuffle(shuffled)
            assert close(base, shuffled) == reference
    # one DEBUG line per round; the data-heavy base drives from schema atoms
    rounds = [
        r.getMessage() for r in caplog.records if r.name == "ckrbench.engine.fixpoint"
    ]
    assert rounds[0].startswith("round 1: delta {")
    driven = [int(re.search(r"(\d+) driver firings", m)[1]) for m in rounds]
    assert sum(driven) > 0


def test_round_one_fires_each_rule_once(caplog):
    # Every relation is new in round 1, so each rule whose body relations
    # all have facts fires from its first delta atom only.
    for base in (MICRO_BASE, data_heavy_base()):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="ckrbench.engine.fixpoint"):
            close(base, list(RULES))
        first = next(
            r.getMessage() for r in caplog.records if r.name == "ckrbench.engine.fixpoint"
        )
        found = re.search(r"round 1: .*; (\d+) driver firings, (\d+) delta-seeded", first)
        present = {f[0] for f in base}
        ready = [r for r in RULES.values() if all(p.relation in present for p in r.body)]
        assert any(len(r.body) > 1 for r in ready)
        assert int(found[1]) + int(found[2]) == len(ready)


def test_budget_stops_a_long_round_barrier(monkeypatch):
    # Round 1 derives 30,000 facts in one quick join.  Merging a fact moves
    # a fake clock by 1 ms, so the barrier alone would run 30 s, 20 s past
    # the deadline; it stops at its first look at the clock after 10 s.
    clock = [0.0]
    monkeypatch.setattr(fixpoint, "time", SimpleNamespace(perf_counter=lambda: clock[0]))

    class SlowStore(FactStore):
        def merge(self, relation, facts):
            def slow(facts):
                for fact in facts:
                    clock[0] += 0.001
                    yield fact

            super().merge(relation, slow(facts))

    table = TermTable()
    store = SlowStore()
    n = 30_000
    base = [("subClass", A, B, c)] + [("inst", gen(f"x{k}"), A, c) for k in range(n)]
    for rel, encs in interned(table, base).items():
        FactStore.merge(store, rel, encs)  # seeded past the slow merge
    rules = compile_rules([RULES["sub-class"]], table.intern)
    with pytest.raises(BudgetExceeded):
        run_fixpoint(store, rules, Budget(deadline=10.0))
    merged = len(store) - len(base)
    assert 10_000 <= merged <= 10_000 + fixpoint._CHECK_EVERY
    # what the barrier merged stays in the store, and nothing else
    assert clock[0] == pytest.approx(merged * 0.001)
    b = table.lookup(B)
    assert sum(1 for f in store.facts("inst") if f[1] == b) == merged


@pytest.mark.parametrize("positions", [(1,), (0, 2)], ids=["one-position", "two-position"])
@pytest.mark.parametrize("delta", [False, True], ids=["store", "delta-store"])
def test_an_index_extended_by_merges_equals_one_built_after_them(positions, delta):
    # The store is seeded by merges; a round's delta store is made from its
    # fact sets, as at the barrier.  Either way, an index built before a run
    # of merges and extended by them holds what one built after them holds.
    rng = random.Random(7)
    facts = list({tuple(rng.randrange(8) for _ in range(3)) for _ in range(300)})
    first, runs = facts[:40], [facts[40:100], facts[100:101], facts[101:]]
    step = fixpoint._JoinStep("triple", positions, False)

    def seeded():
        if delta:
            return FactStore({"triple": set(first)})
        store = FactStore()
        store.merge("triple", first)
        return store

    early, late, budget = seeded(), seeded(), Budget()
    index = early.probe(step, budget)
    assert budget.spent == len(first)  # one tick per fact indexed
    for run in runs:
        early.merge("triple", run)
        late.merge("triple", run)
    assert early.probe(step, budget) is index
    built = late.probe(step, budget)
    assert budget.spent == len(first) + len(facts)

    def content(ix):
        return {key: sorted(hit) for key, hit in ix.items()}

    assert content(index) == content(built)
    assert sorted(f for hit in built.values() for f in hit) == sorted(facts)
    assert all(key == tuple(f[p] for p in positions) for key, hit in built.items() for f in hit)


def test_generated_joins_are_shared_by_shape(monkeypatch):
    # Two term tables intern the eval rules' constant (the global context)
    # first and last, so the rules carry different constant ids; the
    # closures still fire the same generated functions, one per plan shape.
    rules = [RULES[n] for n in ("eval-class", "eval-role", "sub-class", "role-chain")]
    base = data_heavy_base() + [
        ("subEval", A, C, B, c),
        ("subEvalR", R, C, S, c),
        ("subRChain", R, S, T, c),
        ("inst", c2, C, G),
        ("inst", x, A, c2),
        ("triple", x, R, y, c2),
    ]
    fired = []
    real = fixpoint._generated

    def recording(cache, source_of, shape):
        code = real(cache, source_of, shape)
        if cache is fixpoint._JOINS:
            fired.append(code)
        return code

    monkeypatch.setattr(fixpoint, "_generated", recording)
    runs = []
    for global_first in (True, False):
        table = TermTable()
        if global_first:
            table.intern(G)
        store = FactStore()
        for rel, encs in interned(table, base).items():
            store.merge(rel, encs)
        compiled = compile_rules(rules, table.intern)
        del fired[:]
        run_fixpoint(store, compiled, Budget())
        constants = [r.constants for r in compiled]
        closed = {(rel, *map(table.term, enc)) for rel, b in store.rels.items() for enc in b}
        runs.append((constants, fired[:], closed, table))
    (constants1, fired1, closed1, table1), (constants2, fired2, closed2, table2) = runs
    assert constants1 != constants2
    assert closed1 == closed2 and len(closed1) > len(base)
    assert len(fired1) == len(fired2) > 0
    assert all(a is b for a, b in zip(fired1, fired2))
    # no generated source holds term text, nor any string literal
    sources = [fixpoint._join_source(s) for s in fixpoint._JOINS]
    sources += [fixpoint._appender_source(s) for s in fixpoint._APPENDERS]
    lexicals = {t.lexical for table in (table1, table2) for t in table.terms}
    for source in sources:
        assert '"' not in source and "'" not in source
        assert not [lex for lex in lexicals if lex in source]


def test_range_restriction_enforced():
    from ckrbench.engine.rules import Pattern, Rule, Var

    with pytest.raises(ValueError, match="range-restricted"):
        Rule(
            "bad",
            Pattern("inst", (Var("x"), Var("nope"), Var("c"))),
            (Pattern("inst", (Var("x"), Var("y"), Var("c"))),),
        )


def test_rdfs_subset_is_two_rules():
    assert {r.name for r in SUBSUMPTION_RULES} == {"sub-class", "sub-role"}
