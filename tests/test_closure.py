"""Staged closure: stages, propagation, eval chains, entailment checking."""
import gc
import hashlib
import random
import time
from types import SimpleNamespace

import pytest

from ckrbench import calculus as cal
from ckrbench.engine import closure as closure_module
from ckrbench.engine import fixpoint
from ckrbench.engine.closure import _fact_triples, check_entailment, compute_closure
from ckrbench.engine.rules import REGIME_IDS, instantiate_ruleset
from ckrbench.errors import AssemblyError, InstanceQueryError, UnknownContextError
from ckrbench.generator import (
    build_ts1,
    build_ts2,
    generate_ckr,
    target_concept,
    ts_individual,
)
from ckrbench.model import axioms as ax
from ckrbench.model.axioms import axiom
from ckrbench.model.encoding import parse_axioms
from ckrbench.model.repository import assemble_repository
from ckrbench.namespaces import (
    CTX_CLASS,
    GLOBAL_GRAPH,
    INCONSISTENT_CLASS,
    MOD_PROPERTY,
    RDF_TYPE,
    XSD_INTEGER,
    inference_graph,
    nominal_class,
)
from ckrbench.rdf.dataset import Dataset, Quad, is_valid_quad
from ckrbench.rdf.terms import blank, iri, literal
from ckrbench.rdf.trig import load_dataset, write_dataset
from util import gen, random_ckr_params, run_python, trig

G = GLOBAL_GRAPH
OWL_LOCAL = instantiate_ruleset("ckr-owl-local")


def closure(dataset, regime_id="ckr-owl-local", budget=60_000):
    repo = assemble_repository(dataset)
    return compute_closure(repo, instantiate_ruleset(regime_id), budget)


@pytest.mark.parametrize("regime_id", REGIME_IDS)
def test_empty_repository_infers_nothing(regime_id):
    result = closure(Dataset(), regime_id)
    assert result.inferred_fact_count == 0
    assert result.inferred_quad_count == 0
    assert not result.timed_out


def test_regime_stages():
    stages = {r: list(closure(Dataset(), r).per_stage_ms) for r in REGIME_IDS}
    assert stages == {
        "ckr-rdfs-global": ["global", "assoc", "materialize"],
        "ckr-rdfs-local": ["global", "assoc", "local", "materialize"],
        "ckr-owl-global": ["global", "assoc", "materialize"],
        "ckr-owl-local": ["global", "assoc", "local", "materialize"],
    }
    rdfs_local = instantiate_ruleset("ckr-rdfs-local")
    assert {r.name for r in rdfs_local.rules} == {"sub-class", "sub-role"}
    owl_local_names = {r.name for r in OWL_LOCAL.rules}
    assert {"eval-class", "eval-role"} <= owl_local_names
    assert {r.name for r in instantiate_ruleset("ckr-owl-global").rules} == (
        owl_local_names - {"eval-class", "eval-role"}
    )
    with pytest.raises(ValueError, match="unknown regime"):
        instantiate_ruleset("ckr-unknown")


def test_three_context_eval_chain_matches_hand_enumeration():
    d = trig(
        "ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . :c1 a ckr:Ctx ; ckr:mod :m1 . "
        ":c2 a ckr:Ctx ; ckr:mod :m2 . } "
        ":m0 { [ ckr:evalOf :D1 ; ckr:evalIn [ owl:oneOf ( :c1 ) ] ] rdfs:subClassOf :D2 . } "
        ":m1 { [ ckr:evalOf :D0 ; ckr:evalIn [ owl:oneOf ( :c2 ) ] ] rdfs:subClassOf :D1 . } "
        ":m2 { :x a :D0 . }"
    )
    result = closure(d)
    c0, c1, c2 = gen("c0"), gen("c1"), gen("c2")
    nom = nominal_class
    expected = {
        # global structure
        ("inst", c0, CTX_CLASS, G),
        ("inst", c1, CTX_CLASS, G),
        ("inst", c2, CTX_CLASS, G),
        ("triple", c0, MOD_PROPERTY, gen("m0"), G),
        ("triple", c1, MOD_PROPERTY, gen("m1"), G),
        ("triple", c2, MOD_PROPERTY, gen("m2"), G),
        # local translations
        ("subEval", gen("D1"), nom(c1), gen("D2"), c0),
        ("subEval", gen("D0"), nom(c2), gen("D1"), c1),
        ("inst", c1, nom(c1), G),
        ("inst", c2, nom(c2), G),
        ("inst", gen("x"), gen("D0"), c2),
        # the eval chain resolves transitively
        ("inst", gen("x"), gen("D1"), c1),
        ("inst", gen("x"), gen("D2"), c0),
    }
    assert result.facts.as_set() == expected
    assert result.inferred_fact_count == 2


def test_global_propagation_reaches_every_context():
    d = trig(
        "ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . :c1 a ckr:Ctx ; ckr:mod :m1 . "
        ":a0 a :A0 . :A0 rdfs:subClassOf :A1 . } "
        ":m0 { } :m1 { }"
    )
    result = closure(d)
    expected_per_context = {
        Quad(gen("a0"), RDF_TYPE, gen("A0"), None),
        Quad(gen("A0"), iri("http://www.w3.org/2000/01/rdf-schema#subClassOf"), gen("A1"), None),
        Quad(gen("a0"), RDF_TYPE, gen("A1"), None),
    }
    for ctx in ("c0", "c1"):
        target = inference_graph(gen(ctx))
        got = {q._replace(g=None) for q in result.inference_quads if q.g == target}
        assert got == expected_per_context
    g_inf = inference_graph(G)
    global_quads = [q for q in result.inference_quads if q.g == g_inf]
    derived = [q for q in global_quads if q.p == RDF_TYPE]
    links = [q for q in global_quads if q.p == MOD_PROPERTY]
    assert {(q.s, q.o) for q in derived} == {(gen("a0"), gen("A1"))}
    assert {(q.s, q.o) for q in links} == {
        (gen("c0"), inference_graph(gen("c0"))),
        (gen("c1"), inference_graph(gen("c1"))),
    }
    assert result.inferred_quad_count == 3 + 3 + 1 + 2


def test_context_isolation_without_eval():
    d = trig(
        "ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . :c1 a ckr:Ctx ; ckr:mod :m1 . } "
        ":m0 { :left0 a :L0 . :L0 rdfs:subClassOf :L1 . } "
        ":m1 { :right0 a :Q0 . :Q0 rdfs:subClassOf :Q1 . }"
    )
    result = closure(d)
    c0_facts = [f for f in result.facts if f[-1] == gen("c0")]
    c0_symbols = {t for f in c0_facts for t in f[1:-1]}
    assert gen("right0") not in c0_symbols
    assert gen("Q0") not in c0_symbols
    assert ("inst", gen("left0"), gen("L1"), gen("c0")) in result.facts
    assert ("inst", gen("right0"), gen("Q1"), gen("c1")) in result.facts


def test_inconsistency_is_flagged_but_not_explosive():
    d = trig(
        "ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . :c1 a ckr:Ctx ; ckr:mod :m1 . } "
        ":m0 { :A0 rdfs:subClassOf [ owl:complementOf :A1 ] . "
        ":u a :A0 . :u a :A1 . :u :R0 :w . :R0 rdfs:subPropertyOf :R1 . } "
        ":m1 { :ok a :B0 . }"
    )
    result = closure(d)
    assert result.inconsistent_contexts == {gen("c0")}
    # reasoning continues past the contradiction
    assert ("triple", gen("u"), gen("R1"), gen("w"), gen("c0")) in result.facts
    # and the sibling context is untouched
    assert ("unsat", gen("c1")) not in result.facts
    marker = Quad(
        gen("c0"), RDF_TYPE, INCONSISTENT_CLASS,
        inference_graph(gen("c0")),
    )
    assert marker in result.inference_quads


def test_ts2_full_scale_point():
    # 100 contexts, 4 connections, 10 instances: 4000 propagated memberships
    result = closure(build_ts2(100, 4, 10))
    assert len(result.facts.match("inst", None, target_concept(), None)) == 4000
    assert not result.timed_out


def test_check_entailment_asserted_and_derived():
    d = trig(
        "ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . } "
        ":m0 { :A0 rdfs:subClassOf :A1 . :A1 rdfs:subClassOf :A2 . "
        ":A2 rdfs:subClassOf :A3 . :a0 a :A0 . }"
    )
    repo = assemble_repository(d)
    asserted = axiom(ax.CONCEPT_ASSERT, gen("A0"), gen("a0"))
    chained = axiom(ax.CONCEPT_ASSERT, gen("A3"), gen("a0"))
    assert check_entailment(repo, asserted, gen("c0"), OWL_LOCAL)
    assert check_entailment(repo, chained, gen("c0"), OWL_LOCAL)


def test_check_entailment_respects_context_boundaries():
    d = trig(
        "ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . :c1 a ckr:Ctx ; ckr:mod :m1 . } "
        ":m0 { :a0 a :A0 . } :m1 { :b0 a :B0 . }"
    )
    repo = assemble_repository(d)
    foreign = axiom(ax.CONCEPT_ASSERT, gen("A0"), gen("a0"))
    assert check_entailment(repo, foreign, gen("c0"), OWL_LOCAL)
    assert not check_entailment(repo, foreign, gen("c1"), OWL_LOCAL)


def test_check_entailment_errors():
    d = trig("ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . } :m0 { :a0 a :A0 . }")
    repo = assemble_repository(d)
    with pytest.raises(InstanceQueryError):
        check_entailment(repo, axiom(ax.SUB_CLASS, gen("A0"), gen("A1")), gen("c0"), OWL_LOCAL)
    with pytest.raises(UnknownContextError):
        check_entailment(
            repo,
            axiom(ax.CONCEPT_ASSERT, gen("A0"), gen("a0")),
            gen("c9"),
            OWL_LOCAL,
        )


def test_timeout_flag_and_suppressed_output():
    result = closure(build_ts2(20, 19, 10), budget=1)
    assert result.timed_out
    assert result.inference_quads == []
    # the facts show the partial closure that the counts describe
    assert len(result.facts) == result.asserted_fact_count + result.inferred_fact_count
    assert len(result.facts) > 0


def test_budget_stops_the_closure_close_to_its_deadline():
    # ts1 1 context x 50 symbols under owl-local runs for minutes: one
    # seed fact's join fans out far, so the budget must tick inside joins.
    (params,) = [p for p in build_ts1() if p.label == "ts1-n1-c50"]
    repo = assemble_repository(generate_ckr(params))
    start = time.perf_counter()
    result = compute_closure(repo, OWL_LOCAL, budget_millis=1_000)
    assert result.timed_out
    assert time.perf_counter() - start < 2.0


def test_budget_stops_materialize(monkeypatch):
    # The clock jumps past the deadline as materialize starts: the closure
    # stops inside it, at a look at the clock, and writes nothing.
    late = [0.0]
    monkeypatch.setattr(
        fixpoint, "time", SimpleNamespace(perf_counter=lambda: time.perf_counter() + late[0])
    )
    real = closure_module._materialize

    def materialize_late(*args):
        late[0] = 1e6
        return real(*args)

    monkeypatch.setattr(closure_module, "_materialize", materialize_late)
    result = closure(build_ts2(30, 29, 10))
    assert len(result.facts) > fixpoint._CHECK_EVERY
    assert late[0] and result.timed_out
    assert "materialize" in result.per_stage_ms
    assert result.inference_quads == [] and result.inferred_quad_count == 0
    assert not result.inconsistent_contexts
    assert len(result.facts) == result.asserted_fact_count + result.inferred_fact_count
    # the ticks reached: each fact was ticked as it was seeded or merged
    assert result.ticks >= len(result.facts)


_TICKS_SCRIPT = """
from ckrbench import assemble_repository, build_ts2, compute_closure, instantiate_ruleset
from ckrbench.generator import build_ts1, generate_ckr
owl_local = instantiate_ruleset("ckr-owl-local")
(grid,) = [p for p in build_ts1(0) if p.label == "ts1-n1-c10"]
for dataset in (build_ts2(10, 9, 10), generate_ckr(grid)):
    print(compute_closure(assemble_repository(dataset), owl_local).ticks)
"""


def test_tick_totals_are_exact_and_independent_of_hash_seeds():
    # Term ids, set orders and the context set's order vary with the hash
    # seed; the work does not.  The pinned totals are those of the
    # recursive join interpreter that the generated joins replaced.
    runs = [run_python(_TICKS_SCRIPT, hash_seed=seed).split() for seed in (1, 2, 3)]
    assert runs == [["4510", "25764"]] * 3


def test_closure_leaves_no_reference_cycles():
    repo = assemble_repository(build_ts2(5, 2, 4))
    gc.collect()
    gc.disable()
    try:
        result = compute_closure(repo, OWL_LOCAL)
        # all the closure's garbage was freed by reference counting
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert result.inferred_quad_count > 0


def test_closed_dataset_reloads_and_recloses_to_zero():
    first = closure(build_ts2(5, 2, 4))
    closed = first.closed_dataset()
    reloaded = load_dataset(write_dataset(closed))
    second = closure(reloaded)
    assert second.inferred_quad_count == 0
    assert second.facts.relation("inst") >= first.facts.relation("inst")


def test_closed_dataset_bytes_are_pinned():
    result = closure(build_ts2(10, 9, 10))
    assert result.inferred_quad_count == 910
    out = write_dataset(result.closed_dataset())
    assert len(out) == 34_830
    assert hashlib.sha256(out).hexdigest() == (
        "1a9fef5e0eae622e4ab01408933daa24e1ddc0f8d5355b61aaddc57ed0de44d9"
    )


def test_propagation_workload_bytes_are_pinned():
    # The benchmark's headline input and output: the benchmark itself only
    # checks that a run repeats its first output, so a reader or writer that
    # changed bytes the same way every time would pass it.
    data = write_dataset(build_ts2(100, 99, 10))
    assert hashlib.sha256(data).hexdigest() == (
        "1275019c79b7b94474d114814f379a36d23efd8c2ec859b35483d600ba51ad84"
    )
    result = closure(load_dataset(data))
    assert result.inferred_quad_count == 99_100
    out = write_dataset(result.closed_dataset())
    assert hashlib.sha256(out).hexdigest() == (
        "070911e0981a256596130327e60fa18cb7e9a8cd0f962138cf76b264080f16f7"
    )
    assert write_dataset(load_dataset(out)) == out


def test_module_link_derived_through_subproperty():
    # a custom linking property declared under the module property also
    # attaches modules, via the global closure
    d = trig(
        "ckr:global { :installs rdfs:subPropertyOf ckr:mod . "
        ":c0 a ckr:Ctx ; :installs :m0 . } "
        ":m0 { :a0 a :A0 . }"
    )
    result = closure(d)
    assert (gen("c0"), gen("m0")) in result.mod_assoc
    assert ("inst", gen("a0"), gen("A0"), gen("c0")) in result.facts
    # the same repository under the subsumption-only global regime still
    # resolves the association (structure reasoning is part of every regime)
    rdfs_result = closure(d, "ckr-rdfs-global")
    assert (gen("c0"), gen("m0")) in rdfs_result.mod_assoc


def test_eval_over_atomic_context_class_collects_all_members():
    d = trig(
        "ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . "
        ":c1 a ckr:Ctx, :TeamCtx ; ckr:mod :m1 . "
        ":c2 a ckr:Ctx, :TeamCtx ; ckr:mod :m2 . } "
        ":m0 { [ ckr:evalOf :D0 ; ckr:evalIn :TeamCtx ] rdfs:subClassOf :D1 . } "
        ":m1 { :u a :D0 . } "
        ":m2 { :v a :D0 . }"
    )
    result = closure(d)
    assert set(result.facts.match("inst", None, gen("D1"), None)) == {
        ("inst", gen("u"), gen("D1"), gen("c0")),
        ("inst", gen("v"), gen("D1"), gen("c0")),
    }


def test_entailment_in_the_global_context():
    d = trig("ckr:global { :a0 a :A0 . :A0 rdfs:subClassOf :A1 . }")
    repo = assemble_repository(d)
    derived = axiom(ax.CONCEPT_ASSERT, gen("A1"), gen("a0"))
    assert check_entailment(repo, derived, GLOBAL_GRAPH, OWL_LOCAL)


def test_shared_module_reasons_in_every_attached_context():
    d = trig(
        "ckr:global { :c0 a ckr:Ctx ; ckr:mod :shared . "
        ":c1 a ckr:Ctx ; ckr:mod :shared . } "
        ":shared { :a0 a :A0 . :A0 rdfs:subClassOf :A1 . }"
    )
    repo = assemble_repository(d)
    result = compute_closure(repo, OWL_LOCAL)
    for ctx in (gen("c0"), gen("c1")):
        assert ("inst", gen("a0"), gen("A1"), ctx) in result.facts
    assert result.contexts == {gen("c0"), gen("c1")}
    assert result.mod_assoc == {(gen("c0"), gen("shared")), (gen("c1"), gen("shared"))}


def test_closure_leaves_the_repository_unchanged():
    repo = assemble_repository(build_ts2(5, 2, 4))
    fields = dict(vars(repo))
    dataset = repo.dataset.copy()
    result = compute_closure(repo, OWL_LOCAL)
    assert result.contexts and result.mod_assoc
    assert vars(repo) == fields
    assert repo.dataset == dataset


def test_derived_context_membership_via_subclass():
    # a context declared through a subclass of the context class still counts
    d = trig(
        "ckr:global { :Team rdfs:subClassOf ckr:Ctx . :c0 a :Team ; ckr:mod :m0 . } "
        ":m0 { :a0 a :A0 . }"
    )
    result = closure(d)
    assert gen("c0") in result.contexts
    assert ("inst", gen("a0"), gen("A0"), gen("c0")) in result.facts


def test_quad_level_counts_are_consistent():
    result = closure(build_ts2(10, 2, 10))
    # 10 contexts x (10 instances + 2 eval inclusions x 6 triples) + 20 structure
    assert result.asserted_quad_count == 240
    assert result.inferred_quad_count == 210  # 200 memberships + 10 module links
    closed = result.closed_dataset()
    assert len(closed) == result.asserted_quad_count + result.inferred_quad_count
    assert len(result.facts) == result.asserted_fact_count + result.inferred_fact_count


def test_fact_view_match():
    d = trig(
        "ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . :a0 a :A1 . } "
        ":m0 { :a0 a :A0 . :a1 a :A0 . }"
    )
    facts = closure(d, "ckr-rdfs-local").facts
    a0, a1, A0, A1, c0 = gen("a0"), gen("a1"), gen("A0"), gen("A1"), gen("c0")
    assert sorted(facts.match("inst", None, A0, None)) == [
        ("inst", a0, A0, c0),
        ("inst", a1, A0, c0),
    ]
    assert facts.match("inst", a0, None, G) == [("inst", a0, A1, G)]
    assert ("inst", a0, A0, c0) in facts
    assert ("inst", a1, A1, c0) not in facts
    # c0 declared, c0 linked, a0:A1 in both contexts, a0:A0 and a1:A0 in c0
    assert len(facts) == len(list(facts)) == len(facts.as_set()) == 6
    assert facts.relation("triple") == {
        ("triple", c0, MOD_PROPERTY, gen("m0"), G)
    }


def test_fact_view_lookups_do_not_intern_unseen_terms():
    facts = closure(trig("ckr:global { :a0 a :A0 . }")).facts
    table = facts._table
    size = len(table)
    unseen = gen("never-seen")
    assert ("inst", gen("a0"), gen("A0"), G) in facts
    assert ("inst", unseen, gen("A0"), G) not in facts
    assert facts.match("inst", unseen, None, None) == []
    assert facts.match("inst", None, None, unseen) == []
    assert len(table) == size


ONE_MODULE = "ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . } "


#: Facts whose quad no dataset can hold, each with the module deriving it.
UNHOLDABLE = {
    "literal-subject-by-has-value": (
        ":A rdfs:subClassOf [ a owl:Restriction ; owl:onProperty :p ; "
        'owl:hasValue "v" ] . :p owl:inverseOf :q . :x a :A .',
        ("triple", literal("v"), gen("q"), gen("x"), gen("c0")),
    ),
    "literal-subject-by-eq-sym": (
        ':a owl:sameAs "five" .',
        ("eq", literal("five"), gen("a"), gen("c0")),
    ),
    "literal-predicate": (
        ':p owl:inverseOf "lit" . :a :p :b .',
        ("triple", gen("b"), literal("lit"), gen("a"), gen("c0")),
    ),
    "one-quad-for-two-facts": (
        # unsat(c0) and inst(c0, ckr:Inconsistent, c0) write the same quad
        ":c0 a :X , :Y . :X rdfs:subClassOf ckr:Inconsistent , "
        "[ owl:complementOf :Y ] .",
        ("unsat", gen("c0")),
    ),
}


@pytest.mark.parametrize(
    "module, derived", list(UNHOLDABLE.values()), ids=list(UNHOLDABLE)
)
def test_facts_a_dataset_cannot_hold_stay_out_of_the_output(module, derived):
    result = closure(trig(ONE_MODULE + ":m0 { " + module + " }"))
    assert derived in result.facts
    out = write_dataset(result.closed_dataset())
    reloaded = load_dataset(out)
    assert len(reloaded) == result.asserted_quad_count + result.inferred_quad_count
    assert closure(reloaded).inferred_quad_count == 0


@pytest.mark.parametrize(
    "module",
    [
        ":R rdfs:subPropertyOf rdf:type . :a :R :B . :B rdfs:subClassOf :B2 .",
        ":R rdfs:subPropertyOf owl:sameAs . :a :R :b . :a :p :o .",
        ":x a :C . :C rdfs:subClassOf owl:NegativePropertyAssertion .",
        ":R a :C . :C rdfs:subClassOf owl:IrreflexiveProperty . :a :R :a .",
    ],
    ids=["role-under-rdf-type", "role-under-same-as", "class-under-npa", "class-under-irr"],
)
@pytest.mark.parametrize("regime_id", ["ckr-rdfs-local", "ckr-owl-local"])
def test_reserved_names_are_no_class_or_role_names(module, regime_id):
    d = trig(ONE_MODULE + ":m0 { " + module + " }")
    assert any("reserved vocabulary" in w for w in assemble_repository(d).warnings)
    reloaded = load_dataset(write_dataset(closure(d, regime_id).closed_dataset()))
    assert closure(reloaded, regime_id).inferred_quad_count == 0


@pytest.mark.parametrize(
    "global_graph, context",
    [
        ("_:c a ckr:Ctx ; ckr:mod :m0 .", blank("c")),
        (':c0 a ckr:Ctx ; ckr:mod :m0 . :c0 owl:sameAs "lit" .', literal("lit")),
    ],
    ids=["blank-context", "context-equal-to-a-literal"],
)
def test_context_that_is_not_an_iri(global_graph, context):
    d = trig(
        "ckr:global { " + global_graph + " } "
        ":m0 { :a a :A . :A rdfs:subClassOf :B . }"
    )
    with pytest.raises(AssemblyError, match="is not an IRI") as err:
        closure(d, "ckr-owl-local")
    assert repr(context) in str(err.value)
    # a global regime writes no per-context graph and closes such input
    result = closure(d, "ckr-owl-global")
    assert context in result.contexts
    reloaded = load_dataset(write_dataset(result.closed_dataset()))
    assert closure(reloaded, "ckr-owl-global").inferred_quad_count == 0


def test_literals_of_other_datatypes_get_their_own_skolem_nodes():
    # "5" and 5 differ in the datatype only: each axiom needs its own node
    d = trig(
        "ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . "
        ':A rdfs:subClassOf [ owl:onProperty :R ; owl:hasValue "5" ] , '
        "[ owl:onProperty :R ; owl:hasValue 5 ] . } :m0 { }"
    )
    reloaded = load_dataset(write_dataset(closure(d).closed_dataset()))
    warnings: list[str] = []
    read = parse_axioms(reloaded, inference_graph(gen("c0")), warnings)
    assert {a for a in read if a.shape == ax.SUB_HAS_VALUE} == {
        axiom(ax.SUB_HAS_VALUE, gen("A"), gen("R"), literal("5")),
        axiom(ax.SUB_HAS_VALUE, gen("A"), gen("R"), literal("5", XSD_INTEGER)),
    }
    assert warnings == []
    assert closure(reloaded).inferred_quad_count == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_dataset_reads_the_same_in_memory_and_reloaded(seed):
    d = generate_ckr(random_ckr_params(random.Random(seed), seed))
    closed = closure(d).closed_dataset()
    reloaded = load_dataset(write_dataset(closed))
    assert set(reloaded.graph_names()) == set(closed.graph_names())
    for g in closed.graph_names():
        in_memory: list[str] = []
        again: list[str] = []
        assert parse_axioms(closed, g, in_memory) == parse_axioms(reloaded, g, again)
        assert sorted(in_memory) == sorted(again)


def test_repeated_component_recloses_to_zero():
    # two owl:allValuesFrom values in reverse term order: the closure and
    # the re-closure of the written output must read the same one
    d = trig(
        ONE_MODULE + ":m0 { :A rdfs:subClassOf "
        "[ owl:onProperty :R ; owl:allValuesFrom :C , :B ] . :x a :A ; :R :y . }"
    )
    first = closure(d)
    assert ("inst", gen("y"), gen("B"), gen("c0")) in first.facts
    reloaded = load_dataset(write_dataset(first.closed_dataset()))
    assert closure(reloaded).inferred_quad_count == 0


def generic_inference_quads(repo, result):
    """The inference quads of a closure, built fact by fact from its
    term-level facts through ``_fact_triples``, ``Quad`` and
    ``is_valid_quad``: the asserted facts and the unsat facts whose inst
    twin is derived write nothing."""
    asserted = {f for a in repo.global_axioms for f in cal.translate_rl(a, G)}
    if instantiate_ruleset(result.regime_id).local:
        for c in result.contexts:
            for a in repo.context_kb(c, result.mod_assoc):
                asserted.update(cal.translate_axiom(a, c))
    quads, linked = [], set()
    for f in result.facts:
        twin = ("inst", f[1], INCONSISTENT_CLASS, f[1])
        if f in asserted or (
            f[0] == "unsat" and twin in result.facts and twin not in asserted
        ):
            continue
        for s, p, o in _fact_triples(f):
            q = Quad(s, p, o, inference_graph(f[-1]))
            if q not in repo.dataset and is_valid_quad(q):
                quads.append(q)
                linked.add(f[-1])
    for c in linked & result.contexts - {G}:
        link = Quad(c, MOD_PROPERTY, inference_graph(c), inference_graph(G))
        if link not in repo.dataset:
            quads.append(link)
    return quads


def materialize_inputs():
    for seed in range(4):
        yield f"random-{seed}", generate_ckr(random_ckr_params(random.Random(seed), seed))
    modules = {name: module for name, (module, _) in UNHOLDABLE.items()}
    modules["same-as"] = ":a a :A ; :p :b ; owl:sameAs :a2 . :A rdfs:subClassOf :B ."
    for name, module in modules.items():
        d = trig(ONE_MODULE + ":m0 { " + module + " }")
        yield name, d
        # the input holds the inference graphs, so materialize probes it
        yield f"{name}-reclosed", load_dataset(write_dataset(closure(d).closed_dataset()))


@pytest.mark.parametrize("regime_id", REGIME_IDS)
def test_materialize_fast_paths_equal_the_generic_path(regime_id):
    """Materialize's term-id fast path for inst, triple and eq facts writes
    the quads that the axiom encoder gives those facts."""
    for name, dataset in materialize_inputs():
        repo = assemble_repository(dataset)
        result = compute_closure(repo, instantiate_ruleset(regime_id))
        expected = generic_inference_quads(repo, result)
        assert len(set(expected)) == len(expected), name
        assert set(result.inference_quads) == set(expected), name
        assert len(result.inference_quads) == len(expected), name
