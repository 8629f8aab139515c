"""Axiom-to-fact translations and the output translation."""
import pytest

from ckrbench import calculus as cal
from ckrbench.errors import InstanceQueryError, TranslationError
from ckrbench.generator import build_ts2
from ckrbench.model import axioms as ax
from ckrbench.model.axioms import axiom
from ckrbench.model.repository import assemble_repository
from ckrbench.namespaces import CTX_CLASS, GLOBAL_GRAPH, MOD_PROPERTY, nominal_class
from util import gen, trig

A0, A1, A2 = gen("A0"), gen("A1"), gen("A2")
R0, R1, R2 = gen("R0"), gen("R1"), gen("R2")
a0, a1 = gen("a0"), gen("a1")
c0 = gen("c0")
G = GLOBAL_GRAPH


def test_translate_subclass():
    assert cal.translate_rl(axiom(ax.SUB_CLASS, A0, A1), c0) == {
        ("subClass", A0, A1, c0)
    }


def test_translate_concept_assertion():
    assert cal.translate_rl(axiom(ax.CONCEPT_ASSERT, A0, a0), c0) == {
        ("inst", a0, A0, c0)
    }


def test_translate_role_chain_in_global_context():
    assert cal.translate_rl(axiom(ax.ROLE_CHAIN, R0, R1, R2), G) == {
        ("subRChain", R0, R1, R2, G)
    }


_NON_EVAL = [
    axiom(ax.SUB_CLASS, A0, A1),
    axiom(ax.SUB_CLASS_NEG, A0, A1),
    axiom(ax.SUB_HAS_VALUE, A0, R0, a0),
    axiom(ax.SUB_CONJ, A0, A1, A2),
    axiom(ax.SUB_EX, R0, A0, A1),
    axiom(ax.SUP_ALL, A0, R0, A1),
    axiom(ax.SUP_MAX1, A0, R0, A1),
    axiom(ax.CONCEPT_ASSERT, A0, a0),
    axiom(ax.ROLE_ASSERT, R0, a0, a1),
    axiom(ax.NEG_ROLE_ASSERT, R0, a0, a1),
    axiom(ax.SAME, a0, a1),
    axiom(ax.DIFFERENT, a0, a1),
    axiom(ax.SUB_ROLE, R0, R1),
    axiom(ax.INV_ROLE, R0, R1),
    axiom(ax.ROLE_CHAIN, R0, R1, R2),
    axiom(ax.DIS_ROLE, R0, R1),
    axiom(ax.IRR_ROLE, R0),
]


def test_every_plain_shape_yields_exactly_one_fact():
    produced = set()
    for sample in _NON_EVAL:
        facts = cal.translate_rl(sample, c0)
        assert len(facts) == 1
        fact = next(iter(facts))
        assert fact[-1] == c0
        assert len(fact) - 1 == cal.RELATION_ARITY[fact[0]]
        produced |= facts
    # translation is injective over distinct axioms
    assert len(produced) == len(_NON_EVAL)


def test_translate_rl_rejects_eval():
    with pytest.raises(TranslationError):
        cal.translate_rl(axiom(ax.EVAL_SUB_CLASS, A0, c0, A1, nominal_ctx=True), c0)


def test_translate_loc_atomic_context_class():
    cls = gen("TeamCtx")
    assert cal.translate_loc(axiom(ax.EVAL_SUB_CLASS, A0, cls, A1), c0) == {
        ("subEval", A0, cls, A1, c0)
    }


def test_translate_loc_nominal_expands():
    c1 = gen("c1")
    facts = cal.translate_loc(
        axiom(ax.EVAL_SUB_CLASS, gen("D0"), c1, gen("D1"), nominal_ctx=True), c0
    )
    synthetic = nominal_class(c1)
    assert facts == {
        ("subEval", gen("D0"), synthetic, gen("D1"), c0),
        ("inst", c1, synthetic, G),
    }
    # interned: the same context always maps to the same synthetic class
    again = cal.translate_loc(
        axiom(ax.EVAL_SUB_ROLE, R0, c1, R1, nominal_ctx=True), c0
    )
    assert ("subEvalR", R0, synthetic, R1, c0) in again


def test_translate_loc_rejects_plain_shapes():
    with pytest.raises(TranslationError):
        cal.translate_loc(axiom(ax.SUB_CLASS, A0, A1), c0)


def _global_facts(repo):
    """The engine's translation of the global knowledge base."""
    return {f for a in repo.global_axioms for f in cal.translate_rl(a, G)}


def test_global_axioms_translate_context_declarations_and_module_links():
    repo = assemble_repository(trig("ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . } :m0 { }"))
    assert _global_facts(repo) == {
        ("inst", c0, CTX_CLASS, G),
        ("triple", c0, MOD_PROPERTY, gen("m0"), G),
    }


def test_global_axioms_translate_ts2_structure_counts():
    facts = _global_facts(assemble_repository(build_ts2(100, 0, 0)))
    ctx_decls = [f for f in facts if f[0] == "inst" and f[2] == CTX_CLASS]
    mod_links = [f for f in facts if f[0] == "triple"]
    assert len(ctx_decls) == 100
    assert len(mod_links) == 100


def test_output_translation():
    assert cal.output_translation(axiom(ax.CONCEPT_ASSERT, A1, a0), c0) == (
        "inst",
        a0,
        A1,
        c0,
    )
    assert cal.output_translation(axiom(ax.ROLE_ASSERT, R0, a0, a1), G) == (
        "triple",
        a0,
        R0,
        a1,
        G,
    )
    with pytest.raises(InstanceQueryError, match="not an instance query"):
        cal.output_translation(axiom(ax.SUB_CLASS, A0, A1), c0)


def test_fact_to_axiom_round_trip():
    for sample in _NON_EVAL:
        fact = next(iter(cal.translate_rl(sample, c0)))
        assert cal.fact_to_axiom(fact) == sample
    with pytest.raises(TranslationError):
        cal.fact_to_axiom(("subEval", A0, gen("X"), A1, c0))

