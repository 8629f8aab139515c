"""Translation between normal-form axioms and deduction facts.

A fact is a plain tuple ``(relation, arg..., context)``: the context is
always the last argument (``unsat`` carries only the context).  The global
context is named by the fixed global-graph IRI ``ckr:global``.

Every deduction relation used by the engine lives here: instance and role
membership (``inst``/``triple``), the schema relations mirroring the axiom
shapes, equality/inequality, the two eval relations, and the per-context
inconsistency marker.
"""
from __future__ import annotations

from ckrbench.errors import InstanceQueryError, TranslationError
from ckrbench.model import axioms as ax
from ckrbench.model.axioms import Axiom
from ckrbench.namespaces import GLOBAL_GRAPH, nominal_class
from ckrbench.rdf.terms import Term

Fact = tuple  # (relation: str, *args: Term) with the context last

INST = "inst"
TRIPLE = "triple"
SUBCLASS = "subClass"
SUBCLASSNEG = "subClassNeg"
SUBHASVALUE = "subHasValue"
SUBCONJ = "subConj"
SUBEX = "subEx"
SUPALL = "supAll"
SUPMAX1 = "supMax1"
SUBROLE = "subRole"
INVROLE = "invRole"
SUBRCHAIN = "subRChain"
DISROLE = "disRole"
IRRROLE = "irrRole"
NTRIPLE = "ntriple"
EQ = "eq"
NEQ = "neq"
SUBEVAL = "subEval"
SUBEVALR = "subEvalR"
UNSAT = "unsat"

#: Arity including the trailing context argument.
RELATION_ARITY: dict[str, int] = {
    INST: 3,
    TRIPLE: 4,
    SUBCLASS: 3,
    SUBCLASSNEG: 3,
    SUBHASVALUE: 4,
    SUBCONJ: 4,
    SUBEX: 4,
    SUPALL: 4,
    SUPMAX1: 4,
    SUBROLE: 3,
    INVROLE: 3,
    SUBRCHAIN: 4,
    DISROLE: 3,
    IRRROLE: 2,
    NTRIPLE: 4,
    EQ: 3,
    NEQ: 3,
    SUBEVAL: 4,
    SUBEVALR: 4,
    UNSAT: 1,
}


# Shapes whose fact keeps the axiom argument order unchanged.
_DIRECT_SHAPES: dict[str, str] = {
    ax.SUB_CLASS: SUBCLASS,
    ax.SUB_CLASS_NEG: SUBCLASSNEG,
    ax.SUB_HAS_VALUE: SUBHASVALUE,
    ax.SUB_CONJ: SUBCONJ,
    ax.SUB_EX: SUBEX,
    ax.SUP_ALL: SUPALL,
    ax.SUP_MAX1: SUPMAX1,
    ax.SAME: EQ,
    ax.DIFFERENT: NEQ,
    ax.SUB_ROLE: SUBROLE,
    ax.INV_ROLE: INVROLE,
    ax.ROLE_CHAIN: SUBRCHAIN,
    ax.DIS_ROLE: DISROLE,
    ax.IRR_ROLE: IRRROLE,
}


def translate_rl(axiom: Axiom, ctx: Term) -> set[Fact]:
    """Translate one non-eval axiom into exactly one fact in context ctx."""
    shape = axiom.shape
    a = axiom.args
    if shape == ax.CONCEPT_ASSERT:
        return {(INST, a[1], a[0], ctx)}
    if shape == ax.ROLE_ASSERT:
        return {(TRIPLE, a[1], a[0], a[2], ctx)}
    if shape == ax.NEG_ROLE_ASSERT:
        return {(NTRIPLE, a[1], a[0], a[2], ctx)}
    relation = _DIRECT_SHAPES.get(shape)
    if relation is None:
        raise TranslationError(
            f"{shape} has no plain translation; eval shapes go through translate_loc"
        )
    return {(relation, *a, ctx)}


def translate_loc(axiom: Axiom, ctx: Term) -> set[Fact]:
    """Translate an eval inclusion; nominal contexts expand to a synthetic
    class plus its membership fact in the global context."""
    if not axiom.is_eval:
        raise TranslationError(f"{axiom.shape} is not an eval shape")
    relation = SUBEVAL if axiom.shape == ax.EVAL_SUB_CLASS else SUBEVALR
    left, ctx_class, right = axiom.args
    if not axiom.nominal_ctx:
        return {(relation, left, ctx_class, right, ctx)}
    synthetic = nominal_class(ctx_class)
    return {
        (relation, left, synthetic, right, ctx),
        (INST, ctx_class, synthetic, GLOBAL_GRAPH),
    }


def translate_axiom(axiom: Axiom, ctx: Term) -> set[Fact]:
    if axiom.is_eval:
        return translate_loc(axiom, ctx)
    return translate_rl(axiom, ctx)


def output_translation(axiom: Axiom, ctx: Term) -> Fact:
    """Instance-checking translation; defined for ABox assertions only."""
    if axiom.shape == ax.CONCEPT_ASSERT:
        return (INST, axiom.args[1], axiom.args[0], ctx)
    if axiom.shape == ax.ROLE_ASSERT:
        return (TRIPLE, axiom.args[1], axiom.args[0], axiom.args[2], ctx)
    raise InstanceQueryError(f"not an instance query: {axiom!r}")


# Inverse of translate_rl, used when inferred facts are written back as RDF.
_RELATION_SHAPES = {rel: shape for shape, rel in _DIRECT_SHAPES.items()}


def fact_to_axiom(f: Fact) -> Axiom:
    relation, args = f[0], f[1:-1]
    if relation == INST:
        return Axiom(ax.CONCEPT_ASSERT, (args[1], args[0]))
    if relation == TRIPLE:
        return Axiom(ax.ROLE_ASSERT, (args[1], args[0], args[2]))
    if relation == NTRIPLE:
        return Axiom(ax.NEG_ROLE_ASSERT, (args[1], args[0], args[2]))
    shape = _RELATION_SHAPES.get(relation)
    if shape is None:
        raise TranslationError(f"{relation} facts have no RDF form")
    return Axiom(shape, args)
