"""Translation between normal-form axioms and deduction facts.

A fact is a plain tuple ``(relation, arg..., context)``: the context is
always the last argument (``unsat`` carries only the context).  The global
context is named by the fixed global-graph IRI ``ckr:global``.

Every deduction relation used by the engine lives here: instance and role
membership (``inst``/``triple``), the schema relations mirroring the axiom
shapes, equality/inequality, the two eval relations, and the per-context
inconsistency marker.  Each axiom shape maps to one relation through one
table, read both ways; a relation's arity is its shape's argument count
(``axioms.SHAPE_SORTS``) plus the context.
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

#: The relation of each plain shape's fact.  The fact keeps the axiom's
#: arguments in order, except that the assertion relations (``_SUBJECT_FIRST``)
#: put the subject individual first: A(a) becomes inst(a, A), R(a, b)
#: becomes triple(a, R, b).
_SHAPE_RELATION: dict[str, str] = {
    ax.SUB_CLASS: SUBCLASS,
    ax.SUB_CLASS_NEG: SUBCLASSNEG,
    ax.SUB_HAS_VALUE: SUBHASVALUE,
    ax.SUB_CONJ: SUBCONJ,
    ax.SUB_EX: SUBEX,
    ax.SUP_ALL: SUPALL,
    ax.SUP_MAX1: SUPMAX1,
    ax.CONCEPT_ASSERT: INST,
    ax.ROLE_ASSERT: TRIPLE,
    ax.NEG_ROLE_ASSERT: NTRIPLE,
    ax.SAME: EQ,
    ax.DIFFERENT: NEQ,
    ax.SUB_ROLE: SUBROLE,
    ax.INV_ROLE: INVROLE,
    ax.ROLE_CHAIN: SUBRCHAIN,
    ax.DIS_ROLE: DISROLE,
    ax.IRR_ROLE: IRRROLE,
}
_SUBJECT_FIRST = frozenset((INST, TRIPLE, NTRIPLE))
_EVAL_RELATION = {ax.EVAL_SUB_CLASS: SUBEVAL, ax.EVAL_SUB_ROLE: SUBEVALR}
_RELATION_SHAPE = {rel: shape for shape, rel in _SHAPE_RELATION.items()}

#: Arity including the trailing context argument.
RELATION_ARITY: dict[str, int] = {
    rel: len(ax.SHAPE_SORTS[shape]) + 1
    for shape, rel in (_SHAPE_RELATION | _EVAL_RELATION).items()
}
RELATION_ARITY[UNSAT] = 1


def translate_rl(axiom: Axiom, ctx: Term) -> set[Fact]:
    """Translate one non-eval axiom into exactly one fact in context ctx."""
    relation = _SHAPE_RELATION.get(axiom.shape)
    if relation is None:
        raise TranslationError(
            f"{axiom.shape} has no plain translation; eval shapes go through translate_loc"
        )
    a = axiom.args
    if relation in _SUBJECT_FIRST:
        return {(relation, a[1], a[0]) + a[2:] + (ctx,)}
    return {(relation, *a, ctx)}


def translate_loc(axiom: Axiom, ctx: Term) -> set[Fact]:
    """Translate an eval inclusion; nominal contexts expand to a synthetic
    class plus its membership fact in the global context."""
    relation = _EVAL_RELATION.get(axiom.shape)
    if relation is None:
        raise TranslationError(f"{axiom.shape} is not an eval shape")
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
    if not axiom.is_assertion:
        raise InstanceQueryError(f"not an instance query: {axiom!r}")
    (fact,) = translate_rl(axiom, ctx)
    return fact


def fact_to_axiom(f: Fact) -> Axiom:
    """The axiom that translate_rl maps to a fact; used when inferred facts
    are written back as RDF."""
    shape = _RELATION_SHAPE.get(f[0])
    if shape is None:
        raise TranslationError(f"{f[0]} facts have no RDF form")
    # translate_rl's argument order is its own inverse
    (back,) = translate_rl(Axiom(shape, f[1:-1]), f[-1])
    return Axiom(shape, back[1:-1])
