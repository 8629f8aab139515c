"""Normal-form axioms.

Nineteen shapes: seventeen plain description-logic normal forms (the TBox,
ABox and RBox families below) plus the two eval-inclusion shapes that pull
knowledge across contexts.  Concept/role arguments are atomic names;
individuals may additionally be blank nodes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ckrbench.rdf.terms import Term

# TBox
SUB_CLASS = "SubClass"  # A <= B
SUB_CLASS_NEG = "SubClassNeg"  # A <= not B
SUB_HAS_VALUE = "SubHasValue"  # A <= exists R.{a}
SUB_CONJ = "SubConj"  # A and B <= C
SUB_EX = "SubEx"  # exists R.A <= B
SUP_ALL = "SupAll"  # A <= forall R.B
SUP_MAX1 = "SupMax1"  # A <= max 1 R.B
# ABox
CONCEPT_ASSERT = "ConceptAssert"  # A(a)
ROLE_ASSERT = "RoleAssert"  # R(a,b)
NEG_ROLE_ASSERT = "NegRoleAssert"  # not R(a,b)
SAME = "Same"  # a = b
DIFFERENT = "Different"  # a != b
# RBox
SUB_ROLE = "SubRole"  # R <= T
INV_ROLE = "InvRole"  # Inv(R,S)
ROLE_CHAIN = "RoleChain"  # R o S <= T
DIS_ROLE = "DisRole"  # Dis(R,S)
IRR_ROLE = "IrrRole"  # Irr(R)
# eval inclusions (local modules only)
EVAL_SUB_CLASS = "EvalSubClass"  # eval(A, C) <= B
EVAL_SUB_ROLE = "EvalSubRole"  # eval(R, C) <= S

TBOX_SHAPES = (
    SUB_CLASS,
    SUB_CLASS_NEG,
    SUB_HAS_VALUE,
    SUB_CONJ,
    SUB_EX,
    SUP_ALL,
    SUP_MAX1,
)
ABOX_SHAPES = (CONCEPT_ASSERT, ROLE_ASSERT, NEG_ROLE_ASSERT, SAME, DIFFERENT)
RBOX_SHAPES = (SUB_ROLE, INV_ROLE, ROLE_CHAIN, DIS_ROLE, IRR_ROLE)
EVAL_SHAPES = (EVAL_SUB_CLASS, EVAL_SUB_ROLE)
ALL_SHAPES = TBOX_SHAPES + ABOX_SHAPES + RBOX_SHAPES + EVAL_SHAPES

SHAPE_ARITY: dict[str, int] = {
    SUB_CLASS: 2,
    SUB_CLASS_NEG: 2,
    SUB_HAS_VALUE: 3,
    SUB_CONJ: 3,
    SUB_EX: 3,
    SUP_ALL: 3,
    SUP_MAX1: 3,
    CONCEPT_ASSERT: 2,
    ROLE_ASSERT: 3,
    NEG_ROLE_ASSERT: 3,
    SAME: 2,
    DIFFERENT: 2,
    SUB_ROLE: 2,
    INV_ROLE: 2,
    ROLE_CHAIN: 3,
    DIS_ROLE: 2,
    IRR_ROLE: 1,
    EVAL_SUB_CLASS: 3,
    EVAL_SUB_ROLE: 3,
}


@dataclass(frozen=True, slots=True)
class Axiom:
    """One normal-form axiom.

    For eval shapes, ``args[1]`` is the context-class argument: an atomic
    context-class name, or, when ``nominal_ctx`` is set, a context *name*
    standing for the singleton class {c}.
    """

    shape: str
    args: tuple[Term, ...]
    nominal_ctx: bool = field(default=False)

    def __post_init__(self) -> None:
        arity = SHAPE_ARITY.get(self.shape)
        if arity is None:
            raise ValueError(f"unknown axiom shape: {self.shape!r}")
        if len(self.args) != arity:
            raise ValueError(
                f"{self.shape} expects {arity} arguments, got {len(self.args)}"
            )
        if self.nominal_ctx and self.shape not in EVAL_SHAPES:
            raise ValueError("nominal_ctx is only meaningful for eval shapes")

    @property
    def is_eval(self) -> bool:
        return self.shape in EVAL_SHAPES

    @property
    def is_assertion(self) -> bool:
        return self.shape in (CONCEPT_ASSERT, ROLE_ASSERT)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(repr(a) for a in self.args)
        star = "{.}" if self.nominal_ctx else ""
        return f"{self.shape}{star}({inner})"


def axiom(shape: str, *args: Term, nominal_ctx: bool = False) -> Axiom:
    return Axiom(shape, tuple(args), nominal_ctx)


def family_of(shape: str) -> str:
    if shape in TBOX_SHAPES:
        return "tbox"
    if shape in ABOX_SHAPES:
        return "abox"
    if shape in RBOX_SHAPES:
        return "rbox"
    return "eval"
