"""Normal-form axioms.

Nineteen shapes: seventeen plain description-logic normal forms (the TBox,
ABox and RBox groups below) plus the two eval-inclusion shapes that pull
knowledge across contexts.  ``SHAPE_SORTS`` says what each shape is: the
sort of every argument, ``"class"``, ``"role"`` or ``"individual"``, in
argument order.  Class and role arguments are atomic names; individuals may
additionally be blank nodes.
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

EVAL_SHAPES = (EVAL_SUB_CLASS, EVAL_SUB_ROLE)

#: The sort of each argument, in argument order: what a normal form is.
#: Arity, generation and the reserved-name check all read this table.
SHAPE_SORTS: dict[str, tuple[str, ...]] = {
    SUB_CLASS: ("class", "class"),
    SUB_CLASS_NEG: ("class", "class"),
    SUB_HAS_VALUE: ("class", "role", "individual"),
    SUB_CONJ: ("class", "class", "class"),
    SUB_EX: ("role", "class", "class"),
    SUP_ALL: ("class", "role", "class"),
    SUP_MAX1: ("class", "role", "class"),
    CONCEPT_ASSERT: ("class", "individual"),
    ROLE_ASSERT: ("role", "individual", "individual"),
    NEG_ROLE_ASSERT: ("role", "individual", "individual"),
    SAME: ("individual", "individual"),
    DIFFERENT: ("individual", "individual"),
    SUB_ROLE: ("role", "role"),
    INV_ROLE: ("role", "role"),
    ROLE_CHAIN: ("role", "role", "role"),
    DIS_ROLE: ("role", "role"),
    IRR_ROLE: ("role",),
    EVAL_SUB_CLASS: ("class", "class", "class"),
    EVAL_SUB_ROLE: ("role", "class", "role"),
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
        sorts = SHAPE_SORTS.get(self.shape)
        if sorts is None:
            raise ValueError(f"unknown axiom shape: {self.shape!r}")
        arity = len(sorts)
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

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        star = "{.}" if self.nominal_ctx else ""
        return f"{self.shape}{star}({inner})"


def axiom(shape: str, *args: Term, nominal_ctx: bool = False) -> Axiom:
    return Axiom(shape, tuple(args), nominal_ctx)
