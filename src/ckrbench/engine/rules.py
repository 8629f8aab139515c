"""Deduction rule catalog and the four reasoning regimes.

One deduction rule per schema relation, plus the equality congruence block,
the inconsistency block, and the two eval rules that move instance knowledge
across contexts.  Every rule is range-restricted and positive; the engine's
not-already-derived filter is the only (implicit) negation anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ckrbench import calculus as cal
from ckrbench.namespaces import GLOBAL_GRAPH
from ckrbench.rdf.terms import Term


@dataclass(frozen=True, slots=True)
class Var:
    name: str


Arg = Union[Var, Term]


@dataclass(frozen=True, slots=True)
class Pattern:
    relation: str
    args: tuple[Arg, ...]

    def __post_init__(self) -> None:
        if len(self.args) != cal.RELATION_ARITY[self.relation]:
            raise ValueError(f"bad arity for {self.relation}: {self.args!r}")


@dataclass(frozen=True, slots=True)
class Rule:
    name: str
    head: Pattern
    body: tuple[Pattern, ...]

    def __post_init__(self) -> None:
        bound = {a.name for p in self.body for a in p.args if isinstance(a, Var)}
        free = [
            a.name for a in self.head.args if isinstance(a, Var) and a.name not in bound
        ]
        if free:
            raise ValueError(f"rule {self.name} is not range-restricted: {free}")


def _r(name: str, head: tuple, *body: tuple) -> Rule:
    return Rule(
        name,
        Pattern(head[0], tuple(head[1:])),
        tuple(Pattern(b[0], tuple(b[1:])) for b in body),
    )


X, Y, Z, C = Var("x"), Var("y"), Var("z"), Var("c")
Y1, Y2, W, W1, W2, R, S, T, A = (
    Var("y1"),
    Var("y2"),
    Var("w"),
    Var("w1"),
    Var("w2"),
    Var("r"),
    Var("s"),
    Var("t"),
    Var("a"),
)
B, C1, CP = Var("b"), Var("c1"), Var("cp")


#: Class and property subsumption: the RDFS-level slice.
SUBSUMPTION_RULES = (
    _r(
        "sub-class",
        (cal.INST, X, Z, C),
        (cal.SUBCLASS, Y, Z, C),
        (cal.INST, X, Y, C),
    ),
    _r(
        "sub-role",
        (cal.TRIPLE, X, T, Y, C),
        (cal.SUBROLE, R, T, C),
        (cal.TRIPLE, X, R, Y, C),
    ),
)


#: Full deduction set for the supported normal forms.
RL_RULES = SUBSUMPTION_RULES + (
    _r(
        "sub-conj",
        (cal.INST, X, Z, C),
        (cal.SUBCONJ, Y1, Y2, Z, C),
        (cal.INST, X, Y1, C),
        (cal.INST, X, Y2, C),
    ),
    _r(
        "sub-ex",
        (cal.INST, X, Z, C),
        (cal.SUBEX, R, Y, Z, C),
        (cal.TRIPLE, X, R, W, C),
        (cal.INST, W, Y, C),
    ),
    _r(
        "has-value",
        (cal.TRIPLE, X, R, A, C),
        (cal.SUBHASVALUE, Y, R, A, C),
        (cal.INST, X, Y, C),
    ),
    _r(
        "all-values",
        (cal.INST, W, Z, C),
        (cal.SUPALL, Y, R, Z, C),
        (cal.INST, X, Y, C),
        (cal.TRIPLE, X, R, W, C),
    ),
    _r(
        "max-one",
        (cal.EQ, W1, W2, C),
        (cal.SUPMAX1, Y, R, Z, C),
        (cal.INST, X, Y, C),
        (cal.TRIPLE, X, R, W1, C),
        (cal.INST, W1, Z, C),
        (cal.TRIPLE, X, R, W2, C),
        (cal.INST, W2, Z, C),
    ),
    _r(
        "inv-role-fwd",
        (cal.TRIPLE, Y, S, X, C),
        (cal.INVROLE, R, S, C),
        (cal.TRIPLE, X, R, Y, C),
    ),
    _r(
        "inv-role-bwd",
        (cal.TRIPLE, Y, R, X, C),
        (cal.INVROLE, R, S, C),
        (cal.TRIPLE, X, S, Y, C),
    ),
    _r(
        "role-chain",
        (cal.TRIPLE, X, T, Z, C),
        (cal.SUBRCHAIN, R, S, T, C),
        (cal.TRIPLE, X, R, Y, C),
        (cal.TRIPLE, Y, S, Z, C),
    ),
    _r("eq-sym", (cal.EQ, Y, X, C), (cal.EQ, X, Y, C)),
    _r("eq-trans", (cal.EQ, X, Z, C), (cal.EQ, X, Y, C), (cal.EQ, Y, Z, C)),
    _r("eq-class", (cal.INST, Y, A, C), (cal.EQ, X, Y, C), (cal.INST, X, A, C)),
    _r(
        "eq-subject",
        (cal.TRIPLE, Y, R, Z, C),
        (cal.EQ, X, Y, C),
        (cal.TRIPLE, X, R, Z, C),
    ),
    _r(
        "eq-object",
        (cal.TRIPLE, Z, R, Y, C),
        (cal.EQ, X, Y, C),
        (cal.TRIPLE, Z, R, X, C),
    ),
    _r(
        "neg-class",
        (cal.UNSAT, C),
        (cal.SUBCLASSNEG, Y, Z, C),
        (cal.INST, X, Y, C),
        (cal.INST, X, Z, C),
    ),
    _r(
        "dis-role",
        (cal.UNSAT, C),
        (cal.DISROLE, R, S, C),
        (cal.TRIPLE, X, R, Y, C),
        (cal.TRIPLE, X, S, Y, C),
    ),
    _r(
        "irr-role",
        (cal.UNSAT, C),
        (cal.IRRROLE, R, C),
        (cal.TRIPLE, X, R, X, C),
    ),
    _r(
        "neg-triple",
        (cal.UNSAT, C),
        (cal.NTRIPLE, X, R, Y, C),
        (cal.TRIPLE, X, R, Y, C),
    ),
    _r("neq-eq", (cal.UNSAT, C), (cal.NEQ, X, Y, C), (cal.EQ, X, Y, C)),
)


#: Eval resolution: membership in the source context, read via the global
#: closure, lands in the referring context.
EVAL_RULES = (
    _r(
        "eval-class",
        (cal.INST, X, B, C),
        (cal.SUBEVAL, A, C1, B, C),
        (cal.INST, CP, C1, GLOBAL_GRAPH),
        (cal.INST, X, A, CP),
    ),
    _r(
        "eval-role",
        (cal.TRIPLE, X, S, Y, C),
        (cal.SUBEVALR, R, C1, S, C),
        (cal.INST, CP, C1, GLOBAL_GRAPH),
        (cal.TRIPLE, X, R, Y, CP),
    ),
)


@dataclass(frozen=True)
class Regime:
    """A rule set, and whether a local stage runs it in every context after
    the global stage.  Both stages run the one rule set: the eval rules stay
    idle in the global stage, which holds no eval facts."""

    id: str
    rules: tuple[Rule, ...]
    local: bool


_REGIMES = {
    r.id: r
    for r in (
        Regime("ckr-rdfs-global", SUBSUMPTION_RULES, False),
        Regime("ckr-rdfs-local", SUBSUMPTION_RULES, True),
        Regime("ckr-owl-global", RL_RULES, False),
        Regime("ckr-owl-local", RL_RULES + EVAL_RULES, True),
    )
}

REGIME_IDS = tuple(_REGIMES)


def instantiate_ruleset(regime_id: str) -> Regime:
    regime = _REGIMES.get(regime_id)
    if regime is None:
        raise ValueError(f"unknown regime id: {regime_id!r} (choose from {REGIME_IDS})")
    return regime
