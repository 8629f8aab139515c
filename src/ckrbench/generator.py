"""Synthetic repository generation and the three benchmark test sets.

Random repositories draw class and role names from the positive half of a
Gaussian centred on the first symbol (low-index symbols are the busy ones)
and individuals uniformly; axiom shapes follow fixed per-family percentage
tables.  Generation is deterministic in the seed, and every graph receives
exactly the requested number of distinct axioms so the asserted counts of a
configuration are reproducible.

Test sets:

* ts1 — a 5x5 grid over context count and signature scale, no eval axioms;
  the scalability workload.
* ts2 — a ring of contexts connected through eval inclusions: context i
  imports the members of D0 from its k successors into its own D1.
* ts3 — the same knowledge without eval: per-source copies of D0 plus plain
  subclass axioms, with instances re-asserted in every importing context.
"""
from __future__ import annotations

import math
import random
from dataclasses import MISSING, dataclass, fields

from ckrbench.errors import GeneratorError
from ckrbench.model import axioms as ax
from ckrbench.model.axioms import Axiom, axiom
from ckrbench.model.encoding import BlankMinter, encode_axioms
from ckrbench.namespaces import CTX_CLASS, GEN_NS, GLOBAL_GRAPH, MOD_PROPERTY
from ckrbench.rdf.dataset import Dataset
from ckrbench.rdf.terms import Term, iri

TBOX_WEIGHTS: tuple[tuple[str, int], ...] = (
    (ax.SUB_CLASS, 50),
    (ax.SUB_CLASS_NEG, 20),
    (ax.SUB_HAS_VALUE, 10),
    (ax.SUB_CONJ, 5),
    (ax.SUB_EX, 5),
    (ax.SUP_ALL, 5),
    (ax.SUP_MAX1, 5),
)
ABOX_WEIGHTS: tuple[tuple[str, int], ...] = (
    (ax.CONCEPT_ASSERT, 40),
    (ax.ROLE_ASSERT, 40),
    (ax.NEG_ROLE_ASSERT, 10),
    (ax.SAME, 5),
    (ax.DIFFERENT, 5),
)
RBOX_WEIGHTS: tuple[tuple[str, int], ...] = (
    (ax.SUB_ROLE, 50),
    (ax.INV_ROLE, 25),
    (ax.ROLE_CHAIN, 10),
    (ax.DIS_ROLE, 10),
    (ax.IRR_ROLE, 5),
)

FAMILY_WEIGHTS = {"tbox": TBOX_WEIGHTS, "abox": ABOX_WEIGHTS, "rbox": RBOX_WEIGHTS}


def family_of(shape: str) -> str:
    """The family whose percentage table the shape is drawn from."""
    for family, weights in FAMILY_WEIGHTS.items():
        if shape in dict(weights):
            return family
    raise ValueError(f"{shape} is not drawn from a family table")


# Exact largest-remainder allocation below this count, weighted draws above:
# small modules must still be representative of the percentage table.
EXACT_ALLOCATION_MAX = 1000

_MAX_RESAMPLE = 1000


@dataclass(frozen=True)
class GenParams:
    n_contexts: int
    n_classes: int
    n_roles: int
    n_individuals: int
    global_tbox: int
    global_rbox: int
    global_abox: int
    local_tbox: int
    local_rbox: int
    local_abox: int
    n_eval_axioms: int = 0
    n_propagated_individuals: int = 0
    seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.n_contexts < 1:
            raise ValueError("n_contexts must be at least 1")
        for f in fields(self):
            # any 64-bit seed is acceptable, counts are not
            if f.type == "int" and f.name != "seed" and getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")

    def total_axioms(self) -> int:
        glob = self.global_tbox + self.global_rbox + self.global_abox
        local = self.local_tbox + self.local_rbox + self.local_abox
        return glob + self.n_contexts * local

    def to_text(self) -> str:
        lines = [
            f"{f.name}={getattr(self, f.name)}"
            for f in fields(self)
            if f.name != "label"
        ]
        if self.label:
            lines.append(f"label={self.label}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GenParams":
        """The parameters of ``key=value`` lines; a GeneratorError names an
        unknown, missing, non-integer or out-of-range parameter."""
        names = {f.name for f in fields(cls)}
        values: dict[str, object] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in names:
                raise GeneratorError(f"unknown parameter {key!r}")
            try:
                values[key] = value if key == "label" else int(value)
            except ValueError:
                raise GeneratorError(f"{key} is not an integer: {value!r}") from None
        missing = [
            f.name for f in fields(cls) if f.default is MISSING and f.name not in values
        ]
        if missing:
            raise GeneratorError(f"missing parameters: {', '.join(missing)}")
        try:
            return cls(**values)  # type: ignore[arg-type]
        except ValueError as exc:
            raise GeneratorError(str(exc)) from None


def class_term(i: int) -> Term:
    return iri(f"{GEN_NS}A{i}")


def role_term(i: int) -> Term:
    return iri(f"{GEN_NS}R{i}")


def individual_term(i: int) -> Term:
    return iri(f"{GEN_NS}a{i}")


def context_term(i: int) -> Term:
    return iri(f"{GEN_NS}c{i}")


def module_term(i: int) -> Term:
    return iri(f"{GEN_NS}m{i}")


def sample_symbol(kind: str, params: GenParams, rng: random.Random) -> Term:
    """One signature symbol: half-Gaussian for classes and roles (low indexes
    dominate, sigma = size/4), uniform for individuals."""
    if kind == "class":
        size, make = params.n_classes, class_term
    elif kind == "role":
        size, make = params.n_roles, role_term
    elif kind == "individual":
        size, make = params.n_individuals, individual_term
    else:
        raise ValueError(f"unknown symbol kind: {kind!r}")
    if size <= 0:
        raise GeneratorError(f"empty signature for {kind}")
    if kind == "individual":
        return make(rng.randrange(size))
    index = min(int(abs(rng.gauss(0.0, 1.0)) * size / 4.0), size - 1)
    return make(index)


def allocate_shapes(
    weights: tuple[tuple[str, int], ...], count: int, rng: random.Random
) -> list[str]:
    """Shape sequence for ``count`` axioms following the percentage table."""
    if count <= EXACT_ALLOCATION_MAX:
        quotas = [(shape, count * w / 100.0) for shape, w in weights]
        picked = {shape: math.floor(q) for shape, q in quotas}
        rest = count - sum(picked.values())
        by_remainder = sorted(
            quotas, key=lambda sq: (sq[1] - math.floor(sq[1])), reverse=True
        )
        for shape, _ in by_remainder[:rest]:
            picked[shape] += 1
        out = [shape for shape, n in picked.items() for _ in range(n)]
    else:
        shapes = [shape for shape, _ in weights]
        table = [w for _, w in weights]
        out = rng.choices(shapes, weights=table, k=count)
    rng.shuffle(out)
    return out


# Argument positions that must be pairwise distinct per shape (degenerate
# forms such as A <= A are resampled).  Inv(R,R) stays legal: symmetry.
_DISTINCT_ARGS: dict[str, tuple[int, ...]] = {
    ax.SUB_CLASS: (0, 1),
    ax.SUB_CLASS_NEG: (0, 1),
    ax.SUB_CONJ: (0, 1),
    ax.SAME: (0, 1),
    ax.DIFFERENT: (0, 1),
    ax.SUB_ROLE: (0, 1),
    ax.DIS_ROLE: (0, 1),
}

def sample_axiom(shape: str, params: GenParams, rng: random.Random) -> Axiom:
    kinds = ax.SHAPE_SORTS[shape]
    distinct = _DISTINCT_ARGS.get(shape, ())
    for _ in range(_MAX_RESAMPLE):
        args = tuple(sample_symbol(kind, params, rng) for kind in kinds)
        if distinct and len({args[i] for i in distinct}) != len(distinct):
            continue
        return axiom(shape, *args)
    raise GeneratorError(f"cannot sample a non-degenerate {shape} axiom")


def _draw_distinct(
    counts: dict[str, int],
    params: GenParams,
    rng: random.Random,
    taken: set[Axiom],
) -> list[Axiom]:
    """Requested number of distinct axioms per family, shapes per table."""
    out: list[Axiom] = []
    for family, count in counts.items():
        if count == 0:
            continue
        for shape in allocate_shapes(FAMILY_WEIGHTS[family], count, rng):
            for _ in range(_MAX_RESAMPLE):
                candidate = sample_axiom(shape, params, rng)
                if candidate not in taken:
                    taken.add(candidate)
                    out.append(candidate)
                    break
            else:
                raise GeneratorError(
                    f"cannot draw {count} distinct {family} axioms from the "
                    f"signature of {params.label or 'configuration'}"
                )
    return out


@dataclass
class GeneratedCkr:
    """In-memory form of one generated repository."""

    params: GenParams
    structure: list[Axiom]  # context declarations and module links
    global_axioms: list[Axiom]
    modules: list[tuple[Term, Term, list[Axiom]]]  # (context, module, axioms)

    def object_axiom_count(self) -> int:
        return len(self.global_axioms) + sum(len(a) for _, _, a in self.modules)


def generate_ckr_axioms(params: GenParams) -> GeneratedCkr:
    rng = random.Random(params.seed)
    n = params.n_contexts
    structure = _ring_structure(n)

    taken_global: set[Axiom] = set()
    global_axioms = _draw_distinct(
        {
            "tbox": params.global_tbox,
            "rbox": params.global_rbox,
            "abox": params.global_abox,
        },
        params,
        rng,
        taken_global,
    )

    module_axioms: list[list[Axiom]] = []
    taken_local: list[set[Axiom]] = []
    for i in range(n):
        taken: set[Axiom] = set()
        module_axioms.append(
            _draw_distinct(
                {
                    "tbox": params.local_tbox,
                    "rbox": params.local_rbox,
                    "abox": params.local_abox,
                },
                params,
                rng,
                taken,
            )
        )
        taken_local.append(taken)

    for e in range(params.n_eval_axioms):
        holder = e % n
        source = rng.randrange(n)
        if n > 1:
            while source == holder:
                source = rng.randrange(n)
        left = sample_symbol("class", params, rng)
        right = sample_symbol("class", params, rng)
        if rng.random() < 0.5 or n == 1:
            eval_ax = axiom(
                ax.EVAL_SUB_CLASS, left, context_term(source), right, nominal_ctx=True
            )
        else:
            # atomic context class covering the source context
            cc = iri(f"{GEN_NS}CC{e}")
            eval_ax = axiom(ax.EVAL_SUB_CLASS, left, cc, right)
            membership = axiom(ax.CONCEPT_ASSERT, cc, context_term(source))
            if membership not in taken_global:
                taken_global.add(membership)
                global_axioms.append(membership)
        if eval_ax not in taken_local[holder]:
            taken_local[holder].add(eval_ax)
            module_axioms[holder].append(eval_ax)
        for _ in range(params.n_propagated_individuals):
            member = axiom(
                ax.CONCEPT_ASSERT, left, sample_symbol("individual", params, rng)
            )
            if member not in taken_local[source]:
                taken_local[source].add(member)
                module_axioms[source].append(member)

    modules = [
        (context_term(i), module_term(i), module_axioms[i]) for i in range(n)
    ]
    return GeneratedCkr(params, structure, global_axioms, modules)


def encode_generated(gen: GeneratedCkr) -> Dataset:
    dataset = Dataset()
    encode_axioms(
        dataset, GLOBAL_GRAPH, gen.structure + gen.global_axioms, BlankMinter("g")
    )
    for i, (_, module, axioms) in enumerate(gen.modules):
        encode_axioms(dataset, module, axioms, BlankMinter(f"m{i}x"))
    return dataset


def generate_ckr(params: GenParams) -> Dataset:
    """Deterministic dataset for the given parameters."""
    return encode_generated(generate_ckr_axioms(params))


# ---------------------------------------------------------------------------
# test sets
# ---------------------------------------------------------------------------

TS1_CONTEXTS = (1, 5, 10, 50, 100)
TS1_SCALES = (10, 50, 100, 500, 1000)


def build_ts1(seed: int = 0) -> list[GenParams]:
    """The 25 scalability configurations (contexts x signature scale)."""
    configs = []
    for n in TS1_CONTEXTS:
        for scale in TS1_SCALES:
            configs.append(
                GenParams(
                    n_contexts=n,
                    n_classes=scale,
                    n_roles=scale,
                    n_individuals=2 * scale,
                    global_tbox=scale,
                    global_rbox=scale // 2,
                    global_abox=2 * scale,
                    local_tbox=scale,
                    local_rbox=scale // 2,
                    local_abox=2 * scale,
                    seed=seed,
                    label=f"ts1-n{n}-c{scale}",
                )
            )
    return configs


def propagated_concept(version: int | None = None) -> Term:
    return iri(f"{GEN_NS}D0" if version is None else f"{GEN_NS}D0-{version}")


def target_concept() -> Term:
    return iri(f"{GEN_NS}D1")


def ts_individual(context: int, index: int) -> Term:
    return iri(f"{GEN_NS}x{context}_{index}")


def _ring_structure(n: int) -> list[Axiom]:
    """Context declarations and module links of contexts 0..n-1."""
    out = []
    for i in range(n):
        out.append(axiom(ax.CONCEPT_ASSERT, CTX_CLASS, context_term(i)))
        out.append(axiom(ax.ROLE_ASSERT, MOD_PROPERTY, context_term(i), module_term(i)))
    return out


def build_ts2(n: int, k: int, inst_per_context: int) -> Dataset:
    """Eval-connected ring: context i imports D0 from its k successors."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"connections must satisfy 0 <= k <= n-1, got k={k}, n={n}")
    dataset = Dataset()
    encode_axioms(dataset, GLOBAL_GRAPH, _ring_structure(n), BlankMinter("g"))
    d0, d1 = propagated_concept(), target_concept()
    for i in range(n):
        axioms = [
            axiom(ax.CONCEPT_ASSERT, d0, ts_individual(i, j))
            for j in range(inst_per_context)
        ]
        axioms += [
            axiom(ax.EVAL_SUB_CLASS, d0, context_term((i + t) % n), d1, nominal_ctx=True)
            for t in range(1, k + 1)
        ]
        encode_axioms(dataset, module_term(i), axioms, BlankMinter(f"m{i}x"))
    return dataset


def build_ts3(n: int, k: int, inst_per_context: int) -> Dataset:
    """Connection-free counterpart of ts2: one D0 copy per source context,
    subclass axioms instead of eval, instances re-asserted in every importer."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"connections must satisfy 0 <= k <= n-1, got k={k}, n={n}")
    dataset = Dataset()
    encode_axioms(dataset, GLOBAL_GRAPH, _ring_structure(n), BlankMinter("g"))
    d1 = target_concept()
    for i in range(n):
        axioms = [
            axiom(ax.CONCEPT_ASSERT, propagated_concept(i), ts_individual(i, j))
            for j in range(inst_per_context)
        ]
        for t in range(1, k + 1):
            j = (i + t) % n
            axioms.append(axiom(ax.SUB_CLASS, propagated_concept(j), d1))
            axioms += [
                axiom(ax.CONCEPT_ASSERT, propagated_concept(j), ts_individual(j, m))
                for m in range(inst_per_context)
            ]
        encode_axioms(dataset, module_term(i), axioms, BlankMinter(f"m{i}x"))
    return dataset


#: Connection sweeps: ts2/ts3 at desk scale and at full scale
#: (100 contexts, extract points 0, 4, 9, ... 99).
DESK_SWEEP = ((20, 0, 10), (20, 1, 10), (20, 2, 10), (20, 5, 10), (20, 10, 10), (20, 19, 10))
FULL_SWEEP = tuple((100, k, 10) for k in (0, *range(4, 100, 5)))
