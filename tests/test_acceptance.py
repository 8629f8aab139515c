"""Acceptance suite for the repository engine, generator and harness.

One test per criterion; each prints a single ``ACCEPTANCE <n> PASS`` line on
success (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
Criterion 8 is the declared substitution for the hardware-bound absolute
timings: a qualitative scalability contrast instead of wall-clock numbers.
"""
import math
import random
import sys
import time
from collections import Counter

import pytest

sys.path.insert(0, "tests")

from conftest import record_acceptance
from oracle import naive_closure
from util import random_ckr_params, trig

from ckrbench.bench import linear_fit
from ckrbench.engine.closure import compute_closure
from ckrbench.engine.rules import REGIME_IDS, instantiate_ruleset
from ckrbench.generator import (
    DESK_SWEEP,
    FULL_SWEEP,
    FAMILY_WEIGHTS,
    GenParams,
    build_ts1,
    build_ts2,
    build_ts3,
    family_of,
    generate_ckr,
    generate_ckr_axioms,
    target_concept,
)
from ckrbench.model.repository import assemble_repository
from ckrbench.rdf.trig import load_dataset, write_dataset

OWL_LOCAL = instantiate_ruleset("ckr-owl-local")
REGIMES = {rid: instantiate_ruleset(rid) for rid in REGIME_IDS}
D1 = target_concept()


def close(dataset, regime=OWL_LOCAL):
    return compute_closure(assemble_repository(dataset), regime)


def derived_d1(result):
    return frozenset(result.facts.match("inst", None, D1, None))


@pytest.fixture(scope="module")
def full_sweep_ticks():
    """Budget tick total per k of the full sweep, kept by
    ``full_sweep_results``."""
    return {}


@pytest.fixture(scope="module")
def full_sweep_results(full_sweep_ticks):
    """Closures of the propagation experiment at full scale
    (100 contexts, 10 instances, connection extract 0, 4, 9, ..., 99).
    Five timed runs per point, the fastest one speaks (robust against
    scheduler noise).  The runs go round-robin, five passes over the whole
    sweep, so a slow phase of the host that lasts a few seconds costs one
    run of several points, not every run of a few.  Every repository is
    built once and held through all passes, so all points run on the same
    heap; of the closures only counts, tick totals and timings are kept."""
    repos = [assemble_repository(build_ts2(n, k, m)) for n, k, m in FULL_SWEEP]
    best_ms = [math.inf] * len(repos)
    d1_counts = [None] * len(repos)
    for _ in range(5):
        for i, ((n, k, m), repo) in enumerate(zip(FULL_SWEEP, repos)):
            result = compute_closure(repo, OWL_LOCAL)
            assert not result.timed_out
            best_ms[i] = min(best_ms[i], result.total_ms)
            count = len(derived_d1(result))
            assert d1_counts[i] in (None, count)
            d1_counts[i] = count
            assert full_sweep_ticks.setdefault(k, result.ticks) == result.ticks
    return [
        (n, k, m, d1_counts[i], best_ms[i]) for i, (n, k, m) in enumerate(FULL_SWEEP)
    ]


def test_criterion_1_ts2_propagation_law(full_sweep_results):
    # Desk scale: derived D1 memberships equal n*k*m exactly (tolerance 0).
    for n, k, m in DESK_SWEEP:
        result = close(build_ts2(n, k, m))
        assert len(derived_d1(result)) == n * k * m, (n, k, m)
    # Full scale: 1000*k propagated memberships, under a minute a point.
    slowest = 0.0
    for n, k, m, d1_count, best_ms in full_sweep_results:
        assert d1_count == 1000 * k == n * k * m
        assert best_ms < 60_000, f"k={k} took {best_ms:.0f} ms"
        slowest = max(slowest, best_ms)
    record_acceptance(
        f"ACCEPTANCE 1 PASS: propagation law exact on {len(DESK_SWEEP)} desk "
        f"and {len(FULL_SWEEP)} full-scale points "
        f"(slowest point {slowest:.0f} ms < 60000 ms)"
    )


def test_criterion_2_ts2_ts3_equivalence():
    for n, k, m in DESK_SWEEP:
        ts2 = close(build_ts2(n, k, m))
        ts3 = close(build_ts3(n, k, m))
        assert derived_d1(ts2) == derived_d1(ts3), (n, k, m)
        if k == 0:
            assert ts3.asserted_quad_count == ts2.asserted_quad_count
        else:
            assert ts3.asserted_quad_count > ts2.asserted_quad_count, (n, k, m)
    record_acceptance(
        f"ACCEPTANCE 2 PASS: identical derived membership sets on all "
        f"{len(DESK_SWEEP)} sweep points; replicated-symbol datasets assert "
        "strictly more triples for every k >= 1"
    )


def test_criterion_3_propagation_time_linearity(full_sweep_results):
    ks = [float(k) for _, k, _, _, _ in full_sweep_results]
    ms = [best_ms for _, _, _, _, best_ms in full_sweep_results]
    slope, intercept, r2 = linear_fit(ks, ms)
    assert r2 >= 0.95, f"R^2 = {r2:.4f} (fit ms = {slope:.2f}k + {intercept:.2f})"
    record_acceptance(
        f"ACCEPTANCE 3 PASS: closure time linear in connection count, "
        f"R^2 = {r2:.4f} (slope {slope:.2f} ms/k over k = 0..99)"
    )


def test_propagation_work_linearity(full_sweep_results, full_sweep_ticks):
    # The deterministic companion of criterion 3: the closure's budget
    # ticks (join heads, driver facts, facts indexed, merged, seeded and
    # materialized) are linear in k, whatever the host's speed.
    ks = [float(k) for _, k, _, _, _ in full_sweep_results]
    ticks = [float(full_sweep_ticks[k]) for _, k, _, _, _ in full_sweep_results]
    slope, intercept, r2 = linear_fit(ks, ticks)
    assert r2 >= 0.999, f"R^2 = {r2:.5f} (fit ticks = {slope:.1f}k + {intercept:.1f})"


TABLE_TOTALS = [
    70, 350, 700, 3500, 7000,
    210, 1050, 2100, 10500, 21000,
    385, 1925, 3850, 19250, 38500,
    1785, 8925, 17850, 89250, 178500,
    3535, 17675, 35350, 176750, 353500,
]


def test_criterion_4_scalability_grid_reconstruction():
    configs = build_ts1(seed=0)
    assert len(configs) == 25
    for params, expected in zip(configs, TABLE_TOTALS):
        assert params.total_axioms() == expected, params.label
        generated = generate_ckr_axioms(params)
        assert generated.object_axiom_count() == expected, params.label
    # the smaller half goes through the full RDF encode/assemble cycle too
    checked = 0
    for params, expected in zip(configs, TABLE_TOTALS):
        if params.n_classes > 100:
            continue
        repo = assemble_repository(generate_ckr(params))
        assert repo.object_axiom_count() == expected, params.label
        checked += 1
    record_acceptance(
        "ACCEPTANCE 4 PASS: all 25 grid configurations generate exactly "
        f"their reference grid totals (70 .. 353500); {checked} of them "
        "verified through the full RDF encode/parse cycle"
    )


def test_criterion_5_generator_shape_distribution():
    params = GenParams(
        n_contexts=1,
        n_classes=2000,
        n_roles=2000,
        n_individuals=4000,
        global_tbox=10_000,
        global_rbox=10_000,
        global_abox=10_000,
        local_tbox=0,
        local_rbox=0,
        local_abox=0,
        seed=17,
    )
    shapes = Counter(a.shape for a in generate_ckr_axioms(params).global_axioms)
    families = Counter(family_of(s) for s in shapes.elements())
    assert families == {"tbox": 10_000, "rbox": 10_000, "abox": 10_000}
    worst = 0.0
    for weights in FAMILY_WEIGHTS.values():
        for shape, expected_pct in weights:
            got_pct = 100.0 * shapes[shape] / 10_000
            worst = max(worst, abs(got_pct - expected_pct))
            assert abs(got_pct - expected_pct) <= 3.0, (shape, got_pct)
    record_acceptance(
        f"ACCEPTANCE 5 PASS: shape frequencies over 10000 axioms per family "
        f"within ±3 points of the percentage table (worst deviation "
        f"{worst:.2f} points)"
    )


def test_criterion_6_oracle_equivalence():
    rng = random.Random(20260808)
    t0 = time.perf_counter()
    closures = 0
    for i in range(50):
        dataset = generate_ckr(random_ckr_params(rng, i))
        for rid in REGIME_IDS:
            engine = close(dataset, REGIMES[rid]).facts.as_set()
            reference = naive_closure(dataset, rid)
            assert engine == reference, f"repository {i}, regime {rid}"
            closures += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"suite took {elapsed:.0f}s"
    record_acceptance(
        f"ACCEPTANCE 6 PASS: engine closure equals the naive bottom-up "
        f"evaluator on {closures} closures (50 repositories x 4 regimes) "
        f"in {elapsed:.0f}s < 300s"
    )


def _containment_fixtures():
    yield "ts2-desk-k0", build_ts2(20, 0, 10)
    yield "ts2-desk-k2", build_ts2(20, 2, 10)
    yield "ts2-desk-k19", build_ts2(20, 19, 10)
    yield "ts3-desk-k5", build_ts3(20, 5, 10)
    for n, scale in ((1, 10), (5, 10)):
        params = GenParams(
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
            seed=1,
            label=f"grid-n{n}-c{scale}",
        )
        yield params.label, generate_ckr(params)
    yield "eval-chain", trig(
        "ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . :c1 a ckr:Ctx ; ckr:mod :m1 . "
        ":c2 a ckr:Ctx ; ckr:mod :m2 . } "
        ":m0 { [ ckr:evalOf :D1 ; ckr:evalIn [ owl:oneOf ( :c1 ) ] ] rdfs:subClassOf :D2 . } "
        ":m1 { [ ckr:evalOf :D0 ; ckr:evalIn [ owl:oneOf ( :c2 ) ] ] rdfs:subClassOf :D1 . } "
        ":m2 { :x a :D0 . }"
    )
    rng = random.Random(7)
    for i in range(6):
        yield f"random-{i}", generate_ckr(random_ckr_params(rng, i))


def test_criterion_7_regime_containment_and_idempotence():
    fixtures = 0
    for label, dataset in _containment_fixtures():
        results = {rid: close(dataset, REGIMES[rid]) for rid in REGIME_IDS}
        quads = {rid: set(r.closed_dataset()) for rid, r in results.items()}
        assert quads["ckr-rdfs-global"] <= quads["ckr-owl-global"], label
        assert quads["ckr-owl-global"] <= quads["ckr-owl-local"], label
        assert quads["ckr-rdfs-local"] <= quads["ckr-owl-local"], label
        for rid, result in results.items():
            reloaded = load_dataset(write_dataset(result.closed_dataset()))
            second = close(reloaded, REGIMES[rid])
            assert second.inferred_quad_count == 0, (label, rid)
        fixtures += 1
    record_acceptance(
        f"ACCEPTANCE 7 PASS: regime containment chains hold and a second "
        f"closure pass infers zero quads on {fixtures} fixtures x 4 regimes"
    )


def _grid_params(n: int, scale: int) -> GenParams:
    return GenParams(
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
        seed=0,
        label=f"diag-n{n}-c{scale}",
    )


def _loglog_slope(points):
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(ms, 1e-3)) for _, ms in points]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )


def test_criterion_8_declared_substitution_scalability_contrast():
    """Absolute closure times and the structural triple constants of the
    reported runs are declared not reproducible (hardware- and
    encoding-specific).  Substitute: on a grid-shaped desk sweep growing
    both context count and content, the full local regime's closure time
    grows super-linearly in the number of contexts while global-only
    subsumption reasoning stays near-flat."""
    sweep = [(1, 6), (2, 8), (5, 10), (10, 12), (20, 14)]
    times: dict[str, list[tuple[int, float]]] = {"ckr-rdfs-global": [], "ckr-owl-local": []}
    for n, scale in sweep:
        dataset = generate_ckr(_grid_params(n, scale))
        repo = assemble_repository(dataset)
        for rid in times:
            best = min(
                compute_closure(repo, REGIMES[rid]).total_ms for _ in range(2)
            )
            times[rid].append((n, best))
    owl_slope = _loglog_slope(times["ckr-owl-local"])
    rdfs_slope = _loglog_slope(times["ckr-rdfs-global"])
    owl_max = times["ckr-owl-local"][-1][1]
    rdfs_max = times["ckr-rdfs-global"][-1][1]
    assert owl_slope >= 1.15, f"owl-local slope {owl_slope:.2f} not super-linear"
    assert rdfs_slope <= 0.70, f"rdfs-global slope {rdfs_slope:.2f} not near-flat"
    assert rdfs_max <= 0.1 * owl_max, (rdfs_max, owl_max)
    record_acceptance(
        f"ACCEPTANCE 8 PASS (declared substitution): full-regime time grows "
        f"super-linearly in contexts (log-log slope {owl_slope:.2f}) while "
        f"global subsumption stays near-flat (slope {rdfs_slope:.2f}; "
        f"{rdfs_max:.1f} ms vs {owl_max:.0f} ms at the largest point)"
    )


def test_scalability_contrast_in_work():
    # The deterministic companion of criterion 8: the same sweep and slopes
    # over the closure's exact tick totals, which do not depend on the
    # host's speed.
    sweep = [(1, 6), (2, 8), (5, 10), (10, 12), (20, 14)]
    ticks: dict[str, list[tuple[int, int]]] = {"ckr-rdfs-global": [], "ckr-owl-local": []}
    for n, scale in sweep:
        repo = assemble_repository(generate_ckr(_grid_params(n, scale)))
        for rid in ticks:
            ticks[rid].append((n, compute_closure(repo, REGIMES[rid]).ticks))
    owl_slope = _loglog_slope(ticks["ckr-owl-local"])
    rdfs_slope = _loglog_slope(ticks["ckr-rdfs-global"])
    assert owl_slope >= 1.15, f"owl-local tick slope {owl_slope:.3f} not super-linear"
    assert rdfs_slope <= 0.70, f"rdfs-global tick slope {rdfs_slope:.3f} not near-flat"
