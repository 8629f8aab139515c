"""Workloads, the timed operation and the closed loop that repeats it.

One operation is the ``ckrbench closure INPUT --out OUT`` path through the
public API: parse TriG bytes, assemble the repository, close it under the
workload's regime with the default budget, copy out the closed dataset,
serialize it and check the output.  One client runs operations back to back
in this process; each operation's datasets and ``ClosureResult`` are local
to :func:`operation` and are dropped before the next one starts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import ckrbench.calculus
import ckrbench.engine.closure
from ckrbench import (
    Dataset,
    Quad,
    assemble_repository,
    build_ts2,
    compute_closure,
    instantiate_ruleset,
    iri,
    load_dataset,
    write_dataset,
)
from ckrbench.engine.closure import DEFAULT_BUDGET_MILLIS
from ckrbench.generator import build_ts1, generate_ckr, target_concept
from ckrbench.namespaces import GEN_NS, RDF_TYPE

from spans import Tracer

TRACE_DIR = Path(__file__).resolve().parent / "traces"

#: Input builds per run: at least SETUP_REPEATS, and more until SETUP_MIN_S
#: seconds are spent, so that sub-second builds are not single noisy samples.
#: ``setup_s`` reports their median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0

RELATIONS = ("triple", "inst", "eq", "subClass", "subRole", "unsat")

END_TO_END_UNITS = {
    "pipeline_ms": "ms",
    "closure_ms": "ms",
    "quads_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "trig.load_ms": "ms",
    "trig.bytes_in": "bytes",
    "trig.write_ms": "ms",
    "trig.bytes_out": "bytes",
    "dataset.closed_copy_ms": "ms",
    "repository.assemble_ms": "ms",
    "repository.axioms": "count",
    "calculus.translate_ms": "ms",
    "calculus.translate_calls": "count",
    "fixpoint.compile_ms": "ms",
    "fixpoint.global_ms": "ms",
    "fixpoint.global_new_facts": "count",
    "fixpoint.local_ms": "ms",
    "fixpoint.local_new_facts": "count",
    "closure.materialize_ms": "ms",
    "closure.materialize_share": "ratio",
    "model.encode_axiom_calls": "count",
    "closure.assoc_ms": "ms",
    "closure.inferred_facts": "count",
    "closure.inferred_quads": "count",
    **{f"closure.facts.{rel}": "count" for rel in RELATIONS},
    "trace.pipeline_ms": "ms",
    "trace.overhead_ms": "ms",
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

_GENERATED = re.compile(re.escape(GEN_NS) + r"([ARacm])(\d+)$")


def relabel(dataset: Dataset, seed: int) -> Dataset:
    """An isomorphic copy of a generated dataset.

    Class, role and individual indices, and context indices together with
    their module indices, are permuted by permutations drawn from ``seed``;
    seed 0 is the identity.  The copy names different IRIs and serializes in
    a different order, but the closure does the same work and infers the
    same number of quads, so timings stay comparable across seeds.
    """
    if seed == 0:
        return dataset
    indices: dict[str, set[int]] = defaultdict(set)
    for q in dataset:
        for t in q:
            m = _GENERATED.match(t.lexical) if t.kind == "iri" else None
            if m:
                indices["c" if m[1] in "cm" else m[1]].add(int(m[2]))
    rng = random.Random(seed)
    renamed: dict[str, int] = {}
    for group in sorted(indices):
        old = sorted(indices[group])
        new = old[:]
        rng.shuffle(new)
        for letter in ("cm" if group == "c" else group):
            renamed.update({f"{letter}{a}": b for a, b in zip(old, new)})

    def rename(t):
        m = _GENERATED.match(t.lexical) if t.kind == "iri" else None
        return iri(f"{GEN_NS}{m[1]}{renamed[m[1] + m[2]]}") if m else t

    copy = Dataset(Quad(*map(rename, q)) for q in dataset)
    if len(copy) != len(dataset) or len(copy.graph_names()) != len(dataset.graph_names()):
        raise ValueError("relabelling is not a bijection on this dataset")
    return copy


def ts1_input(contexts: int, scale: int) -> Callable[[int, int], bytes]:
    label = f"ts1-n{contexts}-c{scale}"

    def build(seed: int, ts1_seed: int) -> bytes:
        (params,) = [p for p in build_ts1(ts1_seed) if p.label == label]
        return write_dataset(relabel(generate_ckr(params), seed))

    return build


def propagation_input(seed: int, ts1_seed: int) -> bytes:
    return write_dataset(build_ts2(100, 99, 10))


def reclose_input(seed: int, ts1_seed: int) -> bytes:
    repo = assemble_repository(build_ts2(100, 49, 10))
    result = compute_closure(
        repo, instantiate_ruleset("ckr-owl-local"), DEFAULT_BUDGET_MILLIS
    )
    return write_dataset(result.closed_dataset())


@dataclass(frozen=True)
class Workload:
    regime: str
    build: Callable[[int, int], bytes]  # (seed, ts1 seed) -> TriG bytes
    inferred_quads: int  # pinned for ts1 seed 0
    seeded: bool  # False: the input is the same for every seed
    d1_members: int | None = None  # ts2 propagation law n*k*10
    reclose: bool = False  # output must equal the input byte for byte


WORKLOADS = {
    "propagation": Workload(
        "ckr-owl-local", propagation_input, 99_100, seeded=False, d1_members=99_000
    ),
    "grid-rdfs": Workload("ckr-rdfs-local", ts1_input(50, 100), 249_772, seeded=True),
    "grid-owl": Workload("ckr-owl-local", ts1_input(50, 10), 69_686, seeded=True),
    "reclose": Workload("ckr-owl-local", reclose_input, 0, seeded=False, reclose=True),
}


# ---------------------------------------------------------------------------
# the operation
# ---------------------------------------------------------------------------


def check(wl: Workload, pinned: bool, data: bytes, result, closed, out: bytes):
    """Problems found in one operation's output, plus the counts and output
    digest that every operation of a run must repeat exactly."""
    problems = []
    if result.timed_out:
        problems.append("closure timed out")
    total = len(closed)
    if total != result.asserted_quad_count + result.inferred_quad_count:
        problems.append(
            f"total {total} != asserted {result.asserted_quad_count}"
            f" + inferred {result.inferred_quad_count}"
        )
    if pinned and result.inferred_quad_count != wl.inferred_quads:
        problems.append(
            f"inferred {result.inferred_quad_count} quads, expected {wl.inferred_quads}"
        )
    if wl.d1_members is not None:
        d1 = target_concept()
        members = sum(
            1 for q in result.inference_quads if q.p == RDF_TYPE and q.o == d1
        )
        if members != wl.d1_members:
            problems.append(f"derived {members} :D1 memberships, expected {wl.d1_members}")
    if wl.reclose and out != data:
        problems.append("re-closed output differs from its input")
    signature = (
        result.asserted_quad_count,
        result.inferred_quad_count,
        total,
        hashlib.sha256(out).hexdigest(),
    )
    return problems, signature


@dataclass
class Outcome:
    pipeline_ms: float
    closure_ms: float
    out_quads: int
    problems: list[str]
    signature: tuple
    layers: dict[str, float] = field(default_factory=dict)


def _direct(name, fn, *args):
    return fn(*args)


def operation(wl: Workload, data: bytes, pinned: bool, tracer: Tracer | None = None):
    call = tracer.call if tracer is not None else _direct
    t0 = time.perf_counter()
    dataset = call("load_dataset", load_dataset, data)
    repo = call("assemble_repository", assemble_repository, dataset)
    regime = instantiate_ruleset(wl.regime)
    t1 = time.perf_counter()
    result = call("compute_closure", compute_closure, repo, regime, DEFAULT_BUDGET_MILLIS)
    t2 = time.perf_counter()
    closed = call("closed_dataset", result.closed_dataset)
    out = call("write_dataset", write_dataset, closed)
    problems, signature = call("check", check, wl, pinned, data, result, closed, out)
    t3 = time.perf_counter()
    outcome = Outcome((t3 - t0) * 1e3, (t2 - t1) * 1e3, len(closed), problems, signature)
    if tracer is not None:
        # Counts read after the timed region, while the result is still alive.
        stages = result.per_stage_ms
        outcome.layers = {
            "trig.bytes_in": len(data),
            "trig.bytes_out": len(out),
            "repository.axioms": len(repo.global_axioms)
            + sum(len(m.axioms) for m in repo.modules.values()),
            "closure.assoc_ms": stages.get("assoc", 0.0),
            "closure.materialize_ms": stages.get("materialize", 0.0),
            "closure.inferred_facts": result.inferred_fact_count,
            "closure.inferred_quads": result.inferred_quad_count,
            **{f"closure.facts.{rel}": len(result.facts.relation(rel)) for rel in RELATIONS},
        }
    return outcome


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer times and counts of one traced operation."""
    self_ms: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    fixpoints = []
    for name, duration, own, count in spans:
        self_ms[name] += own
        calls[name] += 1
        if name == "run_fixpoint":
            fixpoints.append((duration, count))
    # The engine saturates the global stage first and, under a local regime,
    # the local stage second.
    (global_ms, global_new), *rest = fixpoints
    local_ms, local_new = rest[0] if rest else (0.0, 0)
    translate = ("translate_rl", "translate_axiom")
    return {
        "trig.load_ms": self_ms["load_dataset"],
        "trig.write_ms": self_ms["write_dataset"],
        "dataset.closed_copy_ms": self_ms["closed_dataset"],
        "repository.assemble_ms": self_ms["assemble_repository"],
        "calculus.translate_ms": sum(self_ms[n] for n in translate),
        # translate_axiom delegates to translate_rl; both calls count.
        "calculus.translate_calls": sum(calls[n] for n in translate),
        "fixpoint.compile_ms": self_ms["compile_rules"],
        "fixpoint.global_ms": global_ms,
        "fixpoint.global_new_facts": global_new,
        "fixpoint.local_ms": local_ms,
        "fixpoint.local_new_facts": local_new,
        "model.encode_axiom_calls": calls["encode_axiom"],
    }


def traced_operation(wl: Workload, data: bytes, pinned: bool, tracer: Tracer) -> Outcome:
    tracer.op += 1
    closure_module = ckrbench.engine.closure
    tracer.patch(ckrbench.calculus, "translate_rl")
    tracer.patch(ckrbench.calculus, "translate_axiom")
    tracer.patch(closure_module, "compile_rules")
    tracer.patch(closure_module, "run_fixpoint", size=lambda args: len(args[0]))
    tracer.patch(closure_module, "encode_axiom")
    try:
        outcome = operation(wl, data, pinned, tracer)
    finally:
        tracer.unpatch()
    layers = outcome.layers
    layers.update(layer_metrics(tracer.op_spans(tracer.op)))
    local_ms = layers["fixpoint.local_ms"]
    layers["closure.materialize_share"] = (
        layers["closure.materialize_ms"] / local_ms if local_ms else 0.0
    )
    layers["trace.pipeline_ms"] = outcome.pipeline_ms
    return outcome


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="relabelling seed of the grid inputs (propagation and reclose are seedless)")
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ts1-seed", type=int, default=0,
                    help="generator seed of the grid inputs; counts are pinned only for 0")
    args = ap.parse_args(argv)
    if args.ts1_seed and not WORKLOADS[args.workload].seeded:
        ap.error(f"{args.workload} is seedless; --ts1-seed applies to the grid workloads")
    return args


def main(argv, import_s: float) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    pinned = not wl.seeded or args.ts1_seed == 0

    builds = []
    data = None
    while len(builds) < SETUP_REPEATS or sum(builds) < SETUP_MIN_S:
        t = time.perf_counter()
        built = wl.build(args.seed, args.ts1_seed)
        builds.append(time.perf_counter() - t)
        if data is not None and built != data:
            print("input generation is not deterministic", file=sys.stderr)
            return 1
        data = built
    setup_s = import_s + statistics.median(builds)

    tracer = Tracer() if args.trace else None
    outcomes: list[tuple[int, Outcome]] = []  # (attempt number, outcome)
    attempted = failed = 0
    reference = None
    deadline = time.perf_counter() + args.seconds
    while True:
        # A traced run alternates traced and untraced operations, traced first.
        traced = tracer is not None and attempted % 2 == 0
        attempted += 1
        try:
            if traced:
                outcome = traced_operation(wl, data, pinned, tracer)
            else:
                outcome = operation(wl, data, pinned)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
        else:
            if reference is None:
                reference = outcome.signature
            elif outcome.signature != reference:
                outcome.problems.append("counts or output differ from the run's first operation")
            if outcome.problems:
                failed += 1
                print(f"operation {attempted}: " + "; ".join(outcome.problems), file=sys.stderr)
            outcomes.append((attempted, outcome))
        if time.perf_counter() >= deadline and (tracer is None or attempted >= 2):
            break

    is_traced = (lambda n: n % 2 == 1) if tracer is not None else (lambda n: False)
    plain = [o for n, o in outcomes if not is_traced(n)]
    if not plain:
        print("no operation completed untraced", file=sys.stderr)
        return 1
    pipeline_ms = statistics.median(o.pipeline_ms for o in plain)
    samples: dict[str, int] = {}
    if tracer is None:
        values = {
            "pipeline_ms": pipeline_ms,
            "closure_ms": statistics.median(o.closure_ms for o in plain),
            "quads_per_s": plain[0].out_quads / (pipeline_ms / 1e3),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS
        samples = {name: len(plain) for name in values}
        samples.update(peak_rss_mb=1, setup_s=len(builds))
    else:
        traced = [o.layers for n, o in outcomes if is_traced(n)]
        by_attempt = {n: o.pipeline_ms for n, o in outcomes}
        # Overhead from adjacent traced/untraced pairs, so that slow and
        # fast phases of a shared host cancel within each pair.
        pairs = [by_attempt[n] - by_attempt[n + 1] for n in by_attempt
                 if is_traced(n) and n + 1 in by_attempt]
        if not traced or not pairs:
            print("no traced/untraced pair of operations completed", file=sys.stderr)
            return 1
        values = {name: statistics.median(ls[name] for ls in traced) for name in traced[0]}
        values["trace.overhead_ms"] = statistics.median(pairs)
        units = PER_LAYER_UNITS
        samples = {name: len(traced) for name in values}
        samples["trace.overhead_ms"] = len(pairs)
        trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_file)

    # Sample counts and the failure share go on the line before the result.
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "ts1_seed": args.ts1_seed,
        "trace": args.trace,
        "pipeline_ms_each": [round(o.pipeline_ms, 1) for _, o in outcomes],
        "closure_ms_each": [round(o.closure_ms, 1) for _, o in outcomes],
        "import_s": import_s,
        "failed_frac": failed / attempted,
        "samples": samples,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0
