"""Benchmark harness: timed closure runs over generated suites, CSV output.

Timing wraps the closure computation only; parsing and repository assembly
happen once per file before the clock starts, so results measure reasoning,
not setup.  Repeated runs of one configuration that finish must agree on
every triple count; only the timing columns may differ.  A run that hits
its budget keeps its row, marked ``timedout``, with no inferred quads.
"""
from __future__ import annotations

import csv
import logging
import re
import statistics
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

from ckrbench.engine.closure import DEFAULT_BUDGET_MILLIS, compute_closure
from ckrbench.engine.rules import instantiate_ruleset
from ckrbench.model.repository import assemble_repository
from ckrbench.rdf.trig import load_path

logger = logging.getLogger(__name__)


@dataclass
class BenchRecord:
    suite: str
    config: str
    regime: str
    asserted: int
    total: int
    inferred: int
    ms: float
    timedout: bool
    seed: int
    run: int | str

    def row(self) -> dict:
        return asdict(self) | {
            "ms": f"{self.ms:.3f}",
            "timedout": str(self.timedout).lower(),
        }


CSV_FIELDS = tuple(f.name for f in fields(BenchRecord))


_FILE_PATTERN = re.compile(r"^(?P<suite>ts1|ts2|ts3|[a-z0-9]+)-(?P<config>.+?)(?:-s(?P<seed>\d+))?$")


def describe_file(path: str | Path) -> tuple[str, str, int]:
    """(suite, config, seed) parsed from a suite file name."""
    stem = Path(path).stem
    m = _FILE_PATTERN.match(stem)
    if not m:
        return ("custom", stem, 0)
    return (m["suite"], m["config"], int(m["seed"] or 0))


def bench_file(
    path: str | Path,
    regime_ids: Sequence[str],
    runs: int = 3,
    timeout_millis: int = DEFAULT_BUDGET_MILLIS,
) -> list[BenchRecord]:
    """All (regime, run) records for one suite file, plus averaged rows."""
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    suite, config, seed = describe_file(path)
    repo = assemble_repository(load_path(str(path)))
    for warning in repo.warnings:
        logger.warning("%s: %s", path, warning)
    records: list[BenchRecord] = []
    for regime_id in regime_ids:
        regime = instantiate_ruleset(regime_id)
        per_regime: list[BenchRecord] = []
        for run in range(1, runs + 1):
            result = compute_closure(repo, regime, timeout_millis)
            inferred = 0 if result.timed_out else result.inferred_quad_count
            per_regime.append(
                BenchRecord(
                    suite=suite,
                    config=config,
                    regime=regime_id,
                    asserted=result.asserted_quad_count,
                    total=result.asserted_quad_count + inferred,
                    inferred=inferred,
                    ms=result.total_ms,
                    timedout=result.timed_out,
                    seed=seed,
                    run=run,
                )
            )
        counts = {(r.asserted, r.total, r.inferred) for r in per_regime if not r.timedout}
        if len(counts) > 1:
            raise RuntimeError(
                f"non-deterministic triple counts for {path} under {regime_id}"
            )
        records.extend(per_regime)
        records.append(average_record(per_regime))
        logger.info(
            "%s %s %s: %d inferred, %.1f ms avg",
            suite,
            config,
            regime_id,
            records[-1].inferred,
            records[-1].ms,
        )
    return records


def average_record(run_records: Sequence[BenchRecord]) -> BenchRecord:
    """The mean time of the runs, with the counts of a finished run when
    there is one; timed out when any run was."""
    finished = [r for r in run_records if not r.timedout]
    return replace(
        (finished or run_records)[0],
        ms=statistics.fmean(r.ms for r in run_records),
        timedout=any(r.timedout for r in run_records),
        run="avg",
    )


def bench_suite(
    suite_dir: str | Path,
    regime_ids: Sequence[str],
    runs: int = 3,
    timeout_millis: int = DEFAULT_BUDGET_MILLIS,
) -> list[BenchRecord]:
    """Benchmark every .trig file in a directory."""
    files = sorted(Path(suite_dir).glob("*.trig"))
    if not files:
        raise FileNotFoundError(f"no .trig files under {suite_dir}")
    records: list[BenchRecord] = []
    for f in files:
        records.extend(bench_file(f, regime_ids, runs, timeout_millis))
    return records


def write_csv(records: Iterable[BenchRecord], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for record in records:
            writer.writerow(record.row())


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line fit: (slope, intercept, r_squared)."""
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("degenerate fit: all x values equal")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


_K_PATTERN = re.compile(r"-k(\d+)$")


def connection_sweep_fit(records: Sequence[BenchRecord]) -> dict[str, tuple[float, float, float]]:
    """Per (suite, regime) fit of averaged time against the connection count
    encoded in the configuration label (``...-k<n>``); a series of fewer
    than three points or two distinct counts has no fit."""
    series: dict[str, list[tuple[int, float]]] = {}
    for r in records:
        if r.run != "avg" or r.timedout:
            continue
        m = _K_PATTERN.search(r.config)
        if not m:
            continue
        series.setdefault(f"{r.suite}/{r.regime}", []).append((int(m.group(1)), r.ms))
    out = {}
    for key, points in series.items():
        if len(points) >= 3 and len({k for k, _ in points}) >= 2:
            points.sort()
            xs = [float(k) for k, _ in points]
            ys = [ms for _, ms in points]
            out[key] = linear_fit(xs, ys)
    return out
