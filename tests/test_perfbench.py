"""The benchmark's traced path, run as a user runs it.

The tracer wraps engine functions by name, so an engine change that drops or
renames one of them breaks only traced runs.
"""
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_run_reports_every_layer():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-owl",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = result["metrics"]
    assert [m["name"] for m in declared if m["name"] not in metrics] == []
    assert metrics["model.encode_axiom_calls"]["value"] == 808
    assert metrics["fixpoint.global_new_facts"]["value"] == 19
    assert metrics["fixpoint.local_new_facts"]["value"] == 66_866
    # one rule program per closure, run by both stages
    trace = ROOT / "perfbench" / "traces" / "grid-owl-seed0.jsonl"
    spans = Counter()
    for line in trace.read_text().splitlines():
        span = json.loads(line)
        spans[span["op"], span["name"]] += 1
    ops = {op for op, _ in spans}
    assert ops and all(spans[op, "compile_rules"] == 1 for op in ops)
    assert all(spans[op, "run_fixpoint"] == 2 for op in ops)
