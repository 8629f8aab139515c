"""Print every end-to-end and per-layer metric of the benchmark.

    python3 perfbench/report.py [--workload NAME ...] [--seed N] [--seconds S]
                                [--ts1-seed N]

Runs each workload twice, untraced and traced, each time in a fresh process,
and prints one line per metric: workload, name, median, unit and the number
of samples behind the median.  The traced run's overhead is printed as
``trace.overhead_ms``.  Exits 1 when any output check failed.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import SRC

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, ts1_seed: int, trace: int):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--ts1-seed", str(ts1_seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    detail, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return detail, result


def _number(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:.4f}"


def main(argv=None) -> int:
    sys.path.insert(0, str(SRC))
    from pipeline import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--ts1-seed", type=int, default=0)
    args = ap.parse_args(argv)

    ok = True
    print(f"{'workload':<12} {'metric':<28} {'median':>16} {'unit':<6} samples")
    for workload in args.workload or WORKLOADS:
        seeded = WORKLOADS[workload].seeded
        for trace in (0, 1):
            detail, result = run(workload, args.seed, args.seconds,
                                 args.ts1_seed if seeded else 0, trace)
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                print(f"{workload:<12} {name:<28} {_number(m['value']):>16} {m['unit']:<6} "
                      f"{detail['samples'][name]}")
            print(f"{workload:<12} {'failed_frac':<28} {_number(detail['failed_frac']):>16} "
                  f"{'ratio':<6} {result['attempted']}"
                  f"{'' if trace == 0 else '  (traced run)'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
