"""Closed-loop benchmark of the ckrbench load -> close -> write pipeline.

    python3 perfbench/run.py --workload grid-owl --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is the result JSON, the line
before it the sample count behind every metric.  See perfbench/README.md.
"""
import time

_START = time.perf_counter()

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    if not (SRC / "ckrbench" / "__init__.py").is_file():
        print(f"run.py: no ckrbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pipeline

    return pipeline.main(argv, time.perf_counter() - _START)


if __name__ == "__main__":
    sys.exit(main())
