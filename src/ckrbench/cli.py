"""Command-line interface.

Commands:
  closure    compute and write the inference closure of a dataset
  check      test whether an assertion is entailed in a context
  generate   build one dataset from a parameter file
  gen-suite  build a whole test-set sweep (ts1 / ts2 / ts3)
  bench      timed closure runs over a suite directory, CSV report

Exit codes: 0 success (check: entailed), 1 not entailed, 2 usage/parse
error, 3 closure timeout.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from ckrbench import __version__
from ckrbench.bench import bench_suite, connection_sweep_fit, write_csv
from ckrbench.engine.closure import DEFAULT_BUDGET_MILLIS, check_entailment, compute_closure
from ckrbench.engine.rules import REGIME_IDS, instantiate_ruleset
from ckrbench.errors import BudgetExceeded, CkrError, UsageError
from ckrbench.generator import (
    DESK_SWEEP,
    FULL_SWEEP,
    GenParams,
    build_ts1,
    build_ts2,
    build_ts3,
    generate_ckr,
)
from ckrbench.model.axioms import CONCEPT_ASSERT, ROLE_ASSERT, axiom
from ckrbench.model.repository import CkrRepository, assemble_repository
from ckrbench.namespaces import RDF_TYPE, STANDARD_PREFIXES
from ckrbench.rdf.terms import Term, iri
from ckrbench.rdf.trig import decode_utf8, load_path, write_dataset, write_path

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_ERROR = 2
EXIT_TIMEOUT = 3

logger = logging.getLogger("ckrbench")


DEFAULT_REGIME = "ckr-owl-local"


def _resolve(text: str) -> Term:
    """CURIE or <iri> from the standard prefix table."""
    prefix, sep, local = text.partition(":")
    if text.startswith("<") and text.endswith(">"):
        lexical = text[1:-1]
    elif sep and prefix in STANDARD_PREFIXES and "//" not in local:
        lexical = STANDARD_PREFIXES[prefix] + local
    else:
        lexical = text
    try:
        return iri(lexical)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _assemble(path: str) -> CkrRepository:
    """The repository of a TriG file, its warnings logged."""
    repo = assemble_repository(load_path(path))
    for warning in repo.warnings:
        logger.warning("%s: %s", path, warning)
    return repo


def _check_timeout(args: argparse.Namespace) -> None:
    if args.timeout_ms < 0:
        raise UsageError(f"--timeout-ms must not be negative, not {args.timeout_ms}")


def cmd_closure(args: argparse.Namespace) -> int:
    _check_timeout(args)
    repo = _assemble(args.input)
    regime = instantiate_ruleset(args.regime)
    result = compute_closure(repo, regime, args.timeout_ms)
    report = {
        "input": args.input,
        "regime": regime.id,
        "assertedQuads": result.asserted_quad_count,
        "inferredQuads": result.inferred_quad_count,
        "totalQuads": result.asserted_quad_count + result.inferred_quad_count,
        "assertedFacts": result.asserted_fact_count,
        "inferredFacts": result.inferred_fact_count,
        "contexts": len(result.contexts),
        "inconsistentContexts": sorted(t.lexical for t in result.inconsistent_contexts),
        "perStageMillis": {k: round(v, 3) for k, v in result.per_stage_ms.items()},
        "totalMillis": round(result.total_ms, 3),
        "ticks": result.ticks,
        "timedOut": result.timed_out,
    }
    stream = open(args.report, "w") if args.report else sys.stdout
    try:
        print(json.dumps(report), file=stream)
    finally:
        if args.report:
            stream.close()
    if result.timed_out:
        logger.error("closure timed out after %d ms; output suppressed", args.timeout_ms)
        return EXIT_TIMEOUT
    if args.out:
        write_path(result.closed_dataset(), args.out)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    _check_timeout(args)
    repo = _assemble(args.input)
    regime = instantiate_ruleset(args.regime)
    s, o = _resolve(args.subject), _resolve(args.object)
    if args.predicate == "a" or _resolve(args.predicate) == RDF_TYPE:
        assertion = axiom(CONCEPT_ASSERT, o, s)
    else:
        assertion = axiom(ROLE_ASSERT, _resolve(args.predicate), s, o)
    entailed = check_entailment(
        repo, assertion, _resolve(args.context), regime, args.timeout_ms
    )
    print("entailed" if entailed else "not entailed")
    return EXIT_OK if entailed else EXIT_FALSE


def cmd_generate(args: argparse.Namespace) -> int:
    sidecar = Path(args.out).with_suffix(".params")
    if sidecar == Path(args.out):
        raise UsageError(f"--out {args.out} is the path of its own .params sidecar")
    params = GenParams.from_text(decode_utf8(Path(args.params).read_bytes()))
    if args.seed is not None:
        params = dataclasses.replace(params, seed=args.seed)
    dataset = generate_ckr(params)
    write_path(dataset, args.out)
    sidecar.write_text(params.to_text())
    logger.info("wrote %s (%d quads)", args.out, len(dataset))
    return EXIT_OK


def _suite_files(args: argparse.Namespace):
    if args.suite == "ts1":
        for seed in range(args.seeds):
            for params in build_ts1(seed):
                name = f"{params.label}-s{seed}.trig"
                yield name, generate_ckr(params), params.to_text()
    else:
        build = build_ts2 if args.suite == "ts2" else build_ts3
        sweep = FULL_SWEEP if args.scale == "full" else DESK_SWEEP
        for n, k, m in sweep:
            name = f"{args.suite}-n{n}-k{k}.trig"
            yield name, build(n, k, m), f"n={n}\nk={k}\ninstances={m}\n"


def cmd_gen_suite(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be at least 1, not {args.seeds}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for name, dataset, params_text in _suite_files(args):
        path = out_dir / name
        path.write_bytes(write_dataset(dataset))
        path.with_suffix(".params").write_text(params_text)
        count += 1
        logger.info("wrote %s (%d quads)", path, len(dataset))
    print(f"{count} files written to {out_dir}")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    regimes = [r.strip() for r in args.regimes.split(",") if r.strip()]
    if not regimes:
        raise UsageError(f"--regimes {args.regimes!r} names no regime")
    for r in regimes:
        if r not in REGIME_IDS:
            choices = ", ".join(REGIME_IDS)
            raise UsageError(f"unknown regime id {r!r}; choose from {choices}")
    if args.runs < 1:
        raise UsageError(f"--runs must be at least 1, not {args.runs}")
    _check_timeout(args)
    records = bench_suite(
        args.suite_dir,
        regimes,
        runs=args.runs,
        timeout_millis=args.timeout_ms,
    )
    write_csv(records, args.csv)
    print(f"{len(records)} rows written to {args.csv}")
    for key, (slope, intercept, r2) in sorted(connection_sweep_fit(records).items()):
        print(
            f"fit {key}: ms = {slope:.3f} * k + {intercept:.3f} (R^2 = {r2:.4f})"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckrbench",
        description="Contextualized knowledge repository closure and benchmarks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", help="materialize the inference closure")
    p.add_argument("input", help="TriG input file (a Turtle file is read as TriG)")
    p.add_argument("--regime", default=DEFAULT_REGIME, choices=REGIME_IDS)
    p.add_argument("--out", help="write the closed dataset here (TriG)")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.add_argument("--timeout-ms", type=int, default=DEFAULT_BUDGET_MILLIS)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("check", help="instance-checking entailment test")
    p.add_argument("input")
    p.add_argument("context", help="context name (CURIE or <iri>)")
    p.add_argument("subject")
    p.add_argument("predicate", help="predicate, or 'a'/rdf:type for class membership")
    p.add_argument("object")
    p.add_argument("--regime", default=DEFAULT_REGIME, choices=REGIME_IDS)
    p.add_argument("--timeout-ms", type=int, default=DEFAULT_BUDGET_MILLIS)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="generate one dataset from a params file")
    p.add_argument("params", help="key=value parameter file")
    p.add_argument("--seed", type=int, default=None, help="override the seed")
    p.add_argument("--out", required=True, help="write the dataset here (TriG)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("gen-suite", help="generate a benchmark suite")
    p.add_argument("suite", choices=("ts1", "ts2", "ts3"))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seeds", type=int, default=3, help="ts1 generations (default 3)")
    p.add_argument("--scale", choices=("desk", "full"), default="desk")
    p.set_defaults(func=cmd_gen_suite)

    p = sub.add_parser("bench", help="timed closure sweep, CSV output")
    p.add_argument("suite_dir")
    p.add_argument("--regimes", default="ckr-owl-local", help="comma-separated regime ids")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--timeout-ms", type=int, default=DEFAULT_BUDGET_MILLIS)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        logger.error("%s", exc)
        return EXIT_TIMEOUT
    except CkrError as exc:
        logger.error("%s", exc)
        return EXIT_ERROR
    except OSError as exc:
        logger.error("%s", exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
