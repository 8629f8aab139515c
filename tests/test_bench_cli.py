"""Benchmark harness and command-line surface."""
import csv
import json
import statistics

import pytest

from ckrbench.bench import (
    CSV_FIELDS,
    bench_file,
    bench_suite,
    connection_sweep_fit,
    describe_file,
    linear_fit,
    write_csv,
)
from ckrbench.cli import main
from ckrbench.engine.closure import compute_closure
from ckrbench.engine.rules import instantiate_ruleset
from ckrbench.generator import GenParams, build_ts2
from ckrbench.model.repository import assemble_repository
from ckrbench.namespaces import GLOBAL_GRAPH
from ckrbench.rdf.trig import load_path, write_dataset, write_path
from util import PREAMBLE, gen


@pytest.fixture(scope="module")
def ts2_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ts2")
    for k in (1, 2, 4):
        write_path(build_ts2(10, k, 10), str(out / f"ts2-n10-k{k}.trig"))
    return out


def test_describe_file():
    assert describe_file("x/ts2-n10-k4.trig") == ("ts2", "n10-k4", 0)
    assert describe_file("ts1-n5-c100-s2.trig") == ("ts1", "n5-c100", 2)
    assert describe_file("whatever.trig") == ("custom", "whatever", 0)


def test_csv_header_contract():
    assert ",".join(CSV_FIELDS) == "suite,config,regime,asserted,total,inferred,ms,timedout,seed,run"


def test_bench_file_rows_and_average(ts2_dir):
    records = bench_file(ts2_dir / "ts2-n10-k2.trig", ["ckr-owl-local"], runs=3)
    assert len(records) == 4  # 3 runs + 1 average
    runs = [r for r in records if r.run != "avg"]
    avg = [r for r in records if r.run == "avg"]
    assert len(avg) == 1
    assert avg[0].ms == pytest.approx(statistics.fmean(r.ms for r in runs))
    for r in records:
        assert r.total == r.asserted + r.inferred
        assert not r.timedout
    # triple counts never vary between runs
    assert len({(r.asserted, r.inferred) for r in runs}) == 1


def test_bench_file_rejects_fewer_than_one_run(tmp_path):
    # the file does not exist: the value is checked before anything is read
    with pytest.raises(ValueError, match="got 0"):
        bench_file(tmp_path / "never-read.trig", ["ckr-owl-local"], runs=0)


def test_bench_file_keeps_a_timed_out_run(ts2_dir, monkeypatch):
    import ckrbench.bench

    compute = ckrbench.bench.compute_closure
    calls = []

    def second_run_has_no_time(repo, regime, budget_millis):
        calls.append(budget_millis)
        return compute(repo, regime, 0 if len(calls) == 2 else budget_millis)

    monkeypatch.setattr(ckrbench.bench, "compute_closure", second_run_has_no_time)
    records = bench_file(ts2_dir / "ts2-n10-k2.trig", ["ckr-owl-local"], runs=3)
    assert [r.timedout for r in records] == [False, True, False, True]
    first, timed_out, third, avg = records
    assert timed_out.inferred == 0 and timed_out.total == timed_out.asserted
    assert first.inferred == third.inferred == 210
    # the averaged row keeps the counts of a finished run
    assert (avg.asserted, avg.total, avg.inferred) == (
        first.asserted, first.total, first.inferred
    )


def test_bench_file_assembles_the_repository_once(ts2_dir, monkeypatch):
    import ckrbench.bench

    calls = []
    assemble = ckrbench.bench.assemble_repository

    def counting(dataset):
        calls.append(dataset)
        return assemble(dataset)

    monkeypatch.setattr(ckrbench.bench, "assemble_repository", counting)
    regimes = ["ckr-rdfs-local", "ckr-owl-local"]
    records = bench_file(ts2_dir / "ts2-n10-k1.trig", regimes, runs=3)
    assert len(records) == 2 * (3 + 1)
    assert len(calls) == 1


def test_bench_rows_expose_propagation_law(ts2_dir):
    records = bench_suite(ts2_dir, ["ckr-owl-local"], runs=1)
    inferred = {
        int(r.config.split("-k")[1]): r.inferred for r in records if r.run == "avg"
    }
    # inferred = base + n*k*m with n*m = 100 and base = glue links
    assert inferred[2] - inferred[1] == 100
    assert inferred[4] - inferred[2] == 200
    base = inferred[1] - 100
    assert all(inferred[k] == base + 100 * k for k in (1, 2, 4))


def test_bench_counts_stable_across_reruns(ts2_dir):
    first = bench_suite(ts2_dir, ["ckr-owl-local"], runs=1)
    second = bench_suite(ts2_dir, ["ckr-owl-local"], runs=1)
    key = lambda rs: [(r.config, r.regime, r.asserted, r.total, r.inferred) for r in rs]
    assert key(first) == key(second)


def test_write_csv_and_fit(ts2_dir, tmp_path):
    records = bench_suite(ts2_dir, ["ckr-owl-local"], runs=2)
    out = tmp_path / "report.csv"
    write_csv(records, out)
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(records)
    for row in rows:
        assert int(row["total"]) == int(row["asserted"]) + int(row["inferred"])
    fits = connection_sweep_fit(records)
    assert "ts2/ckr-owl-local" in fits


def test_linear_fit_on_exact_line():
    slope, intercept, r2 = linear_fit([0, 1, 2, 3], [5, 7, 9, 11])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(5.0)
    assert r2 == pytest.approx(1.0)


def test_linear_fit_of_a_constant_y_is_exact():
    slope, intercept, r2 = linear_fit([1, 2, 3], [0.1, 0.1, 0.1])
    assert (slope, intercept, r2) == (pytest.approx(0.0), pytest.approx(0.1), 1.0)


@pytest.mark.parametrize(
    "xs, ys",
    [([], []), ([4.0], [2.0]), ([3, 3, 3], [1, 2, 3])],
    ids=["no-points", "one-point", "constant-x"],
)
def test_linear_fit_without_a_line_is_a_value_error(xs, ys):
    with pytest.raises(ValueError):
        linear_fit(xs, ys)


# -- CLI ---------------------------------------------------------------------


@pytest.fixture()
def ts2_file(tmp_path):
    path = tmp_path / "ts2-n10-k2.trig"
    write_path(build_ts2(10, 2, 10), str(path))
    return path


def test_cli_closure_report_and_output(ts2_file, tmp_path, capsys):
    out = tmp_path / "closed.trig"
    code = main(["closure", str(ts2_file), "--regime", "ckr-owl-local", "--out", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out.strip())
    assert report["inferredQuads"] == 210
    assert report["totalQuads"] == report["assertedQuads"] + report["inferredQuads"]
    assert report["contexts"] == 10
    assert not report["timedOut"]
    assert report["ticks"] > 0
    assert set(report["perStageMillis"]) >= {"global", "assoc", "local"}
    closed = load_path(str(out))
    assert len(closed) == report["totalQuads"]


def test_cli_closure_turtle_in_trig_out(tmp_path, capsys):
    # a Turtle file is read as TriG into ckr:global; the output is TriG
    ttl = tmp_path / "x.ttl"
    ttl.write_text(PREAMBLE + ":a a :A . :A rdfs:subClassOf :B .")
    out = tmp_path / "y.ttl"
    assert main(["closure", str(ttl), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["inferredQuads"] == 1
    asserted = load_path(str(ttl))
    assert asserted.graph_names() == [GLOBAL_GRAPH]
    closed = compute_closure(
        assemble_repository(asserted), instantiate_ruleset("ckr-owl-local")
    ).closed_dataset()
    assert load_path(str(out)) == closed
    assert out.read_bytes() == write_dataset(closed)


def test_cli_closure_report_file(ts2_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["closure", str(ts2_file), "--report", str(report_path)]) == 0
    assert capsys.readouterr().out == ""
    report = json.loads(report_path.read_text())
    assert report["regime"] == "ckr-owl-local"
    assert report["inferredQuads"] == 210


def test_cli_closure_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.trig"
    empty.write_text("")
    assert main(["closure", str(empty)]) == 0
    assert json.loads(capsys.readouterr().out)["inferredQuads"] == 0


def test_cli_logs_repository_warnings(tmp_path, capsys, caplog):
    path = tmp_path / "reserved.trig"
    path.write_text(PREAMBLE + ":C rdfs:subClassOf owl:Thing .")
    assert main(["closure", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["inferredQuads"] == 0
    (record,) = [r for r in caplog.records if r.levelname == "WARNING"]
    assert "reserved vocabulary" in record.getMessage()


def test_cli_closure_timeout_exit_code(tmp_path, capsys):
    path = tmp_path / "big.trig"
    write_path(build_ts2(20, 19, 10), str(path))
    out = tmp_path / "never.trig"
    code = main(["closure", str(path), "--timeout-ms", "1", "--out", str(out)])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["timedOut"] is True
    assert not out.exists()


def test_cli_check_timeout_exit_code(tmp_path):
    path = tmp_path / "big.trig"
    write_path(build_ts2(20, 19, 10), str(path))
    args = ["check", str(path), ":c0", ":x1_0", "a", ":D1", "--timeout-ms", "1"]
    assert main(args) == 3


def test_cli_closure_parse_failure(tmp_path):
    bad = tmp_path / "bad.trig"
    bad.write_text(":broken :because .")
    assert main(["closure", str(bad)]) == 2


def test_cli_closure_bad_code_point_escape_is_a_parse_error(tmp_path, caplog):
    # a surrogate cannot be written as UTF-8: the input fails to parse
    # instead of closing and then failing to write
    path = tmp_path / "surrogate.trig"
    path.write_text(PREAMBLE + ':m0 { :a :p "\\uD800" . }\n')
    out = tmp_path / "out.trig"
    assert main(["closure", str(path), "--out", str(out)]) == 2
    assert "invalid code point escape \\uD800 (line 7, column 13)" in caplog.text
    assert not out.exists()


def test_cli_closure_blank_context_is_an_error(tmp_path):
    path = tmp_path / "blank-context.trig"
    path.write_text(
        "@prefix : <http://example.org/ckr/gen#> .\n"
        "@prefix ckr: <http://example.org/ckr/meta#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "ckr:global { _:c a ckr:Ctx ; ckr:mod :m0 . }\n"
        ":m0 { :a a :A . :A rdfs:subClassOf :B . }\n"
    )
    assert main(["closure", str(path), "--out", str(tmp_path / "out.trig")]) == 2
    assert not (tmp_path / "out.trig").exists()


def test_cli_closure_blank_node_shared_by_modules_is_an_assembly_error(tmp_path, caplog):
    # the file loads; assembly rejects the node that :m0 and :m1 share
    path = tmp_path / "shared-blank.trig"
    path.write_text(
        PREAMBLE
        + "ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . :c1 a ckr:Ctx ; ckr:mod :m1 . }\n"
        + ":m0 { _:x a :A . } :m1 { _:x a :B . }\n"
    )
    assert main(["closure", str(path), "--out", str(tmp_path / "out.trig")]) == 2
    assert "blank node _:x is in graphs" in caplog.text
    assert "modules may not share blank nodes" in caplog.text
    assert not (tmp_path / "out.trig").exists()


def test_cli_closure_derived_link_to_an_absent_graph_is_an_error(tmp_path, caplog):
    # :link is a subproperty of ckr:mod, so the global closure links :c0 to
    # :nowhere, which names no graph of the dataset
    path = tmp_path / "absent-module.trig"
    path.write_text(
        PREAMBLE
        + "ckr:global { :c0 a ckr:Ctx ; :link :nowhere . :link rdfs:subPropertyOf ckr:mod . }\n"
    )
    assert main(["closure", str(path), "--out", str(tmp_path / "out.trig")]) == 2
    assert "references a graph absent from the dataset" in caplog.text
    assert not (tmp_path / "out.trig").exists()


def test_cli_check_asserted_and_propagated(ts2_file, capsys):
    # asserted membership in its own context
    assert main(["check", str(ts2_file), ":c0", ":x0_0", "a", ":D0"]) == 0
    # membership propagated from the successor context under the full regime
    assert (
        main(
            ["check", str(ts2_file), ":c0", ":x1_0", "a", ":D1",
             "--regime", "ckr-owl-local"]
        )
        == 0
    )
    # without the local stage nothing is propagated
    assert (
        main(
            ["check", str(ts2_file), ":c0", ":x1_0", "a", ":D1",
             "--regime", "ckr-owl-global"]
        )
        == 1
    )
    outputs = capsys.readouterr().out.splitlines()
    assert outputs == ["entailed", "entailed", "not entailed"]


def test_cli_check_role_assertion_and_iri_terms(tmp_path, capsys):
    path = tmp_path / "roles.trig"
    path.write_text(
        PREAMBLE
        + "ckr:global { :c0 a ckr:Ctx ; ckr:mod :m0 . }\n"
        + ":m0 { :a :R :b . :R rdfs:subPropertyOf :S . }\n"
    )
    ns = "http://example.org/ckr/gen#"
    assert main(["check", str(path), ":c0", ":a", ":S", ":b"]) == 0
    assert main(["check", str(path), ":c0", ":b", ":S", ":a"]) == 1
    assert main(["check", str(path), f"<{ns}c0>", f"<{ns}a>", f"<{ns}S>", f"<{ns}b>"]) == 0
    assert capsys.readouterr().out.splitlines() == ["entailed", "not entailed", "entailed"]


def test_cli_check_unknown_context_is_usage_error(ts2_file):
    assert main(["check", str(ts2_file), ":nowhere", ":x0_0", "a", ":D0"]) == 2


def test_cli_generate_deterministic(tmp_path):
    params = GenParams(
        n_contexts=2,
        n_classes=10,
        n_roles=10,
        n_individuals=20,
        global_tbox=10,
        global_rbox=5,
        global_abox=20,
        local_tbox=10,
        local_rbox=5,
        local_abox=20,
        seed=3,
    )
    params_file = tmp_path / "conf.params"
    params_file.write_text(params.to_text())
    out1, out2 = tmp_path / "one.trig", tmp_path / "two.trig"
    assert main(["generate", str(params_file), "--out", str(out1)]) == 0
    assert main(["generate", str(params_file), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    sidecar = GenParams.from_text((tmp_path / "one.params").read_text())
    assert sidecar == params
    # seed override changes the content
    out3 = tmp_path / "three.trig"
    assert main(["generate", str(params_file), "--seed", "4", "--out", str(out3)]) == 0
    assert out3.read_bytes() != out1.read_bytes()


def test_cli_generate_out_that_is_its_own_sidecar_is_usage_error(tmp_path, caplog):
    params_file = tmp_path / "conf.params"
    params_file.write_text(GenParams(2, 10, 10, 20, 10, 5, 20, 10, 5, 20).to_text())
    before = params_file.read_bytes()
    out = tmp_path / "x.params"
    assert main(["generate", str(params_file), "--out", str(out)]) == 2
    assert "own .params sidecar" in caplog.text
    assert not out.exists()
    # --out equal to the params file leaves the input as it was
    assert main(["generate", str(params_file), "--out", str(params_file)]) == 2
    assert params_file.read_bytes() == before


def test_cli_gen_suite_ts1_file_count(tmp_path, monkeypatch):
    # 25 configurations x seeds; shrink the scales so the test stays quick,
    # the 5x5 grid shape itself is untouched.
    import ckrbench.generator as generator

    monkeypatch.setattr(generator, "TS1_SCALES", (4, 6, 8, 10, 12))
    monkeypatch.setattr(generator, "TS1_CONTEXTS", (1, 2, 3, 4, 5))
    out_dir = tmp_path / "suite"
    assert main(["gen-suite", "ts1", "--out-dir", str(out_dir), "--seeds", "3"]) == 0
    assert len(list(out_dir.glob("*.trig"))) == 75
    assert len(list(out_dir.glob("*.params"))) == 75


def test_cli_gen_suite_ts2_desk(tmp_path):
    out_dir = tmp_path / "suite"
    assert main(["gen-suite", "ts2", "--out-dir", str(out_dir), "--scale", "desk"]) == 0
    files = sorted(p.name for p in out_dir.glob("*.trig"))
    assert files == [
        "ts2-n20-k0.trig",
        "ts2-n20-k1.trig",
        "ts2-n20-k10.trig",
        "ts2-n20-k19.trig",
        "ts2-n20-k2.trig",
        "ts2-n20-k5.trig",
    ]


def test_cli_bench_end_to_end(ts2_dir, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", str(ts2_dir), "--regimes", "ckr-owl-local,ckr-rdfs-global",
         "--runs", "2", "--csv", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "fit ts2/ckr-owl-local" in printed
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    # 3 files x 2 regimes x (2 runs + 1 avg)
    assert len(rows) == 18


def test_cli_bench_single_k_sweep_has_no_fit(tmp_path, capsys):
    # three points, one connection count: no line can be fitted
    for n in (3, 4, 5):
        write_path(build_ts2(n, 2, 2), str(tmp_path / f"ts2-n{n}-k2.trig"))
    out = tmp_path / "bench.csv"
    code = main(["bench", str(tmp_path), "--regimes", "ckr-owl-local",
                 "--runs", "1", "--csv", str(out)])
    assert code == 0
    assert "fit " not in capsys.readouterr().out
    with open(out) as fh:
        assert len(list(csv.DictReader(fh))) == 6


def test_cli_bench_parallel_is_a_usage_error(ts2_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(ts2_dir), "--csv", str(tmp_path / "b.csv"),
              "--parallel", "2"])
    assert exc.value.code == 2


def test_cli_bench_directory_without_trig_files_is_an_error(tmp_path, caplog):
    (tmp_path / "notes.txt").write_text("no datasets here")
    out = tmp_path / "bench.csv"
    assert main(["bench", str(tmp_path), "--csv", str(out)]) == 2
    assert "no .trig files under" in caplog.text
    assert not out.exists()


def test_cli_default_regime_ignores_the_environment(monkeypatch, ts2_file):
    monkeypatch.setenv("CKR_DEFAULT_REGIME", "ckr-owl-global")
    assert main(["check", str(ts2_file), ":c0", ":x1_0", "a", ":D1"]) == 0


def test_cli_check_malformed_context_is_usage_error(ts2_file, caplog):
    assert main(["check", str(ts2_file), "bad ctx", ":a", "a", ":B"]) == 2
    assert "not a valid absolute IRI" in caplog.text


@pytest.mark.parametrize(
    "line, message",
    [
        ("n_classes=10\nn_clases=10\n", "unknown parameter 'n_clases'"),
        ("", "missing parameters: n_classes"),
        ("n_classes=ten\n", "n_classes is not an integer: 'ten'"),
        ("n_classes=-3\n", "n_classes must be non-negative"),
    ],
    ids=["unknown-key", "missing-key", "not-an-integer", "negative"],
)
def test_cli_generate_malformed_params_is_usage_error(tmp_path, caplog, line, message):
    params = GenParams(2, 10, 10, 20, 10, 5, 20, 10, 5, 20).to_text()
    params_file = tmp_path / "conf.params"
    params_file.write_text(params.replace("n_classes=10\n", line))
    out = tmp_path / "out.trig"
    assert main(["generate", str(params_file), "--out", str(out)]) == 2
    assert message in caplog.text
    assert not out.exists()


def test_cli_non_utf8_input_is_a_parse_error(tmp_path, caplog):
    path = tmp_path / "latin1.trig"
    path.write_bytes(PREAMBLE.encode() + ":m0 { :a :p :caf\xe9 . }\n".encode("latin-1"))
    assert main(["closure", str(path)]) == 2
    line = PREAMBLE.count("\n") + 1
    assert f"invalid UTF-8 (invalid continuation byte) (line {line}, column 17)" in caplog.text


@pytest.mark.parametrize(
    "options",
    [["--regimes", "nope"], ["--regimes", ","], ["--runs", "0"], ["--timeout-ms", "-1"]],
    ids=["unknown-regime", "no-regime", "no-runs", "negative-timeout"],
)
def test_cli_bench_bad_options_are_usage_errors(ts2_dir, tmp_path, options):
    out = tmp_path / "bench.csv"
    assert main(["bench", str(ts2_dir), "--csv", str(out), *options]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["gen-suite", "ts1", "--seeds", "0"],
        ["gen-suite", "ts2", "--seeds", "-2"],
        ["closure", "{input}", "--timeout-ms", "-5", "--out", "{out}"],
        ["check", "{input}", ":c0", ":x1_0", "a", ":D1", "--timeout-ms", "-1"],
    ],
    ids=["no-seeds", "negative-seeds", "negative-closure-timeout", "negative-check-timeout"],
)
def test_cli_out_of_range_counts_and_budgets_are_usage_errors(
    ts2_dir, tmp_path, caplog, capsys, command
):
    out = tmp_path / "out"
    argv = [arg.format(input=ts2_dir / "ts2-n10-k1.trig", out=out) for arg in command]
    if argv[0] == "gen-suite":
        argv += ["--out-dir", str(out)]
    assert main(argv) == 2
    assert "must" in caplog.text
    assert not out.exists()
    assert capsys.readouterr().out == ""
