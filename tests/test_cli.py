"""Command-line workflows end to end: generate, sweep, train, advise,
solve, report, curves."""

import csv
import dataclasses
import os

import pytest

from idastra.cli import RECORD_FIELDS
from idastra.core import serial_idastar
from idastra.domains.puzzle import PuzzleProblem, parse_korf_set
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec
from idastra.engine import StrategyConfig, run_parallel
from idastra.features import shallow_search
from idastra.ordering import OrderPolicy, toida_scores_from_trace

EASY_PUZZLES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "data", "easy_puzzles.txt")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _one_puzzle_file(tmp_path):
    """A puzzle file holding the first easy instance; returns (path,
    serial IDA* cost)."""
    with open(EASY_PUZZLES) as fh:
        first = next(line for line in fh
                     if line.strip() and not line.startswith("#"))
    path = tmp_path / "one.txt"
    path.write_text(first)
    cost = serial_idastar(PuzzleProblem(parse_korf_set(first)[0])).cost
    return str(path), cost


def _gen(run_cli, out_dir, count=3, **flags):
    base = {"d": "5", "g": "0.3,0.7", "b": "3", "density": "1e-9",
            "herror": "2", "seed": 1}
    base.update(flags)
    argv = ["gen", "--out", out_dir, "--count", count]
    for name, value in base.items():
        argv += [f"--{name}", value]
    code, _out, _err = run_cli(argv)
    assert code == 0
    return sorted(os.path.join(out_dir, f) for f in os.listdir(out_dir))


# ---------------------------------------------------------------- gen

def test_gen_writes_cycled_specs(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=3)
    assert [os.path.basename(f) for f in files] \
        == ["inst_0000.spec", "inst_0001.spec", "inst_0002.spec"]
    specs = [ArtificialSpec.from_file(f) for f in files]
    assert [s.g for s in specs] == [0.3, 0.7, 0.3]    # comma grid cycles
    assert [s.seed for s in specs] == [1, 2, 3]
    assert all(s.d == 5 and s.b == 3 for s in specs)


def test_gen_rejects_bad_values(run_cli, tmp_path):
    code, _out, _err = run_cli(["gen", "--out", str(tmp_path / "x"),
                                "--imbalance", "1.2"])
    assert code == 2                       # data range error
    code, _out, _err = run_cli(["gen", "--out", str(tmp_path / "y"),
                                "--d", "five"])
    assert code == 1                       # usage error


def test_gen_count_must_be_positive(run_cli, tmp_path):
    code, _out, _err = run_cli(["gen", "--out", str(tmp_path / "z"),
                                "--count", 0])
    assert code == 1


# -------------------------------------------------------------- sweep

def test_sweep_records_store_and_determinism(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=2)
    outputs = []
    for rerun in ("a", "b"):
        records = str(tmp_path / f"records_{rerun}.csv")
        store = str(tmp_path / f"cases_{rerun}.jsonl")
        code, out, err = run_cli(["sweep", "--instances", *files,
                                  "--axis", "clusters", "--grid", "1,2,4",
                                  "--workers", 4, "--budget", 50,
                                  "--out", records, "--store", store])
        assert code == 0
        assert "appended 6 run record(s)" in out
        assert "appended 2 training case(s)" in out
        with open(records, "rb") as fh, open(store, "rb") as gh:
            outputs.append((fh.read(), gh.read()))
    # simulation reruns are byte-identical
    assert outputs[0] == outputs[1]

    rows = _read_csv(str(tmp_path / "records_a.csv"))
    assert len(rows) == 6
    assert list(rows[0]) == list(RECORD_FIELDS)
    assert {r["approach"] for r in rows} \
        == {"clusters=1", "clusters=2", "clusters=4"}
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["mode"] == "sim" and r["timestamp"] == "-" for r in rows)
    costs = {r["instance"]: r["cost"] for r in rows}
    for f in files:
        iid = os.path.splitext(os.path.basename(f))[0]
        problem = ArtificialProblem(ArtificialSpec.from_file(f))
        assert int(costs[iid]) == serial_idastar(problem).cost


def test_sweep_append_warns_on_store_dupes(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=1)
    records = str(tmp_path / "records.csv")
    store = str(tmp_path / "cases.jsonl")
    for i in range(2):
        code, _out, err = run_cli(["sweep", "--instances", *files,
                                   "--axis", "polling",
                                   "--grid", "Neighbor,Random",
                                   "--workers", 4, "--clusters", 4,
                                   "--budget", 50,
                                   "--out", records, "--store", store])
        assert code == 0
        if i == 1:
            assert "identical case line" in err
    assert len(_read_csv(records)) == 4    # appended, not overwritten


def test_sweep_rejects_unknown_axis(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=1)
    code, _out, _err = run_cli(["sweep", "--instances", *files,
                                "--axis", "colour", "--grid", "red",
                                "--out", str(tmp_path / "r.csv")])
    assert code == 1


def test_sweep_survives_invalid_grid_value(run_cli, tmp_path):
    # a bad config is recorded as a failed row, the sweep continues
    files = _gen(run_cli, str(tmp_path / "inst"), count=1)
    for axis, good, bad in (("clusters", "1", ("9", "x")),
                            ("fraction", "0.3", ("abc",)),
                            ("ordering", "Fixed", ("Fixed:01x",))):
        records = str(tmp_path / f"records_{axis}.csv")
        code, out, err = run_cli(["sweep", "--instances", *files,
                                  "--axis", axis,
                                  "--grid", ",".join((good,) + bad),
                                  "--workers", 4, "--budget", 50,
                                  "--out", records])
        assert code == 0
        assert "failed" in out
        rows = _read_csv(records)
        status = {r["approach"]: r["status"] for r in rows}
        assert status[f"{axis}={good}"] == "ok"
        for value in bad:
            assert status[f"{axis}={value}"] == "InvalidConfig"


def _forbid_search(monkeypatch):
    import idastra.cli as cli_mod

    def no_search(*_a, **_k):
        raise AssertionError("searched before checking the run flags")

    monkeypatch.setattr(cli_mod, "shallow_search", no_search)
    monkeypatch.setattr(cli_mod, "serial_idastar", no_search)


BAD_RUN_FLAGS = ((["--latency", -1], "--latency must be >= 0"),
                 (["--workers", 0], "--workers must be >= 1"),
                 (["--budget", 0], "--budget must be >= 1"))


def test_sweep_rejects_bad_run_flags_before_searching(run_cli, tmp_path,
                                                      monkeypatch):
    files = _gen(run_cli, str(tmp_path / "inst"), count=2)
    _forbid_search(monkeypatch)
    records = tmp_path / "records.csv"
    for flags, message in BAD_RUN_FLAGS:
        code, _out, err = run_cli(["sweep", "--instances", *files,
                                   "--axis", "clusters", "--grid", "1",
                                   *flags, "--out", records])
        assert code == 1, flags
        assert message in err
        assert not records.exists()


def test_sweep_runs_toida_ordering(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=2)
    records = str(tmp_path / "records.csv")
    code, _out, _err = run_cli(["sweep", "--instances", *files,
                                "--axis", "ordering",
                                "--grid", "Fixed,Local,Toida",
                                "--workers", 4, "--budget", 50,
                                "--out", records])
    assert code == 0
    rows = _read_csv(records)
    assert len(rows) == 6
    assert all(r["status"] == "ok" for r in rows)
    for f in files:
        iid = os.path.splitext(os.path.basename(f))[0]
        want = serial_idastar(ArtificialProblem(
            ArtificialSpec.from_file(f))).cost
        toida = [r for r in rows
                 if r["instance"] == iid and r["approach"] == "ordering=Toida"]
        assert len(toida) == 1 and toida[0]["config"].endswith(":Toida")
        assert int(toida[0]["cost"]) == want


def _unbaselined_speedup(problem, token, trace, workers):
    """The speedup run_parallel reports when it runs its own serial
    search, as the CLI prints it."""
    config = StrategyConfig.from_token(token)
    if config.ordering.kind == "Toida":
        config = dataclasses.replace(config, ordering=OrderPolicy.toida(
            toida_scores_from_trace(trace)))
    report = run_parallel(problem, config, workers)
    return f"{report.speedup:.6g}"


def test_speedups_are_against_the_runs_own_ordering(run_cli, tmp_path):
    # the serial baseline searches in the run's child order; against the
    # identity order, Fixed:3102 recorded a speedup of 447.7, not 0.82
    files = _gen(run_cli, str(tmp_path / "inst"), count=1, d="8", b="3",
                 g="0.5", herror="3", seed=7)
    problem = ArtificialProblem(ArtificialSpec.from_file(files[0]))
    trace = shallow_search(problem, budget=50)
    records = str(tmp_path / "records.csv")
    code, _out, _err = run_cli(["sweep", "--instances", *files,
                                "--axis", "ordering",
                                "--grid", "Fixed,Fixed:3102,Local,Toida",
                                "--workers", 4, "--budget", 50,
                                "--out", records])
    assert code == 0
    rows = _read_csv(records)
    assert [r["status"] for r in rows] == ["ok"] * 4
    for row in rows:
        assert row["speedup"] == _unbaselined_speedup(
            problem, row["config"], trace, 4), row["config"]

    model = tmp_path / "ordering.tree"
    model.write_text("leaf Local 1 0\n")
    code, out, _err = run_cli(["solve", "--instances", files[0],
                               "--model", f"ordering={model}",
                               "--workers", 4, "--budget", 50])
    assert code == 0
    token = next(line[len("config: "):] for line in out.splitlines()
                 if line.startswith("config: "))
    assert token.endswith(":Local")
    want = _unbaselined_speedup(problem, token, trace, 4)
    assert f"speedup: {want}\n" in out


# -------------------------------------------------- train then advise

def _sweep_store(run_cli, tmp_path, count=6):
    files = _gen(run_cli, str(tmp_path / "inst"), count=count,
                 g="0.1,0.9", d="5,6")
    store = str(tmp_path / "cases.jsonl")
    code, _out, _err = run_cli(["sweep", "--instances", *files,
                                "--axis", "clusters", "--grid", "1,4",
                                "--workers", 4, "--budget", 50,
                                "--out", str(tmp_path / "records.csv"),
                                "--store", store])
    assert code == 0
    return files, store


def test_train_writes_model_and_eval(run_cli, tmp_path):
    _files, store = _sweep_store(run_cli, tmp_path)
    model = str(tmp_path / "clusters.tree")
    code, out, _err = run_cli(["train", "--store", store,
                               "--axis", "clusters", "--folds", 3,
                               "--out", model])
    assert code == 0
    assert f"model: {model}" in out
    assert "training_error:" in out
    assert os.path.exists(model)
    with open(model) as fh:
        first = fh.readline()
    assert first.startswith(("split ", "leaf "))
    eval_rows = _read_csv(model + ".eval.csv")
    methods = [r["method"] for r in eval_rows]
    assert methods[0] == "tree" and "majority" in methods
    assert all(r["p_vs_tree"] == "" or 0 <= float(r["p_vs_tree"]) <= 1
               for r in eval_rows)


def test_train_missing_axis_is_a_data_error(run_cli, tmp_path):
    _files, store = _sweep_store(run_cli, tmp_path)
    code, _out, _err = run_cli(["train", "--store", store,
                                "--axis", "polling",
                                "--out", str(tmp_path / "p.tree")])
    assert code == 2


def test_advise_default_config_without_models(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=1)
    code, out, _err = run_cli(["advise", "--instances", files[0],
                               "--budget", 50])
    assert code == 0
    assert "config: BreadthFirst:1:on:Neighbor:0.3:TailOfList:0:Fixed" in out
    assert "features: " in out


def test_advise_applies_trained_model(run_cli, tmp_path):
    files, store = _sweep_store(run_cli, tmp_path)
    model = str(tmp_path / "clusters.tree")
    code, _out, _err = run_cli(["train", "--store", store,
                                "--axis", "clusters", "--folds", 2,
                                "--out", model])
    assert code == 0
    code, out, _err = run_cli(["advise", "--instances", files[0],
                               "--model", f"clusters={model}",
                               "--budget", 50])
    assert code == 0
    advised = [line for line in out.splitlines()
               if line.startswith("clusters=")]
    assert advised and advised[0].split("=")[1] in ("1", "4")


def test_advise_solved_during_profiling(run_cli, tmp_path):
    easy = str(tmp_path / "easy")
    files = _gen(run_cli, easy, count=1, d="3", density="0.0", herror="0",
                 g="0.5")
    code, out, _err = run_cli(["advise", "--instances", files[0]])
    assert code == 0
    assert "solved-during-profiling" in out
    assert "cost: 3" in out


def test_advise_strict_needs_full_coverage(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=1)
    code, _out, _err = run_cli(["advise", "--instances", files[0],
                                "--strict", "--budget", 50])
    assert code == 2
    code, _out, _err = run_cli(["advise", "--instances", files[0],
                                "--model", "shape=/nope.tree",
                                "--budget", 50])
    assert code == 1                       # unknown axis in --model


def test_advise_malformed_model_label_is_usage_error(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=1)
    model = tmp_path / "clusters.tree"
    model.write_text("leaf x 1 0\n")
    code, _out, err = run_cli(["advise", "--instances", files[0],
                               "--model", f"clusters={model}",
                               "--budget", 50])
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_advise_wants_exactly_one_instance(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=2)
    code, _out, _err = run_cli(["advise", "--instances", *files,
                                "--budget", 50])
    assert code == 1


# -------------------------------------------------------------- solve

def test_solve_appends_optimal_record(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=1)
    records = str(tmp_path / "solve.csv")
    code, out, _err = run_cli(["solve", "--instances", files[0],
                               "--budget", 50, "--workers", 2,
                               "--out", records])
    assert code == 0
    problem = ArtificialProblem(ArtificialSpec.from_file(files[0]))
    want = serial_idastar(problem).cost
    assert f"cost: {want}" in out
    rows = _read_csv(records)
    assert len(rows) == 1
    assert rows[0]["approach"] == "advised"
    assert int(rows[0]["cost"]) == want
    assert rows[0]["status"] == "ok"


def test_solve_rejects_bad_run_flags_before_searching(run_cli, tmp_path,
                                                      monkeypatch):
    files = _gen(run_cli, str(tmp_path / "inst"), count=1)
    _forbid_search(monkeypatch)
    records = tmp_path / "solve.csv"
    for flags, message in BAD_RUN_FLAGS:
        code, out, err = run_cli(["solve", "--instances", files[0],
                                  *flags, "--out", records])
        assert code == 1, flags
        assert message in err
        assert out == ""
        assert not records.exists()


def test_solve_with_a_toida_model(run_cli, tmp_path):
    # the ordering model names Toida; its scores come from profiling
    files = _gen(run_cli, str(tmp_path / "inst"), count=1)
    model = tmp_path / "ordering.tree"
    model.write_text("leaf Toida 1 0\n")
    records = str(tmp_path / "solve.csv")
    code, out, _err = run_cli(["solve", "--instances", files[0],
                               "--model", f"ordering={model}",
                               "--budget", 50, "--out", records])
    assert code == 0
    assert "ordering=Toida" in out
    want = serial_idastar(ArtificialProblem(
        ArtificialSpec.from_file(files[0]))).cost
    assert f"cost: {want}" in out
    rows = _read_csv(records)
    assert rows[0]["config"].endswith(":Toida")
    assert int(rows[0]["cost"]) == want


def test_advise_and_solve_read_a_puzzle_file(run_cli, tmp_path):
    path, want = _one_puzzle_file(tmp_path)
    # the default budget solves this instance while profiling
    code, out, _err = run_cli(["advise", "--instances", path])
    assert code == 0
    assert "solved-during-profiling" in out
    assert f"cost: {want}" in out.splitlines()
    # a small budget leaves the search to the parallel run
    records = str(tmp_path / "puzzle.csv")
    code, out, _err = run_cli(["solve", "--instances", path, "--budget", 50,
                               "--workers", 4, "--out", records])
    assert code == 0
    assert f"cost: {want}" in out.splitlines()
    rows = _read_csv(records)
    assert rows[0]["instance"] == "one#1"
    assert int(rows[0]["cost"]) == want


def test_solve_profiled_solution_recorded(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "easy"), count=1, d="3",
                 density="0.0", herror="0")
    records = str(tmp_path / "solve.csv")
    code, out, _err = run_cli(["solve", "--instances", files[0],
                               "--out", records])
    assert code == 0
    rows = _read_csv(records)
    assert rows[0]["config"] == "solved-during-profiling"
    assert rows[0]["cost"] == "3"
    # profiling is serial IDA*, so it is its own serial baseline
    assert rows[0]["speedup"] == "1"


def test_report_counts_an_instance_solved_during_profiling(run_cli,
                                                           tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=1, d="4", b="3",
                 g="0.5", herror="0", density="1e-9")
    records = str(tmp_path / "rec.csv")
    code, out, _err = run_cli(["solve", "--instances", *files,
                               "--workers", 4, "--out", records])
    assert code == 0
    assert "solved-during-profiling" in out
    out_csv = str(tmp_path / "report.csv")
    code, _out, _err = run_cli(["report", records, "--out", out_csv])
    assert code == 0
    rows = _read_csv(out_csv)
    assert [(r["approach"], r["speedup"]) for r in rows] == [("advised", "1")]


# ------------------------------------------------------------- report

def test_report_summarizes_and_flags_best(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=2)
    records = str(tmp_path / "records.csv")
    code, _out, _err = run_cli(["sweep", "--instances", *files,
                                "--axis", "clusters", "--grid", "1,4",
                                "--workers", 4, "--budget", 50,
                                "--out", records])
    assert code == 0
    out_csv = str(tmp_path / "report.csv")
    code, out, _err = run_cli(["report", records, "--out", out_csv])
    assert code == 0
    rows = _read_csv(out_csv)
    assert len(rows) == 4                  # 2 instances x 2 approaches
    assert {r["approach"] for r in rows} == {"clusters=1", "clusters=4"}
    best = {r["approach"] for r in rows if r["best"] == "1"}
    assert len(best) == 1
    assert ("(best)") in out
    for r in rows:
        assert float(r["instance_cov"]) >= 0.0


def test_report_skips_failed_rows(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=1)
    records = str(tmp_path / "records.csv")
    code, _out, _err = run_cli(["sweep", "--instances", *files,
                                "--axis", "clusters", "--grid", "1,9",
                                "--workers", 4, "--budget", 50,
                                "--out", records])
    assert code == 0
    out_csv = str(tmp_path / "report.csv")
    code, _out, _err = run_cli(["report", records, "--out", out_csv])
    assert code == 0
    assert {r["approach"] for r in _read_csv(out_csv)} == {"clusters=1"}


def test_report_with_nothing_usable(run_cli, tmp_path):
    records = str(tmp_path / "records.csv")
    with open(records, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORD_FIELDS)
    code, _out, _err = run_cli(["report", records,
                                "--out", str(tmp_path / "r.csv")])
    assert code == 2
    code, _out, _err = run_cli(["report", str(tmp_path / "missing.csv"),
                                "--out", str(tmp_path / "r.csv")])
    assert code == 2


def test_report_rejects_a_non_numeric_speedup(run_cli, tmp_path):
    records = tmp_path / "records.csv"
    with open(records, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerow(dict.fromkeys(RECORD_FIELDS, "")
                        | {"instance": "inst_0007", "approach": "advised",
                           "status": "ok", "speedup": "abc"})
    code, _out, err = run_cli(["report", records,
                               "--out", tmp_path / "r.csv"])
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert str(records) in err and "inst_0007" in err and "'abc'" in err


# ------------------------------------------------------------- curves

def test_curves_default_grid_has_101_rows(run_cli, tmp_path):
    out_csv = str(tmp_path / "fig6.csv")
    code, out, _err = run_cli(["curves", "fig6", "--out", out_csv])
    assert code == 0
    assert "wrote 101 row(s)" in out
    rows = _read_csv(out_csv)
    assert len(rows) == 101
    assert rows[0]["pws_eq2"] == "inf"
    assert rows[0]["goal_pos"] == "0" and rows[-1]["goal_pos"] == "1"


def test_curves_eq1_integer_grid(run_cli, tmp_path):
    out_csv = str(tmp_path / "eq1.csv")
    code, _out, _err = run_cli(["curves", "eq1", "--grid", "5,10,30",
                                "--workers", 10, "--b", 3, "--x", 3,
                                "--out", out_csv])
    assert code == 0
    rows = _read_csv(out_csv)
    assert [r["d"] for r in rows] == ["5", "10", "30"]
    assert float(rows[2]["dts_eq1"]) == pytest.approx(10.0, rel=0.01)


@pytest.mark.parametrize("curve", ["eq1", "eq2", "fig5", "fig6"])
def test_curves_run_at_their_default_grid(run_cli, tmp_path, curve):
    out_csv = str(tmp_path / f"{curve}.csv")
    code, _out, err = run_cli(["curves", curve, "--out", out_csv])
    assert code == 0, err
    assert len(_read_csv(out_csv)) >= 1


def test_curves_bad_grid_is_usage_error(run_cli, tmp_path):
    code, _out, _err = run_cli(["curves", "eq2", "--grid", "0:1:0",
                                "--out", str(tmp_path / "x.csv")])
    assert code == 1
    code, _out, _err = run_cli(["curves", "eq2", "--grid", "0:1",
                                "--out", str(tmp_path / "y.csv")])
    assert code == 1


# ----------------------------------------------------------- plumbing

def test_help_and_bad_flag_exit_codes(run_cli):
    code, out, _err = run_cli(["--help"])
    assert code == 0
    assert "gen" in out and "curves" in out
    code, _out, _err = run_cli(["sweep", "--bogus"])
    assert code == 1
    code, _out, _err = run_cli([])
    assert code == 1


def test_unreadable_or_unwritable_path_is_a_data_error(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=1)
    records = str(tmp_path / "records.csv")
    code, _out, _err = run_cli(["sweep", "--instances", *files,
                                "--axis", "clusters", "--grid", "1",
                                "--budget", 50, "--out", records])
    assert code == 0
    nowhere = tmp_path / "no" / "such" / "dir"
    run = ["--budget", 50]
    for argv in (["solve", "--instances", *files, *run,
                  "--out", nowhere / "solve.csv"],
                 ["report", records, "--out", nowhere / "report.csv"],
                 ["curves", "fig6", "--out", nowhere / "fig6.csv"],
                 ["sweep", "--instances", *files, "--axis", "clusters",
                  "--grid", "1", *run, "--out", nowhere / "records.csv"],
                 ["sweep", "--instances", *files, "--axis", "clusters",
                  "--grid", "1,2", *run, "--out", records,
                  "--store", nowhere / "cases.jsonl"],
                 ["train", "--store", nowhere / "cases.jsonl",
                  "--axis", "clusters", "--out", tmp_path / "c.tree"],
                 ["advise", "--instances", *files, *run,
                  "--model", f"clusters={nowhere / 'c.tree'}"]):
        code, _out, err = run_cli(argv)
        assert code == 2, argv
        assert "Traceback" not in err, argv
        assert err.splitlines()[-1].startswith(
            "error: [Errno 2] No such file or directory"), argv


def test_threads_mode_warns(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=1, d="4")
    code, _out, err = run_cli(["solve", "--instances", files[0],
                               "--mode", "threads", "--workers", 2,
                               "--budget", 50])
    assert code == 0
    assert "not reproducible" in err


def test_engine_stall_exit_code(run_cli, tmp_path, monkeypatch):
    from idastra.errors import EngineStall
    import idastra.cli as cli_mod

    def boom(*_a, **_k):
        raise EngineStall("stuck")

    monkeypatch.setattr(cli_mod, "run_parallel", boom)
    files = _gen(run_cli, str(tmp_path / "inst"), count=1)
    code, _out, _err = run_cli(["solve", "--instances", files[0],
                                "--budget", 50])
    assert code == 3


def test_sweep_keeps_completed_rows_on_stall(run_cli, tmp_path,
                                             monkeypatch):
    from idastra.errors import EngineStall
    import idastra.cli as cli_mod

    real = cli_mod.run_parallel
    seen = []

    def stall_on_second_instance(problem, *args, **kwargs):
        if problem not in seen:
            seen.append(problem)
        if len(seen) == 2:
            raise EngineStall("stuck")
        return real(problem, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "run_parallel", stall_on_second_instance)
    files = _gen(run_cli, str(tmp_path / "inst"), count=3)
    records = str(tmp_path / "records.csv")
    store = str(tmp_path / "cases.jsonl")
    code, _out, err = run_cli(["sweep", "--instances", *files,
                               "--axis", "clusters", "--grid", "1,2",
                               "--workers", 2, "--budget", 50,
                               "--out", records, "--store", store])
    assert code == 3
    assert "engine stall" in err
    rows = _read_csv(records)
    assert [(r["instance"], r["approach"]) for r in rows] \
        == [("inst_0000", "clusters=1"), ("inst_0000", "clusters=2")]
    assert all(r["status"] == "ok" for r in rows)
    with open(store) as fh:
        assert len([line for line in fh if line.strip()]) == 1
