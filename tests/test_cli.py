"""Command-line workflows end to end: generate, sweep, train, advise,
solve, report, curves."""

import csv
import dataclasses
import gc
import json
import os
import subprocess
import sys
import weakref

import pytest

from idastra import cli
from idastra.cli import RECORD_FIELDS
from idastra.core import serial_idastar
from idastra.domains.puzzle import PuzzleProblem, parse_korf_set
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec
from idastra.engine import StrategyConfig, run_parallel
from idastra.features import ProblemFeatures, shallow_search
from idastra.learner import TrainingCase
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


def test_gen_rejects_b_over_256_and_writes_nothing(run_cli, tmp_path):
    # a child index is one byte of a path; every spec is checked before
    # the first is written
    for count, b in ((1, "300"), (2, "3,300")):
        out_dir = tmp_path / f"inst{count}"
        code, out, err = run_cli(["gen", "--out", out_dir, "--count", count,
                                  "--b", b])
        assert code == 2
        assert "b must be in [2, 256], got 300" in err
        assert out == ""
        assert not out_dir.exists()


def test_a_depth_over_the_bound_is_a_data_error(run_cli, tmp_path):
    # gen checks d before it writes anything, and solve before it builds
    # the tree
    code, out, err = run_cli(["gen", "--out", tmp_path / "deep",
                              "--d", "4097"])
    assert code == 2
    assert "d must be in [1, 4096], got 4097" in err
    assert out == "" and not (tmp_path / "deep").exists()
    spec = tmp_path / "deep.spec"
    spec.write_text("d = 4097\ng = 0.5\nb = 3\nimbalance = 0.0\n"
                    "density = 0.0\nherror = 0\nseed = 1\n")
    code, out, err = run_cli(["solve", "--instances", spec])
    assert code == 2
    assert err.count("error:") == 1 and "got 4097" in err
    assert out == ""


def test_gen_count_must_be_positive(run_cli, tmp_path):
    code, _out, _err = run_cli(["gen", "--out", str(tmp_path / "z"),
                                "--count", 0])
    assert code == 1


# -------------------------------------------------------------- sweep

def test_sweep_records_store_and_determinism(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=2)
    outputs = []
    # the rerun names the directory: it reads the same files in order
    for rerun, instances in (("a", files), ("b", [tmp_path / "inst"])):
        records = str(tmp_path / f"records_{rerun}.csv")
        store = str(tmp_path / f"cases_{rerun}.jsonl")
        code, out, err = run_cli(["sweep", "--instances", *instances,
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
    # one run per (instance, grid value), each recorded as rep 0
    assert len({(r["instance"], r["approach"]) for r in rows}) == 6
    assert {r["approach"] for r in rows} \
        == {"clusters=1", "clusters=2", "clusters=4"}
    assert all(r["rep"] == "0" for r in rows)
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["mode"] == "sim" and r["timestamp"] == "-" for r in rows)
    costs = {r["instance"]: r["cost"] for r in rows}
    for f in files:
        iid = os.path.splitext(os.path.basename(f))[0]
        problem = ArtificialProblem(ArtificialSpec.from_file(f))
        assert int(costs[iid]) == serial_idastar(problem).cost

    # a sim run is a pure function of its inputs, so there are no reps
    code, _out, err = run_cli(["sweep", "--instances", *files,
                               "--axis", "clusters", "--grid", "1,2",
                               "--reps", 2, "--out", records])
    assert code == 1 and "--reps" in err


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


def test_sweep_reads_a_prefilled_store_once(run_cli, tmp_path, monkeypatch):
    files = _gen(run_cli, str(tmp_path / "inst"), count=3)
    records = str(tmp_path / "records.csv")
    store = str(tmp_path / "cases.jsonl")
    argv = ["sweep", "--instances", *files, "--axis", "polling",
            "--grid", "Neighbor,Random", "--workers", 4, "--clusters", 4,
            "--budget", 50, "--out", records, "--store", store]
    assert run_cli(argv)[0] == 0
    reads = []
    real_open = open

    def counting_open(file, mode="r", *args, **kwargs):
        if str(file) == store and "r" in mode:
            reads.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    code, out, err = run_cli(argv)
    monkeypatch.undo()
    assert code == 0
    assert "appended 3 training case(s)" in out
    # one read for the whole sweep, and every rerun case still counts
    assert reads == ["r"]
    assert "store already held 3 identical case line(s)" in err


def test_sweep_keeps_one_instance_problem_alive(run_cli, tmp_path,
                                               monkeypatch):
    # a problem keeps a table of packed passes, so a sweep must drop each
    # instance's problem before it runs the next instance
    files = _gen(run_cli, str(tmp_path / "inst"), count=3)
    earlier = []
    alive = []
    sweep_instance = cli._sweep_instance

    def checking(args, iid, problem, grid, base):
        gc.collect()
        alive.append(sum(ref() is not None for ref in earlier))
        earlier.append(weakref.ref(problem))
        return sweep_instance(args, iid, problem, grid, base)

    monkeypatch.setattr(cli, "_sweep_instance", checking)
    code, out, _err = run_cli(["sweep", "--instances", *files,
                               "--axis", "clusters", "--grid", "1,2",
                               "--workers", 2, "--budget", 50,
                               "--out", tmp_path / "records.csv"])
    assert code == 0 and "appended 6 run record(s)" in out
    assert alive == [0, 0, 0]


def test_sweep_bad_output_path_fails_before_any_search(run_cli, tmp_path,
                                                       monkeypatch):
    files = _gen(run_cli, str(tmp_path / "inst"), count=1)

    def never(*_args, **_kwargs):
        raise AssertionError("profiled before the outputs were checked")

    monkeypatch.setattr(cli, "shallow_search", never)
    missing = str(tmp_path / "nodir" / "x")
    store_path = str(tmp_path / "cases.jsonl")
    # a missing directory for either output, and an output that is a
    # directory
    for out, store in ((missing, store_path),
                       (str(tmp_path / "records.csv"), missing),
                       (str(tmp_path / "inst"), store_path)):
        code, out_text, err = run_cli(["sweep", "--instances", *files,
                                       "--axis", "clusters", "--grid", "1",
                                       "--workers", 4, "--out", out,
                                       "--store", store])
        assert code == 2
        assert err.startswith("error:")
        assert out_text == ""


def test_sweep_rejects_unknown_axis(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=1)
    code, _out, _err = run_cli(["sweep", "--instances", *files,
                                "--axis", "colour", "--grid", "red",
                                "--out", str(tmp_path / "r.csv")])
    assert code == 1


def test_sweep_instances_that_name_nothing_are_data_errors(run_cli,
                                                           tmp_path):
    (tmp_path / "empty").mkdir()
    for instances, message in ((tmp_path / "empty", "no .spec files"),
                               (tmp_path / "missing",
                                "no such instance file")):
        code, _out, err = run_cli(["sweep", "--instances", instances,
                                   "--axis", "clusters", "--grid", "1",
                                   "--out", tmp_path / "r.csv"])
        assert code == 2, instances
        assert message in err and "Traceback" not in err


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
                 (["--workers", 1025], "--workers must be <= 1024"),
                 (["--budget", 0], "--budget must be >= 1"),
                 (["--clusters", 0], "--clusters must be in 1..4"),
                 (["--clusters", 5], "--clusters must be in 1..4"))


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


def test_sweep_at_donation_fraction_one_finishes(run_cli, tmp_path):
    # at fraction 1 two workers once passed a last node back and forth
    # until the engine declared a stall
    out_dir = str(tmp_path / "inst")
    code, _out, _err = run_cli(["gen", "--out", out_dir, "--count", 1,
                                "--d", 8, "--b", 3, "--herror", 4,
                                "--density", 0])
    assert code == 0
    records = str(tmp_path / "records.csv")
    code, _out, err = run_cli(["sweep", "--instances",
                               os.path.join(out_dir, "inst_0000.spec"),
                               "--axis", "fraction", "--grid", "0.3,1.0",
                               "--workers", 2, "--budget", 20,
                               "--out", records])
    assert code == 0, err
    rows = _read_csv(records)
    assert [r["approach"] for r in rows] == ["fraction=0.3", "fraction=1.0"]
    assert all(r["status"] == "ok" for r in rows)


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
    # --filter trains on the most decisive third of the cases
    code, filtered, _err = run_cli(["train", "--store", store,
                                    "--axis", "clusters", "--folds", 2,
                                    "--filter",
                                    "--out", str(tmp_path / "f.tree")])
    assert code == 0

    def cases(text):
        return int(text.split("cases: ")[1].split()[0])

    assert 0 < cases(filtered) < cases(out)


def test_train_missing_axis_is_a_data_error(run_cli, tmp_path):
    _files, store = _sweep_store(run_cli, tmp_path)
    code, _out, _err = run_cli(["train", "--store", store,
                                "--axis", "polling",
                                "--out", str(tmp_path / "p.tree")])
    assert code == 2


def test_train_names_the_store_line_an_interrupted_sweep_cut(run_cli,
                                                              tmp_path):
    files, store = _sweep_store(run_cli, tmp_path)
    with open(store, "rb") as fh:
        data = fh.read()
    cut = data[:-40].count(b"\n") + 1      # the line the cut falls in
    with open(store, "wb") as fh:
        fh.write(data[:-40])
    code, _out, _err = run_cli(["sweep", "--instances", files[0],
                                "--axis", "clusters", "--grid", "1,4",
                                "--workers", 4, "--budget", 50,
                                "--out", str(tmp_path / "records.csv"),
                                "--store", store])
    assert code == 0
    with open(store) as fh:
        lines = fh.read().splitlines()
    # the new case starts its own line, after the cut one
    assert len(lines) == cut + 1
    assert TrainingCase.from_dict(json.loads(lines[-1])).axis == "clusters"
    code, out, err = run_cli(["train", "--store", store,
                              "--axis", "clusters", "--folds", 2,
                              "--out", str(tmp_path / "m.tree")])
    assert code == 0
    assert f"warning: {store}:{cut}: skipping cut store line" in err
    # every case but the cut one is read
    assert f"cases: {cut} " in out


def test_train_rejects_a_non_finite_timing(run_cli, tmp_path):
    # json.loads reads Infinity; --filter takes each case's timing CoV
    store = tmp_path / "cases.jsonl"
    lines = [TrainingCase(ProblemFeatures(b=b, herror=1.0, imb=0.5,
                                          loc=0.5, hbf=b),
                          "sim-P4", "clusters", "1",
                          {"1": 2.0, "2": 3.0}).to_json()
             for b in (2.0, 3.0, 4.0, 5.0)]
    lines[0] = lines[0].replace('"1": 2.0', '"1": Infinity')
    store.write_text("\n".join(lines) + "\n")
    model = tmp_path / "m.tree"
    code, _out, err = run_cli(["train", "--store", store, "--axis",
                               "clusters", "--folds", 2, "--filter",
                               "--out", model])
    assert code == 2
    assert err.splitlines() == [
        f"error: {store}:1: timing '1' is not finite: inf"]
    assert not model.exists()


def test_train_rejects_timings_whose_sum_overflows(run_cli, tmp_path):
    # every timing is finite, but --filter's CoV sums them for a mean
    store = tmp_path / "cases.jsonl"
    lines = [TrainingCase(ProblemFeatures(b=b, herror=1.0, imb=0.5,
                                          loc=0.5, hbf=b),
                          "sim-P4", "clusters", "1",
                          {"1": 2.0, "2": 3.0, "3": 4.0}).to_json()
             for b in (2.0, 3.0, 4.0, 5.0)]
    lines[0] = lines[0].replace('"1": 2.0', '"1": 1.7e308') \
        .replace('"3": 4.0', '"3": 1.7e308')
    store.write_text("\n".join(lines) + "\n")
    model = tmp_path / "m.tree"
    code, out, err = run_cli(["train", "--store", store, "--axis",
                              "clusters", "--folds", 2, "--filter",
                              "--out", model])
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"error: {store}: timings sum past a float's range"]
    assert not model.exists()
    assert not (tmp_path / "m.tree.eval.csv").exists()


def test_train_rejects_bad_input_before_writing(run_cli, tmp_path):
    _files, store = _sweep_store(run_cli, tmp_path)
    missing = tmp_path / "missing.jsonl"
    model = tmp_path / "m.tree"
    # usage errors come before the store is read, so a missing store
    # still exits 1; the store holds too few cases to fill 50 folds
    for store_path, axis, folds, want in ((store, "clusters", 1, 1),
                                          (missing, "clusters", 0, 1),
                                          (store, "colour", 2, 1),
                                          (missing, "colour", 2, 1),
                                          (store, "clusters", 50, 2)):
        code, _out, err = run_cli(["train", "--store", store_path,
                                   "--axis", axis, "--folds", folds,
                                   "--out", model])
        assert code == want, (store_path, axis, folds)
        assert "Traceback" not in err
        assert not model.exists()
        assert not os.path.exists(f"{model}.eval.csv")


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
    # an all-axes model sets the whole config; an axis model overrides it
    everything = tmp_path / "all.tree"
    everything.write_text("leaf KumarRao:2:on:Random:0.5:HeadOfList:2:Local"
                          " 1 0\n")
    code, out, _err = run_cli(["advise", "--instances", files[0],
                               "--model", f"all={everything}",
                               "--model", f"clusters={model}",
                               "--budget", 50])
    assert code == 0
    config = out.split("config: ")[1].split()[0].split(":")
    assert config[0] == "KumarRao" and config[2:] \
        == ["on", "Random", "0.5", "HeadOfList", "2", "Local"]
    assert config[1] == advised[0].split("=")[1]


def test_calls_sharing_the_parser_share_no_state(run_cli, tmp_path,
                                                 monkeypatch):
    # main parses every call with one parser, so the first call's flags
    # must not reach the second: argparse copies an append action's
    # default list before appending, so --model's default stays empty
    files = _gen(run_cli, str(tmp_path / "inst"), count=1)
    everything = tmp_path / "all.tree"
    everything.write_text("leaf KumarRao:2:on:Random:0.5:HeadOfList:2:Local"
                          " 1 0\n")
    seen = []
    check_run_flags = cli._check_run_flags

    def recording(args):
        seen.append(dict(vars(args)))
        check_run_flags(args)

    monkeypatch.setattr(cli, "_check_run_flags", recording)
    code, out, _err = run_cli(["advise", "--instances", files[0],
                               "--model", f"all={everything}", "--strict",
                               "--workers", 8, "--seed", 3, "--budget", 50])
    assert code == 0
    assert "config: KumarRao:2:on:Random:0.5:HeadOfList:2:Local" in out
    argv = ["advise", "--instances", files[0], "--budget", "50"]
    code, out, _err = run_cli(argv)
    assert code == 0
    assert "config: BreadthFirst:1:on:Neighbor:0.3:TailOfList:0:Fixed" in out
    assert cli._parser() is cli._parser()
    first, second = seen
    assert first["model"] == [f"all={everything}"] and second["model"] == []
    # the second call parsed as a parser of its own would parse it; the
    # files callback is made afresh with each parser
    fresh = vars(cli.build_parser().parse_args(argv))
    for args in (second, fresh):
        del args["files"]
    assert second == fresh


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


def test_solve_rejects_a_spec_with_b_over_256(run_cli, tmp_path):
    spec = tmp_path / "wide.spec"
    spec.write_text("d = 2\ng = 0.5\nb = 300\nimbalance = 0.0\n"
                    "density = 0.0\nherror = 0\nseed = 1\n")
    records = tmp_path / "solve.csv"
    code, out, err = run_cli(["solve", "--instances", spec, "--budget", 50,
                              "--workers", 2, "--out", records])
    assert code == 2
    assert "b must be in [2, 256], got 300" in err
    assert out == ""
    assert not records.exists()


def test_solve_rejects_bad_run_flags_before_searching(run_cli, tmp_path,
                                                      monkeypatch):
    files = _gen(run_cli, str(tmp_path / "inst"), count=1)
    _forbid_search(monkeypatch)
    records = tmp_path / "solve.csv"
    # advise runs the same checks, minus the record file
    for flags, message in BAD_RUN_FLAGS:
        for argv in (["advise", "--instances", files[0], *flags],
                     ["solve", "--instances", files[0], *flags,
                      "--out", records]):
            code, out, err = run_cli(argv)
            assert code == 1, argv
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


def test_solve_window_search_returns_the_optimal_puzzle_cost(run_cli,
                                                             tmp_path):
    # scramble(14, 46): a deeper window finds a cost-16 goal while the
    # root pass, which holds a cost-14 one, is still running
    path = tmp_path / "p.txt"
    path.write_text("5 2 7 11 1 4 3 0 8 9 6 10 12 13 14 15\n")
    code, out, _err = run_cli(["solve", "--instances", path,
                               "--clusters", 2, "--workers", 4,
                               "--budget", 5])
    assert code == 0
    assert "cost: 14" in out.splitlines()


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
    code, _out, err = run_cli(["report", records, "--out", out_csv])
    assert code == 0
    assert {r["approach"] for r in _read_csv(out_csv)} == {"clusters=1"}
    assert "warning" not in err
    # an ok row without a speedup is skipped with a warning
    with open(records, "a", newline="") as fh:
        csv.DictWriter(fh, fieldnames=RECORD_FIELDS, lineterminator="\n") \
            .writerow(dict.fromkeys(RECORD_FIELDS, "")
                      | {"instance": "inst_0000", "approach": "clusters=2",
                         "status": "ok"})
    code, _out, err = run_cli(["report", records, "--out", out_csv])
    assert code == 0
    assert {r["approach"] for r in _read_csv(out_csv)} == {"clusters=1"}
    assert "skipping record without speedup: inst_0000 clusters=2" in err


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
    short = tmp_path / "short.csv"
    short.write_text(",".join(RECORD_FIELDS[:-1]) + "\n")
    code, _out, err = run_cli(["report", short,
                               "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "missing columns ['timestamp']" in err


def _one_record(path, speedup):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerow(dict.fromkeys(RECORD_FIELDS, "")
                        | {"instance": "inst_0007", "approach": "advised",
                           "status": "ok", "speedup": speedup})


def test_report_rejects_a_non_numeric_speedup(run_cli, tmp_path):
    records = tmp_path / "records.csv"
    _one_record(records, "abc")
    code, _out, err = run_cli(["report", records,
                               "--out", tmp_path / "r.csv"])
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert str(records) in err and "inst_0007" in err and "'abc'" in err


@pytest.mark.parametrize("speedup", ["inf", "1e400", "nan", "-inf"])
def test_report_rejects_a_non_finite_speedup(run_cli, tmp_path, speedup):
    records = tmp_path / "records.csv"
    _one_record(records, speedup)
    out_csv = tmp_path / "r.csv"
    code, out, err = run_cli(["report", records, "--out", out_csv])
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"error: {records}: instance inst_0007: speedup {speedup!r} is "
        "not a finite number"]
    assert not out_csv.exists()


@pytest.mark.parametrize("cells, where", [
    # one cell's mean, an instance's CoV over its cell means, and an
    # approach's mean over instances
    ((("inst_0007", "advised"), ("inst_0007", "advised")),
     "instance inst_0007"),
    ((("inst_0007", "advised"), ("inst_0007", "clusters=4")),
     "instance inst_0007"),
    ((("inst_0007", "advised"), ("inst_0008", "advised")),
     "approach advised")])
def test_report_rejects_speedups_whose_sum_overflows(run_cli, tmp_path,
                                                    cells, where):
    records = tmp_path / "records.csv"
    with open(records, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS,
                                lineterminator="\n")
        writer.writeheader()
        for inst, approach in cells:
            writer.writerow(dict.fromkeys(RECORD_FIELDS, "")
                            | {"instance": inst, "approach": approach,
                               "status": "ok", "speedup": "1.7e308"})
    out_csv = tmp_path / "r.csv"
    code, out, err = run_cli(["report", records, "--out", out_csv])
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"error: {records}: {where}: speedups sum past a float's range"]
    assert not out_csv.exists()


def _cut_last_line_in_speedup(path):
    """Cut the file's last record inside its speedup field, as a write
    cut short leaves it; returns the cut line's number."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields = lines[-1].split(",")
    at = RECORD_FIELDS.index("speedup")
    lines[-1] = ",".join(fields[:at] + [fields[at][:2]])
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    return len(lines)


def test_report_skips_a_cut_record_line(run_cli, tmp_path):
    records = tmp_path / "records.csv"
    with open(records, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS,
                                lineterminator="\n")
        writer.writeheader()
        for inst, speedup in (("inst_0000", "1.2"), ("inst_0001", "1.16106")):
            writer.writerow(dict.fromkeys(RECORD_FIELDS, "0")
                            | {"instance": inst, "approach": "clusters=2",
                               "status": "ok", "speedup": speedup})
    line = _cut_last_line_in_speedup(records)
    code, out, err = run_cli(["report", records,
                              "--out", tmp_path / "r.csv"])
    assert code == 0
    assert f"{records}:{line}: skipping cut record line" in err
    # the cut row's "1." is not read as a speedup of 1
    assert "clusters=2: mean speedup 1.2 (best)" in out


def test_sweep_after_a_cut_line_keeps_its_rows(run_cli, tmp_path):
    files = _gen(run_cli, str(tmp_path / "inst"), count=2)
    records = str(tmp_path / "records.csv")
    sweep = ["sweep", "--axis", "clusters", "--grid", "1", "--workers", 4,
             "--budget", 50, "--out", records]
    code, _out, _err = run_cli([*sweep, "--instances", files[0]])
    assert code == 0
    line = _cut_last_line_in_speedup(records)
    code, _out, _err = run_cli([*sweep, "--instances", files[1]])
    assert code == 0
    out_csv = str(tmp_path / "report.csv")
    code, _out, err = run_cli(["report", records, "--out", out_csv])
    assert code == 0
    assert f"{records}:{line}: skipping cut record line" in err
    assert [r["instance"] for r in _read_csv(out_csv)] == ["inst_0001"]


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


def test_curves_eq1_rejects_a_fractional_depth(run_cli, tmp_path):
    out_csv = tmp_path / "eq1.csv"
    code, _out, err = run_cli(["curves", "eq1", "--grid", "4.5",
                               "--out", out_csv])
    assert code == 1
    assert "integer" in err
    assert not out_csv.exists()


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


@pytest.mark.parametrize("curve, grid", [("eq1", "1e400"),
                                         ("eq2", "1e-400"),
                                         ("fig6", "1e-400")])
def test_curves_overflow_is_one_error_line(run_cli, tmp_path, curve, grid):
    out_csv = tmp_path / f"{curve}.csv"
    code, _out, err = run_cli(["curves", curve, "--grid", grid,
                               "--out", out_csv])
    assert code == 1
    assert err.splitlines() == [
        f"error: {curve}: grid value 1 is out of float range: "
        "integer division result too large for a float"]
    assert not out_csv.exists()


@pytest.mark.parametrize("argv, name", [
    (["eq2", "--b", str(10 ** 400), "--grid", "0.5"], "eq2: b"),
    (["fig5", "--b", str(10 ** 400), "--d", "1"], "fig5: b"),
    (["eq1", "--x", str(10 ** 400), "--grid", "4"], "eq1: x"),
])
def test_curves_names_a_parameter_out_of_float_range(run_cli, tmp_path,
                                                     argv, name):
    out_csv = tmp_path / "c.csv"
    code, _out, err = run_cli(["curves", *argv, "--out", out_csv])
    assert code == 1
    assert err.splitlines() == [f"error: {name} is out of float range"]
    assert not out_csv.exists()


def test_curves_formats_only_the_parameters_it_prints(run_cli, tmp_path):
    # eq2 neither prints nor reads x
    out_csv = tmp_path / "c.csv"
    code, _out, _err = run_cli(["curves", "eq2", "--x", str(10 ** 400),
                                "--grid", "0.5", "--out", out_csv])
    assert code == 0
    assert out_csv.read_text() == "a,b,pws_eq2\n0.5,6,1.4\n"


def test_curves_eq1_at_a_huge_depth_ends(tmp_path):
    # an exact sum at d = 1e20 would grow one integer without end: run
    # in a child process, so a hang fails here rather than holding the
    # suite
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "idastra", "curves", "eq1", "--grid", "1e20",
         "--out", str(tmp_path / "eq1.csv")],
        env=env, capture_output=True, text=True, timeout=20)
    if proc.returncode == 0:
        # the asymptote P + 1/(2 b^x) at the defaults P=10, b=6, x=3
        assert _read_csv(tmp_path / "eq1.csv")[0]["dts_eq1"] == "10.0023"
    else:
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")


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


# each writing subcommand with an output that names one of its inputs:
# (argv, the output and the input as the error line names them).  {tmp}
# holds inst/ (one spec), a puzzle file, a model, a store, two record
# files and m.eval.csv
REFUSALS = {
    "solve-out-is-its-puzzle-file": (
        ["solve", "--instances", "{tmp}/one.txt", "--out", "{tmp}/one.txt"],
        "{tmp}/one.txt", "{tmp}/one.txt"),
    "solve-out-is-its-model": (
        ["solve", "--instances", "{tmp}/inst", "--model",
         "clusters={tmp}/c.tree", "--out", "{tmp}/./c.tree"],
        "{tmp}/./c.tree", "{tmp}/c.tree"),
    "sweep-out-is-in-its-instance-directory": (
        ["sweep", "--instances", "{tmp}/inst", "--axis", "clusters",
         "--grid", "1", "--out", "{tmp}/inst/inst_0000.spec"],
        "{tmp}/inst/inst_0000.spec", "{tmp}/inst/inst_0000.spec"),
    "sweep-store-is-an-instance": (
        ["sweep", "--instances", "{tmp}/inst/inst_0000.spec", "--axis",
         "clusters", "--grid", "1", "--out", "{tmp}/r.csv",
         "--store", "{tmp}/inst/./inst_0000.spec"],
        "{tmp}/inst/./inst_0000.spec", "{tmp}/inst/inst_0000.spec"),
    # records and cases interleaved in one file would each be skipped as
    # cut lines by the other's reader
    "sweep-out-is-its-store": (
        ["sweep", "--instances", "{tmp}/inst", "--axis", "clusters",
         "--grid", "1", "--out", "{tmp}/./cases.jsonl",
         "--store", "{tmp}/cases.jsonl"],
        "{tmp}/./cases.jsonl", "{tmp}/cases.jsonl"),
    "sweep-out-is-its-store-not-made-yet": (
        ["sweep", "--instances", "{tmp}/inst", "--axis", "clusters",
         "--grid", "1", "--out", "{tmp}/new.jsonl",
         "--store", "{tmp}/./new.jsonl"],
        "{tmp}/new.jsonl", "{tmp}/./new.jsonl"),
    "train-out-is-its-store": (
        ["train", "--store", "{tmp}/cases.jsonl", "--axis", "clusters",
         "--folds", "2", "--out", "{tmp}/cases.jsonl"],
        "{tmp}/cases.jsonl", "{tmp}/cases.jsonl"),
    # the evaluation file written beside the model
    "train-eval-is-its-store": (
        ["train", "--store", "{tmp}/m.eval.csv", "--axis", "clusters",
         "--folds", "2", "--out", "{tmp}/m"],
        "{tmp}/m.eval.csv", "{tmp}/m.eval.csv"),
    "report-out-is-its-records": (
        ["report", "{tmp}/first.csv", "{tmp}/records.csv",
         "--out", "{tmp}/./records.csv"],
        "{tmp}/./records.csv", "{tmp}/records.csv"),
}


def _snapshot(root):
    """Every file under root, by path, with its bytes."""
    return {path: path.read_bytes() for path in root.rglob("*")
            if path.is_file()}


@pytest.mark.parametrize("argv, output, named",
                         REFUSALS.values(), ids=REFUSALS.keys())
def test_an_output_that_names_an_input_is_refused(run_cli, tmp_path,
                                                  monkeypatch, argv, output,
                                                  named):
    _gen(run_cli, str(tmp_path / "inst"), count=1)
    _one_puzzle_file(tmp_path)
    (tmp_path / "c.tree").write_text("leaf 1 1 0\n")
    for name in ("cases.jsonl", "m.eval.csv"):
        (tmp_path / name).write_text('{"kept": "as it was"}\n')
    _one_record(tmp_path / "first.csv", "1.5")
    _one_record(tmp_path / "records.csv", "2.5")
    _forbid_search(monkeypatch)
    before = _snapshot(tmp_path)
    code, out, err = run_cli([a.format(tmp=tmp_path) for a in argv])
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: output {output.format(tmp=tmp_path)} is the input file "
        f"{named.format(tmp=tmp_path)}"]
    # every input is left as it was, and no output is made
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("name, text, where", [
    ("bad.spec", "d = 5\ndepth = 3\n", "2: unknown key 'depth'"),
    ("bad.spec", "d = 5\n", " missing keys: g, b, imbalance, density, "
                            "herror, seed"),
    ("bad.txt", "1 2 3\n", "1: expected 16 fields, got 3"),
    ("c.tree", "leaf 1 1 0\n leaf 2 1 0\n", "2: odd indent"),
    ("c.tree", "\n", " empty model text"),
])
def test_a_parse_error_names_its_file(run_cli, tmp_path, name, text, where):
    spec = _gen(run_cli, str(tmp_path / "inst"), count=1)[0]
    path = tmp_path / name
    path.write_text(text)
    argv = ["advise", "--instances", path, "--budget", 50]
    if name == "c.tree":
        argv[2] = spec
        argv += ["--model", f"clusters={path}"]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {path}:{where}"]


@pytest.mark.parametrize("argv", [
    ["advise", "--instances", "{bad}.dat"],
    ["advise", "--instances", "{bad}.spec"],
    ["advise", "--instances", "{spec}", "--model", "clusters={bad}.dat"],
    ["train", "--store", "{bad}.dat", "--axis", "clusters",
     "--out", "{tmp}/c.tree"],
    ["report", "{bad}.dat", "--out", "{tmp}/report.csv"],
    ["sweep", "--instances", "{spec}", "--axis", "clusters", "--grid", "1",
     "--budget", "50", "--out", "{tmp}/records.csv",
     "--store", "{bad}.dat"],
], ids=["advise-puzzle", "advise-spec", "advise-model", "train", "report",
        "sweep-store"])
def test_undecodable_input_is_a_data_error(run_cli, tmp_path, argv):
    # bytes 0x80-0xff are not UTF-8 (none starts a character)
    for ext in (".dat", ".spec"):
        (tmp_path / f"bad{ext}").write_bytes(bytes(range(128, 256)))
    spec = _gen(run_cli, str(tmp_path / "inst"), count=1)[0]
    argv = [a.format(bad=tmp_path / "bad", spec=spec, tmp=tmp_path)
            for a in argv]
    bad = next(a.split("=")[-1] for a in argv if "bad." in a)
    code, _out, err = run_cli(argv)
    assert code == 2
    assert err.splitlines() == [
        f"error: {bad}: 'utf-8' codec can't decode byte 0x80 in position "
        "0: invalid start byte"]


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


def test_sweep_keeps_finished_instances_on_interrupt(run_cli, tmp_path,
                                                     monkeypatch):
    real = cli.run_parallel
    seen = []

    def interrupt_on_third_instance(problem, *args, **kwargs):
        if problem not in seen:
            seen.append(problem)
        if len(seen) == 3:
            raise KeyboardInterrupt
        return real(problem, *args, **kwargs)

    files = _gen(run_cli, str(tmp_path / "inst"), count=4)
    monkeypatch.setattr(cli, "run_parallel", interrupt_on_third_instance)
    records = str(tmp_path / "records.csv")
    store = str(tmp_path / "cases.jsonl")
    with pytest.raises(KeyboardInterrupt):
        cli.main(["sweep", "--instances", *files, "--axis", "clusters",
                  "--grid", "1,2", "--workers", "2", "--budget", "50",
                  "--out", records, "--store", store])
    rows = _read_csv(records)
    assert [(r["instance"], r["approach"]) for r in rows] \
        == [(f"inst_000{i}", f"clusters={c}") for i in (0, 1) for c in (1, 2)]
    assert all(r["status"] == "ok" for r in rows)
    with open(store) as fh:
        assert len([line for line in fh if line.strip()]) == 2
