"""Every numeric flag of every subcommand, at typed extremes, ends the
command cleanly: in an exit code, at most one error line and no
traceback, within a memory limit and a wall timeout.  So do extreme
values inside the files that train and report read, and the error cases
in ERROR_CASES, each in its own documented exit code.

The flags are read from build_parser(): every option whose type is int
or float, or whose default reads as a number (gen's comma-list grids),
and --grid.  A subcommand that reads files gets small valid ones: a tiny
spec for sweep, advise and solve, a two-case store for train and a
one-row records file for report.

Run as a child process (python -m idastra) so that a hang or a memory
blow-up is caught by the limits instead of taking the test run with it.
Tier-1 runs the examples below and a small fixed sample; the ci profile
in tests/conftest.py runs a larger one."""

import argparse
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idastra.cli import RECORD_FIELDS, build_parser

# address space of the child process only, set by itself before exec
MEMORY_LIMIT = 800 * 2 ** 20
# the slowest input the bounds accept finishes in about 2 s on a 2-core
# VM; the rest is headroom for a slower runner
TIMEOUT_S = 20

EXTREMES = ("0", "-1", "1", str(2 ** 63), str(10 ** 12), "1e400", "nan",
            "inf", "")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
TINY_SPEC = ("d = 5\ng = 0.7\nb = 3\nimbalance = 0.0\ndensity = 0.0\n"
             "herror = 2\nseed = 1\n")
TWO_CASES = "".join(json.dumps({
    "features": {"b": b, "herror": 1.0, "imb": 0.5, "loc": 0.5, "hbf": b},
    "architecture": "sim-P4", "axis": "clusters", "label": label,
    "timings": {"1": 2.0, "2": 3.0}}) + "\n"
    for b, label in ((2.0, "1"), (4.0, "2")))
ONE_RECORD = (",".join(RECORD_FIELDS) + "\n"
              + ",".join({"instance": "inst_0000", "approach": "clusters=1",
                          "status": "ok", "speedup": "1.5"}.get(f, "0")
                         for f in RECORD_FIELDS) + "\n")


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _numeric_flags():
    """Each subcommand's numeric flags, as build_parser() declares them."""
    parser = build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: tuple(
        action.option_strings[0] for action in subparser._actions
        if action.type in (int, float) or "--grid" in action.option_strings
        or isinstance(action.default, str) and _is_number(action.default))
        for name, subparser in sub.choices.items()}


NUMERIC_FLAGS = _numeric_flags()


@st.composite
def commands(draw):
    name = draw(st.sampled_from(sorted(NUMERIC_FLAGS)))
    argv = [name]
    if name == "curves":
        argv.append(draw(st.sampled_from(("eq1", "eq2", "fig5", "fig6"))))
        argv += ["--balance", draw(st.sampled_from(
            ("Balanced", "ExponentialImbalance")))]
    flags = NUMERIC_FLAGS[name]
    # report has no numeric flag: it runs on its records file alone
    for flag in draw(st.lists(st.sampled_from(flags), unique=True,
                              max_size=3)) if flags else ():
        argv += [flag, draw(st.sampled_from(EXTREMES))]
    return argv


def _inputs(name, work):
    """The arguments a subcommand needs besides the drawn flags, with the
    files they name written into work.  The output, if any, is work/out;
    sweep's --grid comes first, so that a drawn one overrides it."""
    out = work / "out"
    if name in ("sweep", "advise", "solve"):
        spec = work / "tiny.spec"
        spec.write_text(TINY_SPEC)
        if name == "sweep":
            return ["--grid", "1,2", "--instances", spec,
                    "--axis", "clusters", "--out", out]
        return ["--instances", spec]
    if name == "train":
        store = work / "cases.jsonl"
        store.write_text(TWO_CASES)
        return ["--store", store, "--axis", "clusters", "--out", out]
    if name == "report":
        records = work / "records.csv"
        records.write_text(ONE_RECORD)
        return [records, "--out", out]
    return ["--out", out]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _run(argv):
    """Exit code and stderr of `python -m idastra argv`, which must end
    within the timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "idastra", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=TIMEOUT_S, preexec_fn=_limit_memory)
    return proc.returncode, proc.stderr


def _check_ended_cleanly(argv, code, err):
    assert code in (0, 1, 2, 3), (argv, code, err[-400:])
    assert "Traceback" not in err, (argv, err[-400:])
    assert sum("error:" in line for line in err.splitlines()) <= 1, \
        (argv, err)


def test_numeric_flags_cover_every_subcommand():
    assert sorted(NUMERIC_FLAGS) == ["advise", "curves", "gen", "report",
                                     "solve", "sweep", "train"]
    assert NUMERIC_FLAGS["train"] == ("--folds", "--seed")
    assert NUMERIC_FLAGS["report"] == ()
    assert set(NUMERIC_FLAGS["sweep"]) == {
        "--grid", "--workers", "--clusters", "--latency", "--budget",
        "--seed"}
    assert set(NUMERIC_FLAGS["gen"]) == {
        "--count", "--seed", "--d", "--g", "--b", "--imbalance",
        "--density", "--herror"}


# the default profile's 100 examples would add about 20 s to tier-1:
# take a fifth of the loaded profile's count
@settings(max_examples=settings.default.max_examples // 5, deadline=None,
          derandomize=True)
@given(argv=commands())
@example(argv=["curves", "eq1", "--x", "1000000000000", "--grid", "4"])
@example(argv=["curves", "fig5", "--d", "100000000"])
@example(argv=["curves", "fig5", "--b", "100000000000000000000000000000",
               "--d", "3000"])
@example(argv=["curves", "fig6", "--workers", "100000000"])
@example(argv=["curves", "fig5", "--balance", "ExponentialImbalance",
               "--ratio", "nan"])
@example(argv=["curves", "eq1", "--grid", "4:1e400:1"])
@example(argv=["curves", "eq2", "--grid", "0:1:1e-400"])
@example(argv=["curves", "eq2", "--grid", "1e-99999999"])
@example(argv=["curves", "eq1", "--grid", "1e99999999"])
@example(argv=["curves", "eq2", "--grid", "1:2:1e-99999999"])
@example(argv=["gen", "--count", "9223372036854775808"])
@example(argv=["gen", "--d", "100000000"])
@example(argv=["solve", "--budget", "2", "--workers", "9223372036854775808"])
def test_numeric_flags_at_extremes_end_cleanly(argv, tmp_path_factory):
    work = tmp_path_factory.mktemp("bounds")
    out = work / "out"
    name = argv[0]
    full = [str(a) for a in [*argv[:1], *_inputs(name, work), *argv[1:]]]
    code, err = _run(full)
    _check_ended_cleanly(full, code, err)
    if code != 0:
        # a rejected input writes nothing
        assert not out.exists(), full
    elif name == "gen":
        # whatever spec gen writes, solve runs to an end
        spec = str(out / "inst_0000.spec")
        code, err = _run(["solve", "--instances", spec])
        _check_ended_cleanly(["solve", spec], code, err)


# JSON tokens for a value inside a store line: json.loads reads NaN,
# Infinity and 1e400 (as inf)
JSON_EXTREMES = ("0", "-1", "1e400", "-1e400", "1e-400", "NaN", "Infinity",
                 str(2 ** 63), "1.7e308", '"1"', '"two words"', '""', "null",
                 "[]", "{}")
STORE_FIELDS = (("features", "b"), ("features", "herror"), ("features", "imb"),
                ("features", "loc"), ("features", "hbf"), ("timings", "1"),
                ("label",), ("architecture",))


def _store_with(where, token):
    """TWO_CASES with the first line's value at where replaced by the
    raw JSON token."""
    first, second = TWO_CASES.splitlines(keepends=True)
    case = json.loads(first)
    *parents, key = where
    holder = case
    for name in parents:
        holder = holder[name]
    holder[key] = "@extreme@"
    return json.dumps(case).replace('"@extreme@"', token) + "\n" + second


# the commands that read the drawn files: {input} is the file, {out}
# the output
TRAIN = ["train", "--store", "{input}", "--axis", "clusters", "--folds", "2",
         "--out", "{out}"]
REPORT = ["report", "{input}", "--out", "{out}"]


@st.composite
def file_extremes(draw):
    """(argv, input file name, its text): train over a store, or report
    over a records file, with one value replaced by an extreme."""
    if draw(st.booleans()):
        text = _store_with(draw(st.sampled_from(STORE_FIELDS)),
                           draw(st.sampled_from(JSON_EXTREMES)))
        return TRAIN + draw(st.sampled_from(([], ["--filter"]))), \
            "cases.jsonl", text
    field = draw(st.sampled_from(RECORD_FIELDS))
    value = draw(st.sampled_from(EXTREMES + ("-inf", "1.7e308", "x")))
    header, row = ONE_RECORD.splitlines()
    cells = row.split(",")
    cells[RECORD_FIELDS.index(field)] = value
    return REPORT, "records.csv", f"{header}\n{','.join(cells)}\n"


@settings(max_examples=settings.default.max_examples // 10, deadline=None,
          derandomize=True)
@given(case=file_extremes())
@example(case=(REPORT, "records.csv", ONE_RECORD.replace("1.5", "1e400")))
@example(case=(TRAIN, "cases.jsonl",
               _store_with(("timings", "1"), "1.7e308")))
# a label that is not a string, and one that is not a clusters value,
# once ended in a traceback
@example(case=(TRAIN, "cases.jsonl", _store_with(("label",), "0")))
@example(case=(TRAIN, "cases.jsonl",
               _store_with(("label",), '"two words"')))
def test_extreme_values_inside_input_files_end_cleanly(case,
                                                       tmp_path_factory):
    argv, name, text = case
    work = tmp_path_factory.mktemp("files")
    (work / name).write_text(text)
    out = work / "out"
    full = [a.format(input=work / name, out=out) for a in argv]
    code, err = _run(full)
    _check_ended_cleanly(full, code, err)
    # a bad value is a data error, and a rejected input writes nothing
    assert code in (0, 2), (full, err)
    if code:
        assert not out.exists(), full


def _long_list(value, count):
    """A comma list of count values; a long one stays under Linux's
    128 KiB bound on one argument."""
    return ",".join([value] * count)


PUZZLE = "1 2 10 6 4 11 3 0 8 5 15 7 12 13 9 14\n"
HEADER = ",".join(RECORD_FIELDS)

# (argv, exit code, the file the command must leave byte-identical):
# the documented exit code of each error case, run as python -m idastra
# in a child process.  {w} is a work directory that
# holds the files _error_case_files writes
ERROR_CASES = {
    "undecodable-input": (
        ["advise", "--instances", "{w}/bad.dat"], 2, None),
    "undecodable-store": (
        ["train", "--store", "{w}/bad.dat", "--axis", "clusters",
         "--out", "{w}/c.tree"], 2, None),
    "undecodable-records": (
        ["report", "{w}/bad.dat", "--out", "{w}/report.csv"], 2, None),
    "non-finite-speedup": (
        ["report", "{w}/inf.csv", "--out", "{w}/report.csv"], 2, None),
    "overflowing-speedup-mean": (
        ["report", "{w}/huge.csv", "--out", "{w}/report.csv"], 2, None),
    "report-over-its-own-records": (
        ["report", "{w}/records.csv", "--out", "{w}/records.csv"], 1,
        "records.csv"),
    "solve-over-its-puzzle-file": (
        ["solve", "--instances", "{w}/puzzles.txt", "--out",
         "{w}/puzzles.txt"], 1, "puzzles.txt"),
    "sweep-into-its-instance-directory": (
        ["sweep", "--instances", "{w}/inst", "--axis", "clusters",
         "--grid", "1", "--out", "{w}/inst/tiny.spec"], 1, "inst/tiny.spec"),
    "missing-output-directory": (
        ["sweep", "--instances", "{w}/inst", "--axis", "clusters",
         "--grid", "1", "--out", "{w}/missing/records.csv"], 2,
        "inst/tiny.spec"),
    "missing-model-directory": (
        ["train", "--store", "{w}/cases.jsonl", "--axis", "clusters",
         "--out", "{w}/missing/c.tree"], 2, "cases.jsonl"),
    "long-gen-list": (
        ["gen", "--out", "{w}/gen", "--d", _long_list("5", 20000)], 0,
        None),
    "long-sweep-grid": (
        ["sweep", "--instances", "{w}/inst", "--axis", "clusters",
         "--grid", _long_list("1", 2000), "--budget", "2", "--out",
         "{w}/records-out.csv"], 0, "inst/tiny.spec"),
    "long-curves-grid": (
        ["curves", "fig5", "--grid", _long_list("1", 20000),
         "--out", "{w}/fig5.csv"], 0, None),
}


def _error_case_files(work):
    (work / "bad.dat").write_bytes(bytes(range(128, 256)))
    (work / "inst").mkdir()
    (work / "inst" / "tiny.spec").write_text(TINY_SPEC)
    (work / "puzzles.txt").write_text(PUZZLE)
    (work / "cases.jsonl").write_text(TWO_CASES)
    (work / "records.csv").write_text(ONE_RECORD)
    row = "inst_0000,advised,-,4,sim,1,0,0,ok,10,10,{},10,0,-\n"
    (work / "inf.csv").write_text(f"{HEADER}\n" + row.format("inf"))
    (work / "huge.csv").write_text(f"{HEADER}\n"
                                   + 2 * row.format("1.7e308"))


@pytest.mark.parametrize("argv, want, kept", ERROR_CASES.values(),
                         ids=ERROR_CASES.keys())
def test_error_case_exits_with_its_code(argv, want, kept, tmp_path):
    _error_case_files(tmp_path)
    before = (tmp_path / kept).read_bytes() if kept else None
    full = [a.format(w=tmp_path) for a in argv]
    code, err = _run(full)
    _check_ended_cleanly(full, code, err)
    assert code == want, (full, err[-400:])
    assert sum("error:" in line for line in err.splitlines()) == bool(want)
    if kept:
        assert (tmp_path / kept).read_bytes() == before
