"""Command-line front end.

Subcommands cover the full workflow: generate instances (gen), measure
strategy timings and build training cases (sweep), induce and evaluate
decision trees (train), pick a strategy for a new instance (advise),
run the advised strategy (solve), summarize run records (report), and
tabulate the closed-form speedup models (curves).

Exit codes: 0 success, 1 usage error, 2 data error (including a file
that cannot be read or written), 3 engine stall.
"""

import argparse
import csv
import dataclasses
import errno
import functools
import io
import math
import os
import re
import statistics
import sys
from fractions import Fraction

from idastra.analytics import MAX_POWER_BITS, curve_table, fmt
from idastra.core import serial_idastar
from idastra.domains.puzzle import PuzzleProblem, parse_korf_set
from idastra.domains.synthetic import (SPEC_FIELDS, ArtificialProblem,
                                      ArtificialSpec)
from idastra.engine import (AXES, DEFAULT_CONFIG, StrategyConfig,
                            config_for_axis_value, run_parallel,
                            validate_config)
from idastra.errors import (DataError, DegenerateInput, EngineStall,
                            IdastraError, UsageError, parse_file, read_text)
from idastra.features import (DEFAULT_BUDGET, extract_features,
                              shallow_search)
from idastra.learner import (Dataset, append_cases, classify,
                             coefficient_of_variation, cross_validate,
                             induce_tree, label_cases, load_tree,
                             paired_t_test, read_store, save_tree,
                             store_lines, variance_filter)
from idastra.learner.cases import end_cut_line
from idastra.learner.dtree import tree_depth, tree_leaves
from idastra.ordering import OrderPolicy, toida_scores_from_trace

RECORD_FIELDS = ("instance", "approach", "config", "workers", "mode",
                 "latency", "seed", "rep", "status", "cost", "makespan",
                 "speedup", "total_expanded", "total_messages", "timestamp")


def _warn(msg):
    print(f"warning: {msg}", file=sys.stderr)


def _instance_files(paths):
    """Expand instance arguments into files: a directory contributes its
    sorted *.spec files."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            inner = sorted(os.path.join(path, name)
                           for name in os.listdir(path)
                           if name.endswith(".spec"))
            if not inner:
                raise DataError(f"no .spec files in directory {path}")
            files.extend(inner)
        elif os.path.exists(path):
            files.append(path)
        else:
            raise DataError(f"no such instance file: {path}")
    return files


def _load_instances(files):
    """(id, problem) pairs from instance files.  A .spec file is one
    artificial instance; any other file is a puzzle set, one instance
    per line."""
    instances = []
    for path in files:
        stem = os.path.splitext(os.path.basename(path))[0]
        if path.endswith(".spec"):
            spec = ArtificialSpec.from_file(path)
            instances.append((stem, ArtificialProblem(spec)))
        else:
            states = parse_file(path, parse_korf_set)
            if not states:
                raise DataError(f"no instances in {path}")
            for i, state in enumerate(states, start=1):
                instances.append((f"{stem}#{i}", PuzzleProblem(state)))
    return instances


# every worker holds its own random generator and stats, and threads
# mode starts one OS thread per worker
MAX_WORKERS = 1024


def _check_run_flags(args):
    """Reject run flags no engine run accepts, before any search."""
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    if args.workers > MAX_WORKERS:
        raise UsageError(f"--workers must be <= {MAX_WORKERS}, "
                         f"got {args.workers}")
    if args.clusters is not None \
            and not 1 <= args.clusters <= args.workers:
        raise UsageError(f"--clusters must be in 1..{args.workers}, "
                         f"got {args.clusters}")
    if args.latency < 0:
        raise UsageError(f"--latency must be >= 0, got {args.latency}")
    if args.budget < 1:
        raise UsageError(f"--budget must be >= 1, got {args.budget}")


def _warn_threads_mode(args):
    if args.mode == "threads":
        _warn("threads mode timings depend on machine load and are "
              "not reproducible")


def _architecture(args):
    return f"{args.mode}-P{args.workers}"


def _timestamp(args):
    if args.mode == "threads":
        # imported here: datetime adds about half a megabyte of resident
        # memory, and only threads-mode records carry a wall-clock stamp
        import datetime
        return datetime.datetime.now().isoformat(timespec="seconds")
    return "-"


def _attach_toida(config, trace):
    if config.ordering.kind == "Toida" and config.ordering.scores is None:
        scores = toida_scores_from_trace(trace)
        return dataclasses.replace(config,
                                   ordering=OrderPolicy.toida(scores))
    return config


def _profile(problem, budget):
    """Profile one instance with a budgeted serial search.  Returns
    (trace, features); features is None when the search found the goal."""
    trace = shallow_search(problem, budget=budget)
    if trace.goal_found is not None:
        return trace, None
    return trace, extract_features(trace)


def _check_files(inputs, outputs):
    """Before a command runs: each output's directory must exist, and no
    output may be an input file of another flag, which writing it would
    destroy.  inputs and outputs map each file flag to its paths (None
    for a flag not given); sweep's --store is read, then appended to."""
    for flag, outs in outputs.items():
        others = [path for name, paths in inputs.items() if name != flag
                  for path in paths if path]
        for out in filter(None, outs):
            if not os.path.isdir(os.path.dirname(out) or "."):
                raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), out)
            if os.path.isdir(out):
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), out)
            for path in others:
                try:
                    same = os.path.samefile(out, path)
                except OSError:     # a file not made yet
                    same = os.path.realpath(out) == os.path.realpath(path)
                if same:
                    raise UsageError(f"output {out} is the input file {path}")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _append_records(path, rows):
    # report skips the cut line that end_cut_line ends
    held = end_cut_line(path)
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS,
                                lineterminator="\n")
        if not held:
            writer.writeheader()
        writer.writerows(rows)


def _read_records(paths):
    """(path, row) for every record in the files.  A row whose field
    count differs from the header's (a write cut short) is skipped with a
    warning."""
    rows = []
    for path in paths:
        reader = csv.DictReader(io.StringIO(read_text(path, newline=""),
                                            newline=""))
        if reader.fieldnames is None:
            continue
        missing = set(RECORD_FIELDS) - set(reader.fieldnames)
        if missing:
            raise DataError(f"{path}: record file missing columns "
                            f"{sorted(missing)}")
        for row in reader:
            if None in row or None in row.values():
                _warn(f"{path}:{reader.line_num}: skipping cut record line")
                continue
            rows.append((path, row))
    return rows


def _record_row(args, instance, approach):
    """A record row for one run, its outcome columns still empty.  Every
    run is made once, so rep is always 0."""
    row = dict.fromkeys(RECORD_FIELDS, "")
    row.update(instance=instance, approach=approach, workers=args.workers,
               mode=args.mode, latency=args.latency, seed=args.seed,
               rep=0, status="ok", timestamp=_timestamp(args))
    return row


def _run_record(row, args, problem, trace, config, baselines):
    """Run config on problem, fill the record row and return the engine
    report.

    The speedup is measured against serial IDA* in the run's own child
    order; baselines caches one search per ordering.  config None means
    profiling solved the instance: profiling is serial IDA* under a
    budget, so its expansions are the serial baseline and the speedup
    is 1.  Nothing runs then, and the report is None.
    """
    if config is None:
        row.update(config="solved-during-profiling",
                   cost=trace.goal_found[1],
                   makespan=fmt(trace.total_expanded), speedup=fmt(1),
                   total_expanded=trace.total_expanded, total_messages=0)
        return None
    config = _attach_toida(config, trace)
    row["config"] = config.token()
    validate_config(config, args.workers)
    key = config.ordering.token()
    if key not in baselines:
        baselines[key] = serial_idastar(problem, order=config.ordering)
    report = run_parallel(problem, config, args.workers, mode=args.mode,
                          latency=args.latency, seed=args.seed,
                          serial_outcome=baselines[key])
    row.update(cost=report.solution_cost, makespan=fmt(report.makespan),
               speedup=fmt(report.speedup),
               total_expanded=report.total_expanded,
               total_messages=report.total_messages)
    return report


# ---------------------------------------------------------------- gen

# gen builds every spec before it writes any, one file per spec
MAX_COUNT = 10 ** 5


def cmd_gen(args):
    if not 1 <= args.count <= MAX_COUNT:
        raise UsageError(f"--count must be in 1..{MAX_COUNT}, "
                         f"got {args.count}")
    grids = {}
    for name, cast in SPEC_FIELDS.items():
        if name == "seed":
            continue
        text = getattr(args, name)
        try:
            grids[name] = [cast(v) for v in text.split(",")]
        except ValueError:
            raise UsageError(f"--{name}: cannot parse {text!r}") from None
    # every spec is checked before any is written
    specs = [ArtificialSpec(
        seed=args.seed + i,
        **{name: grid[i % len(grid)] for name, grid in grids.items()},
    ).validate() for i in range(args.count)]
    os.makedirs(args.out, exist_ok=True)
    for i, spec in enumerate(specs):
        spec.to_file(os.path.join(args.out, f"inst_{i:04d}.spec"))
    print(f"wrote {args.count} instance file(s) to {args.out}")
    return 0


# -------------------------------------------------------------- sweep

def _sweep_instance(args, iid, problem, grid, base):
    """Run every grid value once on one instance, appending each run's
    record row to args.out as the run ends.  Returns (features, makespan
    per grid value, failed runs); features is None when profiling solved
    the instance."""
    trace, features = _profile(problem, args.budget)
    baselines = {}
    timings = {}
    failed = 0
    for value in grid:
        approach = value if args.axis == "all" else f"{args.axis}={value}"
        row = _record_row(args, iid, approach)
        try:
            config = config_for_axis_value(args.axis, value, base=base)
            report = _run_record(row, args, problem, trace, config,
                                 baselines)
        except EngineStall:
            raise
        except IdastraError as exc:
            row["status"] = type(exc).__name__
            _warn(f"{iid} {approach}: {exc}")
            failed += 1
        else:
            timings[value] = report.makespan
        _append_records(args.out, [row])
    return features, timings, failed


def cmd_sweep(args):
    instances = _load_instances(args.instances)
    if args.axis not in AXES:
        raise UsageError(f"--axis must be one of {AXES}, got {args.axis!r}")
    grid = [v for v in args.grid.split(",") if v]
    if not grid:
        raise UsageError("--grid must list at least one value")
    _check_run_flags(args)
    base = DEFAULT_CONFIG
    if args.clusters is not None and args.axis != "clusters":
        base = base.with_value("clusters", str(args.clusters))
    _warn_threads_mode(args)
    arch = _architecture(args)
    # the store is read once; append_cases keeps this set up to date
    stored = store_lines(args.store) if args.store else None

    # each record and case is on disk as soon as its run or instance
    # ends, so an exception loses none of what finished before it
    failed = cases = dupes = 0
    runs = len(instances) * len(grid)
    # each problem is dropped before the next instance's runs, so that a
    # sweep holds one problem's 2 d index tuples (d up to 4,096) at a time
    instances.reverse()
    while instances:
        iid, problem = instances.pop()
        features, timings, failures = _sweep_instance(args, iid, problem,
                                                      grid, base)
        failed += failures
        if features is None:
            _warn(f"{iid}: solved during profiling, no training case")
        elif len(timings) < 2:
            _warn(f"{iid}: fewer than 2 strategies succeeded, "
                  "no training case")
        elif args.store:
            case = label_cases(timings, features, args.axis, arch)
            dupes += append_cases(args.store, [case], stored)[1]
            cases += 1

    print(f"appended {runs} run record(s) to {args.out}"
          + (f" ({failed} failed)" if failed else ""))
    if args.store:
        if dupes:
            _warn(f"store already held {dupes} identical case line(s); "
                  "appended anyway")
        print(f"appended {cases} training case(s) to {args.store}")
    return 0


# -------------------------------------------------------------- train

def cmd_train(args):
    if args.axis not in AXES:
        raise UsageError(f"--axis must be one of {AXES}, got {args.axis!r}")
    if args.folds < 2:
        raise UsageError(f"--folds must be >= 2, got {args.folds}")
    eval_path = args.out + ".eval.csv"
    cases = read_store(args.store, axis=args.axis)
    if not cases:
        raise DataError(f"store {args.store} has no cases for axis "
                        f"{args.axis!r}")
    dataset = Dataset(cases=cases, axis=args.axis)
    if args.filter:
        try:
            dataset = variance_filter(dataset)
        except OverflowError:
            raise DataError(f"{args.store}: timings sum past a float's "
                            "range") from None
    # cross-validate first: a fold count the cases cannot fill writes
    # no model
    errors = cross_validate(dataset, k=args.folds, seed=args.seed)
    tree = induce_tree(dataset)
    save_tree(args.out, tree)
    rows = []
    for method, folds in errors.items():
        p_text = ""
        if method != "tree":
            try:
                p_text = fmt(paired_t_test(folds, errors["tree"])[1])
            except DegenerateInput:
                pass
        rows.append([method, fmt(statistics.fmean(folds)), p_text])
    _write_csv(eval_path, ["method", "mean_error", "p_vs_tree"], rows)

    leaves = tree_leaves(tree)
    train_err = sum(leaf.errors for leaf in leaves) / len(dataset.cases)
    print(f"model: {args.out}")
    print(f"cases: {len(dataset.cases)}  leaves: {len(leaves)}  "
          f"depth: {tree_depth(tree)}  training_error: {fmt(train_err)}")
    print(f"evaluation: {eval_path}")
    return 0


# ------------------------------------------------------- advise/solve

def _parse_models(entries):
    models = {}
    for entry in entries or []:
        axis, sep, path = entry.partition("=")
        if not sep or not path:
            raise UsageError(f"--model expects axis=path, got {entry!r}")
        if axis not in AXES:
            raise UsageError(f"--model axis must be one of {AXES}, "
                             f"got {axis!r}")
        models[axis] = load_tree(path)
    return models


def _advise(args):
    """Profile one instance, compose a strategy recommendation and print
    it.  Returns (instance id, problem, trace, config); config is None
    when profiling already solved the instance."""
    instances = _load_instances(args.instances)
    if len(instances) != 1:
        raise UsageError(f"expected exactly one instance, got "
                         f"{len(instances)}")
    iid, problem = instances[0]
    _check_run_flags(args)
    models = _parse_models(args.model)
    if args.strict:
        covered = set(AXES[:-1]) if "all" in models else set(models)
        missing = [axis for axis in AXES[:-1] if axis not in covered]
        if missing:
            raise DataError(f"--strict: no model for axes {missing}")

    trace, features = _profile(problem, args.budget)
    if features is None:
        path, cost = trace.goal_found
        print(f"instance: {iid}\nsolved-during-profiling\ncost: {cost}")
        print("path: " + " ".join(str(op) for op in path))
        return iid, problem, trace, None
    arch = _architecture(args)

    config = DEFAULT_CONFIG
    if args.clusters is not None:
        config = config.with_value("clusters", str(args.clusters))
    if "all" in models:
        token = classify(models["all"], features, arch)
        config = StrategyConfig.from_token(token)
    for axis in AXES[:-1]:
        if axis in models:
            config = config.with_value(
                axis, classify(models[axis], features, arch))
    config = _attach_toida(config, trace)
    validate_config(config, args.workers)
    print(f"instance: {iid}\nfeatures: {features.csv_row()}")
    print(config.describe())
    print("config: " + config.token())
    return iid, problem, trace, config


def cmd_advise(args):
    _advise(args)
    return 0


def cmd_solve(args):
    iid, problem, trace, config = _advise(args)
    if config is not None:
        _warn_threads_mode(args)
    row = _record_row(args, iid, "advised")
    if _run_record(row, args, problem, trace, config, {}) is not None:
        print(f"cost: {row['cost']}")
        print(f"makespan: {row['makespan']}")
        print(f"speedup: {row['speedup']}")
        print(f"expanded: {row['total_expanded']}")
        print(f"messages: {row['total_messages']}")
    if args.out:
        _append_records(args.out, [row])
    return 0


# ------------------------------------------------------------- report

def cmd_report(args):
    by_cell = {}
    # the record files of each ("instance", name) and ("approach", name),
    # in read order
    files = {}
    for path, row in _read_records(args.records):
        if row["status"] != "ok":
            continue
        if not row["speedup"]:
            _warn(f"skipping record without speedup: {row['instance']} "
                  f"{row['approach']}")
            continue
        try:
            speedup = float(row["speedup"])
        except ValueError:
            speedup = math.nan
        if not math.isfinite(speedup):
            raise DataError(f"{path}: instance {row['instance']}: speedup "
                            f"{row['speedup']!r} is not a finite number")
        by_cell.setdefault((row["instance"], row["approach"]),
                           []).append(speedup)
        for key in (("instance", row["instance"]),
                    ("approach", row["approach"])):
            files.setdefault(key, {})[path] = None
    if not by_cell:
        raise DataError("no usable run records")

    def overflow(kind, name):
        # finite speedups can still sum past a float's range
        return DataError(f"{', '.join(files[kind, name])}: {kind} {name}: "
                         "speedups sum past a float's range")

    def mean_of(speedups, kind, name):
        try:
            return statistics.fmean(speedups)
        except OverflowError:
            raise overflow(kind, name) from None

    # sorted cells: each instance's in approach order, each approach's
    # means in instance order
    by_instance = {}
    by_approach = {}
    for (inst, app), speedups in sorted(by_cell.items()):
        mean = mean_of(speedups, "instance", inst)
        by_instance.setdefault(inst, []).append((app, mean))
        by_approach.setdefault(app, []).append(mean)
    approach_means = {app: mean_of(by_approach[app], "approach", app)
                      for app in sorted(by_approach)}
    best_mean = max(approach_means.values())
    rows = []
    for inst, cells in by_instance.items():
        try:
            cov = fmt(coefficient_of_variation(m for _app, m in cells))
        except OverflowError:
            raise overflow("instance", inst) from None
        except DataError:
            # fewer than two approaches, or no positive mean
            cov = ""
        for app, mean in cells:
            rows.append([inst, app, fmt(mean), cov,
                         fmt(approach_means[app]),
                         "1" if approach_means[app] == best_mean else "0"])
    _write_csv(args.out, ["instance", "approach", "speedup", "instance_cov",
                          "approach_mean_speedup", "best"], rows)
    print(f"wrote {args.out}")
    for app, mean in approach_means.items():
        marker = " (best)" if mean == best_mean else ""
        print(f"{app}: mean speedup {fmt(mean)}{marker}")
    return 0


# ------------------------------------------------------------- curves

# a curves grid point is a table row and one model evaluation: at the
# default parameters each curve writes this many rows in under 3 s
# (2-core VM, Python 3.11)
MAX_GRID_POINTS = 10 ** 5


def _check_grid_size(count):
    if count > MAX_GRID_POINTS:
        raise UsageError(f"grid has more than {MAX_GRID_POINTS} points")


# Fraction builds 10**exponent exactly, in time and memory that grow
# with the exponent: a grid value whose power of ten would pass the
# models' bound on exact powers, MAX_POWER_BITS bits (an exponent over
# 19,728), is rejected before Fraction reads it
MAX_EXPONENT = int(MAX_POWER_BITS * math.log10(2))
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _grid_value(text):
    match = _EXPONENT.search(text)
    if match and abs(int(match[1])) > MAX_EXPONENT:
        raise UsageError(f"grid value {text!r} has an exponent over "
                         f"{MAX_EXPONENT}")
    return Fraction(text)


def _parse_grid(text):
    """Grid spec: comma list of values, or start:stop:step (inclusive),
    evaluated with exact rationals so 0:1:1/100 yields 101 points."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid range needs start:stop:step, "
                             f"got {text!r}")
        try:
            start, stop, step = (_grid_value(p) for p in parts)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse grid range {text!r}") from None
        if step <= 0:
            raise UsageError(f"grid step must be positive, got {step}")
        count = max(0, (stop - start) // step + 1)
        _check_grid_size(count)
        return [start + i * step for i in range(count)]
    items = [p for p in text.split(",") if p]
    _check_grid_size(len(items))
    try:
        return [_grid_value(p) for p in items]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse grid {text!r}") from None


# each curve's default grid: eq1 sweeps depths d (which must exceed the
# default --x 3), eq2 goal positions in (0, 1], fig5/fig6 goal positions
DEFAULT_GRIDS = {"eq1": "4:30:1", "eq2": "1/100:1:1/100",
                 "fig5": "0:1:1/100", "fig6": "0:1:1/100"}


def cmd_curves(args):
    grid = _parse_grid(args.grid or DEFAULT_GRIDS[args.curve])
    header, rows = curve_table(args.curve, grid, P=args.workers, b=args.b,
                               d=args.d, x=args.x, balance=args.balance,
                               ratio=args.ratio)
    _write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} row(s) to {args.out}")
    return 0


# ------------------------------------------------------------- parser

def _add_run_flags(parser):
    parser.add_argument("--workers", type=int, default=4,
                        help="worker count P (default 4)")
    parser.add_argument("--clusters", type=int, default=None,
                        help="override the default cluster count")
    parser.add_argument("--mode", choices=("sim", "threads"), default="sim",
                        help="deterministic simulation or real threads")
    parser.add_argument("--latency", type=int, default=1,
                        help="simulated message latency in ticks (sim mode)")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="profiling expansion budget "
                             f"(default {DEFAULT_BUDGET})")
    parser.add_argument("--seed", type=int, default=0)


def _add_advise_flags(parser):
    """The flags advise and solve share."""
    parser.add_argument("--instances", nargs="+", required=True)
    parser.add_argument("--model", action="append", default=[],
                        metavar="AXIS=PATH",
                        help="model file for one axis (repeatable)")
    parser.add_argument("--strict", action="store_true",
                        help="require a model for every axis")
    _add_run_flags(parser)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="idastra",
        description="Adaptive parallel iterative-deepening search: "
                    "profile instances, learn strategy rules, and run "
                    "the advised configuration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate artificial instance files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", default="8", help="depth grid (comma list)")
    p.add_argument("--g", default="0.5", help="goal position grid")
    p.add_argument("--b", default="3", help="branching factor grid")
    p.add_argument("--imbalance", default="0.0")
    p.add_argument("--density", default="0.0")
    p.add_argument("--herror", default="0")
    # gen makes its output directory
    p.set_defaults(func=cmd_gen, files=lambda a: ({}, {}))

    p = sub.add_parser("sweep",
                       help="time a strategy grid and build training cases")
    p.add_argument("--instances", nargs="+", required=True,
                   help="instance files or directories of .spec files")
    p.add_argument("--axis", required=True,
                   help=f"strategy axis to vary, one of {AXES}")
    p.add_argument("--grid", required=True,
                   help="comma list of values for the axis "
                        "(full config tokens when --axis all)")
    p.add_argument("--out", required=True, help="run-record CSV (appended)")
    p.add_argument("--store", default=None,
                   help="training store to append cases to (JSON lines)")
    _add_run_flags(p)
    p.set_defaults(func=cmd_sweep, files=lambda a: (
        {"--instances": a.instances, "--store": [a.store]},
        {"--out": [a.out], "--store": [a.store]}))

    p = sub.add_parser("train",
                       help="induce a decision tree from a training store")
    p.add_argument("--store", required=True)
    p.add_argument("--axis", required=True)
    p.add_argument("--filter", action="store_true",
                   help="keep only the most decisive third of the cases")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model file path")
    p.set_defaults(func=cmd_train, files=lambda a: (
        {"--store": [a.store]}, {"--out": [a.out, a.out + ".eval.csv"]}))

    p = sub.add_parser("advise",
                       help="recommend a strategy for one instance")
    _add_advise_flags(p)
    p.set_defaults(func=cmd_advise, files=lambda a: ({}, {}))

    p = sub.add_parser("solve",
                       help="advise, then run the advised strategy")
    _add_advise_flags(p)
    p.add_argument("--out", default=None, help="run-record CSV (appended)")
    p.set_defaults(func=cmd_solve, files=lambda a: (
        {"--instances": a.instances,
         "--model": [entry.partition("=")[2] for entry in a.model]},
        {"--out": [a.out]}))

    p = sub.add_parser("report", help="summarize run-record CSVs")
    p.add_argument("records", nargs="+", help="run-record CSV files")
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=cmd_report, files=lambda a: (
        {"records": a.records}, {"--out": [a.out]}))

    p = sub.add_parser("curves", help="tabulate the speedup models")
    p.add_argument("curve", choices=("eq1", "eq2", "fig5", "fig6"))
    p.add_argument("--grid", default=None,
                   help="comma list or start:stop:step (exact rationals); "
                        "default 4:30:1 for eq1, 1/100:1:1/100 for eq2, "
                        "0:1:1/100 for fig5 and fig6")
    p.add_argument("--workers", type=int, default=10)
    p.add_argument("--b", type=int, default=6)
    p.add_argument("--d", type=int, default=10)
    p.add_argument("--x", type=int, default=3)
    p.add_argument("--balance", choices=("Balanced", "ExponentialImbalance"),
                   default="Balanced")
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curves, files=lambda a: ({}, {"--out": [a.out]}))

    return parser


@functools.cache
def _parser():
    """main's parser, built once per process: parsing leaves no state on
    it (an append action copies its default list before appending)."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; 2 is reserved for data errors.
        return 0 if exc.code in (0, None) else 1
    try:
        if hasattr(args, "instances"):
            # expanded once: the check and the command read the same files
            args.instances = _instance_files(args.instances)
        _check_files(*args.files(args))
        return args.func(args) or 0
    except EngineStall as exc:
        print(f"error: engine stall: {exc}", file=sys.stderr)
        return 3
    except (IdastraError, OSError) as exc:
        # an unreadable or undecodable input, or an unwritable output
        # path, is a data error; any other error is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (DataError, OSError)) else 1


if __name__ == "__main__":
    sys.exit(main())
