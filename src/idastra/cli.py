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
import os
import statistics
import sys
from fractions import Fraction

from idastra.analytics import curve_table
from idastra.core import serial_idastar
from idastra.domains.puzzle import PuzzleProblem, parse_korf_set
from idastra.domains.synthetic import (SPEC_FIELDS, ArtificialProblem,
                                      ArtificialSpec)
from idastra.engine import (AXES, DEFAULT_CONFIG, StrategyConfig,
                            config_for_axis_value, run_parallel,
                            validate_config)
from idastra.errors import (DataError, DegenerateInput, EngineStall,
                            IdastraError, UsageError)
from idastra.features import (DEFAULT_BUDGET, extract_features,
                              shallow_search)
from idastra.learner import (Dataset, append_cases, classify,
                             cross_validate, induce_tree, label_cases,
                             load_tree, paired_t_test, read_store,
                             save_tree, variance_filter)
from idastra.learner.dtree import tree_depth, tree_leaves
from idastra.ordering import OrderPolicy, toida_scores_from_trace

RECORD_FIELDS = ("instance", "approach", "config", "workers", "mode",
                 "latency", "seed", "rep", "status", "cost", "makespan",
                 "speedup", "total_expanded", "total_messages", "timestamp")


def _warn(msg):
    print(f"warning: {msg}", file=sys.stderr)


def _fmt(value):
    return f"{float(value):.6g}"


def _load_instances(paths):
    """Expand instance arguments into (id, problem) pairs.

    Directories contribute their sorted *.spec files.  A .spec file is
    one artificial instance; any other file is a puzzle set, one
    instance per line.
    """
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
    instances = []
    for path in files:
        stem = os.path.splitext(os.path.basename(path))[0]
        if path.endswith(".spec"):
            spec = ArtificialSpec.from_file(path)
            instances.append((stem, ArtificialProblem(spec)))
        else:
            with open(path) as fh:
                states = parse_korf_set(fh.read())
            if not states:
                raise DataError(f"no instances in {path}")
            for i, state in enumerate(states, start=1):
                instances.append((f"{stem}#{i}", PuzzleProblem(state)))
    return instances


def _check_run_flags(args):
    """Reject run flags no engine run accepts, before any search."""
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
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


def _append_records(path, rows):
    need_header = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS,
                                lineterminator="\n")
        if need_header:
            writer.writeheader()
        writer.writerows(rows)


def _read_records(paths):
    """(path, row) for every record in the files."""
    rows = []
    for path in paths:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                continue
            missing = set(RECORD_FIELDS) - set(reader.fieldnames)
            if missing:
                raise DataError(f"{path}: record file missing columns "
                                f"{sorted(missing)}")
            rows.extend((path, row) for row in reader)
    return rows


def _record_row(args, instance, approach, rep):
    """A record row for one run, its outcome columns still empty."""
    row = dict.fromkeys(RECORD_FIELDS, "")
    row.update(instance=instance, approach=approach, workers=args.workers,
               mode=args.mode, latency=args.latency, seed=args.seed,
               rep=rep, status="ok", timestamp=_timestamp(args))
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
                   makespan=_fmt(trace.total_expanded), speedup=_fmt(1),
                   total_expanded=trace.total_expanded, total_messages=0)
        return None
    config = _attach_toida(config, trace)
    row["config"] = config.token()
    validate_config(config, args.workers)
    order = None if config.ordering.is_identity() else config.ordering
    key = None if order is None else order.token()
    if key not in baselines:
        baselines[key] = serial_idastar(problem, order=order)
    report = run_parallel(problem, config, args.workers, mode=args.mode,
                          latency=args.latency, seed=args.seed,
                          serial_outcome=baselines[key])
    row.update(cost=report.solution_cost, makespan=_fmt(report.makespan),
               speedup=_fmt(report.speedup),
               total_expanded=report.total_expanded,
               total_messages=report.total_messages)
    return report


# ---------------------------------------------------------------- gen

def cmd_gen(args):
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    grids = {}
    for name, cast in SPEC_FIELDS.items():
        if name == "seed":
            continue
        text = getattr(args, name)
        try:
            grids[name] = [cast(v) for v in text.split(",")]
        except ValueError:
            raise UsageError(f"--{name}: cannot parse {text!r}") from None
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        spec = ArtificialSpec(
            seed=args.seed + i,
            **{name: grid[i % len(grid)] for name, grid in grids.items()},
        ).validate()
        spec.to_file(os.path.join(args.out, f"inst_{i:04d}.spec"))
    print(f"wrote {args.count} instance file(s) to {args.out}")
    return 0


# -------------------------------------------------------------- sweep

def _sweep_instance(args, iid, problem, grid, base, rows):
    """Run every grid value on one instance, appending one record row per
    run to rows.  Returns (features, mean makespan per grid value);
    features is None when profiling solved the instance."""
    trace, features = _profile(problem, args.budget)
    baselines = {}
    timings = {}
    for value in grid:
        approach = value if args.axis == "all" else f"{args.axis}={value}"
        per_value = []
        for rep in range(args.reps):
            row = _record_row(args, iid, approach, rep)
            try:
                config = config_for_axis_value(args.axis, value, base=base)
                report = _run_record(row, args, problem, trace, config,
                                     baselines)
            except EngineStall:
                raise
            except IdastraError as exc:
                row["status"] = type(exc).__name__
                _warn(f"{iid} {approach} rep {rep}: {exc}")
            else:
                per_value.append(report.makespan)
            rows.append(row)
        if per_value:
            timings[value] = statistics.fmean(per_value)
    return features, timings


def cmd_sweep(args):
    instances = _load_instances(args.instances)
    if args.axis not in AXES:
        raise UsageError(f"--axis must be one of {AXES}, got {args.axis!r}")
    grid = [v for v in args.grid.split(",") if v]
    if not grid:
        raise UsageError("--grid must list at least one value")
    if args.reps < 1:
        raise UsageError(f"--reps must be >= 1, got {args.reps}")
    _check_run_flags(args)
    base = DEFAULT_CONFIG
    if args.clusters is not None and args.axis != "clusters":
        base = base.with_value("clusters", str(args.clusters))
    _warn_threads_mode(args)
    arch = _architecture(args)

    rows = []
    cases = []
    stall = None
    try:
        for iid, problem in instances:
            features, timings = _sweep_instance(args, iid, problem, grid,
                                                base, rows)
            if features is None:
                _warn(f"{iid}: solved during profiling, no training case")
            elif len(timings) >= 2:
                cases.append(label_cases(timings, features, args.axis,
                                         arch))
            else:
                _warn(f"{iid}: fewer than 2 strategies succeeded, "
                      "no training case")
    except EngineStall as exc:
        # write what completed before the stall, then report it
        stall = exc

    failures = sum(row["status"] != "ok" for row in rows)
    _append_records(args.out, rows)
    print(f"appended {len(rows)} run record(s) to {args.out}"
          + (f" ({failures} failed)" if failures else ""))
    if args.store:
        written, dupes = append_cases(args.store, cases)
        if dupes:
            _warn(f"store already held {dupes} identical case line(s); "
                  "appended anyway")
        print(f"appended {written} training case(s) to {args.store}")
    if stall is not None:
        raise stall
    return 0


# -------------------------------------------------------------- train

def cmd_train(args):
    cases = read_store(args.store, axis=args.axis)
    if not cases:
        raise DataError(f"store {args.store} has no cases for axis "
                        f"{args.axis!r}")
    dataset = Dataset(cases=cases, axis=args.axis)
    if args.filter:
        dataset = variance_filter(dataset)
    tree = induce_tree(dataset)
    save_tree(args.out, tree)

    errors = cross_validate(dataset, k=args.folds, seed=args.seed)
    eval_path = args.out + ".eval.csv"
    with open(eval_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "mean_error", "p_vs_tree"])
        for method, folds in errors.items():
            if method == "tree":
                p_text = ""
            else:
                try:
                    _t, p = paired_t_test(folds, errors["tree"])
                    p_text = _fmt(p)
                except DegenerateInput:
                    p_text = ""
            writer.writerow([method, _fmt(statistics.fmean(folds)), p_text])

    leaves = tree_leaves(tree)
    train_err = sum(leaf.errors for leaf in leaves) / len(dataset.cases)
    print(f"model: {args.out}")
    print(f"cases: {len(dataset.cases)}  leaves: {len(leaves)}  "
          f"depth: {tree_depth(tree)}  training_error: {_fmt(train_err)}")
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
    """Profile one instance and compose a strategy recommendation.

    Returns (instance id, problem, trace, features, config); features
    and config are None when profiling already solved the instance.
    """
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
        return iid, problem, trace, None, None
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
    return iid, problem, trace, features, config


def _print_advice(iid, trace, features, config):
    print(f"instance: {iid}")
    if features is None:
        path, cost = trace.goal_found
        print("solved-during-profiling")
        print(f"cost: {cost}")
        print("path: " + " ".join(str(op) for op in path))
        return
    print("features: " + features.csv_row())
    print(config.describe())
    print("config: " + config.token())


def cmd_advise(args):
    iid, _problem, trace, features, config = _advise(args)
    _print_advice(iid, trace, features, config)
    return 0


def cmd_solve(args):
    iid, problem, trace, features, config = _advise(args)
    _print_advice(iid, trace, features, config)
    if config is not None:
        _warn_threads_mode(args)
    row = _record_row(args, iid, "advised", 0)
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
            raise DataError(f"{path}: instance {row['instance']}: speedup "
                            f"{row['speedup']!r} is not a number") from None
        by_cell.setdefault((row["instance"], row["approach"]),
                           []).append(speedup)
    if not by_cell:
        raise DataError("no usable run records")
    cell_mean = {key: statistics.fmean(vals) for key, vals in by_cell.items()}

    instances = sorted(set(inst for inst, _ in cell_mean))
    approaches = sorted(set(app for _, app in cell_mean))
    approach_means = {
        app: statistics.fmean([cell_mean[(inst, app)]
                               for inst in instances
                               if (inst, app) in cell_mean])
        for app in approaches
    }
    best_mean = max(approach_means.values())
    best_apps = {app for app, m in approach_means.items() if m == best_mean}

    instance_cov = {}
    for inst in instances:
        vals = [cell_mean[(inst, app)] for app in approaches
                if (inst, app) in cell_mean]
        mean = statistics.fmean(vals)
        if len(vals) >= 2 and mean > 0:
            instance_cov[inst] = statistics.stdev(vals) / mean
        else:
            instance_cov[inst] = None

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["instance", "approach", "speedup", "instance_cov",
                         "approach_mean_speedup", "best"])
        for inst in instances:
            for app in approaches:
                if (inst, app) not in cell_mean:
                    continue
                cov = instance_cov[inst]
                writer.writerow([
                    inst, app, _fmt(cell_mean[(inst, app)]),
                    "" if cov is None else _fmt(cov),
                    _fmt(approach_means[app]),
                    "1" if app in best_apps else "0",
                ])
    print(f"wrote {args.out}")
    for app in approaches:
        marker = " (best)" if app in best_apps else ""
        print(f"{app}: mean speedup {_fmt(approach_means[app])}{marker}")
    return 0


# ------------------------------------------------------------- curves

def _parse_grid(text):
    """Grid spec: comma list of values, or start:stop:step (inclusive),
    evaluated with exact rationals so 0:1:1/100 yields 101 points."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid range needs start:stop:step, "
                             f"got {text!r}")
        try:
            start, stop, step = (Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse grid range {text!r}") from None
        if step <= 0:
            raise UsageError(f"grid step must be positive, got {step}")
        values = []
        v = start
        while v <= stop:
            values.append(v)
            v += step
        return values
    try:
        return [Fraction(p) for p in text.split(",") if p]
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
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
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
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep",
                       help="time a strategy grid and build training cases")
    p.add_argument("--instances", nargs="+", required=True,
                   help="instance files or directories of .spec files")
    p.add_argument("--axis", required=True,
                   help=f"strategy axis to vary, one of {AXES}")
    p.add_argument("--grid", required=True,
                   help="comma list of values for the axis "
                        "(full config tokens when --axis all)")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--out", required=True, help="run-record CSV (appended)")
    p.add_argument("--store", default=None,
                   help="training store to append cases to (JSON lines)")
    _add_run_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train",
                       help="induce a decision tree from a training store")
    p.add_argument("--store", required=True)
    p.add_argument("--axis", required=True)
    p.add_argument("--filter", action="store_true",
                   help="keep only the most decisive third of the cases")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model file path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("advise",
                       help="recommend a strategy for one instance")
    _add_advise_flags(p)
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser("solve",
                       help="advise, then run the advised strategy")
    _add_advise_flags(p)
    p.add_argument("--out", default=None, help="run-record CSV (appended)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("report", help="summarize run-record CSVs")
    p.add_argument("records", nargs="+", help="run-record CSV files")
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=cmd_report)

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
    p.set_defaults(func=cmd_curves)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; 2 is reserved for data errors.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args) or 0
    except EngineStall as exc:
        print(f"error: engine stall: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        # an unreadable input or unwritable output path is a data error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IdastraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
