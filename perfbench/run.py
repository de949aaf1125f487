"""idastra benchmark: one workload, timed for a fixed number of seconds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
src/ (nothing is built: the kernels load from whichever backend the
package picks).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it
holds run metadata, per-round timings and the work fingerprint; the same
record, with the spans of a traced run, is written to
.perfbench/results/.  See perfbench/NOTES.md for the workloads and
metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 8        # fresh interpreters at least, spread over the run

END_TO_END = {"wall_s": "s", "setup_s": "s", "expansions_per_s": "1/s",
              "sim_speedup": "ratio", "peak_rss_mb": "MB",
              "success_rate": "ratio"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy: tiny inputs for the self-test")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Put the checkout's src/ first on the path; fail without it."""
    if not os.path.isfile(os.path.join(SRC, "idastra", "__init__.py")):
        sys.exit(f"error: no idastra sources under {SRC}")
    sys.path.insert(0, SRC)
    import idastra
    if not os.path.abspath(idastra.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: idastra imported from {idastra.__file__}, "
                 f"not from {SRC}")


def make_workload(args, workdir):
    import workloads
    return workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)


def setup_probe(args):
    """Fresh-interpreter set-up: imports, input generation and parsing,
    problem construction.  Prints the monotonic clock when ready."""
    import_package()
    workdir = os.path.join(OUT, f"probe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        make_workload(args, workdir)
        print(repr(time.monotonic()), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def probe_setup(args):
    """Seconds from launching a fresh interpreter to the point where the
    first timed search would start, at the reference host speed (the
    loop is sampled just before and just after)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    import hostspeed
    before = [hostspeed.sample() for _ in range(3)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=False)
    if done.returncode != 0:
        sys.exit(f"error: set-up probe failed: {done.stderr.strip()}")
    seconds = float(done.stdout.split()[-1]) - t0
    after = [hostspeed.sample() for _ in range(3)]
    mean = statistics.fmean(before + after)
    return seconds * hostspeed.REFERENCE_S / mean


def read_commit():
    """HEAD of the checkout, read without git; "unknown" outside a repo."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(args):
    from idastra._backend import backend_name
    return {"backend": backend_name(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": read_commit(), "seed": args.seed,
            "workload": args.workload, "size": args.size,
            "seconds": args.seconds, "trace": args.trace}


# -------------------------------------------------------------- rounds

class Round:
    def __init__(self, traced, wall, cpu, scale, recorder, ops, extra):
        self.traced = traced
        self.wall = wall
        self.cpu = cpu
        self.scale = scale      # to seconds at the reference host speed
        self.rec = recorder
        self.ops = ops
        self.extra = extra
        self.fingerprint = fingerprint(recorder, extra)


def _deterministic_spans(rec, name):
    return [s for s in rec.spans if s.name == name and not s.in_threads
            and s.info is not None]


def fingerprint(rec, extra):
    """Work done in one round, without the real-threads run."""
    serial = _deterministic_spans(rec, "core.serial")
    profile = _deterministic_spans(rec, "features.shallow_search")
    sims = _deterministic_spans(rec, "engine.sim")
    fp = {
        "serial": [len(serial), sum(s.info["expanded"] for s in serial),
                   sum(s.info["generated"] for s in serial),
                   sum(s.info["passes"] for s in serial)],
        "profile": [len(profile), sum(s.info["expanded"] for s in profile),
                    sum(s.info["generated"] for s in profile)],
        "sim": [len(sims)] + [sum(s.info[k] for s in sims) for k in
                              ("expanded", "generated", "makespan",
                               "messages", "idle", "over_threshold")],
        "threads_runs": sum(1 for s in rec.spans
                            if s.name == "engine.threads"),
        "workload": extra,
    }
    if rec.trace:
        fp["hot_calls"] = {k: v[0] for k, v in
                           sorted(rec.hot_totals().items())}
    return fp


def work_expansions(fp):
    return fp["serial"][1] + fp["profile"][1] + fp["sim"][1]


def sim_speedup(rec):
    """Geometric mean over the sim configs of each config's geometric mean
    of serial expansions / makespan ticks, so that a round cut at its
    expansion target weighs every config alike.  A serial-only workload
    reads 1 (one worker's makespan is its expansion count)."""
    logs = {}
    for s in _deterministic_spans(rec, "engine.sim"):
        logs.setdefault(s.info["config"], []).append(
            math.log(s.info["serial"] / s.info["makespan"]))
    if not logs:
        return 1.0
    return math.exp(statistics.fmean(statistics.fmean(v)
                                     for v in logs.values()))


def run_rounds(args, workload, setup_samples):
    """Rounds until --seconds have passed (the last round may end later),
    at least one of each kind; with tracing, untraced and traced rounds
    alternate.  A set-up probe runs after every round, so that the probes
    sample the host over the whole run."""
    import hostspeed
    import tracing
    from workloads import Ops
    kinds = [False, True] if args.trace else [False]
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < len(kinds) or time.perf_counter() < deadline:
        traced = kinds[len(rounds) % len(kinds)]
        ops = Ops()
        rec = tracing.Recorder(traced, f"{args.workload}-{args.seed}-"
                                       f"{len(rounds)}")
        with rec, hostspeed.Sampler() as speed:
            c0 = time.process_time()
            t0 = time.perf_counter()
            extra = workload.run_round(ops)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        rounds.append(Round(traced, wall, cpu, speed.scale(wall), rec, ops,
                            extra))
        setup_samples.append(probe_setup(args))
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(probe_setup(args))
    return rounds


def normalized_wall(rounds):
    """Median over the rounds of their wall time at the reference host
    speed (see hostspeed.py)."""
    return statistics.median(r.wall * r.scale for r in rounds)


def fingerprints_repeat(rounds):
    def work(fp):
        return {k: v for k, v in fp.items() if k != "hot_calls"}
    first = rounds[0].fingerprint
    traced = [r.fingerprint for r in rounds if r.traced]
    return (all(work(r.fingerprint) == work(first) for r in rounds)
            and all(fp["hot_calls"] == traced[0]["hot_calls"]
                    for fp in traced))


# ------------------------------------------------------------- metrics

def end_to_end(rounds, setup_s):
    plain = [r for r in rounds if not r.traced]
    wall = normalized_wall(plain)
    attempted = sum(r.ops.attempted for r in rounds)
    failed = sum(r.ops.failed for r in rounds)
    return {
        "wall_s": wall,
        "setup_s": setup_s,
        "expansions_per_s": work_expansions(plain[0].fingerprint) / wall,
        "sim_speedup": sim_speedup(plain[0].rec),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "success_rate": (attempted - failed) / attempted,
    }


def layer_metrics(r):
    """Per-layer metrics of one traced round: name -> (value, unit)."""
    rec = r.rec
    hot = rec.hot_totals()
    spans = [s for s in rec.spans if not s.in_threads]

    def hot_get(label, i):
        return hot.get(label, [0, 0.0, 0.0, 0])[i]

    def named(name):
        return [s for s in spans if s.name == name]

    def dur(name):
        return math.fsum(s.duration for s in named(name))

    def self_s(name):
        return math.fsum(s.self_s for s in named(name))

    m = {}
    for k in ("puzzle_expand", "manhattan", "path_hash"):
        m[f"kernels.{k}.calls"] = (hot_get(f"kernels.{k}", 0), "count")
        m[f"kernels.{k}.s"] = (hot_get(f"kernels.{k}", 1), "s")
    expands = hot_get("domains.expand", 0)
    m["domains.expand.calls"] = (expands, "count")
    m["domains.expand.self_s"] = (hot_get("domains.expand", 2), "s")
    m["domains.is_goal.calls"] = (hot_get("domains.is_goal", 0), "count")
    m["domains.is_goal.self_s"] = (hot_get("domains.is_goal", 2), "s")
    m["domains.heuristic.calls"] = (hot_get("domains.heuristic", 0),
                                    "count")
    m["domains.children_per_expand"] = (
        hot_get("domains.expand", 3) / expands if expands else 0.0, "ratio")
    m["ordering.arrange.calls"] = (hot_get("ordering.arrange", 0), "count")
    m["ordering.arrange.self_s"] = (hot_get("ordering.arrange", 2), "s")

    serial = named("core.serial")
    nodes = sum(s.info["expanded"] for s in serial)
    serial_s = dur("core.serial")
    m["core.serial.calls"] = (len(serial), "count")
    m["core.serial.self_s"] = (self_s("core.serial"), "s")
    m["core.nodes_expanded"] = (nodes, "count")
    m["core.nodes_generated"] = (sum(s.info["generated"] for s in serial),
                                 "count")
    m["core.passes"] = (sum(s.info["passes"] for s in serial), "count")
    m["core.nodes_per_s"] = (nodes / serial_s if serial_s else 0.0, "1/s")

    sims = named("engine.sim")
    ticks = int(sum(s.info["makespan"] for s in sims))
    slots = sum(s.info["makespan"] * s.info["workers"] for s in sims)
    sim_exp = sum(s.info["expanded"] for s in sims)
    m["engine.sim.runs"] = (len(sims), "count")
    m["engine.sim.self_s"] = (self_s("engine.sim"), "s")
    m["engine.sim.ticks"] = (ticks, "count")
    m["engine.sim.expansions"] = (sim_exp, "count")
    m["engine.sim.idle_ticks"] = (sum(s.info["idle"] for s in sims), "count")
    m["engine.sim.utilisation"] = (sim_exp / slots if slots else 0.0,
                                   "ratio")
    m["engine.sim.messages"] = (sum(s.info["messages"] for s in sims),
                                "count")
    m["engine.sim.over_threshold"] = (
        sum(s.info["over_threshold"] for s in sims), "count")
    m["engine.sim.host_us_per_tick"] = (
        dur("engine.sim") / ticks * 1e6 if ticks else 0.0, "us")
    m["engine.sim.baseline_calls"] = (
        sum(1 for s in serial if s.parent is not None
            and s.parent.name == "engine.sim"), "count")

    threads = [s for s in rec.spans if s.name == "engine.threads"
               and s.info is not None]
    m["engine.threads.runs"] = (len(threads), "count")
    m["engine.threads.s"] = (math.fsum(s.duration for s in threads), "s")
    m["engine.threads.expansions"] = (
        sum(s.info["expanded"] for s in threads), "count")
    m["engine.threads.idle_polls"] = (sum(s.info["idle"] for s in threads),
                                      "count")
    m["engine.threads.messages"] = (
        sum(s.info["messages"] for s in threads), "count")
    m["engine.threads.unbalanced"] = (
        sum(1 for s in threads if not s.info["balanced"]), "count")

    profile = named("features.shallow_search")
    m["features.shallow_search.calls"] = (len(profile), "count")
    m["features.shallow_search.self_s"] = (
        self_s("features.shallow_search"), "s")
    m["features.profile_expanded"] = (
        sum(s.info["expanded"] for s in profile), "count")
    m["features.extract.s"] = (dur("features.extract"), "s")

    learner = [s for s in spans if s.name.startswith("learner.")
               and s.parent is not None and s.parent.name == "cli.train"]
    m["learner.train.s"] = (math.fsum(s.duration for s in learner), "s")
    m["learner.cases"] = (sum(s.info["cases"] for s in learner
                              if s.name == "learner.read_store"), "count")
    m["analytics.curves.s"] = (dur("analytics.curves"), "s")

    for cmd in ("gen", "sweep", "train", "advise", "solve", "report",
                "curves"):
        m[f"cli.{cmd}.s"] = (dur(f"cli.{cmd}"), "s")
    cli_spans = [s for s in spans if s.name.startswith("cli.")]
    m["cli.self_s"] = (math.fsum(s.self_s for s in cli_spans), "s")
    # every operation of a workload that drives the CLI is one command
    m["cli.failed"] = (r.ops.failed if cli_spans else 0, "count")
    # times and rates at the reference host speed, like the round's wall
    power = {"s": 1, "us": 1, "1/s": -1}
    return {k: (v * r.scale ** power[u] if u in power else v, u)
            for k, (v, u) in m.items()}


def per_layer(rounds):
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    per_round = [layer_metrics(r) for r in traced]
    out = {}
    for name, (value, unit) in per_round[0].items():
        if unit == "count":
            out[name] = (value, unit)
        else:
            out[name] = (statistics.median(m[name][0] for m in per_round),
                         unit)
    traced_wall = normalized_wall(traced)
    plain_wall = normalized_wall(plain)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    out["trace.spans"] = (len(traced[0].rec.spans), "count")
    return out


# ---------------------------------------------------------------- main

def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    setup_samples = [probe_setup(args)]
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = make_workload(args, workdir)
        rounds = run_rounds(args, workload, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = statistics.median(setup_samples)

    correct = (fingerprints_repeat(rounds)
               and all(r.ops.wrong == 0 for r in rounds))
    if args.trace:
        metrics = per_layer(rounds)
    else:
        metrics = {k: (v, END_TO_END[k])
                   for k, v in end_to_end(rounds, setup_s).items()}
    detail = {
        "meta": run_metadata(args),
        "setup_samples_s": setup_samples,
        "rounds": [{"traced": r.traced, "wall_s": r.wall, "cpu_s": r.cpu,
                    "scale": r.scale,
                    "attempted": r.ops.attempted, "failed": r.ops.failed,
                    "errors": r.ops.errors[:5]} for r in rounds],
        "fingerprint": rounds[0].fingerprint,
        "fingerprints_repeat": fingerprints_repeat(rounds),
    }
    if args.trace:
        detail["fingerprint_traced"] = next(
            r.fingerprint for r in rounds if r.traced)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, "results", stem + ".json"), "w") as fh:
        record = dict(detail)
        record["spans"] = [span for r in rounds if r.traced
                           for span in r.rec.spans_json()]
        json.dump(record, fh)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.ops.attempted for r in rounds),
        "failed": sum(r.ops.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
