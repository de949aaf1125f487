"""The benchmark's three workloads.

Each workload builds its inputs from the seed during set-up, then runs
rounds of identical work.  The first round fixes the round's size: it
takes inputs from a seeded stream until the node expansions reach a
target, so that every seed does about the same amount of work; later
rounds repeat exactly those inputs.  Every operation is checked by the
benchmark's own code and counted in an Ops tally; a failure, uncaught
exceptions included, is counted and the round goes on.
"""

import contextlib
import csv
import io
import json
import os
import random
import shutil

import idastra.cli as cli
import idastra.engine as engine
from idastra import core
from idastra.domains.puzzle import PuzzleProblem, parse_korf_set
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec


class Ops:
    """Attempted and failed operations.  `wrong` counts operations whose
    output was produced but did not pass its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = []

    def _fail(self, what):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.wrong += 1
            self._fail(f"{name}: wrong output {detail}".strip())
        return ok

    def crash(self, name, exc):
        self.attempted += 1
        self._fail(f"{name}: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------- puzzle
# The benchmark's own fifteen-puzzle move table, independent of
# idastra.domains.puzzle.  The goal puts tile t at index t (blank at 0);
# operators move the blank: 0=Up, 1=Left, 2=Right, 3=Down.

GOAL = tuple(range(16))
_DELTA = (-4, -1, 1, 4)


def _legal(blank, op):
    if op == 0:
        return blank >= 4
    if op == 1:
        return blank % 4 != 0
    if op == 2:
        return blank % 4 != 3
    return blank < 12


def random_walk(rng, length):
    """Tiles after `length` random blank moves from the goal, never
    undoing the previous move."""
    tiles = list(GOAL)
    blank = 0
    prev = -1
    for _ in range(length):
        op = rng.choice([o for o in range(4)
                         if _legal(blank, o) and o != 3 - prev])
        dest = blank + _DELTA[op]
        tiles[blank], tiles[dest] = tiles[dest], 0
        blank = dest
        prev = op
    return tuple(tiles)


def replay_reaches_goal(tiles, path):
    tiles = list(tiles)
    blank = tiles.index(0)
    for op in path:
        if op not in (0, 1, 2, 3) or not _legal(blank, op):
            return False
        dest = blank + _DELTA[op]
        tiles[blank], tiles[dest] = tiles[dest], 0
        blank = dest
    return tuple(tiles) == GOAL


def manhattan(tiles):
    return sum(abs(p // 4 - t // 4) + abs(p % 4 - t % 4)
               for p, t in enumerate(tiles) if t)


def puzzle_cost_plausible(tiles, cost):
    """An optimal cost is at least the Manhattan distance and has its
    parity (each move changes the distance by exactly one)."""
    md = manhattan(tiles)
    return cost >= md and (cost - md) % 2 == 0


def korf_text(instances):
    return "".join(" ".join(str(t) for t in tiles) + "\n"
                   for tiles in instances)


class PuzzleSerial:
    """Serial IDA* on random-walk scrambles read back from a puzzle file."""

    # 26-move walks keep every instance under about 5% of the target
    # (largest seen: 40k expansions), so the cut at the target adds
    # little to a round
    SIZES = {"full": {"walk": 26, "pool": 1200, "target": 800_000},
             "toy": {"walk": 12, "pool": 40, "target": 300}}

    def __init__(self, seed, size, workdir):
        p = self.SIZES[size]
        rng = random.Random(seed * 7919 + 11)
        self.instances = [random_walk(rng, p["walk"])
                          for _ in range(p["pool"])]
        self.target = p["target"]
        path = os.path.join(workdir, "scrambles.txt")
        with open(path, "w") as fh:
            fh.write(korf_text(self.instances))
        with open(path) as fh:
            states = parse_korf_set(fh.read())
        self.parse_ok = [tuple(t) for t, _blank in states] == self.instances
        self.problems = [PuzzleProblem(state) for state in states]
        self.count = None

    def run_round(self, ops):
        ops.check("parse_korf_set", self.parse_ok)
        expanded = 0
        cost_sum = 0
        n = self.count if self.count is not None else len(self.problems)
        for i in range(n):
            if self.count is None and expanded >= self.target:
                n = i
                break
            try:
                out = core.serial_idastar(self.problems[i])
            except Exception as exc:
                ops.crash(f"serial_idastar #{i}", exc)
                continue
            expanded += out.total_expanded
            cost_sum += out.cost
            tiles = self.instances[i]
            ok = (len(out.path) == out.cost
                  and replay_reaches_goal(tiles, out.path)
                  and puzzle_cost_plausible(tiles, out.cost))
            ops.check(f"serial_idastar #{i}", ok, f"cost {out.cost}")
        self.count = n
        return {"instances": n, "cost_sum": cost_sum}


# ------------------------------------------------------------- synthetic

def _configs():
    base = engine.DEFAULT_CONFIG
    return [
        ("KumarRao/Random", base.with_value("distribution", "KumarRao")
         .with_value("polling", "Random")),
        ("Local", base.with_value("ordering", "Local")),
        ("clusters=1", base),
        ("clusters=4", base.with_value("clusters", "4")),
        ("clusters=16", base.with_value("clusters", "16")),
    ]


class SyntheticSim:
    """Deterministic sim at P=16 on the c05 family of artificial trees."""

    # (d, b, g); every instance has imbalance 0, density 1e-9, herror 5
    SIZES = {"full": {"shapes": ((9, 3, 0.5), (9, 3, 0.9), (6, 5, 0.5)),
                      "pool": 30, "target": 560_000},
             "toy": {"shapes": ((5, 3, 0.5), (5, 3, 0.9), (4, 4, 0.5)),
                     "pool": 6, "target": 2_000}}
    WORKERS = 16

    def __init__(self, seed, size, workdir):
        p = self.SIZES[size]
        shapes = p["shapes"]
        self.specs = []
        for k in range(p["pool"]):
            d, b, g = shapes[k % len(shapes)]
            self.specs.append(ArtificialSpec(
                d=d, g=g, b=b, imbalance=0.0, density=1e-9, herror=5,
                seed=seed * 1000 + k))
        self.problems = [ArtificialProblem(spec) for spec in self.specs]
        self.target = p["target"]
        # Instances come in cycles of one per shape.  Within a cycle, each
        # config runs on all of them before the next config starts, so
        # every prefix of the stream holds nearly the same mix of configs
        # and shapes.  A cycle is 450k to 720k expansions, so the target
        # ends most rounds in the clusters=16 runs, the dearest, which come
        # last.  A serial baseline precedes the configs that share its
        # ordering.
        self.units = []
        for c in range(p["pool"] // len(shapes)):
            ks = range(c * len(shapes), (c + 1) * len(shapes))
            for name, config in _configs():
                if name in ("KumarRao/Random", "Local"):
                    self.units += [(k, "serial", config) for k in ks]
                self.units += [(k, name, config) for k in ks]
        self.count = None

    def run_round(self, ops):
        baselines = {}
        expanded = 0
        n = self.count if self.count is not None else len(self.units)
        for i in range(n):
            if self.count is None and expanded >= self.target:
                n = i
                break
            k, name, config = self.units[i]
            spec, problem = self.specs[k], self.problems[k]
            order = config.ordering.token()
            label = f"instance {k} {name}"
            if name == "serial":
                try:
                    out = core.serial_idastar(problem, order=(
                        None if config.ordering.is_identity()
                        else config.ordering))
                except Exception as exc:
                    ops.crash(label, exc)
                    continue
                expanded += out.total_expanded
                baselines[k, order] = out
                ops.check(label, out.cost == spec.d
                          and len(out.path) == out.cost, f"cost {out.cost}")
                continue
            serial = baselines.get((k, order))
            if serial is None:
                ops.crash(label, RuntimeError("no serial baseline"))
                continue
            try:
                rep = engine.run_parallel(problem, config, self.WORKERS,
                                          seed=spec.seed,
                                          serial_outcome=serial)
            except Exception as exc:
                ops.crash(label, exc)
                continue
            expanded += rep.total_expanded
            ok = (rep.solution_cost == serial.cost == spec.d
                  and len(rep.solution_path) == rep.solution_cost
                  and rep.tokens_balanced)
            ops.check(label, ok, f"cost {rep.solution_cost} balanced "
                                 f"{rep.tokens_balanced}")
        self.count = n
        return {"units": n}


# ------------------------------------------------------------------- cli

def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_spec(path):
    """The benchmark's own reading of a `key = value` spec file."""
    values = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.partition("=")
            if sep:
                values[key.strip()] = value.strip()
    return values


def _stdout_value(text, key):
    for line in text.splitlines():
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    return None


class CliPipeline:
    """The paper's user workflow through idastra.cli.main, in process."""

    SIZES = {"full": {"count": 24, "d": 7, "budget": 50, "folds": 10,
                      "walk": 24},
             "toy": {"count": 4, "d": 6, "budget": 20, "folds": 2,
                     "walk": 8}}

    def __init__(self, seed, size, workdir):
        self.p = self.SIZES[size]
        self.seed = seed
        self.workdir = workdir
        rng = random.Random(seed * 7919 + 23)
        self.puzzle = random_walk(rng, self.p["walk"])
        self.puzzle_file = os.path.join(workdir, "puzzle.txt")
        with open(self.puzzle_file, "w") as fh:
            fh.write(korf_text([self.puzzle]))
        self.round = 0

    def _step(self, ops, argv, check):
        """Run one command; check(code, stdout) says whether its exit code
        and output files are right."""
        out = io.StringIO()
        label = f"{argv[0]} {os.path.basename(str(argv[2]))}"
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([str(a) for a in argv])
            ok = check(code, out.getvalue())
        except Exception as exc:
            ops.crash(label, exc)
            return
        ops.check(label, ok, f"exit {code}")

    def run_round(self, ops):
        p = self.p
        d = p["d"]
        self.round += 1
        here = os.path.join(self.workdir, f"round-{self.round}")
        shutil.rmtree(here, ignore_errors=True)
        os.makedirs(here)
        inst = os.path.join(here, "inst")
        records = os.path.join(here, "records.csv")
        store = os.path.join(here, "cases.jsonl")
        tree = os.path.join(here, "clusters.tree")
        budget = ["--budget", p["budget"]]
        model = ["--model", f"clusters={tree}"]
        specs = [os.path.join(inst, f"inst_{i:04d}.spec")
                 for i in range(p["count"])]

        def gen_ok(code, _out):
            return code == 0 and all(
                _read_spec(f).get("d") == str(d) for f in specs)

        self._step(ops, ["gen", "--out", inst, "--count", p["count"],
                         "--seed", self.seed * 1000, "--d", d, "--b", 3,
                         "--g", "0.2,0.5,0.8", "--imbalance", "0.0,0.3",
                         "--density", "1e-9", "--herror", 3], gen_ok)

        def sweep_ok(code, _out):
            rows = _read_csv(records)
            with open(store) as fh:
                cases = [json.loads(line) for line in fh if line.strip()]
            return (code == 0 and len(rows) == 3 * p["count"]
                    and all(r["status"] == "ok" and int(r["cost"]) == d
                            for r in rows)
                    and len(cases) >= 2)

        self._step(ops, ["sweep", "--instances", inst, "--axis", "clusters",
                         "--grid", "1,2,4", "--workers", 4, *budget,
                         "--out", records, "--store", store], sweep_ok)

        def train_ok(code, _out):
            rows = _read_csv(tree + ".eval.csv")
            return (code == 0 and os.path.getsize(tree) > 0
                    and rows and rows[0]["method"] == "tree")

        self._step(ops, ["train", "--store", store, "--axis", "clusters",
                         "--folds", p["folds"], "--out", tree], train_ok)

        def solved(out_csv, expect):
            def ok(code, out):
                rows = _read_csv(out_csv)
                cost = _stdout_value(out, "cost")
                return (code == 0 and cost is not None
                        and expect(int(cost))
                        and rows and rows[-1]["cost"] == cost)
            return ok

        self._step(ops, ["solve", "--instances", specs[0], *model,
                         "--workers", 4, *budget, "--out", records],
                   solved(records, lambda c: c == d))
        threads_csv = os.path.join(here, "threads.csv")
        self._step(ops, ["solve", "--instances", specs[1], "--mode",
                         "threads", "--workers", 2, *budget,
                         "--out", threads_csv],
                   solved(threads_csv, lambda c: c == d))

        def advised(code, out):
            return code == 0 and (_stdout_value(out, "config") is not None
                                  or "solved-during-profiling" in out)

        self._step(ops, ["advise", "--instances", self.puzzle_file, *model,
                         *budget], advised)
        puzzle_csv = os.path.join(here, "puzzle.csv")
        self._step(ops, ["solve", "--instances", self.puzzle_file, *model,
                         "--workers", 4, *budget, "--out", puzzle_csv],
                   solved(puzzle_csv, lambda c: puzzle_cost_plausible(
                       self.puzzle, c)))
        report = os.path.join(here, "report.csv")

        def report_ok(code, _out):
            rows = _read_csv(report)
            return code == 0 and rows and all(
                float(r["speedup"]) > 0 for r in rows)

        self._step(ops, ["report", records, "--out", report], report_ok)
        fig6 = os.path.join(here, "fig6.csv")
        self._step(ops, ["curves", "fig6", "--out", fig6],
                   lambda code, _out: code == 0 and len(_read_csv(fig6))
                   == 101)
        shutil.rmtree(here, ignore_errors=True)
        return {"steps": 9}


WORKLOADS = {"puzzle-serial": PuzzleSerial,
             "synthetic-sim": SyntheticSim,
             "cli-pipeline": CliPipeline}
