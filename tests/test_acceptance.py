"""The ten shipping gates for the search engine, one test per criterion.

Each test prints a `[C#] ... PASS` line when its criterion holds, so a
`pytest -s` run reads as a checklist.  Numbered values quoted in
comments were computed once with independent oracles and then frozen.
"""

import csv
import os
import random
import statistics
import time
from fractions import Fraction

from scipy.stats import spearmanr

from idastra.analytics import (dts_speedup_eq1, fig6_crossover,
                               pws_speedup_eq2, simulate_ideal_dts)
from idastra.core import serial_idastar
from idastra.domains.puzzle import PuzzleProblem, parse_korf_set
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec
from idastra.engine.config import DEFAULT_CONFIG, validate_config
from idastra.engine.run import run_parallel
from idastra.features import extract_features, shallow_search
from idastra.learner import (Dataset, TrainingCase, classify, cross_validate,
                             induce_tree, label_cases)
from idastra.learner.dtree import tree_leaves
from oracles import astar_cost, eq1_brute, stability_report

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# blind profiling instrument: goal at the far right, heuristic noise
# large enough to flatten h, so every pass sweeps all root subtrees
BLIND = dict(g=1.0, herror=10 ** 6, seed=0)


def _config_factorial():
    """72 valid strategy configs (KumarRao requires load balancing)."""
    out = []
    for dist, lb in (("BreadthFirst", "on"), ("BreadthFirst", "off"),
                     ("KumarRao", "on")):
        for clusters in ("1", "2", "4"):
            for polling in ("Neighbor", "Random"):
                for fraction in ("0.3", "0.7"):
                    for trigger in ("0", "2"):
                        cfg = DEFAULT_CONFIG
                        for axis, val in (("distribution", dist),
                                          ("load_balancing", lb),
                                          ("clusters", clusters),
                                          ("polling", polling),
                                          ("fraction", fraction),
                                          ("trigger", trigger)):
                            cfg = cfg.with_value(axis, val)
                        validate_config(cfg, 4)
                        out.append(cfg)
    return out


def _artificial_battery():
    rng = random.Random(1)
    specs = []
    for i in range(20):
        specs.append(ArtificialSpec(
            d=rng.choice((4, 5, 6, 7, 8)),
            g=rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)),
            b=rng.choice((2, 3, 4)),
            imbalance=rng.choice((0.0, 0.4, 0.8)),
            density=rng.choice((0.0, 1e-9, 0.02)),
            herror=rng.choice((0, 2, 6)),
            seed=i + 1))
    return specs


def test_c01_every_config_returns_the_serial_and_oracle_cost():
    t0 = time.time()
    configs = _config_factorial()
    assert len(configs) >= 48

    problems = [ArtificialProblem(s) for s in _artificial_battery()]
    with open(os.path.join(DATA, "easy_puzzles.txt")) as fh:
        states = parse_korf_set(fh.read())
    assert len(states) == 5
    problems += [PuzzleProblem(s) for s in states]

    for problem in problems:
        serial = serial_idastar(problem)
        assert serial.cost == astar_cost(problem)
        for cfg in configs:
            rep = run_parallel(problem, cfg, workers=4, seed=1)
            assert rep.solution_cost == serial.cost, cfg.token()
    elapsed = time.time() - t0
    assert elapsed < 600
    print(f"\n[C1] {len(configs)} configs x {len(problems)} instances all "
          f"optimal in {elapsed:.0f}s PASS")


def test_c02_window_free_speedup_approaches_processor_count():
    for d in range(30, 61):
        assert abs(dts_speedup_eq1(10, 3, d, 3) - 10) / 10 < 0.01, d
    for P, b, d, x in ((1, 2, 5, 0), (2, 2, 8, 1), (4, 2, 12, 2),
                      (10, 3, 30, 3), (10, 3, 45, 3), (10, 3, 60, 3),
                      (7, 4, 20, 2)):
        want = float(eq1_brute(P, b, d, x))
        got = dts_speedup_eq1(P, b, d, x)
        assert abs(got - want) <= 1e-9 * want, (P, b, d, x)
    print("\n[C2] deep-tree speedup within 1% of P=10, exact summation "
          "cross-check to 1e-9 PASS")


def test_c03_window_speedup_values_and_shape():
    assert pws_speedup_eq2(1.0, 2) == 2.0
    assert pws_speedup_eq2(0.5, 6) == 1.4
    along_a = [pws_speedup_eq2(a / 100, 6) for a in range(1, 101)]
    assert all(x > y for x, y in zip(along_a, along_a[1:]))
    along_b = [pws_speedup_eq2(0.5, b) for b in range(2, 9)]
    assert all(x > y for x, y in zip(along_b, along_b[1:]))
    print("\n[C3] window-search speedup anchors exact, strictly "
          "decreasing in a and b PASS")


def test_c04_windows_beat_ideal_distribution_only_at_the_far_left():
    P, b, d = 10, 6, 10
    wins = [i for i in range(1, 101)
            if pws_speedup_eq2(i / 100, b)
            > simulate_ideal_dts(P, b, d, Fraction(i, 100))]
    # a single crossover: the winning region is a prefix of the grid
    assert wins == list(range(1, len(wins) + 1))
    crossover = fig6_crossover()
    assert crossover == 0.10                       # frozen first computation
    assert crossover < 0.2
    assert wins and wins[-1] / 100 <= crossover
    eps = Fraction(4, 1000)
    for i in range(1, P):
        at = simulate_ideal_dts(P, b, d, Fraction(i, P))
        assert at > simulate_ideal_dts(P, b, d, Fraction(i, P) - eps)
        assert at > simulate_ideal_dts(P, b, d, Fraction(i, P) + eps)
    print("\n[C4] single crossover at goal_pos 0.10 with boundary "
          "maxima on the distributed curve PASS")


def test_c05_best_cluster_count_tracks_space_shape():
    t0 = time.time()
    P, cluster_grid, seeds = 16, (1, 2, 4, 8, 16), (1, 2, 3, 4, 5)
    base = dict(d=9, g=0.5, b=3, imbalance=0.0, density=1e-9, herror=5)
    cache = {}
    baselines = {}                  # one serial search per problem

    def mean_makespan(kw, clusters):
        key = (tuple(sorted(kw.items())), clusters)
        if key not in cache:
            cfg = DEFAULT_CONFIG.with_value("clusters", str(clusters))
            runs = []
            for seed in seeds:
                spec = ArtificialSpec(seed=seed, **kw)
                problem = ArtificialProblem(spec)
                if spec not in baselines:
                    baselines[spec] = serial_idastar(problem)
                runs.append(run_parallel(
                    problem, cfg, workers=P, seed=seed,
                    serial_outcome=baselines[spec]).makespan)
            cache[key] = statistics.fmean(runs)
        return cache[key]

    def argmin(kw):
        return min(cluster_grid, key=lambda c: mean_makespan(kw, c))

    sweeps = [
        [{**base, "imbalance": v} for v in (0.0, 0.3, 0.6)],
        [{**base, "b": b, "d": d} for b, d in ((5, 6), (3, 9), (2, 13))],
        [{**base, "g": v} for v in (0.1, 0.5, 0.9)],
    ]
    ok = 0
    for sweep in sweeps:
        mins = [argmin(kw) for kw in sweep]
        for i in range(3):
            for j in range(i + 1, 3):
                ok += mins[i] <= mins[j]
    elapsed = time.time() - t0
    assert ok >= 8, ok
    assert elapsed < 900
    print(f"\n[C5] best cluster count non-decreasing in {ok}/9 transition "
          f"pairs at P=16 in {elapsed:.0f}s PASS")


def test_c06_right_subtree_goal_gives_superlinear_speedup():
    spec = ArtificialSpec(d=8, g=0.75, b=4, imbalance=0.0, density=1e-12,
                          herror=0, seed=1)
    rep = run_parallel(ArtificialProblem(spec), DEFAULT_CONFIG,
                       workers=4, seed=1)
    assert rep.solution_cost == 8
    assert rep.speedup > 4.0
    assert rep.speedup == 8193.0               # frozen first computation
    print("\n[C6] distributed search speedup 8193 > P=4 on a far-right "
          "goal PASS")


def _features_for(spec, budget):
    return extract_features(shallow_search(ArtificialProblem(spec),
                                           budget=budget))


def test_c07_features_track_their_generator_parameters():
    grids = {}

    xs, ys = [], []
    for i in range(20):
        v = 0.95 * i / 19
        f = _features_for(ArtificialSpec(d=6, b=3, imbalance=v, density=0.0,
                                         **BLIND), 500000)
        xs.append(v)
        ys.append(f.imb)
    grids["imbalance->imb"] = (xs, ys)

    xs, ys = [], []
    for i in range(20):
        v = i / 19
        f = _features_for(ArtificialSpec(d=4, g=v, b=8, imbalance=0.0,
                                         density=0.0, herror=0, seed=0),
                          500000)
        xs.append(v)
        ys.append(f.loc)
    grids["g->loc"] = (xs, ys)

    xs, ys = [], []
    for i in range(20):
        b = 2 + (i % 3)
        f = _features_for(ArtificialSpec(d=5, b=b, imbalance=0.0,
                                         density=0.0, **BLIND), 500000)
        xs.append(b)
        ys.append(f.b)
    grids["b->b"] = (xs, ys)

    # heuristic error reveals itself only through the root's own noise
    # draw, so contrast exact heuristics against one strong noise level
    xs, ys = [], []
    for e in (0, 8):
        for seed in range(1, 11):
            f = _features_for(ArtificialSpec(d=8, g=1.0, b=3, imbalance=0.0,
                                             density=0.0, herror=e,
                                             seed=seed), 200000)
            xs.append(e)
            ys.append(f.herror)
    grids["herror->herror"] = (xs, ys)

    rhos = {}
    for name, (xs, ys) in grids.items():
        assert len(xs) == 20
        rhos[name] = spearmanr(xs, ys).statistic
        assert rhos[name] > 0.8, (name, rhos[name])

    samples = []
    for b in (2, 3, 4):
        for imb in (0.0, 0.6):
            spec = ArtificialSpec(d=6, b=b, imbalance=imb, density=0.0,
                                  **BLIND)
            samples.append([_features_for(spec, budget)
                            for budget in (400, 800, 1600)])
    rep = stability_report(samples)
    for name in ("b", "imb"):
        assert rep["within"][name] < rep["between"][name], name

    shown = "  ".join(f"{k} {v:.2f}" for k, v in rhos.items())
    print(f"\n[C7] {shown}; within < between spread for b and imb PASS")


def _rule_dataset(n, noise, seed):
    """A 20-cell feature grid replicated 10x, as repeated profiling runs
    of the same instances would produce, labeled by a two-clause rule."""
    rng = random.Random(seed)
    from idastra.features import ProblemFeatures
    cases = []
    for i in range(n):
        cell = i % 20
        b = 2.0 + (cell % 4)
        imb = 0.1 + 0.2 * (cell // 4)
        f = ProblemFeatures(b=b, herror=0.0, imb=imb, loc=0.5, hbf=3.0)
        label = "16" if (imb > 0.5 or b > 4.25) else "1"
        if rng.random() < noise:
            label = "1" if label == "16" else "16"
        cases.append(TrainingCase(features=f, architecture="sim:16",
                                  axis="clusters", label=label, timings={}))
    return Dataset(cases=cases, axis="clusters")


def test_c08_learned_rules_beat_the_majority_baseline():
    for seed in (1, 2, 3, 4, 5):
        dataset = _rule_dataset(200, 0.05, seed)
        errors = cross_validate(dataset, k=10, seed=seed)
        tree_err = statistics.fmean(errors["tree"])
        majority_err = statistics.fmean(errors["majority"])
        assert tree_err <= 0.15, (seed, tree_err)
        assert tree_err < majority_err, (seed, tree_err, majority_err)

    clean = _rule_dataset(200, 0.0, 1)
    tree = induce_tree(clean)
    assert sum(leaf.errors for leaf in tree_leaves(tree)) == 0
    print("\n[C8] 10-fold tree error <= 0.15 and below majority for "
          "5 seeds; zero training error when noise-free PASS")


def test_c09_advised_strategy_beats_every_fixed_one():
    t0 = time.time()
    P, arch, labels = 16, "sim:16", ("1", "2")
    specs = [ArtificialSpec(d=8, g=g, b=3, imbalance=0.0, density=1e-9,
                            herror=3, seed=seed)
             for seed in range(1, 6) for g in (0.3, 0.5)]
    specs += [ArtificialSpec(d=13, g=g, b=2, imbalance=0.0, density=1e-9,
                             herror=5, seed=seed)
              for seed in range(1, 6) for g in (0.3, 0.4)]
    assert len(specs) >= 20

    rows = []
    for spec in specs:
        problem = ArtificialProblem(spec)
        serial = serial_idastar(problem)
        timings = {}
        for lab in labels:
            cfg = DEFAULT_CONFIG.with_value("clusters", lab)
            timings[lab] = run_parallel(problem, cfg, workers=P, seed=1,
                                        serial_outcome=serial).makespan
        trace = shallow_search(problem, budget=300)
        assert trace.goal_found is None
        rows.append((timings, extract_features(trace)))

    # no single cluster count wins everywhere
    for lab in labels:
        assert any(timings[lab] > min(timings.values())
                   for timings, _f in rows), lab

    dataset = Dataset(cases=[label_cases(t, f, "clusters", arch)
                             for t, f in rows], axis="clusters")
    tree = induce_tree(dataset)

    advised = sum(t[classify(tree, f, arch)] for t, f in rows)
    totals = {lab: sum(t[lab] for t, _f in rows) for lab in labels}
    elapsed = time.time() - t0
    assert advised <= min(totals.values()), (advised, totals)
    assert advised < statistics.fmean(totals.values())
    assert elapsed < 1200
    print(f"\n[C9] advised node-time {advised:.0f} <= best fixed "
          f"{min(totals.values()):.0f}, mean fixed "
          f"{statistics.fmean(totals.values()):.0f} in {elapsed:.0f}s PASS")


def _pipeline(run_cli, root):
    inst = os.path.join(root, "inst")
    records = os.path.join(root, "records.csv")
    store = os.path.join(root, "cases.jsonl")
    model = os.path.join(root, "clusters.tree")
    solve = os.path.join(root, "solve.csv")
    curves = os.path.join(root, "fig6.csv")
    def run(argv):
        code, _out, _err = run_cli(argv)
        assert code == 0, argv

    run(["gen", "--out", inst, "--count", 4, "--d", "5,6", "--g", "0.2,0.8",
         "--b", "3", "--density", "1e-9", "--herror", "2", "--seed", 1])
    run(["sweep", "--instances"]
        + sorted(os.path.join(inst, f) for f in os.listdir(inst))
        + ["--axis", "clusters", "--grid", "1,4", "--workers", 4,
           "--budget", 50, "--out", records, "--store", store])
    run(["train", "--store", store, "--axis", "clusters", "--folds", 2,
         "--out", model])
    run(["solve", "--instances", os.path.join(inst, "inst_0000.spec"),
         "--model", f"clusters={model}", "--budget", 50, "--workers", 4,
         "--out", solve])
    run(["curves", "fig6", "--out", curves])
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_c10_identical_flags_produce_identical_bytes(run_cli, tmp_path):
    first = _pipeline(run_cli, str(tmp_path / "one"))
    second = _pipeline(run_cli, str(tmp_path / "two"))
    assert set(first) == set(second)
    assert len(first) >= 10
    for name in first:
        assert first[name] == second[name], name
    print(f"\n[C10] {len(first)} pipeline files byte-identical across "
          f"fresh reruns PASS")
