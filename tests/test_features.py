"""Shallow lookahead and the five measured problem features."""

import hashlib
import math

import pytest

from idastra.domains.puzzle import PuzzleProblem, scramble
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec
from idastra.errors import DataError, DegenerateTrace, InsufficientData
from idastra.features import (ProblemFeatures, ShallowTrace,
                              extract_features, shallow_search,
                              stability_report)
from idastra.ordering import OrderPolicy
from oracles import SpaceModel, uniform_tree_size


def _spec(**kw):
    base = dict(d=4, g=0.5, b=3, imbalance=0.0, density=0.0, herror=0,
                seed=0)
    base.update(kw)
    return ArtificialSpec(**base)


def _trace(problem, budget):
    return shallow_search(problem, budget=budget)


def test_budget_must_be_positive():
    with pytest.raises(DataError):
        shallow_search(ArtificialProblem(_spec()), budget=0)


def test_expanded_never_exceeds_budget():
    # density epsilon turns off goal-distance pruning so the budget binds
    problem = ArtificialProblem(_spec(d=6, b=3, density=1e-12))
    for budget in (1, 7, 50, 200):
        trace = _trace(problem, budget)
        assert trace.total_expanded <= budget
    assert _trace(problem, 1).truncated


def test_stop_at_goal_reports_solution():
    problem = ArtificialProblem(_spec(d=3, b=3, g=0.0))
    trace = _trace(problem, 100000)
    assert trace.goal_found is not None
    path, cost = trace.goal_found
    assert cost == 3
    assert problem.is_goal(problem.state_at(path))
    assert not trace.truncated


def test_blind_uniform_tree_measures_exact_branching():
    # herror=0 keeps h exact, so only the goal-ward column is swept; make
    # the heuristic blind instead with a saturating error and no density
    spec = _spec(d=2, b=3, g=1.0, herror=10, seed=13)
    problem = ArtificialProblem(spec)
    trace = _trace(problem, 100000)
    feats = extract_features(trace)
    # every expansion of a depth<2 node yields 3 children
    assert feats.b == 3.0


def test_b_uses_only_fertile_expansions():
    # depth-1 tree: root (fertile, 2 kids) + 2 leaves (dead ends)
    spec = _spec(d=1, b=2, g=1.0, herror=6, seed=1)
    trace = _trace(ArtificialProblem(spec), 100000)
    feats = extract_features(trace)
    assert feats.b == 2.0


def test_herror_is_min_leaf_f_minus_root_h():
    spec = _spec(d=4, b=2, g=1.0, herror=5, seed=21)
    problem = ArtificialProblem(spec)
    trace = _trace(problem, 10)        # truncate before the goal
    feats = extract_features(trace)
    assert trace.min_leaf_f is not None
    assert feats.herror == max(0, trace.min_leaf_f - trace.root_h)
    assert feats.herror > 0


def test_herror_zero_when_heuristic_exact():
    trace = _trace(ArtificialProblem(_spec(d=4, b=3)), 100000)
    assert extract_features(trace).herror == 0.0


# A saturating error (h = 0 almost everywhere) turns the lookahead into
# blind iterative deepening, so subtree statistics reflect tree shape
# instead of the goal-distance gradient.  With the goal at the far right
# the goal pass sweeps every subtree fully before stopping.
_BLIND = dict(g=1.0, herror=10**6, seed=0)


def test_imbalance_zero_on_uniform_tree():
    spec = _spec(d=6, b=3, imbalance=0.0, **_BLIND)
    trace = _trace(ArtificialProblem(spec), 500000)
    feats = extract_features(trace)
    assert feats.imb == 0.0


def test_imbalance_grows_with_depth_limit_skew():
    measured = []
    for imb in (0.0, 0.45, 0.9):
        spec = _spec(d=6, b=3, imbalance=imb, **_BLIND)
        trace = _trace(ArtificialProblem(spec), 500000)
        measured.append(extract_features(trace).imb)
    assert measured[0] < measured[1] < measured[2]
    assert all(0.0 <= v <= 1.0 for v in measured)


def test_imbalance_formula_against_trace():
    spec = _spec(d=5, b=3, g=0.0, imbalance=0.6, herror=8, seed=4)
    trace = _trace(ArtificialProblem(spec), 100000)
    k = trace.root_children
    counts = [trace.subtree_expanded.get(i, 0) for i in range(k)]
    mean = sum(counts) / k
    cov = math.sqrt(sum((c - mean) ** 2 for c in counts) / k) / mean
    expected = min(1.0, cov / math.sqrt(k - 1))
    assert extract_features(trace).imb == pytest.approx(expected)


def test_location_tracks_goal_position():
    # with an exact heuristic every off-path child is pruned with leaf
    # h > 0 while the goal subtree bottoms out at h = 0, so loc is the
    # goal subtree's centre fraction
    locs = {}
    for g in (0.0, 0.5, 1.0):
        spec = _spec(d=4, b=4, g=g, herror=0, seed=5)
        trace = _trace(ArtificialProblem(spec), 200000)
        locs[g] = extract_features(trace).loc
    assert locs[0.0] == pytest.approx(0.125)     # subtree 0 of 4
    assert locs[0.5] == pytest.approx(0.625)     # subtree 2 of 4
    assert locs[1.0] == pytest.approx(0.875)     # subtree 3 of 4
    assert locs[0.0] < locs[0.5] < locs[1.0]


def test_location_default_when_no_leaf_h():
    trace = ShallowTrace(iterations=[{"threshold": 1, "nodes_expanded": 1,
                                      "complete": True}],
                         root_h=1, root_children=2, subtree_expanded={},
                         subtree_min_leaf_f={}, subtree_min_leaf_h={},
                         min_leaf_f=None, leaf_samples=[], total_expanded=1,
                         total_generated=2, fertile_expanded=1,
                         truncated=False, goal_found=None)
    assert extract_features(trace).loc == 0.5


def test_hbf_near_b_on_uniform_blind_tree():
    # consecutive completed iteration sizes grow roughly by b
    spec = _spec(d=6, b=3, **_BLIND)
    trace = _trace(ArtificialProblem(spec), 500000)
    feats = extract_features(trace)
    done = [it["nodes_expanded"] for it in trace.iterations
            if it["complete"] and it["nodes_expanded"] > 0]
    assert len(done) >= 2
    assert 2.5 < feats.hbf < 4.0
    # and it is exactly the geometric mean of consecutive growth ratios
    ratios = [done[i + 1] / done[i] for i in range(len(done) - 1)]
    expected = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    assert feats.hbf == pytest.approx(expected)


def test_hbf_falls_back_to_b_with_single_iteration():
    # exact heuristic: the first threshold already reaches the goal
    trace = _trace(ArtificialProblem(_spec(d=3, b=3)), 100000)
    feats = extract_features(trace)
    assert feats.hbf == feats.b


def test_degenerate_trace_rejected():
    empty = ShallowTrace(iterations=[], root_h=0, root_children=0,
                         subtree_expanded={}, subtree_min_leaf_f={},
                         subtree_min_leaf_h={}, min_leaf_f=None,
                         leaf_samples=[], total_expanded=0,
                         total_generated=0, fertile_expanded=0,
                         truncated=False, goal_found=None)
    with pytest.raises(DegenerateTrace):
        extract_features(empty)


def test_features_csv_round_trip():
    feats = ProblemFeatures(b=2.5, herror=1.0, imb=0.25, loc=0.625,
                            hbf=2.375)
    assert ProblemFeatures.from_csv_row(feats.csv_row()) == feats
    assert ProblemFeatures.csv_header() == "b,herror,imb,loc,hbf"
    with pytest.raises(DataError):
        ProblemFeatures.from_csv_row("1.0,2.0,3.0")


def test_stability_report_shapes_and_guards():
    fa = [ProblemFeatures(3.0, 0.0, 0.1, 0.5, 3.0),
          ProblemFeatures(3.1, 0.0, 0.12, 0.5, 3.1)]
    fb = [ProblemFeatures(2.0, 1.0, 0.6, 0.9, 2.0),
          ProblemFeatures(2.05, 1.0, 0.58, 0.9, 2.1)]
    report = stability_report([fa, fb])
    assert set(report) == {"within", "between"}
    assert set(report["within"]) == {"b", "herror", "imb", "loc", "hbf"}
    # b separates the two problems far more than it wobbles within one
    assert report["within"]["b"] < report["between"]["b"]
    with pytest.raises(InsufficientData):
        stability_report([fa])
    with pytest.raises(InsufficientData):
        stability_report([fa, [fb[0]]])


def test_trace_counts_match_space_size():
    # blind full sweep of the last completed iteration covers the tree
    spec = _spec(d=3, b=2, g=1.0, herror=8, seed=7)
    problem = ArtificialProblem(spec)
    model = SpaceModel(spec)
    trace = _trace(problem, 100000)
    sizes = [it["nodes_expanded"] for it in trace.iterations
             if it["complete"]]
    # a completed blind pass at threshold >= d expands every interior
    # node and the leftmost frontier up to the goal; the full-tree bound
    # is the whole space
    assert max(sizes) <= len(model.all_nodes())
    assert trace.root_children == 2


# Traces and features recorded before the cost-bounded pass moved to a
# shared path list; every budget truncates a pass midway.  leaf_samples
# is pinned by its length and a digest of the (g, h) list in order; the
# artificial instances prune siblings of unequal h, so a pass that
# recorded them out of generation order would change the digest (a
# puzzle's pruned siblings always share h).
_PINNED = [
    (("puzzle", (40, 3)), None, 3000, {
        "iterations": [(30, 13, True), (32, 449, True), (34, 2538, False)],
        "root_children": 4,
        "subtree_expanded": {0: 155, 1: 1, 2: 148, 3: 144},
        "subtree_min_leaf_f": {0: 34, 1: 34, 2: 34, 3: 34},
        "subtree_min_leaf_h": {0: 9, 1: 32, 2: 13, 3: 9},
        "min_leaf_f": 34,
        "leaf_samples": (459, "1a4c201833ffe84c"),
        "totals": (3000, 6125, 3000),
        "features": (2.0416666666666665, 4.0, 0.330979947036276, 0.125,
                     34.53846153846155)}),
    (("puzzle", (50, 7)), "Local", 5000, {
        "iterations": [(28, 67, True), (30, 289, True), (32, 1475, True),
                       (34, 3169, False)],
        "root_children": 4,
        "subtree_expanded": {0: 858, 2: 523, 1: 20, 3: 73},
        "subtree_min_leaf_f": {0: 34, 2: 34, 1: 34, 3: 34},
        "subtree_min_leaf_h": {0: 10, 2: 10, 1: 26, 3: 13},
        "min_leaf_f": 34,
        "leaf_samples": (1024, "4a8e71f9f3844e32"),
        "totals": (5000, 10304, 5000),
        "features": (2.0608, 6.0, 0.5383432196065782, 0.125,
                     4.692006540184522)}),
    (("puzzle", (60, 11)), "Fixed:3102", 4000, {
        "iterations": [(24, 6, True), (26, 60, True), (28, 370, True),
                       (30, 2105, True), (32, 1459, False)],
        "root_children": 3,
        "subtree_expanded": {3: 136, 1: 1886, 0: 82},
        "subtree_min_leaf_f": {3: 32, 1: 32, 0: 32},
        "subtree_min_leaf_h": {3: 18, 1: 5, 0: 15},
        "min_leaf_f": 32,
        "leaf_samples": (1024, "b03a775e2e5d69d1"),
        "totals": (4000, 8294, 4000),
        "features": (2.0735, 8.0, 0.9381941874331418, 0.5,
                     7.0528873931953555)}),
    (("artificial", dict(d=9, g=0.5, b=3, imbalance=0.0, density=1e-9,
                         herror=5, seed=3)), None, 2500, {
        "iterations": [(6, 18, True), (7, 314, True), (8, 2168, False)],
        "root_children": 3,
        "subtree_expanded": {0: 184, 1: 58, 2: 71},
        "subtree_min_leaf_f": {0: 8, 1: 8, 2: 8},
        "subtree_min_leaf_h": {0: 0, 1: 0, 2: 0},
        "min_leaf_f": 8,
        "leaf_samples": (629, "a590d2177fe4f989"),
        "totals": (2500, 7500, 2500),
        "features": (3.0, 2.0, 0.38347975438647836, 0.16666666666666666,
                     17.444444444444443)}),
    (("artificial", dict(d=8, g=0.5, b=4, imbalance=0.5, density=1e-9,
                         herror=8, seed=3)), "Local", 3000, {
        "iterations": [(5, 185, True), (6, 1017, True), (7, 1798, False)],
        "root_children": 4,
        "subtree_expanded": {1: 334, 0: 279, 3: 403},
        "subtree_min_leaf_f": {2: 7, 1: 7, 0: 7, 3: 7},
        "subtree_min_leaf_h": {2: 6, 1: 0, 0: 0, 3: 0},
        "min_leaf_f": 7,
        "leaf_samples": (1024, "6430442d6eb15c60"),
        "totals": (3000, 6076, 3000),
        "features": (2.025333333333333, 2.0, 0.3479707729594317, 0.125,
                     5.497297297297297)}),
    (("artificial", dict(d=12, g=0.5, b=2, imbalance=0.3, density=1e-9,
                         herror=9, seed=5)), "Fixed:10", 700, {
        "iterations": [(8, 33, True), (9, 154, True), (10, 320, True),
                       (11, 193, False)],
        "root_children": 2,
        "subtree_expanded": {1: 200, 0: 119},
        "subtree_min_leaf_f": {1: 11, 0: 11},
        "subtree_min_leaf_h": {1: 0, 0: 0},
        "min_leaf_f": 11,
        "leaf_samples": (162, "43a598e51e686d88"),
        "totals": (700, 1064, 700),
        "features": (1.52, 3.0, 0.25391849529780564, 0.25,
                     3.1139957766460924)}),
]


@pytest.mark.parametrize("instance,token,budget,expected", _PINNED)
def test_truncated_traces_and_features_are_pinned(instance, token, budget,
                                                  expected):
    kind, arg = instance
    if kind == "puzzle":
        problem = PuzzleProblem(scramble(*arg))
    else:
        problem = ArtificialProblem(ArtificialSpec(**arg))
    order = None if token is None else OrderPolicy.from_token(token)
    trace = shallow_search(problem, budget=budget, order=order)
    assert trace.truncated and trace.goal_found is None
    features = extract_features(trace)
    digest = hashlib.sha256(repr(trace.leaf_samples).encode()).hexdigest()
    assert {
        "iterations": [(it["threshold"], it["nodes_expanded"],
                        it["complete"]) for it in trace.iterations],
        "root_children": trace.root_children,
        "subtree_expanded": trace.subtree_expanded,
        "subtree_min_leaf_f": trace.subtree_min_leaf_f,
        "subtree_min_leaf_h": trace.subtree_min_leaf_h,
        "min_leaf_f": trace.min_leaf_f,
        "leaf_samples": (len(trace.leaf_samples), digest[:16]),
        "totals": (trace.total_expanded, trace.total_generated,
                   trace.fertile_expanded),
        "features": (features.b, features.herror, features.imb,
                     features.loc, features.hbf),
    } == expected
