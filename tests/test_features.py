"""Shallow lookahead and the five measured problem features."""

import math

import pytest

from idastra.core import PassStats, cost_bounded_dfs, make_root
from idastra.domains.puzzle import PuzzleProblem, scramble
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec
from idastra.errors import DataError, DegenerateTrace, InsufficientData
from idastra.features import (ProblemFeatures, ShallowTrace,
                              extract_features, shallow_search)
from idastra.ordering import OrderPolicy
from oracles import SpaceModel, stability_report, uniform_tree_size


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


def test_goal_at_the_root_is_one_childless_expansion():
    # the root is the goal: its expansion is the whole search, recorded
    # as a childless one (a leaf at f 0) in no root child's subtree
    problem = PuzzleProblem(scramble(0, 1))
    res = cost_bounded_dfs(problem, make_root(problem), 0,
                           collect_stats=True)
    assert (res.solution, res.nodes_expanded, res.nodes_generated) \
        == (((), 0), 1, 0)
    # root_ops [] and no subtree entries, as PassStats compares them
    assert res.stats == PassStats(min_leaf_f=0)
    trace = _trace(problem, 10)
    assert (trace.total_expanded, trace.min_leaf_f, trace.root_ops,
            trace.goal_found) == (1, 0, [], ((), 0))
    assert (trace.fertile_expanded, trace.subtree_expanded) == (0, {})


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
    k = len(trace.root_ops)
    counts = [trace.subtree_expanded.get(op, 0) for op in trace.root_ops]
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
                         root_h=1, root_ops=[0, 1], subtree_expanded={},
                         subtree_min_leaf_f={}, subtree_min_leaf_h={},
                         min_leaf_f=None, total_expanded=1,
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
    empty = ShallowTrace(iterations=[], root_h=0, root_ops=[],
                         subtree_expanded={}, subtree_min_leaf_f={},
                         subtree_min_leaf_h={}, min_leaf_f=None,
                         total_expanded=0,
                         total_generated=0, fertile_expanded=0,
                         truncated=False, goal_found=None)
    with pytest.raises(DegenerateTrace):
        extract_features(empty)


def test_features_csv_round_trip():
    # the text advise prints after "features: ", in b,herror,imb,loc,hbf
    # order, each value's repr round-tripping exactly
    feats = ProblemFeatures(b=2.5, herror=1.0, imb=0.25, loc=0.625,
                            hbf=2.375)
    assert feats.csv_row() == "2.5,1.0,0.25,0.625,2.375"
    assert ProblemFeatures(*map(float, feats.csv_row().split(","))) == feats


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
    assert len(trace.root_ops) == 2


def test_root_subtree_features_walk_the_root_operators():
    # the blank starts in cell 0, so the root's operators are 2 and 3,
    # not 0 and 1: imb and loc must read subtrees 2 and 3
    trace = shallow_search(PuzzleProblem(scramble(30, 12)), budget=3000)
    assert trace.root_ops == [2, 3]
    assert trace.subtree_expanded == {2: 212, 3: 458}
    assert trace.subtree_min_leaf_h == {2: 11, 3: 5}
    features = extract_features(trace)
    # cov of (212, 458) over sqrt(k - 1) = 1; the best leaf h is in the
    # second of two subtrees
    assert features.imb == pytest.approx(123 / 335)
    assert features.loc == 0.75


# Traces and features recorded before the cost-bounded pass moved to a
# shared path list; every budget truncates a pass midway.  The (60, 11)
# imb was re-pinned once imb read the root's operators (0, 1 and 3)
# instead of subtrees 0..k-1.
_PINNED = [
    (("puzzle", (40, 3)), None, 3000, {
        "iterations": [(30, 13, True), (32, 449, True), (34, 2538, False)],
        "root_children": 4,
        "subtree_expanded": {0: 155, 1: 1, 2: 148, 3: 144},
        "subtree_min_leaf_f": {0: 34, 1: 34, 2: 34, 3: 34},
        "subtree_min_leaf_h": {0: 9, 1: 32, 2: 13, 3: 9},
        "min_leaf_f": 34,
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
        "totals": (4000, 8294, 4000),
        "features": (2.0735, 8.0, 0.8448741713213792, 0.5,
                     7.0528873931953555)}),
    (("artificial", dict(d=9, g=0.5, b=3, imbalance=0.0, density=1e-9,
                         herror=5, seed=3)), None, 2500, {
        "iterations": [(6, 18, True), (7, 314, True), (8, 2168, False)],
        "root_children": 3,
        "subtree_expanded": {0: 184, 1: 58, 2: 71},
        "subtree_min_leaf_f": {0: 8, 1: 8, 2: 8},
        "subtree_min_leaf_h": {0: 0, 1: 0, 2: 0},
        "min_leaf_f": 8,
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
    assert {
        "iterations": [(it["threshold"], it["nodes_expanded"],
                        it["complete"]) for it in trace.iterations],
        "root_children": len(trace.root_ops),
        "subtree_expanded": trace.subtree_expanded,
        "subtree_min_leaf_f": trace.subtree_min_leaf_f,
        "subtree_min_leaf_h": trace.subtree_min_leaf_h,
        "min_leaf_f": trace.min_leaf_f,
        "totals": (trace.total_expanded, trace.total_generated,
                   trace.fertile_expanded),
        "features": (features.b, features.herror, features.imb,
                     features.loc, features.hbf),
    } == expected


def test_budget_spent_exactly_at_a_pass_end():
    # the second pass ends on the budget's last node: the trace counts as
    # truncated, but that pass is complete, so its subtree statistics are
    # the ones kept (recorded before profiling shared serial IDA*'s
    # deepening loop)
    problem = PuzzleProblem(scramble(40, 3))
    trace = shallow_search(problem, budget=13 + 449)
    assert trace.truncated and trace.goal_found is None
    assert [(it["threshold"], it["nodes_expanded"], it["complete"])
            for it in trace.iterations] == [(30, 13, True), (32, 449, True)]
    assert trace.subtree_expanded == {0: 155, 1: 1, 2: 148, 3: 144}
    assert trace.subtree_min_leaf_f == {0: 34, 1: 34, 2: 34, 3: 34}
    assert trace.subtree_min_leaf_h == {0: 9, 1: 32, 2: 13, 3: 9}
    assert trace.min_leaf_f == 34
    assert (len(trace.root_ops), trace.total_expanded,
            trace.total_generated, trace.fertile_expanded) \
        == (4, 462, 933, 462)
    features = extract_features(trace)
    assert (features.b, features.herror, features.imb, features.loc,
            features.hbf) == (2.0194805194805197, 4.0, 0.330979947036276,
                              0.125, 34.53846153846155)
