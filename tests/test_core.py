"""Serial search core against the recursive reference and A* oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idastra.core import (cost_bounded_dfs, make_root, next_threshold,
                          serial_idastar)
from idastra.domains.puzzle import PuzzleProblem, scramble
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec
from idastra.errors import SpaceExhausted
from idastra.ordering import OrderPolicy
from oracles import astar_cost, bounded_dfs_reference, ida_reference


def _spec(**kw):
    base = dict(d=4, g=0.5, b=3, imbalance=0.0, density=0.0, herror=0,
                seed=0)
    base.update(kw)
    return ArtificialSpec(**base)


class NoGoalProblem:
    """Tiny two-level tree with no goal anywhere."""

    def initial_state(self):
        return ()

    def initial_h(self):
        return 0

    def is_goal(self, state):
        return False

    def expand(self, state, prev_op, h):
        if len(state) >= 2:
            return []
        return [(state + (i,), i, 1, 0) for i in range(2)]


def test_pass_counts_match_reference_uniform_tree():
    # depth-2 ternary tree, h = 0 everywhere except the goal gradient
    problem = ArtificialProblem(_spec(d=2, b=3, herror=2, seed=5))
    for threshold in range(0, 4):
        res = cost_bounded_dfs(problem, make_root(problem), threshold)
        exp, gen, min_exceed, solution = bounded_dfs_reference(problem,
                                                               threshold)
        assert res.nodes_expanded == exp
        assert res.nodes_generated == gen
        assert res.min_exceeding_f == min_exceed
        assert (res.solution is None) == (solution is None)


def test_pass_example_depth2_uniform():
    # with a blind heuristic the threshold-1 pass expands the root and
    # visits its children; visiting the goal-test on each child counts,
    # so a 3-ary root yields 1 + 3 = 4 expansions at threshold 1 and the
    # threshold-0 pass expands the root alone
    problem = ArtificialProblem(_spec(d=2, b=3, density=1e-12, seed=1))
    root = make_root(problem)
    assert root.h == 2                       # depth cap: d - 0
    res0 = cost_bounded_dfs(problem, root, 1)
    assert res0.nodes_expanded == 0          # root.f = 2 > 1
    assert res0.min_exceeding_f == 2
    res = cost_bounded_dfs(problem, root, 2)
    exp, _gen, _me, sol = bounded_dfs_reference(problem, 2)
    assert res.nodes_expanded == exp
    assert sol is not None


def test_root_over_threshold_short_circuits():
    problem = ArtificialProblem(_spec())
    root = make_root(problem)
    res = cost_bounded_dfs(problem, root, root.f - 1)
    assert res.nodes_expanded == 0
    assert res.nodes_generated == 0
    assert res.min_exceeding_f == root.f
    assert not res.truncated


def test_goal_pop_counts_as_expansion():
    # d=1: root + goal child; the goal is popped and counted
    problem = ArtificialProblem(_spec(d=1, b=2))
    res = cost_bounded_dfs(problem, make_root(problem), 1)
    assert res.solution is not None
    assert res.nodes_expanded == 2


def test_budget_truncation_flags_and_stops():
    problem = ArtificialProblem(_spec(d=6, b=3, density=1e-9))
    root = make_root(problem)
    full = cost_bounded_dfs(problem, root, 6)
    assert full.solution is not None
    budget = full.nodes_expanded // 2
    cut = cost_bounded_dfs(problem, root, 6, budget=budget)
    assert cut.truncated
    assert cut.nodes_expanded == budget
    assert cut.solution is None


def test_budget_equal_to_need_is_not_truncated():
    problem = ArtificialProblem(_spec(d=3, b=2))
    root = make_root(problem)
    full = cost_bounded_dfs(problem, root, 3)
    again = cost_bounded_dfs(problem, root, 3,
                             budget=full.nodes_expanded)
    assert again.solution is not None
    assert not again.truncated


def test_serial_matches_reference_and_astar():
    for seed in range(4):
        problem = ArtificialProblem(_spec(d=5, b=3, herror=3, seed=seed,
                                          imbalance=0.4))
        out = serial_idastar(problem)
        cost, path, thresholds, per_pass, total = ida_reference(problem)
        assert out.cost == cost == astar_cost(problem) == 5
        assert out.path == path
        assert [t for t, _ in out.iterations] == thresholds
        assert [n for _, n in out.iterations] == per_pass
        assert out.total_expanded == total


def _assert_matches_references(problem, order):
    """serial_idastar against the recursive reference, and every pass
    against the recursive pass at the same threshold."""
    out = serial_idastar(problem, order=order)
    cost, path, thresholds, per_pass, total = ida_reference(problem, order)
    assert (out.path, out.cost) == (path, cost)
    assert [t for t, _ in out.iterations] == thresholds
    assert [n for _, n in out.iterations] == per_pass
    assert out.total_expanded == total
    generated = 0
    for threshold in thresholds:
        res = cost_bounded_dfs(problem, make_root(problem), threshold,
                               order=order)
        exp, gen, min_exceed, solution = bounded_dfs_reference(
            problem, threshold, order)
        assert res.nodes_expanded == exp
        assert res.nodes_generated == gen
        assert res.min_exceeding_f == min_exceed
        assert res.solution == solution
        generated += gen
    assert out.total_generated == generated
    return out


_SCRAMBLES = [(20, 1), (26, 2), (30, 3), (34, 4), (40, 5), (16, 6),
              (24, 7), (28, 8)]


@pytest.mark.parametrize("token", ["Fixed", "Fixed:3102", "Local"])
def test_puzzle_search_matches_reference_per_pass(token):
    order = OrderPolicy.from_token(token)
    for depth, seed in _SCRAMBLES:
        state = scramble(depth, seed)
        _assert_matches_references(PuzzleProblem(state), order)


@pytest.mark.parametrize("token", ["Fixed:210", "Local"])
def test_ordered_artificial_search_matches_reference_per_pass(token):
    for seed in range(3):
        problem = ArtificialProblem(_spec(d=5, b=3, herror=3, seed=seed,
                                          imbalance=0.4, density=1e-9))
        _assert_matches_references(problem, OrderPolicy.from_token(token))


def test_serial_finds_leftmost_optimal_path():
    problem = ArtificialProblem(_spec(d=4, b=3, density=0.01, seed=7))
    out = serial_idastar(problem)
    goals = []

    def walk(state, prev_op, h):
        if problem.is_goal(state):
            goals.append(tuple(state[0]))
            return
        for child, op, _c, ch in problem.expand(state, prev_op, h):
            walk(child, op, ch)

    walk(problem.state_at(b""), -1, problem.initial_h())
    assert tuple(out.path) == min(goals)
    assert out.cost == 4


def test_thresholds_strictly_increase():
    problem = ArtificialProblem(_spec(d=6, b=2, herror=4, seed=3))
    out = serial_idastar(problem)
    ts = [t for t, _ in out.iterations]
    assert all(a < b for a, b in zip(ts, ts[1:]))


def test_space_exhausted_without_goal():
    problem = NoGoalProblem()
    res = cost_bounded_dfs(problem, make_root(problem), 5)
    assert res.solution is None
    assert res.min_exceeding_f is None
    with pytest.raises(SpaceExhausted):
        next_threshold(res)
    with pytest.raises(SpaceExhausted):
        serial_idastar(problem)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 5), b=st.integers(2, 4),
       g=st.floats(0.0, 1.0, allow_nan=False),
       imb=st.floats(0.0, 1.0, allow_nan=False),
       herror=st.integers(0, 4), seed=st.integers(0, 50))
def test_property_cost_is_always_optimal(d, b, g, imb, herror, seed):
    problem = ArtificialProblem(ArtificialSpec(
        d=d, g=g, b=b, imbalance=imb, density=0.0, herror=herror,
        seed=seed))
    out = serial_idastar(problem)
    assert out.cost == d == astar_cost(problem)
    assert len(out.path) == d
    assert out.total_expanded == sum(n for _, n in out.iterations)


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 4), b=st.integers(2, 3),
       density=st.sampled_from([0.0, 1e-9, 0.02]),
       seed=st.integers(0, 30))
def test_property_density_goals_keep_cost_d(d, b, density, seed):
    problem = ArtificialProblem(ArtificialSpec(
        d=d, g=0.7, b=b, imbalance=0.0, density=density, herror=1,
        seed=seed))
    out = serial_idastar(problem)
    assert out.cost == d
    # operators are digit choices, so the state is the op sequence
    assert problem.is_goal(problem.state_at(out.path))
