"""Artificial search space and fifteen puzzle against the enumerator
oracle and hand-derived values."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idastra.core import GOAL, make_root, serial_idastar
from idastra.domains.puzzle import (GOAL_TILES, PuzzleProblem,
                                    parse_korf_set, scramble)
from idastra.domains.synthetic import (ArtificialProblem, ArtificialSpec,
                                       goal_path_digits)
from idastra.errors import (DataError, MalformedLine, UnsolvableInstance)
from idastra.ordering import OrderPolicy
from idastra import _kernels_py
from oracles import (_TAG_ERROR, _TAG_GOAL, SpaceModel, astar_cost,
                     child_indices, class_expand, count_nodes, expand_all,
                     expansion, goal_digits_reference, is_solvable,
                     manhattan_reference, uniform_tree_size)


def _spec(**kw):
    base = dict(d=4, g=0.5, b=3, imbalance=0.0, density=0.0, herror=0,
                seed=0)
    base.update(kw)
    return ArtificialSpec(**base)


# ------------------------------------------------- artificial space

def test_goal_path_digits_examples():
    assert goal_path_digits(0.5, 2, 3) == bytes([1, 0, 0])
    assert goal_path_digits(0.0, 3, 4) == bytes([0, 0, 0, 0])
    assert goal_path_digits(1.0, 4, 3) == bytes([3, 3, 3])
    # 0.75 base 4 = digit 3 then zeros
    assert goal_path_digits(0.75, 4, 2) == bytes([3, 0])


@settings(max_examples=50, deadline=None)
@given(g=st.floats(0.0, 1.0, allow_nan=False), b=st.integers(2, 6),
       d=st.integers(1, 8))
def test_goal_path_digits_match_reference(g, b, d):
    assert tuple(goal_path_digits(g, b, d)) == goal_digits_reference(g, b, d)


def test_depth_limits_formula():
    problem = ArtificialProblem(_spec(d=8, b=4, imbalance=0.5))
    expected = tuple(math.ceil(8 * (1.0 - 0.5 * i / 3)) for i in range(4))
    assert problem.depth_limit == expected == (8, 7, 6, 4)


def test_zero_imbalance_keeps_full_tree():
    problem = ArtificialProblem(_spec(d=3, b=3, imbalance=0.0))
    assert count_nodes(problem) == uniform_tree_size(3, 3) == 40


def test_goal_path_exempt_from_depth_limits():
    # goal on the rightmost (most limited) path survives max imbalance
    problem = ArtificialProblem(_spec(d=5, b=3, g=1.0, imbalance=1.0))
    path = b""
    for _ in range(5):
        children = child_indices(problem, problem.state_at(path))
        assert 2 in children
        path = path + bytes([2])
    assert problem.is_goal(problem.state_at(path))


def test_enumeration_matches_space_model():
    for kw in (dict(), dict(imbalance=0.6), dict(density=0.05, seed=3),
               dict(herror=3, seed=9), dict(d=5, b=2, imbalance=0.3,
                                            density=0.02, herror=2, seed=4)):
        spec = _spec(**kw)
        problem = ArtificialProblem(spec)
        model = SpaceModel(spec)
        nodes = model.all_nodes()
        assert count_nodes(problem) == len(nodes)
        for path in nodes:
            state = problem.state_at(path)
            assert tuple(child_indices(problem, state)) == tuple(
                i for _p, i, _c in
                [(c, c[-1], 1) for c in model.children(path)])
            assert problem.heuristic(state) == model.heuristic(path)
            assert problem.is_goal(state) == model.is_goal(path)


def test_expanded_states_carry_keys_hashed_from_scratch():
    # every node reached through expand holds the keys, shared prefix, h
    # and goal flag that its path gives when computed from nothing
    for kw in (dict(), dict(density=0.15, herror=3, seed=2),
               dict(imbalance=0.6, herror=2, seed=5),
               dict(d=5, b=2, g=1.0, imbalance=1.0, density=0.2, herror=4,
                    seed=8),
               dict(d=4, b=4, g=0.3, imbalance=0.4, density=0.05, herror=1,
                    seed=13)):
        spec = _spec(**kw)
        problem = ArtificialProblem(spec)
        model = SpaceModel(spec)
        seen = []
        stack = [make_root(problem)]
        while stack:
            node = stack.pop()
            state, _g, h, _op, _parent = node
            path = state[0]
            seen.append(tuple(path))
            assert state == (
                path, model.shared_prefix(path),
                _kernels_py.path_hash(spec.seed, _TAG_ERROR, path),
                _kernels_py.path_hash(spec.seed, _TAG_GOAL, path))
            assert state == problem.state_at(path)
            assert h == problem.heuristic(state) == model.heuristic(path)
            assert problem.is_goal(state) == model.is_goal(path)
            children = expand_all(problem, node)
            assert [child[0][0] for child in children] \
                == [bytes(c) for c in model.children(tuple(path))]
            stack.extend(children)
        assert sorted(seen) == sorted(model.all_nodes())


def test_density_draws_extra_goals_at_depth_d_only():
    spec = _spec(d=4, b=3, density=0.15, seed=11)
    problem = ArtificialProblem(spec)
    model = SpaceModel(spec)
    goals = model.goal_nodes()
    assert len(goals) > 1                  # density high enough to draw
    assert all(len(p) == 4 for p in goals)
    for p in model.all_nodes():
        if len(p) < 4:
            assert not problem.is_goal(problem.state_at(p))


def test_heuristic_admissible_and_zero_at_goals():
    for kw in (dict(herror=0), dict(herror=4, seed=2),
               dict(density=0.1, herror=2, seed=6),
               dict(imbalance=0.7, herror=1, seed=8)):
        spec = _spec(d=4, b=3, **kw)
        problem = ArtificialProblem(spec)
        model = SpaceModel(spec)
        for path in model.all_nodes():
            true_cost = model.true_remaining_cost(path)
            h = problem.heuristic(problem.state_at(path))
            if true_cost is None:
                continue               # dead subtree, any h is safe
            assert h <= true_cost
            if model.is_goal(path):
                assert h == 0


# The search goal-tests a node only where its h is 0, which relies on
# h >= 0 everywhere and h == 0 at every goal.
@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 6), b=st.integers(2, 4), g=st.floats(0.0, 1.0),
       herror=st.integers(0, 6), density=st.sampled_from((1e-9, 0.05, 1.0)),
       imbalance=st.sampled_from((0.0, 0.6)), seed=st.integers(0, 999))
def test_heuristic_meets_the_goal_gate_contract(d, b, g, herror, density,
                                                imbalance, seed):
    problem = ArtificialProblem(_spec(d=d, b=b, g=g, herror=herror,
                                      density=density, imbalance=imbalance,
                                      seed=seed))
    frontier = [make_root(problem)]
    while frontier:
        node = frontier.pop()
        state, _g, h, _op, _parent = node
        assert h >= 0
        if problem.is_goal(state):
            assert problem.heuristic(state) == 0
        for child in expand_all(problem, node):
            assert child[2] == problem.heuristic(child[0])
            frontier.append(child)


def test_heuristic_depth_cap_only_with_density():
    # far-right subtree of a wide tree: distance via the goal is large
    spec_plain = _spec(d=6, b=4, g=0.0)
    spec_dense = _spec(d=6, b=4, g=0.0, density=1e-12)
    off_path = bytes([3, 3])
    plain = ArtificialProblem(spec_plain)
    dense = ArtificialProblem(spec_dense)
    h_plain = plain.heuristic(plain.state_at(off_path))
    h_dense = dense.heuristic(dense.state_at(off_path))
    assert h_plain == 2 + 6                # back out 2, descend 6
    assert h_dense == 4                    # capped at d - depth


def test_spec_round_trip_and_validation():
    spec = _spec(d=7, g=0.3, b=4, imbalance=0.25, density=0.001, herror=3,
                 seed=42)
    assert ArtificialSpec.from_text(spec.to_text()) == spec
    with pytest.raises(DataError):
        _spec(d=0).validate()
    with pytest.raises(DataError):
        _spec(b=1).validate()
    with pytest.raises(DataError):
        _spec(b=257).validate()
    _spec(d=1, b=256).validate()
    with pytest.raises(DataError):
        _spec(imbalance=1.2).validate()
    with pytest.raises(DataError):
        _spec(density=-0.1).validate()


def test_spec_parse_errors_carry_line_numbers():
    with pytest.raises(DataError, match="line 2"):
        ArtificialSpec.from_text("d = 3\nnot a pair\n")
    with pytest.raises(DataError):
        ArtificialSpec.from_text("d = 3\n")     # missing fields


@pytest.mark.parametrize("head, message", [
    ("depth = 3", "line 1: unknown key 'depth'"),
    ("d = 4\nd = 4", "line 2: duplicate key 'd'"),
    ("b = three", "line 1: bad value 'three' for b"),
])
def test_malformed_spec_text_is_a_data_error(head, message):
    # the bad lines come before a complete, valid spec
    with pytest.raises(DataError, match=message):
        ArtificialSpec.from_text(head + "\n" + _spec().to_text())


def test_spec_file_round_trip(tmp_path):
    spec = _spec(seed=77)
    path = tmp_path / "x.spec"
    spec.to_file(path)
    assert ArtificialSpec.from_file(path) == spec
    with pytest.raises(DataError):
        ArtificialSpec.from_file(tmp_path / "missing.spec")


# ------------------------------------------------------ fifteen puzzle

def test_manhattan_matches_reference_on_scrambles():
    for seed in range(30):
        state = scramble(25, seed)
        assert PuzzleProblem(state).heuristic(state) \
            == manhattan_reference(state[0])


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(0, 40), seed=st.integers(0, 10**6))
@example(depth=0, seed=0)
def test_puzzle_goal_exactly_where_manhattan_is_zero(depth, seed):
    state = scramble(depth, seed)
    problem = PuzzleProblem(state)
    for s in [state] + [child[0] for child in _children(problem, state)]:
        assert problem.is_goal(s) == (_kernels_py.manhattan(s[0]) == 0)


def test_scramble_is_always_solvable_and_deterministic():
    for seed in (0, 1, 99):
        a = scramble(30, seed)
        b = scramble(30, seed)
        assert a == b
        assert is_solvable(a[0])


def _children(problem, state, prev_op=-1):
    return expand_all(problem, (state, 0, problem.heuristic(state), prev_op,
                                None))


def test_apply_op_round_trip():
    # each child's own expansion leads back to the parent under 3 - op
    state = scramble(15, 3)
    problem = PuzzleProblem(state)
    for child, _g, _h, op, _p in _children(problem, state):
        back = {o: s for s, _g, _h, o, _p in _children(problem, child)}
        assert back[3 - op] == state


def test_successors_skip_reverse():
    state = scramble(20, 5)
    for _s, _g, _h, op, _p in _children(PuzzleProblem(state), state,
                                        prev_op=1):
        assert op != 2


def test_solvability_parity():
    assert is_solvable(GOAL_TILES)
    # swapping two adjacent tiles flips permutation parity only
    swapped = bytearray(GOAL_TILES)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert not is_solvable(bytes(swapped))


def test_parse_korf_set_errors():
    with pytest.raises(MalformedLine, match="line 1"):
        parse_korf_set("1 2 3\n")
    with pytest.raises(MalformedLine, match="line 2"):
        parse_korf_set(" ".join(map(str, range(16))) + "\n0 0 0 0 0 0 0 0 "
                       "0 0 0 0 0 0 0 0\n")
    bad = list(range(16))
    bad[1], bad[2] = bad[2], bad[1]
    with pytest.raises(UnsolvableInstance) as info:
        parse_korf_set(" ".join(map(str, bad)))
    assert str(info.value) == ("line 1: unsolvable instance (inversion "
                               "parity 1 != blank parity 0)")


def test_parse_korf_set_accepts_comments_and_blanks():
    text = "# header\n\n" + " ".join(map(str, range(16))) + "  # goal\n"
    states = parse_korf_set(text)
    assert states == [(GOAL_TILES, 0)]


def test_puzzle_problem_optimal_costs():
    for depth, seed in ((6, 0), (10, 1), (14, 2)):
        problem = PuzzleProblem(scramble(depth, seed))
        cost = astar_cost(problem)
        assert cost is not None
        assert cost <= depth
        assert problem.initial_h() <= cost       # admissible at the root
        assert cost % 2 == problem.initial_h() % 2   # parity invariant


def test_puzzle_goal_properties():
    problem = PuzzleProblem((GOAL_TILES, 0))
    assert problem.is_goal(problem.initial_state())
    assert problem.initial_h() == 0


def test_puzzle_fixed_order_changes_child_order_only():
    # the domain expands in operator order; other orders are the
    # ordering policy's, and they change neither the children nor the cost
    state = scramble(18, 7)
    problem = PuzzleProblem(state)
    reverse = OrderPolicy.fixed((3, 2, 1, 0))
    children = _children(problem, state)
    assert [c[3] for c in children] == sorted(c[3] for c in children)
    # arrange takes the children as pushed and returns them stacked: the
    # last operator ends on top, to be popped first
    reordered = reverse.arrange(children[::-1], True)
    assert reordered == children
    assert serial_idastar(problem, reverse).cost == astar_cost(problem)


# ------------------------------------------------------ expand contract

def _check_expand_contract(problem, node):
    """expand at thresholds around node's f against one call that keeps
    every child.  expand returns GOAL exactly where is_goal holds, and a
    goal pushes and prunes nothing at every threshold.  At each
    threshold the class attribute, the path the benchmark's tracer
    wraps, pushes, prunes and returns what problem.expand does."""
    goal = problem.is_goal(node[0])
    every = []
    walked = problem.expand(node, sys.maxsize, every.append, None)
    assert (walked is GOAL) == goal
    assert len(walked) == len(every)
    ops = [child[3] for child in every]
    assert ops == sorted(ops, reverse=True)      # last operator first
    assert all(child[4] is node for child in every)
    f = node[1] + node[2]
    for threshold in range(f - 2, f + 4):
        pushed, pruned = [], []
        walked = problem.expand(node, threshold, pushed.append,
                                pruned.append)
        assert (walked is GOAL) == goal
        assert pushed == [c for c in every if c[1] + c[2] <= threshold]
        assert pruned == [c[1] + c[2] for c in every
                          if c[1] + c[2] > threshold]
        assert len(walked) == len(pushed) + len(pruned)
        assert expansion(class_expand(problem), node, threshold) \
            == (walked, goal, pushed, pruned)
    return every


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(0, 40), seed=st.integers(0, 10**6),
       data=st.data())
def test_puzzle_expand_keeps_the_contract(depth, seed, data):
    # nodes along a random walk from a scramble, reverse moves included
    # through the prev_op each child carries
    problem = PuzzleProblem(scramble(depth, seed))
    node = make_root(problem)
    for _ in range(data.draw(st.integers(0, 12))):
        children = _check_expand_contract(problem, node)
        if not children:
            return                      # the goal tiles: no children
        node = data.draw(st.sampled_from(children))
    _check_expand_contract(problem, node)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 8), b=st.integers(2, 5), g=st.floats(0.0, 1.0),
       herror=st.integers(0, 6), density=st.sampled_from((0.0, 1e-9, 1.0)),
       imbalance=st.sampled_from((0.0, 0.6)), seed=st.integers(0, 999),
       data=st.data())
def test_synthetic_expand_keeps_the_contract(d, b, g, herror, density,
                                             imbalance, seed, data):
    # nodes along a random walk from the root down to a leaf
    problem = ArtificialProblem(_spec(d=d, b=b, g=g, herror=herror,
                                      density=density, imbalance=imbalance,
                                      seed=seed))
    node = make_root(problem)
    while True:
        children = _check_expand_contract(problem, node)
        if not children:
            break
        node = data.draw(st.sampled_from(children))


@settings(max_examples=60, deadline=None)
@given(domain=st.sampled_from(("puzzle", "synthetic")),
       seed=st.integers(0, 999), data=st.data())
def test_every_operator_costs_one(domain, seed, data):
    # a profiling pass reads a pruned child's g and h from its f alone
    if domain == "puzzle":
        problem = PuzzleProblem(scramble(data.draw(st.integers(0, 40)),
                                         seed))
    else:
        problem = ArtificialProblem(_spec(
            d=data.draw(st.integers(1, 8)), b=data.draw(st.integers(2, 5)),
            g=data.draw(st.floats(0.0, 1.0)),
            herror=data.draw(st.integers(0, 6)),
            density=data.draw(st.sampled_from((0.0, 1e-9, 1.0))),
            seed=seed))
    node = make_root(problem)
    for _ in range(data.draw(st.integers(0, 12))):
        children = []
        problem.expand(node, sys.maxsize, children.append, None)
        assert all(child[1] == node[1] + 1 for child in children)
        if not children:
            break
        node = data.draw(st.sampled_from(children))
