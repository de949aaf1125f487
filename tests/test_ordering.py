"""Child ordering policies: rank tables, token round trips, learned
root scores."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from idastra.errors import EmptyTrace, InvalidConfig, MissingScores
from idastra.features import ShallowTrace
from idastra.ordering import OrderPolicy, toida_scores_from_trace

# children are (state, op, cost, h) quads
_KIDS = [("s0", 0, 1, 5), ("s1", 1, 1, 3), ("s2", 2, 1, 3), ("s3", 3, 1, 7)]


def _ops(arranged):
    return [c[1] for c in arranged]


def test_fixed_identity_preserves_input_order():
    policy = OrderPolicy.fixed()
    assert policy.is_identity()
    assert _ops(policy.arrange(_KIDS, True)) == [0, 1, 2, 3]


def test_fixed_permutation_ranks_operators():
    policy = OrderPolicy.fixed((3, 1, 0, 2))
    assert not policy.is_identity()
    assert _ops(policy.arrange(_KIDS, True)) == [3, 1, 0, 2]
    # unknown operators sort after ranked ones, by index
    extra = _KIDS + [("s9", 9, 1, 0)]
    assert _ops(policy.arrange(extra, True)) == [3, 1, 0, 2, 9]


def test_fixed_rank_table_keeps_the_sort_rule():
    # the rule: ranked operators by rank, then unranked ones by index
    lists = [_KIDS, _KIDS[::-1], _KIDS[1:3], [_KIDS[2], ("s9", 9, 1, 0),
                                              _KIDS[0], ("s5", 5, 1, 2)]]
    for perm in itertools.permutations(range(4)):
        policy = OrderPolicy.fixed(perm)
        for kids in lists:
            want = sorted(kids, key=lambda c: (
                perm.index(c[1]) if c[1] in perm else len(perm), c[1]))
            for at_root in (True, False):
                assert policy.arrange(kids, at_root) == want, (perm, kids)
        assert policy == OrderPolicy.fixed(perm)
        assert repr(policy) == f"OrderPolicy(kind='Fixed', " \
            f"permutation={perm!r}, scores=None)"


def test_fixed_explicit_identity_detected():
    assert OrderPolicy.fixed((0, 1, 2, 3)).is_identity()
    assert not OrderPolicy.local().is_identity()


def test_fixed_rejects_non_permutation():
    with pytest.raises(InvalidConfig):
        OrderPolicy.fixed((0, 0, 1))
    with pytest.raises(InvalidConfig):
        OrderPolicy.fixed((1, 2, 3))


def test_local_sorts_by_h_then_op():
    policy = OrderPolicy.local()
    assert _ops(policy.arrange(_KIDS, True)) == [1, 2, 0, 3]
    assert _ops(policy.arrange(_KIDS, False)) == [1, 2, 0, 3]


def test_toida_scores_apply_at_root_only():
    policy = OrderPolicy.toida({0: 9.0, 1: 2.0, 2: 11.0, 3: 1.0})
    assert _ops(policy.arrange(_KIDS, True)) == [3, 1, 0, 2]
    # below the root it behaves like Local
    assert _ops(policy.arrange(_KIDS, False)) == [1, 2, 0, 3]


def test_toida_unscored_children_go_last():
    policy = OrderPolicy.toida({1: 5.0})
    assert _ops(policy.arrange(_KIDS, True)) == [1, 0, 2, 3]


def test_toida_requires_scores():
    with pytest.raises(MissingScores):
        OrderPolicy.toida(None)
    with pytest.raises(MissingScores):
        OrderPolicy.from_token("Toida").arrange(_KIDS, True)


def test_token_round_trips():
    for policy in (OrderPolicy.fixed(), OrderPolicy.fixed((2, 0, 1, 3)),
                   OrderPolicy.local()):
        again = OrderPolicy.from_token(policy.token())
        assert again.kind == policy.kind
        assert again.permutation == policy.permutation
    toida = OrderPolicy.from_token("Toida")
    assert toida.kind == "Toida" and toida.scores is None
    assert OrderPolicy.toida({0: 1.0}).token() == "Toida"
    with pytest.raises(InvalidConfig):
        OrderPolicy.from_token("Sorted")
    with pytest.raises(InvalidConfig):
        OrderPolicy.from_token("Fixed:011")


@given(st.permutations(range(4)))
def test_fixed_token_round_trips_any_permutation(perm):
    policy = OrderPolicy.fixed(tuple(perm))
    assert OrderPolicy.from_token(policy.token()).permutation == tuple(perm)


def _trace(min_leaf_f):
    return ShallowTrace(iterations=[], root_h=0, root_children=len(min_leaf_f),
                        subtree_expanded={}, subtree_min_leaf_f=min_leaf_f,
                        subtree_min_leaf_h={}, min_leaf_f=None,
                        leaf_samples=[], total_expanded=0, total_generated=0,
                        fertile_expanded=0, truncated=False, goal_found=None)


def test_scores_from_trace_sorted_by_operator():
    scores = toida_scores_from_trace(_trace({2: 7, 0: 9, 1: 4}))
    assert list(scores.items()) == [(0, 9), (1, 4), (2, 7)]


def test_scores_from_empty_trace_rejected():
    with pytest.raises(EmptyTrace):
        toida_scores_from_trace(_trace({}))


def test_trace_scores_steer_search_toward_best_subtree():
    scores = toida_scores_from_trace(_trace({0: 12, 1: 6, 2: 9}))
    policy = OrderPolicy.toida(scores)
    kids = [("a", 0, 1, 1), ("b", 1, 1, 1), ("c", 2, 1, 1)]
    assert _ops(policy.arrange(kids, True)) == [1, 2, 0]
