"""Child ordering policies: rank tables, token round trips, learned
root scores.  arrange takes siblings as expand pushes them, last
operator first, and returns them in stack order, so the policy's first
child comes last."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idastra.core import serial_idastar
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec
from idastra.engine import DEFAULT_CONFIG, run_sim
from idastra.errors import EmptyTrace, InvalidConfig, MissingScores
from idastra.features import ShallowTrace, shallow_search
from idastra.ordering import OrderPolicy, toida_scores_from_trace

# children are (state, g, h, op, parent) search nodes, last operator
# first as expand pushes them
_KIDS = [("s3", 1, 7, 3, None), ("s2", 1, 3, 2, None), ("s1", 1, 3, 1, None),
         ("s0", 1, 5, 0, None)]


def _ops(stacked):
    """The operators of an arrangement in the order the search pops
    them: the stack's last child first."""
    return [c[3] for c in reversed(stacked)]


def test_fixed_identity_preserves_input_order():
    policy = OrderPolicy.fixed()
    assert policy.is_identity()
    assert _ops(policy.arrange(_KIDS, True)) == [0, 1, 2, 3]
    assert policy.arrange(_KIDS, True) is _KIDS


def test_fixed_permutation_ranks_operators():
    policy = OrderPolicy.fixed((3, 1, 0, 2))
    assert not policy.is_identity()
    assert _ops(policy.arrange(_KIDS, True)) == [3, 1, 0, 2]
    # unknown operators sort after ranked ones, by index
    extra = [("s9", 1, 0, 9, None)] + _KIDS
    assert _ops(policy.arrange(extra, True)) == [3, 1, 0, 2, 9]


def test_fixed_rank_table_keeps_the_sort_rule():
    # the rule: ranked operators by rank, then unranked ones by index
    lists = [_KIDS, _KIDS[::-1], _KIDS[1:3],
             [_KIDS[2], ("s9", 1, 0, 9, None), _KIDS[0],
              ("s5", 1, 2, 5, None)]]
    for perm in itertools.permutations(range(4)):
        policy = OrderPolicy.fixed(perm)
        for kids in lists:
            want = sorted(kids, key=lambda c: (
                perm.index(c[3]) if c[3] in perm else len(perm), c[3]))
            want.reverse()
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
    return ShallowTrace(iterations=[], root_h=0, root_ops=sorted(min_leaf_f),
                        subtree_expanded={}, subtree_min_leaf_f=min_leaf_f,
                        subtree_min_leaf_h={}, min_leaf_f=None,
                        total_expanded=0, total_generated=0,
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
    kids = [("c", 1, 1, 2, None), ("b", 1, 1, 1, None),
            ("a", 1, 1, 0, None)]
    assert _ops(policy.arrange(kids, True)) == [1, 2, 0]


# identity Fixed returns its input unchanged, so only it shows which way
# round the search hands children to arrange
_POLICIES = [OrderPolicy.fixed(), OrderPolicy.local(),
             OrderPolicy.toida({0: 9.0, 1: 2.0, 2: 2.0})] + [
    OrderPolicy.fixed(perm) for perm in itertools.permutations(range(4))]


@pytest.mark.parametrize("policy", _POLICIES, ids=OrderPolicy.token)
@settings(max_examples=30)
@given(at_root=st.booleans(), ops=st.sets(st.integers(0, 3)),
       hs=st.lists(st.integers(0, 4), min_size=4, max_size=4),
       threshold=st.integers(0, 6))
def test_arranging_kept_children_filters_the_full_arrangement(
        policy, at_root, ops, hs, threshold):
    # the search arranges only the children expand kept, which it gets
    # last operator first; stacked, they are the whole sibling list
    # arranged, less the pruned ones
    children = [("s%d" % op, 1, hs[op], op, None)
                for op in sorted(ops, reverse=True)]
    kept = [c for c in children if c[1] + c[2] <= threshold]
    # the search skips arrange for fewer than two children
    if len(kept) > 1:
        kept = policy.arrange(kept, at_root)
    want = [c for c in policy.arrange(children, at_root)
            if c[1] + c[2] <= threshold]
    assert kept == want
    if policy.is_identity():
        assert _ops(want) == sorted(_ops(want))


def test_search_loops_skip_identity_orders(monkeypatch):
    # callers pass config.ordering as it is; an identity Fixed keeps the
    # natural order, so every search loop skips arrange for it
    seen = []
    original = OrderPolicy.arrange

    def recording(self, children, at_root):
        seen.append(self.token())
        return original(self, children, at_root)

    monkeypatch.setattr(OrderPolicy, "arrange", recording)
    problem = ArtificialProblem(ArtificialSpec(d=4, g=0.5, b=3,
                                               imbalance=0.0, density=0.0,
                                               herror=2, seed=0))
    for token in ("Fixed", "Fixed:0123", "Fixed:1032"):
        order = OrderPolicy.from_token(token)
        serial_idastar(problem, order=order)
        shallow_search(problem, budget=50, order=order)
        run_sim(problem, DEFAULT_CONFIG.with_value("ordering", token), 4)
    assert set(seen) == {"Fixed:1032"}
