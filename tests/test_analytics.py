"""Closed-form speedup models against an exact rational oracle and
hand-derived anchors."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idastra.analytics import (MAX_P, MAX_POWER_BITS, curve_table,
                               dts_asymptote, dts_speedup_eq1,
                               fig6_crossover, pws_speedup_eq2,
                               simulate_ideal_dts)
from idastra.errors import DomainError
from oracles import eq1_brute, ideal_dts_reference


def test_eq1_hand_anchor():
    # P=1, b=2, d=2, x=1: 1 * (2+4)/4 + 1/4 = 1.75
    assert dts_speedup_eq1(1, 2, 2, 1) == pytest.approx(1.75)


def test_eq1_matches_brute_force_enumeration():
    for P, b, d, x in ((1, 2, 5, 0), (2, 2, 8, 1), (4, 2, 12, 2),
                       (10, 3, 30, 3), (10, 3, 60, 3), (7, 4, 20, 2)):
        want = eq1_brute(P, b, d, x)
        assert dts_speedup_eq1(P, b, d, x) \
            == pytest.approx(float(want), rel=1e-9), (P, b, d, x)


def test_eq1_equals_the_exact_formula_at_every_depth():
    # the curves command's default grid, 4:30:1 at P=10, b=6, x=3
    for d in range(4, 31):
        assert dts_speedup_eq1(10, 6, d, 3) == eq1_brute(10, 6, d, 3), d
    # past the depth where the exact sum stops: the last P puts the
    # asymptote P + 2^-27 on a rounding midpoint, so only the exact
    # finite-d term rounds it the right way
    for P, b, x in ((10, 6, 3), (1, 2, 0), (4, 2, 2), (1000, 3, 7),
                    (2 ** 26, 2, 26)):
        for d in range(x + 1, 2 * x + 120 + P.bit_length(), 3):
            assert dts_speedup_eq1(P, b, d, x) == eq1_brute(P, b, d, x), \
                (P, b, d, x)
    assert dts_speedup_eq1(2 ** 26, 2, 10 ** 20, 26) \
        == eq1_brute(2 ** 26, 2, 500, 26) > dts_asymptote(2 ** 26, 2, 26)
    assert dts_speedup_eq1(10, 6, 10 ** 20, 3) == dts_asymptote(10, 6, 3)


def test_eq1_converges_to_asymptote():
    limit = dts_asymptote(10, 3, 3)
    assert limit == pytest.approx(10 + 1 / 54)
    for d in (30, 40, 60):
        value = dts_speedup_eq1(10, 3, d, 3)
        assert abs(value - limit) / limit < 0.01, d
    # convergence is monotone towards the limit
    v30, v40 = dts_speedup_eq1(10, 3, 30, 3), dts_speedup_eq1(10, 3, 40, 3)
    assert abs(v40 - limit) < abs(v30 - limit)


def test_eq1_domain_errors():
    with pytest.raises(DomainError):
        dts_speedup_eq1(10, 3, 3, 3)       # x must stay below d
    with pytest.raises(DomainError):
        dts_speedup_eq1(0, 3, 10, 3)
    with pytest.raises(DomainError):
        dts_speedup_eq1(10, 1, 10, 3)
    with pytest.raises(DomainError):
        dts_speedup_eq1(10, 3, 10, -1)
    with pytest.raises(DomainError):
        dts_speedup_eq1(10, 2, 10, 3)      # b^x < P starves processors


def test_eq2_hand_anchors():
    assert pws_speedup_eq2(1.0, 2) == pytest.approx(2.0)
    assert pws_speedup_eq2(0.5, 6) == pytest.approx(1.4)
    assert pws_speedup_eq2(1.0, 6) == pytest.approx(1.2)


def test_eq2_strictly_monotone():
    values = [pws_speedup_eq2(a / 100, 6) for a in range(1, 101)]
    assert all(x > y for x, y in zip(values, values[1:]))
    values_b = [pws_speedup_eq2(0.5, b) for b in range(2, 9)]
    assert all(x > y for x, y in zip(values_b, values_b[1:]))


def test_eq2_domain_errors():
    with pytest.raises(DomainError):
        pws_speedup_eq2(0.0, 6)
    with pytest.raises(DomainError):
        pws_speedup_eq2(1.1, 6)
    with pytest.raises(DomainError):
        pws_speedup_eq2(0.5, 1)


def test_ideal_dts_single_processor_is_exactly_one():
    for a in (0.0, 0.1, 0.37, 0.5, 1.0):
        for d in (1, 3, 8):
            assert simulate_ideal_dts(1, 3, d, a) == 1.0, (a, d)


def test_ideal_dts_leftmost_goal_gives_p():
    # goal at position 0: every early iteration still costs a barrier,
    # but the goal iteration is free for the owner
    assert simulate_ideal_dts(4, 3, 6, 0.0) == pytest.approx(4.0)
    assert simulate_ideal_dts(16, 2, 10, 0.0) == pytest.approx(16.0)


def test_ideal_dts_boundary_local_maxima():
    # the curve peaks exactly where a processor's interval starts
    P, b, d = 10, 6, 10
    eps = 0.004
    for i in range(1, P):
        at = simulate_ideal_dts(P, b, d, Fraction(i, P))
        before = simulate_ideal_dts(P, b, d, Fraction(i, P) - eps)
        after = simulate_ideal_dts(P, b, d, Fraction(i, P) + eps)
        assert at > before and at > after, i


def test_ideal_dts_superlinear_at_interval_starts():
    # just past a boundary the owner finds the goal almost instantly
    # while serial still pays for everything to its left
    value = simulate_ideal_dts(10, 6, 10, Fraction(9, 10))
    assert value > 10.0
    # at depth 1 the owner of a left edge finds the goal with no work
    assert simulate_ideal_dts(5, 2, 1, Fraction(1, 5)) == float("inf")
    assert simulate_ideal_dts(5, 2, 1, Fraction(11, 50)) == 11.0


def test_ideal_dts_rightmost_goal_near_p():
    # goal at 1.0: all intervals fully searched, barrier overhead only
    value = simulate_ideal_dts(10, 6, 10, 1.0)
    assert value == pytest.approx(10.0, rel=0.01)


def test_ideal_dts_imbalanced_shares():
    # exponential shares slow the barrier down to the largest share, so
    # a goal inside the first processor's oversized interval pays for
    # the imbalance on every iteration
    for a in (0.1, 0.2, 0.4):
        balanced = simulate_ideal_dts(4, 3, 8, a)
        skewed = simulate_ideal_dts(4, 3, 8, a,
                                    balance="ExponentialImbalance",
                                    ratio=0.5)
        assert skewed < balanced, a
    with pytest.raises(DomainError):
        simulate_ideal_dts(4, 3, 8, 0.5, balance="ExponentialImbalance",
                           ratio=1.5)
    with pytest.raises(DomainError):
        simulate_ideal_dts(4, 3, 8, 0.5, balance="Tilted")


def test_ideal_dts_domain_errors():
    with pytest.raises(DomainError):
        simulate_ideal_dts(0, 3, 5, 0.5)
    with pytest.raises(DomainError):
        simulate_ideal_dts(4, 1, 5, 0.5)
    with pytest.raises(DomainError):
        simulate_ideal_dts(4, 3, 0, 0.5)
    with pytest.raises(DomainError):
        simulate_ideal_dts(4, 3, 5, 1.5)


@settings(max_examples=60, deadline=None)
@given(P=st.integers(1, 12), b=st.integers(2, 6), d=st.integers(1, 10),
       num=st.integers(0, 49))
@example(P=5, b=2, d=1, num=10)
def test_ideal_dts_balanced_shape(P, b, d, num):
    a = Fraction(num, 50)
    value = simulate_ideal_dts(P, b, d, a)
    # balanced shares never lose to serial
    assert value >= 1.0 or value == pytest.approx(1.0)
    # within one owner's interval the speedup only falls as the goal
    # moves right (the peak sits at the interval's left edge)
    nxt = a + Fraction(1, 50)
    if int(a * P) == int(nxt * P) and nxt < 1:
        assert simulate_ideal_dts(P, b, d, nxt) <= value + 1e-9


@settings(max_examples=200, deadline=None)
@given(P=st.integers(1, 40), b=st.integers(2, 7), d=st.integers(1, 12),
       den=st.sampled_from([1, 3, 7, 50, 100, 7 * 40]),
       num=st.integers(0, 280),
       ratio=st.sampled_from([None, 0.5, 0.1, 0.9, 0.999, 1e-5, 1 / 3]))
@example(P=4, b=3, d=1, den=4, num=1, ratio=None)
@example(P=3, b=2, d=1, den=1, num=1, ratio=0.5)
@example(P=3, b=3, d=3, den=7, num=4, ratio=0.5)  # an imbalanced edge
def test_ideal_dts_equals_the_literal_sums(P, b, d, den, num, ratio):
    # the closed-form level sum and the owner found in one step or by
    # bisection give the same exact rational as summing every level and
    # walking every processor's interval, so the same float
    a = Fraction(min(num, den), den)
    balance = "Balanced" if ratio is None else "ExponentialImbalance"
    assert simulate_ideal_dts(P, b, d, a, balance, ratio or 0.5) \
        == ideal_dts_reference(P, b, d, a, ratio)


def test_model_parameters_are_bounded():
    # the largest accepted values finish; one past each is a DomainError
    d = MAX_POWER_BITS // 2 - 1                 # b = 2: 2 bits per level
    assert simulate_ideal_dts(MAX_P, 2, d, Fraction(1, 3)) > 1
    assert simulate_ideal_dts(MAX_POWER_BITS // 2, 3, 8, Fraction(1, 3),
                              "ExponentialImbalance", 0.5) > 1
    assert dts_speedup_eq1(MAX_P, 2, 10 ** 20, 27) \
        == dts_asymptote(MAX_P, 2, 27)
    for call in (lambda: simulate_ideal_dts(MAX_P + 1, 2, 5, 0.5),
                 lambda: simulate_ideal_dts(10, 2, d + 1, 0.5),
                 lambda: simulate_ideal_dts(MAX_POWER_BITS // 2 + 1, 3, 8,
                                            0.5, "ExponentialImbalance",
                                            0.5),
                 lambda: simulate_ideal_dts(4, 3, 8, 0.5,
                                            "ExponentialImbalance",
                                            float("nan")),
                 lambda: dts_speedup_eq1(10, 6, 10 ** 20, 10 ** 12),
                 lambda: dts_speedup_eq1(10, 6, 4, 10 ** 12)):
        with pytest.raises(DomainError):
            call()


def test_fig6_crossover_is_a_tenth():
    assert fig6_crossover() == pytest.approx(0.10)
    # below the crossover the window search wins, above it the tree
    # search does
    assert simulate_ideal_dts(10, 6, 10, Fraction(9, 100)) \
        < pws_speedup_eq2(Fraction(9, 100), 6)
    assert simulate_ideal_dts(10, 6, 10, Fraction(11, 100)) \
        >= pws_speedup_eq2(Fraction(11, 100), 6)


def test_curve_table_eq1():
    header, rows = curve_table("eq1", [5, 10, 20], P=10, b=3, x=3)
    assert header == ["P", "b", "x", "d", "dts_eq1"]
    assert len(rows) == 3
    assert rows[0][3] == "5"
    assert float(rows[2][4]) == pytest.approx(dts_speedup_eq1(10, 3, 20, 3),
                                              rel=1e-5)


def test_curve_table_fig6_shapes():
    grid = [Fraction(i, 100) for i in range(101)]
    header, rows = curve_table("fig6", grid)
    assert header == ["goal_pos", "P", "b", "d", "dts_sim", "pws_eq2",
                      "superlinear"]
    assert len(rows) == 101
    assert rows[0][5] == "inf"             # window speedup blows up at 0
    assert rows[0][4] == "10"              # and DTS sits at exactly P
    assert {row[6] for row in rows} == {"0", "1"}


def test_curve_table_formatting_and_errors():
    header, rows = curve_table("eq2", [Fraction(1, 3)], b=6)
    assert rows[0][0] == "0.333333"        # six significant digits
    with pytest.raises(DomainError):
        curve_table("fig7", [0.5])
    assert curve_table("fig5", [])[1] == []
    # eq2's value at a tiny goal position overflows a float
    with pytest.raises(DomainError, match="grid value 2 is out of float"):
        curve_table("eq2", [Fraction(1, 2), Fraction(1, 10 ** 400)])
