"""Closed-form speedup models and the idealized node-count simulator.

All arithmetic on geometric sums runs over exact rationals; only the
final result is floated.  The idealized distributed-tree-search model
charges iteration j the first j levels of a full b-ary tree, splits the
leaf interval across processors, and applies a barrier between
iterations; the goal's owner stops the run the moment it reaches the
goal inside the final iteration.
"""

from fractions import Fraction

from idastra.errors import DomainError


def _check_params(P, b, d, x):
    if P < 1:
        raise DomainError(f"P must be >= 1, got {P}")
    if b < 2:
        raise DomainError(f"b must be >= 2, got {b}")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    if b ** x < P:
        raise DomainError(f"need b^x >= P, got {b}^{x} < {P}")


def _geom(b, lo, hi):
    """Sum of b^i for i in lo..hi inclusive, exactly."""
    if lo > hi:
        return 0
    return (b ** (hi + 1) - b ** lo) // (b - 1)


def dts_speedup_eq1(P, b, d, x):
    """Distributed tree search speedup on a uniform tree: P times the
    ratio of the full serial cost to the cost below the distribution
    depth x, plus the distribution overhead term 1/(2 b^x)."""
    _check_params(P, b, d, x)
    if x >= d:
        raise DomainError(f"distribution depth x={x} must be < d={d}")
    # s = A + e, where A = P + 1/(2 b^x) is the large-d limit and
    # 0 <= e = P (1 - b^-x) / (b^(d-x) - 1) < 2^-54 / b^x once
    # d - x >= x + 55 + P.bit_length() (P an integer, as the CLI
    # passes).  A has denominator 2 b^x and every rounding midpoint at
    # or above A >= 1 one dividing 2^53, so a midpoint other than A lies
    # at least 2^-53 / b^x away: from that depth on s rounds to the same
    # float, and the exact sum stops there
    d = min(d, 2 * x + 55 + P.bit_length())
    s = (Fraction(P) * Fraction(_geom(b, 1, d), _geom(b, x + 1, d))
         + Fraction(1, 2 * b ** x))
    return float(s)


def dts_asymptote(P, b, x):
    """Large-d limit of dts_speedup_eq1."""
    _check_params(P, b, max(x + 1, 1), x)
    return float(P + Fraction(1, 2 * b ** x))


def pws_speedup_eq2(a, b):
    """Parallel window search speedup for goal position fraction a."""
    if a <= 0 or a > 1:
        raise DomainError(f"goal position a must be in (0, 1], got {a}")
    if b < 2:
        raise DomainError(f"b must be >= 2, got {b}")
    return float(1 + 1 / (Fraction(a) * (b - 1)))


def _shares(P, balance, ratio):
    if balance == "Balanced":
        return [Fraction(1, P)] * P
    if balance == "ExponentialImbalance":
        r = Fraction(ratio)
        if not 0 < r < 1:
            raise DomainError(f"imbalance ratio must be in (0, 1), got {ratio}")
        weights = [r ** i for i in range(P)]
        total = sum(weights)
        return [w / total for w in weights]
    raise DomainError(f"unknown balance profile {balance!r}")


def simulate_ideal_dts(P, b, d, goal_pos, balance="Balanced", ratio=0.5):
    """Node-count speedup of idealized DTS for one goal position.

    Processor i owns a contiguous leaf-interval share; iterations
    1..d-1 cost each processor share * C_j with a barrier after each;
    in the goal iteration the owner expands only up to the goal.  Exact
    rational arithmetic keeps boundary positions (goal_pos = i/P) sharp:
    the owner of the goal stops immediately there, which is where the
    curve peaks.
    """
    if P < 1:
        raise DomainError(f"P must be >= 1, got {P}")
    if b < 2:
        raise DomainError(f"b must be >= 2, got {b}")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    a = Fraction(goal_pos)
    if not 0 <= a <= 1:
        raise DomainError(f"goal_pos must be in [0, 1], got {goal_pos}")
    shares = _shares(P, balance, ratio)
    costs = [Fraction(_geom(b, 1, j)) for j in range(1, d + 1)]
    serial = sum(costs[:-1]) + a * costs[-1]
    if serial == 0:
        return 1.0
    # locate the goal's owner: half-open intervals, last one closed
    owner_left = 1 - shares[-1]
    acc = Fraction(0)
    for share in shares:
        if a < acc + share:
            owner_left = acc
            break
        acc += share
    max_share = max(shares)
    parallel = max_share * sum(costs[:-1]) + (a - owner_left) * costs[-1]
    if parallel == 0:
        # d = 1 with the goal on its owner's left edge: the owner finds
        # it at once, so the speedup is unbounded
        return float("inf")
    return float(serial / parallel)


_MODELS = ("eq1", "eq2", "fig5", "fig6")


def curve_table(model, grid, P=10, b=6, d=10, x=3, balance="Balanced",
                ratio=0.5):
    """Tabulate a model over a parameter grid.

    model: eq1 sweeps d; eq2 sweeps goal position a; fig5 sweeps
    goal_pos through the ideal DTS simulator; fig6 sweeps goal_pos
    through both the simulator and Eq. 2.  Returns (header, rows) with
    every value formatted to 6 significant digits.  A grid value, or a
    model's value at it, outside a float's range is a DomainError.
    """
    if model not in _MODELS:
        raise DomainError(f"unknown model {model!r}; pick one of {_MODELS}")

    def fmt(v):
        return f"{float(v):.6g}"

    rows = []
    try:
        if model == "eq1":
            header = ["P", "b", "x", "d", "dts_eq1"]
            for dv in grid:
                if dv != int(dv):
                    raise DomainError(f"eq1 depth d must be an integer, "
                                      f"got {fmt(dv)}")
                rows.append([fmt(P), fmt(b), fmt(x), fmt(dv),
                             fmt(dts_speedup_eq1(P, b, int(dv), x))])
        elif model == "eq2":
            header = ["a", "b", "pws_eq2"]
            for a in grid:
                rows.append([fmt(a), fmt(b), fmt(pws_speedup_eq2(a, b))])
        elif model == "fig5":
            header = ["goal_pos", "P", "b", "d", "dts_sim", "superlinear"]
            for a in grid:
                s = simulate_ideal_dts(P, b, d, a, balance, ratio)
                rows.append([fmt(a), fmt(P), fmt(b), fmt(d), fmt(s),
                             "1" if s > P else "0"])
        else:
            header = ["goal_pos", "P", "b", "d", "dts_sim", "pws_eq2",
                      "superlinear"]
            for a in grid:
                s = simulate_ideal_dts(P, b, d, a, balance, ratio)
                pws = float("inf") if a == 0 else pws_speedup_eq2(a, b)
                rows.append([fmt(a), fmt(P), fmt(b), fmt(d), fmt(s),
                             fmt(pws), "1" if s > P else "0"])
    except OverflowError as exc:
        # every earlier grid value made a row
        raise DomainError(f"{model}: grid value {len(rows) + 1} is out of "
                          f"float range: {exc}") from None
    return header, rows


def fig6_crossover(P=10, b=6, d=10, step=Fraction(1, 100)):
    """Smallest positive grid point where ideal DTS matches or beats
    PWS; below it the window search wins."""
    a = step
    while a <= 1:
        if simulate_ideal_dts(P, b, d, a) >= pws_speedup_eq2(a, b):
            return float(a)
        a += step
    return 1.0
