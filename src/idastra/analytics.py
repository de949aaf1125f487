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

# the processor count: no model's work grows with P beyond its bit
# length (the simulator finds the goal's owner in one step, or by
# bisection), so the bound is only a machine size, 2^26 processors, far
# above any machine the models are read for
MAX_P = 2 ** 26
# the bit size of any exact power a model takes (b^(d+1), which bounds
# b^x too, and ratio^P): b^e has fewer than e * b.bit_length() bits.
# The rationals a model reduces are about this size, and reducing one
# takes time quadratic in it; at this bound fig5 and fig6 finish on
# their 101-point default grids within 2 s (b = 2 at the largest d,
# with ratio 0.1 at the largest P; 2-core VM, Python 3.11)
MAX_POWER_BITS = 2 ** 16


def _check_params(P, b, d, x=None, ratio=None):
    """Check the parameters a model takes: d is the depth of the deepest
    level it sums (it takes b^(d+1)), x the distribution depth (it needs
    b^x >= P) and ratio the exponential imbalance ratio (it takes
    ratio^P); None means the model does not take one."""
    if not 1 <= P <= MAX_P:
        raise DomainError(f"P must be in [1, {MAX_P}], got {P}")
    if b < 2:
        raise DomainError(f"b must be >= 2, got {b}")
    if x is not None:
        if x < 0:
            raise DomainError(f"x must be >= 0, got {x}")
        # b^x >= 2^(x * (b.bit_length() - 1)), so only a small x can
        # leave b^x below P
        if x * (b.bit_length() - 1) < P.bit_length() and b ** x < P:
            raise DomainError(f"need b^x >= P, got {b}^{x} < {P}")
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if (d + 1) * b.bit_length() > MAX_POWER_BITS:
        raise DomainError(f"b^(d+1) = {b}^{d + 1} is over the "
                          f"{MAX_POWER_BITS}-bit bound on exact powers")
    if ratio is not None:
        if not 0 < ratio < 1:
            raise DomainError(f"imbalance ratio must be in (0, 1), "
                              f"got {ratio}")
        if P * Fraction(ratio).denominator.bit_length() > MAX_POWER_BITS:
            raise DomainError(f"ratio^P = {ratio}^{P} is over the "
                              f"{MAX_POWER_BITS}-bit bound on exact powers")


def _geom(b, lo, hi):
    """Sum of b^i for i in lo..hi inclusive, exactly."""
    if lo > hi:
        return 0
    return (b ** (hi + 1) - b ** lo) // (b - 1)


def dts_speedup_eq1(P, b, d, x):
    """Distributed tree search speedup on a uniform tree: P times the
    ratio of the full serial cost to the cost below the distribution
    depth x, plus the distribution overhead term 1/(2 b^x)."""
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
    _check_params(P, b, d, x)
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


def _owner(P, a, balance, ratio):
    """(largest share, left edge of the goal owner's interval) for goal
    position a.  Processor i owns a contiguous share of the leaf
    interval, in proportion to 1 (Balanced) or ratio^i
    (ExponentialImbalance); the intervals are half-open, the last one
    closed."""
    if balance == "Balanced":
        return Fraction(1, P), Fraction(min(int(a * P), P - 1), P)
    # the shares of processors 0..k-1 sum to (1 - r^k) / (1 - r^P), which
    # grows with k; the owner is the last k at which that sum is <= a
    r = Fraction(ratio)
    whole = 1 - r ** P
    lo, hi = 0, P - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if 1 - r ** mid <= a * whole:
            lo = mid
        else:
            hi = mid - 1
    return (1 - r) / whole, (1 - r ** lo) / whole


def simulate_ideal_dts(P, b, d, goal_pos, balance="Balanced", ratio=0.5):
    """Node-count speedup of idealized DTS for one goal position.

    Processor i owns a contiguous leaf-interval share; iterations
    1..d-1 cost each processor share * C_j with a barrier after each;
    in the goal iteration the owner expands only up to the goal.  Exact
    rational arithmetic keeps boundary positions (goal_pos = i/P) sharp:
    the owner of the goal stops immediately there, which is where the
    curve peaks.
    """
    if balance not in ("Balanced", "ExponentialImbalance"):
        raise DomainError(f"unknown balance profile {balance!r}")
    _check_params(P, b, d, ratio=None if balance == "Balanced" else ratio)
    a = Fraction(goal_pos)
    if not 0 <= a <= 1:
        raise DomainError(f"goal_pos must be in [0, 1], got {goal_pos}")
    # C_j = b + ... + b^j nodes in iteration j; the goal iteration costs
    # C_d and the earlier ones sum to (b^2 + ... + b^d - (d-1) b) / (b-1)
    last = _geom(b, 1, d)
    before = (_geom(b, 2, d) - (d - 1) * b) // (b - 1)
    serial = before + a * last
    if serial == 0:
        return 1.0
    max_share, owner_left = _owner(P, a, balance, ratio)
    parallel = max_share * before + (a - owner_left) * last
    if parallel == 0:
        # d = 1 with the goal on its owner's left edge: the owner finds
        # it at once, so the speedup is unbounded
        return float("inf")
    return float(serial / parallel)


def fmt(value):
    """A number as every table and report prints it: 6 significant
    digits.  A value past a float's range raises OverflowError."""
    return f"{float(value):.6g}"


# each model and the parameters its table prints on every row
_MODELS = {"eq1": ("P", "b", "x"), "eq2": ("b",), "fig5": ("P", "b", "d"),
           "fig6": ("P", "b", "d")}


def curve_table(model, grid, P=10, b=6, d=10, x=3, balance="Balanced",
                ratio=0.5):
    """Tabulate a model over a parameter grid.

    model: eq1 sweeps d; eq2 sweeps goal position a; fig5 sweeps
    goal_pos through the ideal DTS simulator; fig6 sweeps goal_pos
    through both the simulator and Eq. 2.  Returns (header, rows) with
    every value formatted to 6 significant digits.  A printed parameter,
    a grid value, or a model's value at it, outside a float's range is a
    DomainError.
    """
    if model not in _MODELS:
        raise DomainError(f"unknown model {model!r}; "
                          f"pick one of {tuple(_MODELS)}")
    params = {"P": P, "b": b, "d": d, "x": x}
    shown = {}
    for name in _MODELS[model]:
        try:
            shown[name] = fmt(params[name])
        except OverflowError:
            raise DomainError(f"{model}: {name} is out of float "
                              "range") from None
    rows = []
    try:
        if model == "eq1":
            header = ["P", "b", "x", "d", "dts_eq1"]
            for dv in grid:
                if dv != int(dv):
                    raise DomainError(f"eq1 depth d must be an integer, "
                                      f"got {fmt(dv)}")
                rows.append([shown["P"], shown["b"], shown["x"], fmt(dv),
                             fmt(dts_speedup_eq1(P, b, int(dv), x))])
        elif model == "eq2":
            header = ["a", "b", "pws_eq2"]
            for a in grid:
                rows.append([fmt(a), shown["b"],
                             fmt(pws_speedup_eq2(a, b))])
        elif model == "fig5":
            header = ["goal_pos", "P", "b", "d", "dts_sim", "superlinear"]
            for a in grid:
                s = simulate_ideal_dts(P, b, d, a, balance, ratio)
                rows.append([fmt(a), shown["P"], shown["b"], shown["d"],
                             fmt(s), "1" if s > P else "0"])
        else:
            header = ["goal_pos", "P", "b", "d", "dts_sim", "pws_eq2",
                      "superlinear"]
            for a in grid:
                s = simulate_ideal_dts(P, b, d, a, balance, ratio)
                pws = float("inf") if a == 0 else pws_speedup_eq2(a, b)
                rows.append([fmt(a), shown["P"], shown["b"], shown["d"],
                             fmt(s), fmt(pws), "1" if s > P else "0"])
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
