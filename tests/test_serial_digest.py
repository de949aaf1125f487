"""Serial digest gate: one sha256 over the results of the serial search.

Every speedup is measured against serial IDA*, and the profiling
features are read from budgeted serial passes, so a change to the
cost-bounded pass that is meant to leave behaviour alone must leave
every serial result byte-identical.  This test runs puzzle scrambles and
synthetic trees at densities 0, 1e-9, 0.05 and 1.0 under the Fixed,
Fixed:3210, Local and Toida orderings, and hashes:

- the serial_idastar outcome;
- cost_bounded_dfs PassResults just below the root's f, at it and at
  the goal's threshold, without a budget and at budgets that truncate the pass,
  with and without collect_stats;
- shallow_search traces at four budgets, with their extract_features
  vectors.

The sha256 over all of them must equal DIGEST.  tests/data/serial_digest.txt
holds each case's label and a short digest, so that a moved digest names
the first case that changed.  A change that alters serial results on
purpose re-pins both by running

    PYTHONPATH=src python tests/test_serial_digest.py

and says in CHANGES.md why the results moved.
"""

import hashlib
import os

from idastra.core import cost_bounded_dfs, make_root, serial_idastar
from idastra.domains.puzzle import PuzzleProblem, scramble
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec
from idastra.features import extract_features, shallow_search
from idastra.ordering import OrderPolicy, toida_scores_from_trace

DIGEST = "e567566f1657566dbe9ede19ba8fe08fd93d3195b703b77bcc1e9aae2b9b2e4e"

_CASES_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "data", "serial_digest.txt")

# synthetic trees as (d, g, b, imbalance, density, herror, seed) and
# puzzle scrambles as (depth, seed); (30, 12) has its blank in a corner
_SYNTHETIC = (
    (7, 0.9, 3, 0.3, 0.0, 9, 2),
    (8, 0.3, 2, 0.0, 0.0, 8, 11),
    (7, 0.2, 3, 0.6, 1e-9, 4, 3),
    (7, 0.6, 3, 0.3, 0.05, 8, 5),
    (6, 0.5, 4, 0.0, 0.05, 5, 9),
    (7, 0.8, 3, 0.0, 1.0, 6, 7),
)
_SCRAMBLES = ((20, 5), (24, 3), (14, 46), (30, 12), (34, 2), (40, 3))
_INSTANCES = tuple(
    (f"syn d{d} g{g} b{b} imb{imbalance} den{density} herr{herror} "
     f"s{seed}",
     ArtificialSpec(d=d, g=g, b=b, imbalance=imbalance, density=density,
                    herror=herror, seed=seed))
    for d, g, b, imbalance, density, herror, seed in _SYNTHETIC) + tuple(
    (f"puzzle {depth}/{seed}", (depth, seed)) for depth, seed in _SCRAMBLES)

_ORDERS = ("Fixed", "Fixed:3210", "Local", "Toida")
# cost_bounded_dfs budgets: None, stops right after the root, and a
# share of the unbudgeted pass's expansions
_SHARES = (None, 1, 2, 0.25, 0.5, 0.9)
_PROFILE_BUDGETS = (1, 50, 3000, 20000)
_TOIDA_BUDGET = 500


def _problem(source):
    if isinstance(source, ArtificialSpec):
        return ArtificialProblem(source)
    return PuzzleProblem(scramble(*source))


def _order(problem, token):
    order = OrderPolicy.from_token(token)
    if token == "Toida":
        trace = shallow_search(problem, _TOIDA_BUDGET)
        order = OrderPolicy.toida(toida_scores_from_trace(trace))
    return order


def _pass_text(p):
    """A PassResult's fields, its statistics' fields spelled out."""
    s = p.stats
    stats = None if s is None else (
        s.subtree_expanded, s.subtree_min_leaf_f, s.subtree_min_leaf_h,
        s.min_leaf_f, s.fertile_expanded, s.root_ops)
    return repr((p.threshold, p.solution, p.min_exceeding_f,
                 p.nodes_expanded, p.nodes_generated, p.truncated, stats))


def _cases():
    """Yield (label, text) per case."""
    for name, source in _INSTANCES:
        problem = _problem(source)
        root = make_root(problem)
        for token in _ORDERS:
            order = _order(problem, token)
            outcome = serial_idastar(problem, order)
            yield f"{name} | {token} | serial", repr(outcome)
            first = outcome.iterations[0][0]
            # below the root's f the pass expands nothing
            for threshold in sorted({first - 1, first,
                                     outcome.iterations[-1][0]}):
                full = cost_bounded_dfs(problem, root, threshold, order)
                for share in _SHARES:
                    budget = (share if share is None or share >= 1
                              else max(1, int(share * full.nodes_expanded)))
                    for stats in (False, True):
                        res = cost_bounded_dfs(problem, root, threshold,
                                               order, budget, stats)
                        yield (f"{name} | {token} | pass {threshold} "
                               f"budget {budget} stats {stats}",
                               _pass_text(res))
            for budget in _PROFILE_BUDGETS:
                trace = shallow_search(problem, budget, order)
                yield (f"{name} | {token} | profile {budget}",
                       repr((trace, extract_features(trace))))


def _run_cases():
    """Run every case; return (total sha256, [(label, short digest)])."""
    total = hashlib.sha256()
    cases = []
    for label, text in _cases():
        data = text.encode()
        total.update(data)
        cases.append((label, hashlib.sha256(data).hexdigest()[:16]))
    return total.hexdigest(), cases


def _read_cases():
    with open(_CASES_FILE) as fh:
        return [tuple(line.rstrip("\n").rsplit(" = ", 1)) for line in fh]


def test_serial_digest_matches_pin(synthetic_kernels):
    # the same pin on every synthetic kernel
    for kernel in synthetic_kernels():
        digest, cases = _run_cases()
        pinned = _read_cases()
        moved = next((f"{label}: {short} (pinned {want})"
                      for (label, short), (_, want) in zip(cases, pinned)
                      if short != want), None)
        assert moved is None, f"{kernel}: first moved case: {moved}"
        assert [label for label, _ in cases] == [label for label, _ in pinned]
        assert digest == DIGEST


if __name__ == "__main__":
    digest, cases = _run_cases()
    with open(_CASES_FILE, "w") as fh:
        fh.writelines(f"{label} = {short}\n" for label, short in cases)
    print(f"{len(cases)} cases; DIGEST = {digest!r}")
