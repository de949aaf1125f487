"""Report-digest gate: one sha256 over the reprs of a matrix of sim runs.

The deterministic simulator is the reference, so an engine or kernel
change that is meant to leave behaviour alone must leave every report
byte-identical.  This test runs a fixed matrix of sim runs on synthetic
trees at densities 0, 1e-9, 0.05 and 1.0 and on a few puzzle scrambles,
under both distributions, P 4/8/16, clusters 1/2/4/16 up to P (P
clusters at P 4 and 16 are one-member clusters), latency 0/1/3, both
pollings and Fixed and Local ordering.  Every run must return the serial
cost and balance its donation tokens, and the sha256 over all report
reprs must equal DIGEST.

tests/data/sim_digest.txt holds each run's label and a short digest of
its repr, so that a moved digest names the first run that changed.  A
change that alters reports on purpose re-pins both by running

    PYTHONPATH=src python tests/test_sim_digest.py

and says in CHANGES.md why the reports moved.
"""

import hashlib
import os
from itertools import product

from idastra.core import serial_idastar
from idastra.domains.puzzle import PuzzleProblem, scramble
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec
from idastra.engine import StrategyConfig, run_sim
from idastra.ordering import OrderPolicy

DIGEST = "101d7f397821de55b430536f8b324fec23146d931118ebb49feafbc6ac1c1346"

_RUNS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "data", "sim_digest.txt")

# synthetic trees as (d, g, b, imbalance, density, herror, seed) and
# puzzle scrambles as (depth, seed); (14, 46) is the scramble on which a
# deeper window once found a costlier goal
_SYNTHETIC = (
    (7, 0.9, 3, 0.3, 0.0, 9, 2),
    (8, 0.3, 2, 0.0, 0.0, 8, 11),
    (7, 0.2, 3, 0.6, 1e-9, 4, 3),
    (6, 0.7, 3, 0.0, 1e-9, 5, 4),
    (7, 0.6, 3, 0.3, 1e-9, 5, 14),
    (7, 0.6, 3, 0.3, 0.05, 8, 5),
    (6, 0.5, 4, 0.0, 0.05, 5, 9),
    (7, 0.8, 3, 0.0, 1.0, 6, 7),
    (6, 0.3, 3, 0.0, 1.0, 9, 13),
)
_SCRAMBLES = ((20, 5), (24, 3), (14, 46))
_INSTANCES = tuple(
    (f"syn d{d} g{g} b{b} imb{imbalance} den{density} herr{herror} "
     f"s{seed}",
     ArtificialSpec(d=d, g=g, b=b, imbalance=imbalance, density=density,
                    herror=herror, seed=seed))
    for d, g, b, imbalance, density, herror, seed in _SYNTHETIC) + tuple(
    (f"puzzle {depth}/{seed}", (depth, seed)) for depth, seed in _SCRAMBLES)

# (workers, clusters) pairs: clusters 1/2/4/16 up to P
_SHAPES = tuple((p, c) for p in (4, 8, 16) for c in (1, 2, 4, 16) if c <= p)
# polling and ordering pairs, alternated by instance so that each
# instance runs both pollings and both orderings
_POLL_ORDER = ((("Neighbor", "Fixed"), ("Random", "Local")),
               (("Neighbor", "Local"), ("Random", "Fixed")))


def _problem(source):
    if isinstance(source, ArtificialSpec):
        return ArtificialProblem(source)
    return PuzzleProblem(scramble(*source))


def _matrix():
    """Yield (label, problem, config, workers, latency, seed, serial) per
    run."""
    n = 0
    for k, (name, source) in enumerate(_INSTANCES):
        problem = _problem(source)
        serial = {}
        for distribution, (workers, clusters), latency, (polling, order) \
                in product(("BreadthFirst", "KumarRao"), _SHAPES, (0, 1, 3),
                           _POLL_ORDER[k % 2]):
            ordering = (OrderPolicy.fixed() if order == "Fixed"
                        else OrderPolicy.local())
            if order not in serial:
                serial[order] = serial_idastar(
                    problem, order=None if order == "Fixed" else ordering)
            config = StrategyConfig(distribution=distribution,
                                    clusters=clusters, polling=polling,
                                    ordering=ordering)
            seed = n % 7
            n += 1
            label = (f"{name} | P{workers} latency {latency} seed {seed} "
                     f"{config.token()}")
            yield (label, problem, config, workers, latency, seed,
                   serial[order])


def _run_matrix():
    """Run the matrix; return (total sha256, [(label, short digest)])."""
    total = hashlib.sha256()
    runs = []
    for label, problem, config, workers, latency, seed, serial \
            in _matrix():
        report = run_sim(problem, config, workers, latency=latency,
                         seed=seed, serial_outcome=serial)
        assert report.solution_cost == serial.cost, label
        assert report.tokens_balanced, label
        text = repr(report).encode()
        total.update(text)
        runs.append((label, hashlib.sha256(text).hexdigest()[:16]))
    return total.hexdigest(), runs


def _read_runs():
    with open(_RUNS_FILE) as fh:
        return [tuple(line.rstrip("\n").rsplit(" = ", 1)) for line in fh]


def test_sim_report_digest_matches_pin():
    digest, runs = _run_matrix()
    pinned = _read_runs()
    moved = next((f"{label}: {short} (pinned {want})"
                  for (label, short), (_, want) in zip(runs, pinned)
                  if short != want), None)
    assert moved is None, f"first moved run: {moved}"
    assert [label for label, _ in runs] == [label for label, _ in pinned]
    assert digest == DIGEST


if __name__ == "__main__":
    digest, runs = _run_matrix()
    with open(_RUNS_FILE, "w") as fh:
        fh.writelines(f"{label} = {short}\n" for label, short in runs)
    print(f"{len(runs)} runs; DIGEST = {digest!r}")
