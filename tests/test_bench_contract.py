"""The benchmark's lookup contract: every function perfbench/tracing.py
wraps is bound where its Recorder patches it.  A domain's expand is a
descriptor in its class's __dict__ (idastra._backend.KernelExpand): a
search reads problem.expand once per pass, or once per sim run, and that
read looks the kernel up on idastra._backend.kernels.  So a wrapper set
on the kernels, or on the class attribute, before a serial search or a
sim run counts every expansion of it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from idastra import _backend, core
from idastra.core import serial_idastar
from idastra.engine import DEFAULT_CONFIG, sim
from idastra.domains.puzzle import PuzzleProblem, scramble
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_is_bound_where_it_is_patched(tracing):
    for label, sites in tracing.COARSE_SITES.items():
        for modname, attr in sites:
            module = importlib.import_module(modname)
            assert callable(module.__dict__.get(attr)), (label, modname, attr)
    for label, modname, cls, attr, _count in tracing.HOT_SITES:
        owner = getattr(importlib.import_module(modname), cls)
        assert callable(owner.__dict__.get(attr)), (label, cls, attr)
    for name in tracing.KERNEL_CALLS:
        assert callable(_backend.kernels.__dict__.get(name)), name


def test_kernel_wrapper_counts_every_expansion(monkeypatch):
    calls = []
    original = _backend.kernels.puzzle_expand

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_backend.kernels, "puzzle_expand", counting)
    problem = PuzzleProblem(scramble(20, 1))
    out = serial_idastar(problem)
    # every expansion reaches expand, the goal's included
    assert len(calls) == out.total_expanded > 0
    calls.clear()
    report = sim.run_sim(problem, DEFAULT_CONFIG, 4, serial_outcome=out)
    assert len(calls) == report.total_expanded > 0


def test_kernel_wrapper_counts_every_synthetic_expansion(monkeypatch):
    # one synthetic_expand call per expansion, so a benchmark that wraps
    # the kernel sees the synthetic domain's hashing
    calls = []
    original = _backend.kernels.synthetic_expand

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_backend.kernels, "synthetic_expand", counting)
    problem = ArtificialProblem(ArtificialSpec(
        d=6, g=0.6, b=3, imbalance=0.2, density=1e-9, herror=3, seed=4))
    out = serial_idastar(problem)
    assert len(calls) == out.total_expanded > 0
    calls.clear()
    report = sim.run_sim(problem, DEFAULT_CONFIG, 4, serial_outcome=out)
    assert len(calls) == report.total_expanded > 0


def _sim_round(tracing, problem):
    """One traced round around a sim run at P=4, given the serial
    baseline computed before the round: the round's hot totals, its span
    names and the run's report."""
    serial = serial_idastar(problem)
    with tracing.Recorder(True, 0) as rec:
        report = sim.run_sim(problem, DEFAULT_CONFIG, 4,
                             serial_outcome=serial)
    return rec.hot_totals(), [span.name for span in rec.spans], report


def test_recorder_round_counts_kernel_calls(tracing):
    problem = PuzzleProblem(scramble(20, 1))
    with tracing.Recorder(True, 0) as rec:
        out = core.serial_idastar(problem)
    hot = rec.hot_totals()
    assert hot["kernels.puzzle_expand"][0] == hot["domains.expand"][0] \
        == out.total_expanded
    # expand goal-tests its own node, so the search never calls is_goal
    assert "domains.is_goal" not in hot
    assert [span.name for span in rec.spans] == ["core.serial"]
    # leaving the round restores every original
    assert core.serial_idastar is serial_idastar
    assert not hasattr(_backend.kernels.puzzle_expand, "__wrapped__")
    # a sim run binds expand once, at its start, inside the round
    hot, spans, report = _sim_round(tracing, problem)
    assert hot["kernels.puzzle_expand"][0] == hot["domains.expand"][0] \
        == report.total_expanded > 0
    assert spans == ["engine.sim"]


def test_recorder_round_counts_synthetic_calls(tracing):
    problem = ArtificialProblem(ArtificialSpec(
        d=6, g=0.6, b=3, imbalance=0.2, density=1e-9, herror=3, seed=4))
    with tracing.Recorder(True, 0) as rec:
        out = core.serial_idastar(problem)
    hot = rec.hot_totals()
    assert hot["domains.expand"][0] == out.total_expanded > 0
    # expand goal-tests its own node, so the search never calls is_goal
    assert "domains.is_goal" not in hot
    assert [span.name for span in rec.spans] == ["core.serial"]
    hot, spans, report = _sim_round(tracing, problem)
    assert hot["domains.expand"][0] == report.total_expanded > 0
    assert spans == ["engine.sim"]
