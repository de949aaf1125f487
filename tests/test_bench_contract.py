"""The benchmark's lookup contract: every function perfbench/tracing.py
wraps is bound where its Recorder patches it, and the kernels are looked
up at call time, so a wrapper on idastra._backend.kernels counts them."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from idastra import _backend, core
from idastra.core import serial_idastar
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
    out = serial_idastar(PuzzleProblem(scramble(20, 1)))
    # every expansion but the goal's reaches expand
    assert len(calls) == out.total_expanded - 1 > 0


def test_recorder_round_counts_kernel_calls(tracing):
    problem = PuzzleProblem(scramble(20, 1))
    with tracing.Recorder(True, 0) as rec:
        out = core.serial_idastar(problem)
    hot = rec.hot_totals()
    assert hot["kernels.puzzle_expand"][0] == hot["domains.expand"][0] \
        == out.total_expanded - 1
    assert hot["domains.is_goal"][0] == out.total_expanded
    assert [span.name for span in rec.spans] == ["core.serial"]
    # leaving the round restores every original
    assert core.serial_idastar is serial_idastar
    assert not hasattr(_backend.kernels.puzzle_expand, "__wrapped__")


def test_recorder_round_counts_synthetic_calls(tracing):
    problem = ArtificialProblem(ArtificialSpec(
        d=6, g=0.6, b=3, imbalance=0.2, density=1e-9, herror=3, seed=4))
    with tracing.Recorder(True, 0) as rec:
        out = core.serial_idastar(problem)
    hot = rec.hot_totals()
    assert hot["domains.expand"][0] == out.total_expanded - 1 > 0
    assert hot["domains.is_goal"][0] == out.total_expanded
    assert [span.name for span in rec.spans] == ["core.serial"]
