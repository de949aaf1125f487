import faulthandler
import os
import sys

import pytest
from hypothesis import settings

# a larger sample for the tests that scale their example count by the
# loaded profile (tests/test_cli_bounds.py, two sim property tests in
# tests/test_engine.py and the lane test in tests/test_kernels.py); load
# with --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000)

# make `import oracles` work regardless of how pytest was invoked
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from idastra import _backend, _kernels_py  # noqa: E402
from idastra.cli import main as cli_main  # noqa: E402

# seconds a test may run before the run is ended with every thread's
# traceback, so that a hang fails fast instead of at the CI job timeout
TEST_TIME_LIMIT = 300
_TRACEBACK_FILE = pytest.StashKey()


def pytest_configure(config):
    # a copy of stderr taken before output capture starts, so that the
    # traceback reaches the terminal, not a captured buffer
    config.stash[_TRACEBACK_FILE] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    config.stash[_TRACEBACK_FILE].close()


@pytest.fixture(autouse=True)
def _time_limit(request):
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT, exit=True,
        file=request.config.stash[_TRACEBACK_FILE])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    def run(argv):
        code = cli_main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run


@pytest.fixture
def synthetic_kernels(monkeypatch):
    """Every synthetic_expand a test holds to the same results: the Python
    kernel, and the compiled one where it loaded (tests/test_backend.py
    fails where a compiler is present and it did not).  Iterating installs
    each in turn on idastra._backend.kernels and yields it.  Every read of
    problem.expand after that binds the installed kernel, and the class
    attribute looks it up on each call, so a test reads problem.expand
    afresh inside each iteration, never once before it.  The test's
    teardown puts back the one the package loaded.  A Hypothesis test may
    take this fixture across its examples, since each iteration installs
    its kernel afresh."""
    loaded = [_kernels_py.synthetic_expand]
    if _backend.compiled is not None:
        loaded.append(_backend.compiled.synthetic_expand)

    def each():
        for kernel in loaded:
            monkeypatch.setattr(_backend.kernels, "synthetic_expand", kernel)
            yield kernel
    return each
