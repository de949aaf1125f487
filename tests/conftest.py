import faulthandler
import os
import sys

import pytest
from hypothesis import settings

# a larger sample for the tests that scale their example count by the
# loaded profile (tests/test_cli_bounds.py); load with
# --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000)

# make `import oracles` work regardless of how pytest was invoked
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

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
