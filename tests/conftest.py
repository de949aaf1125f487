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


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    def run(argv):
        code = cli_main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run
