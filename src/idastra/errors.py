"""Exception types shared across the package, and the one reader of
text inputs, which turns an undecodable file into a DataError.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
EngineStall -> 3.
"""


class IdastraError(Exception):
    pass


class UsageError(IdastraError):
    """Bad flag combinations or invalid strategy configurations."""


class DataError(IdastraError):
    """Problems with input files, instances, or datasets."""


class SpaceExhausted(DataError):
    """A cost-bounded pass covered the whole space without finding a goal."""


class MalformedLine(DataError):
    def __init__(self, lineno, detail):
        super().__init__(f"line {lineno}: {detail}")
        self.lineno = lineno


class UnsolvableInstance(DataError):
    def __init__(self, lineno, parity_report):
        super().__init__(f"line {lineno}: unsolvable instance ({parity_report})")
        self.lineno = lineno
        self.parity_report = parity_report


class InvalidConfig(UsageError):
    """Strategy configuration violates a structural constraint."""


class MissingScores(UsageError):
    """Toida ordering selected without a score table."""


class EmptyTrace(DataError):
    """A trace with no usable leaf information."""


class DegenerateTrace(DataError):
    """A trace with zero expansions cannot yield features."""


class InsufficientData(DataError):
    """Too few cases, folds, or levels for the requested computation."""


class DegenerateInput(DataError):
    """Statistical input with no variation (e.g. all-zero differences)."""


class DomainError(UsageError):
    """Analytic model parameters outside their valid domain."""


class EngineStall(IdastraError):
    """The parallel engine stopped making progress; indicates a bug."""


def read_text(path, newline=None):
    """The text of the file at path.  A file that does not decode is a
    DataError naming it; OSError passes through (it names the path)."""
    try:
        with open(path, newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
