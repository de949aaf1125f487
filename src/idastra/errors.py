"""Exception types shared across the package, the one reader of text
inputs, which turns an undecodable file into a DataError, and the one
parser of input files, which names the file in each parse error.

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
    """A parse error on one line of a text; what names the line.  Read
    from a file (parse_file), it reads PATH:LINE: detail."""

    def __init__(self, lineno, detail, what="line"):
        super().__init__(f"{what} {lineno}: {detail}")
        self.lineno = lineno
        self.detail = detail


class UnsolvableInstance(MalformedLine):
    def __init__(self, lineno, parity_report):
        super().__init__(lineno, f"unsolvable instance ({parity_report})")
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


def parse_file(path, parse):
    """parse(text) of the file at path, whose parse errors name the file:
    a MalformedLine as PATH:LINE: detail, any other DataError as PATH:
    message."""
    text = read_text(path)
    try:
        return parse(text)
    except MalformedLine as exc:
        raise DataError(f"{path}:{exc.lineno}: {exc.detail}") from None
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
