"""Training cases: labeling, variance filtering, and the JSON-lines store."""

import json
import math
import os
import statistics
import sys
from dataclasses import dataclass

from idastra.engine.config import AXIS_TABLE, DEFAULT_CONFIG
from idastra.errors import DataError, InsufficientData, read_text
from idastra.features import FEATURES, ProblemFeatures

def canonical_label_order(axis, labels):
    """Stable canonical ordering of strategy values for one axis:
    numeric axes sort numerically, named axes follow the menu order,
    anything else keeps first-seen order."""
    labels = list(dict.fromkeys(labels))
    row = AXIS_TABLE.get(axis)
    if row is None:
        return labels
    if row.menu is None:
        try:
            return sorted(labels, key=float)
        except ValueError:
            raise DataError(f"{axis} labels must be numbers, got "
                            f"{labels}") from None

    def key(lab):
        for i, v in enumerate(row.menu):
            if lab == v or lab.startswith(v + ":"):
                return (i, lab)
        return (len(row.menu), lab)

    return sorted(labels, key=key)


def _finite(kind, name, value):
    value = float(value)
    if not math.isfinite(value):
        raise DataError(f"{kind} {name} is not finite: {value}")
    return value


def _text(name, value):
    if not isinstance(value, str):
        raise DataError(f"{name} is not a string: {value!r}")
    return value


@dataclass(frozen=True)
class TrainingCase:
    features: ProblemFeatures
    architecture: str
    axis: str
    label: str
    timings: dict

    def to_json(self):
        return json.dumps({
            "features": self.features.as_dict(),
            "architecture": self.architecture,
            "axis": self.axis,
            "label": self.label,
            "timings": self.timings,
        }, sort_keys=False)

    @staticmethod
    def from_dict(obj):
        """The case a store line's decoded JSON holds.  Every feature
        and timing must be a finite number (json.loads reads Infinity
        and NaN), and the architecture, axis and label strings."""
        try:
            f = obj["features"]
            return TrainingCase(
                features=ProblemFeatures(**{
                    name: _finite("feature", name, f[name])
                    for name in FEATURES}),
                architecture=_text("architecture", obj["architecture"]),
                axis=_text("axis", obj["axis"]),
                label=_text("label", obj["label"]),
                timings={k: _finite("timing", repr(k), v)
                         for k, v in obj["timings"].items()},
            )
        except KeyError as exc:
            raise DataError(f"store line missing field {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise DataError(f"bad store line: {exc}") from None


@dataclass
class Dataset:
    cases: list
    axis: str

    def __post_init__(self):
        for c in self.cases:
            if c.axis != self.axis:
                raise DataError(
                    f"mixed axes in dataset: {c.axis!r} vs {self.axis!r}")

    def labels(self):
        return canonical_label_order(self.axis,
                                     [c.label for c in self.cases])


def label_cases(timings, features, axis, architecture):
    """Build a TrainingCase labeled with the fastest strategy value.

    Ties go to the default config's value for the axis when it is among
    the minima, otherwise to the first tied value in canonical order.
    """
    if not timings:
        raise DataError("empty timings: nothing to label")
    best = min(timings.values())
    tied = [k for k, v in timings.items() if v == best]
    default = DEFAULT_CONFIG.text(axis) if axis in AXIS_TABLE else None
    if default in tied:
        label = default
    else:
        label = canonical_label_order(axis, tied)[0]
    return TrainingCase(features=features, architecture=architecture,
                        axis=axis, label=label,
                        timings={k: float(v) for k, v in timings.items()})


def coefficient_of_variation(samples):
    """Sample standard deviation over the mean.  Finite samples whose
    sum or squared deviations pass a float's range raise OverflowError."""
    samples = list(samples)
    if len(samples) < 2:
        raise InsufficientData(
            f"need >= 2 samples, got {len(samples)}")
    mean = statistics.fmean(samples)
    if mean <= 0:
        raise DataError(f"mean must be positive, got {mean}")
    return statistics.stdev(samples) / mean


def variance_filter(dataset):
    """Keep the most decisive third of the cases, doubling the sharpest.

    Decisiveness is the coefficient of variation of a case's strategy
    timings: instances where strategy choice hardly matters only blur
    the class boundaries.  The kept top third is sorted descending and
    its own top third appears twice in the result.
    """
    n = len(dataset.cases)
    if n < 3:
        raise InsufficientData(f"variance filter needs >= 3 cases, got {n}")
    scored = [(coefficient_of_variation(c.timings.values()), i, c)
              for i, c in enumerate(dataset.cases)]
    scored.sort(key=lambda t: (-t[0], t[1]))
    keep = math.ceil(n / 3)
    kept = [c for _cov, _i, c in scored[:keep]]
    dup = kept[:math.ceil(keep / 3)]
    return Dataset(cases=kept + dup, axis=dataset.axis)


def store_lines(path):
    """The set of lines a JSON-lines store holds; empty when the store
    cannot be read."""
    try:
        return set(read_text(path).splitlines())
    except OSError:
        return set()


def end_cut_line(path):
    """Before an append: end a last line that a write cut short, so the
    new lines start on their own line and a reader meets the cut one
    alone.  Creates a missing file; returns whether the file held
    anything."""
    with open(path, "ab+") as fh:
        if not fh.tell():
            return False
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) != b"\n":
            fh.write(b"\n")
        return True


def append_cases(path, cases, existing=None):
    """Append cases to a JSON-lines store; returns (written, duplicates).

    Lines already present are appended anyway (the caller may want
    repeats) but reported so the operator notices reruns.  existing is
    the store's store_lines, and gains every line appended: a caller
    that appends many times reads the store once and passes the same
    set each time.  Without it the store is read here.
    """
    if existing is None:
        existing = store_lines(path)
    dupes = 0
    end_cut_line(path)
    with open(path, "a") as fh:
        for case in cases:
            line = case.to_json()
            if line in existing:
                dupes += 1
            existing.add(line)
            fh.write(line + "\n")
    return len(cases), dupes


def read_store(path, axis=None):
    """Load TrainingCases, optionally filtered to one axis.

    A line that is not complete JSON was cut short by an interrupted
    sweep: it is skipped with a warning naming the path and the line
    number.  A complete line with bad fields raises DataError naming
    them."""
    lines = read_text(path).splitlines()
    cases = []
    for n, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            print(f"warning: {path}:{n}: skipping cut store line",
                  file=sys.stderr)
            continue
        try:
            case = TrainingCase.from_dict(obj)
        except DataError as exc:
            raise DataError(f"{path}:{n}: {exc}") from None
        if axis is None or case.axis == axis:
            cases.append(case)
    return cases
