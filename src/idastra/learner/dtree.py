"""Decision tree induction over problem features and machine architecture.

Binary splits only: numeric features split on midpoint thresholds
(<= goes left), the architecture tag splits on equality (== goes left).
That rule lives in Split.goes_left alone: induction partitions cases
through it and classify walks the tree through it.  Split choice
maximizes gain ratio; growth stops at purity or when no candidate has
positive information gain.  No post-pruning.
"""

import math
from collections import Counter
from dataclasses import dataclass

from idastra.errors import (DataError, InsufficientData, MalformedLine,
                            parse_file)
from idastra.features import FEATURES as NUMERIC_FEATURES

# the one categorical feature: a case's machine architecture tag
ARCHITECTURE = "architecture"


@dataclass
class Leaf:
    label: str
    cases: int
    errors: int


@dataclass
class Split:
    feature: str
    threshold: object  # float for numeric features, str for equality splits
    left: object
    right: object

    @property
    def is_numeric(self):
        return self.feature in NUMERIC_FEATURES

    def goes_left(self, features, architecture):
        """Whether an instance with these values takes the left branch."""
        if self.is_numeric:
            return getattr(features, self.feature) <= self.threshold
        return architecture == self.threshold


def _entropy(labels):
    n = len(labels)
    if n == 0:
        return 0.0
    ent = 0.0
    for count in Counter(labels).values():
        p = count / n
        ent -= p * math.log2(p)
    return ent


def _majority(cases):
    # Tie on count resolves to the label seen first in case order:
    # most_common(1) is a max over the counts in insertion order.
    return Counter(c.label for c in cases).most_common(1)[0][0]


def _make_leaf(cases):
    label = _majority(cases)
    errors = sum(1 for c in cases if c.label != label)
    return Leaf(label=label, cases=len(cases), errors=errors)


def _split_score(cases, left, right, base_entropy):
    n = len(cases)
    nl, nr = len(left), len(right)
    if nl == 0 or nr == 0:
        return None
    h = (nl / n) * _entropy([c.label for c in left]) \
        + (nr / n) * _entropy([c.label for c in right])
    gain = base_entropy - h
    if gain <= 1e-12:
        return None
    pl, pr = nl / n, nr / n
    split_info = -(pl * math.log2(pl) + pr * math.log2(pr))
    return gain / split_info


def _candidates(cases):
    """Every split the cases admit, in tie-break order: each numeric
    feature's midpoints ascending, then each architecture, sorted."""
    for feature in NUMERIC_FEATURES:
        values = sorted(set(getattr(c.features, feature) for c in cases))
        for lo, hi in zip(values, values[1:]):
            yield Split(feature, (lo + hi) / 2.0, None, None)
    for architecture in sorted(set(c.architecture for c in cases)):
        yield Split(ARCHITECTURE, architecture, None, None)


def _grow(cases):
    if len(set(c.label for c in cases)) == 1:
        return _make_leaf(cases)
    base_entropy = _entropy([c.label for c in cases])
    best = None
    for split in _candidates(cases):
        left, right = [], []
        for c in cases:
            (left if split.goes_left(c.features, c.architecture)
             else right).append(c)
        score = _split_score(cases, left, right, base_entropy)
        # Strict > keeps the earliest candidate on score ties, so the
        # tree is deterministic for a given case order.
        if score is not None and (best is None or score > best[0]):
            best = score, split, left, right
    if best is None:
        return _make_leaf(cases)
    _score, split, left, right = best
    split.left, split.right = _grow(left), _grow(right)
    return split


def induce_tree(dataset):
    if not dataset.cases:
        raise InsufficientData("cannot induce a tree from zero cases")
    for c in dataset.cases:
        if " " in c.label:
            raise DataError(f"label contains a space: {c.label!r}")
    return _grow(list(dataset.cases))


def classify(tree, features, architecture):
    """Walk the tree for one instance; threshold boundaries go left."""
    node = tree
    while isinstance(node, Split):
        node = (node.left if node.goes_left(features, architecture)
                else node.right)
    return node.label


def tree_depth(tree):
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(tree_depth(tree.left), tree_depth(tree.right))


def tree_leaves(tree):
    if isinstance(tree, Leaf):
        return [tree]
    return tree_leaves(tree.left) + tree_leaves(tree.right)


def tree_to_text(tree):
    lines = []

    def emit(node, depth):
        pad = "  " * depth
        if isinstance(node, Leaf):
            if " " in node.label:
                raise DataError(f"label contains a space: {node.label!r}")
            lines.append(f"{pad}leaf {node.label} {node.cases} {node.errors}")
            return
        if node.is_numeric:
            lines.append(f"{pad}split {node.feature} le {node.threshold!r}")
        else:
            lines.append(f"{pad}split {node.feature} eq {node.threshold}")
        emit(node.left, depth + 1)
        emit(node.right, depth + 1)

    emit(tree, 0)
    return "\n".join(lines) + "\n"


def _bad_line(lineno, detail):
    return MalformedLine(lineno, detail, what="model line")


def tree_from_text(text):
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        stripped = raw.lstrip(" ")
        indent = len(raw) - len(stripped)
        if indent % 2:
            raise _bad_line(lineno, "odd indent")
        rows.append((indent // 2, stripped.split(" "), lineno))
    if not rows:
        raise DataError("empty model text")

    pos = 0

    def parse(depth):
        nonlocal pos
        if pos >= len(rows):
            raise DataError("model text ends inside a split")
        d, parts, lineno = rows[pos]
        if d != depth:
            raise _bad_line(lineno, f"expected depth {depth}, got {d}")
        pos += 1
        if parts[0] == "leaf":
            try:
                _leaf, label, cases, errors = parts
                return Leaf(label=label, cases=int(cases), errors=int(errors))
            except ValueError:
                raise _bad_line(lineno, "bad leaf") from None
        if parts[0] == "split":
            if len(parts) != 4 or parts[2] not in ("le", "eq"):
                raise _bad_line(lineno, "bad split")
            feature, op, operand = parts[1], parts[2], parts[3]
            if op == "le":
                if feature not in NUMERIC_FEATURES:
                    raise _bad_line(lineno, f"{feature} is not numeric")
                try:
                    threshold = float(operand)
                except ValueError:
                    raise _bad_line(lineno, f"bad threshold {operand!r}") \
                        from None
            else:
                if feature != ARCHITECTURE:
                    raise _bad_line(lineno, f"{feature} is not categorical")
                threshold = operand
            left = parse(depth + 1)
            right = parse(depth + 1)
            return Split(feature=feature, threshold=threshold,
                         left=left, right=right)
        raise _bad_line(lineno, f"unknown node {parts[0]!r}")

    tree = parse(0)
    if pos != len(rows):
        raise _bad_line(rows[pos][2], "trailing content")
    return tree


def save_tree(path, tree):
    with open(path, "w") as fh:
        fh.write(tree_to_text(tree))


def load_tree(path):
    return parse_file(path, tree_from_text)
