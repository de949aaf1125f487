"""Cross-validated comparison of the induced tree against fixed picks."""

import random

from idastra.errors import InsufficientData
from idastra.learner.cases import Dataset
from idastra.learner.dtree import _majority, classify, induce_tree


def _folds(n, k, seed):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return [order[i::k] for i in range(k)]


def cross_validate(dataset, k=10, seed=0):
    """k-fold CV; returns {method: [per-fold error rate, ...]}.

    Methods: "tree" (induced on the training folds), "fixed:<label>"
    for every label in the dataset (always answer <label>), and
    "majority" (training folds' most common label).
    """
    n = len(dataset.cases)
    if n < 2:
        raise InsufficientData(f"cross-validation needs >= 2 cases, got {n}")
    if k < 2 or k > n:
        raise InsufficientData(f"fold count {k} not in [2, {n}]")

    labels = dataset.labels()
    methods = ["tree"] + [f"fixed:{lab}" for lab in labels] + ["majority"]
    errors = {m: [] for m in methods}

    for fold in _folds(n, k, seed):
        test_idx = set(fold)
        train = [c for i, c in enumerate(dataset.cases) if i not in test_idx]
        test = [dataset.cases[i] for i in fold]
        if not train or not test:
            raise InsufficientData("a fold came out empty; lower the fold "
                                   "count")
        tree = induce_tree(Dataset(cases=train, axis=dataset.axis))
        majority_label = _majority(train)

        def rate(predict):
            wrong = sum(1 for c in test
                        if predict(c) != c.label)
            return wrong / len(test)

        errors["tree"].append(
            rate(lambda c: classify(tree, c.features, c.architecture)))
        for lab in labels:
            errors[f"fixed:{lab}"].append(rate(lambda c, lab=lab: lab))
        errors["majority"].append(rate(lambda c: majority_label))

    return errors
