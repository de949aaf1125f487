from idastra.learner.cases import (Dataset, TrainingCase, append_cases,
                                   coefficient_of_variation, label_cases,
                                   read_store, store_lines,
                                   variance_filter)
from idastra.learner.dtree import (Leaf, Split, classify, induce_tree,
                                   load_tree, save_tree, tree_to_text,
                                   tree_from_text)
from idastra.learner.evaluate import cross_validate
from idastra.learner.stats import paired_t_test

__all__ = [
    "Dataset",
    "TrainingCase",
    "append_cases",
    "coefficient_of_variation",
    "label_cases",
    "read_store",
    "store_lines",
    "variance_filter",
    "Leaf",
    "Split",
    "classify",
    "induce_tree",
    "load_tree",
    "save_tree",
    "tree_to_text",
    "tree_from_text",
    "cross_validate",
    "paired_t_test",
]
