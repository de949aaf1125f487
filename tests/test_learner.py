"""Training cases, tree induction, cross-validation, and the paired
t-test against scipy."""

import json
import math
import random
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idastra.errors import (DataError, DegenerateInput, InsufficientData)
from idastra.features import FEATURES, ProblemFeatures
from idastra.learner import (Dataset, TrainingCase, append_cases,
                             classify, coefficient_of_variation,
                             cross_validate, induce_tree, label_cases,
                             load_tree, paired_t_test, read_store,
                             save_tree, tree_from_text, tree_to_text,
                             variance_filter)
from idastra.learner.cases import canonical_label_order
from idastra.learner.dtree import Leaf, Split, tree_depth, tree_leaves


def _features(b=3.0, herror=0.0, imb=0.0, loc=0.5, hbf=3.0):
    return ProblemFeatures(b=b, herror=herror, imb=imb, loc=loc, hbf=hbf)


def _case(label, axis="clusters", architecture="sim-P4", timings=None,
          **feat):
    return TrainingCase(features=_features(**feat), architecture=architecture,
                        axis=axis, label=label,
                        timings=timings or {label: 1.0})


# ------------------------------------------------------------- labelling

def test_label_prefers_fastest():
    timings = {"1": 120.0, "4": 80.0, "16": 95.0}
    case = label_cases(timings, _features(), "clusters", "sim-P16")
    assert case.label == "4"
    assert case.timings == timings


def test_label_tie_goes_to_default_when_tied():
    timings = {"1": 50.0, "4": 50.0}
    case = label_cases(timings, _features(), "clusters", "sim-P4")
    assert case.label == "1"


def test_label_tie_defaults_on_every_axis():
    # each axis' tie-break default wins a tie with its rivals, also
    # with those that come first in canonical order
    rivals = {"distribution": ("BreadthFirst", ["KumarRao"]),
              "clusters": ("1", ["0", "4"]),
              "load_balancing": ("on", ["off"]),
              "polling": ("Neighbor", ["Random"]),
              "fraction": ("0.3", ["0.1", "1.0"]),
              "donate_from": ("TailOfList", ["HeadOfList"]),
              "trigger": ("0", ["-1", "2"]),
              "ordering": ("Fixed", ["Fixed:0", "Local", "Toida"])}
    for axis, (default, others) in rivals.items():
        timings = {label: 5.0 for label in others + [default]}
        case = label_cases(timings, _features(), axis, "sim-P4")
        assert case.label == default, axis


def test_label_tie_without_default_takes_canonical_first():
    timings = {"8": 50.0, "4": 50.0, "16": 60.0}
    case = label_cases(timings, _features(), "clusters", "sim-P16")
    assert case.label == "4"               # numeric order, default absent


def test_label_empty_rejected():
    with pytest.raises(DataError):
        label_cases({}, _features(), "clusters", "sim-P4")


def test_canonical_order_numeric_and_named():
    assert canonical_label_order("clusters", ["16", "4", "1"]) \
        == ["1", "4", "16"]
    assert canonical_label_order("polling", ["Random", "Neighbor"]) \
        == ["Neighbor", "Random"]
    assert canonical_label_order("distribution",
                                 ["BreadthFirst", "KumarRao"]) \
        == ["KumarRao", "BreadthFirst"]
    assert canonical_label_order("ordering",
                                 ["Toida", "Fixed:2103", "Local", "Fixed"]) \
        == ["Fixed", "Fixed:2103", "Local", "Toida"]
    assert canonical_label_order("fraction", ["0.5", "0.1", "1.0"]) \
        == ["0.1", "0.5", "1.0"]


# ------------------------------------------------- variation and filter

def test_coefficient_of_variation_hand_value():
    # mean 10, sample sd 2 -> 0.2
    assert coefficient_of_variation([8.0, 10.0, 12.0]) \
        == pytest.approx(math.sqrt(4.0) / 10.0)
    with pytest.raises(InsufficientData):
        coefficient_of_variation([5.0])
    with pytest.raises(DataError):
        coefficient_of_variation([0.0, 0.0])
    with pytest.raises(DataError):
        coefficient_of_variation([3.0, -9.0])


def test_variance_filter_keeps_spread_and_duplicates_top():
    cases = []
    for i, spread in enumerate((0.0, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0,
                                32.0)):
        timings = {"1": 10.0, "4": 10.0 + spread}
        cases.append(_case("1", timings=timings, b=float(i)))
    out = variance_filter(Dataset(cases, "clusters"))
    # 9 cases -> keep ceil(9/3) = 3 highest-variation, then duplicate
    # the top ceil(3/3) = 1
    assert len(out.cases) == 4
    assert out.cases[0].features.b == 8.0   # spread 32 has top CoV
    assert out.cases[3] == out.cases[0]
    with pytest.raises(InsufficientData):
        variance_filter(Dataset(cases[:2], "clusters"))


def test_variance_filter_is_stable_on_ties():
    cases = [_case("1", timings={"1": 10.0, "4": 12.0}, b=float(i))
             for i in range(3)]
    out = variance_filter(Dataset(cases, "clusters"))
    # keep ceil(3/3) = 1 then duplicate it; ties resolve first-seen
    assert [c.features.b for c in out.cases] == [0.0, 0.0]


# ------------------------------------------------------ store round trip

def test_case_json_round_trip():
    case = _case("4", timings={"1": 3.5, "4": 1.25})
    again = TrainingCase.from_dict(json.loads(case.to_json()))
    assert again == case
    missing = {"features": case.features.as_dict()}
    with pytest.raises(DataError):
        TrainingCase.from_dict(missing)


def test_store_append_and_dup_detection(tmp_path):
    # repeats are appended (reruns are data too) but always reported
    store = tmp_path / "cases.jsonl"
    a = _case("1", b=2.0)
    b = _case("4", b=3.0)
    written, dupes = append_cases(store, [a, b, a])
    assert (written, dupes) == (3, 1)
    written, dupes = append_cases(store, [b, _case("16", b=5.0)])
    assert (written, dupes) == (2, 1)
    cases = read_store(store)
    assert len(cases) == 5
    assert cases.count(a) == 2 and cases.count(b) == 2
    assert read_store(store, axis="clusters") == cases
    assert read_store(store, axis="polling") == []


def test_append_after_a_cut_store_line_starts_its_own_line(tmp_path,
                                                           capsys):
    # a write cut short leaves a partial last line; the next append must
    # not glue its first case onto it
    store = tmp_path / "cases.jsonl"
    a, b, c = _case("1", b=2.0), _case("4", b=3.0), _case("16", b=5.0)
    append_cases(store, [a, b])
    store.write_bytes(store.read_bytes()[:-40])
    assert append_cases(store, [c]) == (1, 0)
    lines = store.read_text().splitlines()
    assert len(lines) == 3
    assert TrainingCase.from_dict(json.loads(lines[0])) == a
    assert TrainingCase.from_dict(json.loads(lines[2])) == c
    # the cut line itself is skipped, and the warning says where
    assert read_store(store) == [a, c]
    assert (capsys.readouterr().err
            == f"warning: {store}:2: skipping cut store line\n")


@pytest.mark.parametrize("fields, message", [
    ({"architecture": "sim-P4"}, "store line missing field 'features'"),
    ({"features": 3}, "bad store line"),
    # json.loads reads Infinity and NaN
    ({**json.loads(_case("1").to_json()), "timings": {"1": math.inf}},
     "timing '1' is not finite: inf"),
    ({**json.loads(_case("1").to_json()),
      "features": {**_features().as_dict(), "imb": math.nan}},
     "feature imb is not finite: nan"),
])
def test_a_complete_store_line_with_bad_fields_is_an_error(tmp_path,
                                                          fields, message):
    store = tmp_path / "cases.jsonl"
    append_cases(store, [_case("1")])
    with open(store, "a") as fh:
        fh.write(json.dumps(fields) + "\n")
    with pytest.raises(DataError, match=f"^{store}:2: {message}"):
        read_store(store)


def test_dataset_requires_one_axis():
    with pytest.raises(DataError):
        Dataset([_case("1"), _case("Random", axis="polling")], "clusters")


# -------------------------------------------------------- tree induction

def test_two_cases_force_a_single_split():
    data = Dataset([_case("A", b=2.0), _case("B", b=4.0)], "clusters")
    tree = induce_tree(data)
    assert isinstance(tree, Split)
    assert tree.feature == "b" and tree.threshold == 3.0
    assert isinstance(tree.left, Leaf) and tree.left.label == "A"
    assert isinstance(tree.right, Leaf) and tree.right.label == "B"
    assert len(tree_leaves(tree)) == 2 and tree_depth(tree) == 1


def test_pure_node_stops_growth():
    data = Dataset([_case("A", b=2.0), _case("A", b=4.0),
                    _case("A", b=6.0)], "clusters")
    tree = induce_tree(data)
    assert isinstance(tree, Leaf)
    assert tree.label == "A" and tree.errors == 0


def test_boundary_value_goes_left():
    data = Dataset([_case("A", b=2.0), _case("B", b=4.0)], "clusters")
    tree = induce_tree(data)
    assert classify(tree, _features(b=3.0), "sim-P4") == "A"
    assert classify(tree, _features(b=3.0001), "sim-P4") == "B"


def test_architecture_equality_split():
    data = Dataset([_case("A", architecture="sim-P4"),
                    _case("B", architecture="sim-P16"),
                    _case("A", architecture="sim-P4"),
                    _case("B", architecture="sim-P16")], "clusters")
    tree = induce_tree(data)
    assert isinstance(tree, Split) and tree.feature == "architecture"
    assert not tree.is_numeric
    assert classify(tree, _features(), "sim-P4") == "A"
    assert classify(tree, _features(), "sim-P16") == "B"
    assert classify(tree, _features(), "sim-P64") \
        in ("A", "B")                      # unseen goes to one side


def test_goes_left_on_hand_built_splits():
    numeric = Split("b", 3.0, None, None)
    assert numeric.goes_left(_features(b=3.0), "sim-P4")
    assert not numeric.goes_left(_features(b=3.0001), "sim-P4")
    arch = Split("architecture", "sim-P4", None, None)
    assert arch.goes_left(_features(), "sim-P4")
    assert not arch.goes_left(_features(), "sim-P8")


def test_gain_ratio_tie_picks_a_numeric_split_over_the_architecture():
    # b <= 3 and architecture == sim-P16 split the cases alike
    data = Dataset([_case("A", b=2.0, architecture="sim-P4"),
                    _case("B", b=4.0, architecture="sim-P16")], "clusters")
    tree = induce_tree(data)
    assert (tree.feature, tree.threshold) == ("b", 3.0)


def test_gain_ratio_tie_picks_the_feature_earlier_in_features():
    # loc and hbf split the cases alike; hbf sorts first by name, loc
    # comes first in FEATURES
    assert FEATURES.index("loc") < FEATURES.index("hbf")
    data = Dataset([_case("A", loc=0.2, hbf=2.0),
                    _case("B", loc=0.8, hbf=4.0)], "clusters")
    tree = induce_tree(data)
    assert (tree.feature, tree.threshold) == ("loc", 0.5)


def test_min_cases_is_a_node_level_stop():
    # three cases, one odd: the pure 2-case branch is not split further
    data = Dataset([_case("A", b=2.0), _case("A", b=3.0),
                    _case("B", b=9.0)], "clusters")
    tree = induce_tree(data)
    assert len(tree_leaves(tree)) == 2
    with pytest.raises(InsufficientData):
        induce_tree(Dataset([], "clusters"))


def test_majority_leaf_breaks_tie_first_seen():
    data = Dataset([_case("B", b=5.0), _case("A", b=5.0),
                    _case("A", b=5.0), _case("B", b=5.0)], "clusters")
    tree = induce_tree(data)
    assert isinstance(tree, Leaf)
    assert tree.label == "B"               # first seen among 2-2 tie
    assert tree.errors == 2


def test_noisy_rule_recovered():
    rng = random.Random(4)
    cases = []
    for _ in range(200):
        imb = rng.random()
        label = "16" if imb > 0.3 else "1"
        if rng.random() < 0.05:
            label = "1" if label == "16" else "16"
        cases.append(_case(label, imb=imb, b=rng.uniform(2, 5)))
    tree = induce_tree(Dataset(cases, "clusters"))
    assert isinstance(tree, Split)
    assert tree.feature == "imb"
    assert 0.25 < tree.threshold < 0.35


def test_noise_free_training_error_zero():
    rng = random.Random(9)
    cases = [_case("16" if (imb := rng.random()) > 0.3 else "1", imb=imb)
             for _ in range(60)]
    tree = induce_tree(Dataset(cases, "clusters"))
    wrong = sum(1 for c in cases
                if classify(tree, c.features, c.architecture) != c.label)
    assert wrong == 0


# ------------------------------------------------------ text round trip

def test_tree_text_format():
    data = Dataset([_case("A", b=2.0), _case("B", b=4.0)], "clusters")
    tree = induce_tree(data)
    text = tree_to_text(tree)
    assert text == ("split b le 3.0\n"
                    "  leaf A 1 0\n"
                    "  leaf B 1 0\n")
    assert tree_to_text(tree_from_text(text)) == text


def test_tree_file_round_trip(tmp_path):
    rng = random.Random(2)
    cases = [_case(rng.choice(["1", "4"]), b=rng.uniform(2, 6),
                   imb=rng.random(), architecture=rng.choice(
                       ["sim-P4", "sim-P16"])) for _ in range(40)]
    tree = induce_tree(Dataset(cases, "clusters"))
    path = tmp_path / "model.tree"
    save_tree(path, tree)
    again = load_tree(path)
    assert tree_to_text(again) == tree_to_text(tree)
    for case in cases:
        assert classify(again, case.features, case.architecture) \
            == classify(tree, case.features, case.architecture)


def test_tree_text_rejects_bad_input():
    with pytest.raises(DataError):
        tree_from_text("")
    with pytest.raises(DataError):
        tree_from_text("split b le 3.0\n  leaf A 1 0\n")   # missing right
    with pytest.raises(DataError):
        tree_from_text("prune b le 3.0\n")
    with pytest.raises(DataError):
        tree_to_text(Leaf("two words", 1, 0))


@pytest.mark.parametrize("text", [
    " leaf A 1 0\n",                                    # odd indent
    "leaf A 1\n",                                       # bad leaf
    "leaf A one 0\n",                                   # non-integer count
    "split b lt 3.0\n  leaf A 1 0\n  leaf B 1 0\n",     # bad split
    "split b le x\n  leaf A 1 0\n  leaf B 1 0\n",       # bad threshold
    "split architecture le 3.0\n  leaf A 1 0\n  leaf B 1 0\n",
    "split b eq sim-P4\n  leaf A 1 0\n  leaf B 1 0\n",
    "leaf A 1 0\nleaf B 1 0\n",                         # trailing content
    "split b le 3.0\n",                                 # ends inside a split
])
def test_malformed_model_text_is_a_data_error(text):
    with pytest.raises(DataError, match="model"):
        tree_from_text(text)


# -------------------------------------------------------- cross-validation

def test_cross_validation_methods_and_shapes():
    rng = random.Random(7)
    cases = [_case("16" if (imb := rng.random()) > 0.3 else "1", imb=imb)
             for _ in range(50)]
    data = Dataset(cases, "clusters")
    results = cross_validate(data, k=5, seed=3)
    assert set(results) == {"tree", "fixed:1", "fixed:16", "majority"}
    assert all(len(v) == 5 for v in results.values())
    assert all(0.0 <= e <= 1.0 for v in results.values() for e in v)
    # the rule is learnable: the tree must beat both fixed guesses
    assert fmean(results["tree"]) < fmean(results["fixed:1"])
    assert fmean(results["tree"]) < fmean(results["fixed:16"])
    # "16" dominates every training fold, so majority mirrors fixed:16
    assert results["majority"] == results["fixed:16"]


def test_cross_validation_is_seeded():
    rng = random.Random(1)
    cases = [_case(rng.choice(["1", "4"]), imb=rng.random())
             for _ in range(30)]
    data = Dataset(cases, "clusters")
    assert cross_validate(data, k=3, seed=5) \
        == cross_validate(data, k=3, seed=5)
    with pytest.raises(InsufficientData):
        cross_validate(data, k=31)
    with pytest.raises(InsufficientData):
        cross_validate(Dataset([cases[0]], "clusters"), k=2)


# ---------------------------------------------------------- paired t-test

def test_paired_t_frozen_example():
    first = [1.2, 0.9, 1.3, 1.1, 1.0]
    second = [1.0, 1.0, 1.0, 1.0, 1.0]
    t, p = paired_t_test(first, second)
    assert t == pytest.approx(1.4142135623730951)
    assert p == pytest.approx(0.23019964108049894)


def test_paired_t_identical_inputs_degenerate():
    with pytest.raises(DegenerateInput):
        paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_paired_t_constant_nonzero_diff():
    t, p = paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
    assert t == math.inf and p == 0.0
    t, p = paired_t_test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    assert t == -math.inf and p == 0.0


def test_paired_t_input_guards():
    with pytest.raises(DataError):
        paired_t_test([1.0], [2.0])
    with pytest.raises(DataError):
        paired_t_test([1.0, 2.0], [1.0])


def test_paired_t_matches_scipy():
    from scipy import stats as scipy_stats
    rng = random.Random(12)
    for trial in range(60):
        n = rng.randint(2, 12)
        first = [rng.gauss(1.0, 0.4) for _ in range(n)]
        second = [rng.gauss(1.1, 0.4) for _ in range(n)]
        t, p = paired_t_test(first, second)
        want = scipy_stats.ttest_rel(first, second)
        assert t == pytest.approx(want.statistic, rel=1e-10), trial
        assert p == pytest.approx(want.pvalue, rel=1e-9), trial


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=20))
def test_paired_t_p_value_in_range(diffs):
    first = [d + 1.0 for d in diffs]
    second = [1.0] * len(diffs)
    try:
        t, p = paired_t_test(first, second)
    except DegenerateInput:
        return
    assert 0.0 <= p <= 1.0
    assert t == -paired_t_test(second, first)[0]
