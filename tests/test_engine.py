"""Parallel engine: load-balancing primitives, configuration, and the
deterministic simulator and threads driver against serial and A*
oracles."""

import dataclasses
import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idastra.core import SearchOutcome, serial_idastar
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec
from idastra.engine import (DEFAULT_CONFIG, ExecutionMode, StrategyConfig,
                            config_for_axis_value, plan_clusters,
                            run_parallel, run_sim, validate_config)
from idastra.engine.parts import anticipatory_check, donate, poll_target
from idastra.errors import EngineStall, InvalidConfig, SpaceExhausted
from idastra.ordering import OrderPolicy
from oracles import astar_cost
from test_core import NoGoalProblem


def _spec(**kw):
    base = dict(d=4, g=0.5, b=3, imbalance=0.0, density=0.0, herror=0,
                seed=0)
    base.update(kw)
    return ArtificialSpec(**base)


def _run(problem, workers=4, mode=None, seed=0, **axes):
    config = DEFAULT_CONFIG
    for axis, value in axes.items():
        config = config.with_value(axis, value)
    validate_config(config, workers)
    return run_parallel(problem, config, workers, mode=mode, seed=seed)


# ----------------------------------------------------- donation slicing

def test_donate_thirty_percent_of_ten():
    items = list(range(10))
    kept, given = donate(items, 0.3, "HeadOfList")
    assert given == [0, 1, 2] and kept == list(range(3, 10))
    kept, given = donate(items, 0.3, "TailOfList")
    assert given == [7, 8, 9] and kept == list(range(7))


def test_donate_everything_keeps_one():
    kept, given = donate(list(range(10)), 1.0, "HeadOfList")
    assert kept == [9] and given == list(range(9))


def test_donate_single_node():
    assert donate([5], 1.0, "HeadOfList") == ([], [5])
    assert donate([5], 0.99, "HeadOfList") == ([5], [])


def test_donate_refusals():
    assert donate([], 0.5, "HeadOfList") == ([], [])
    assert donate([1, 2], 0.0, "TailOfList") == ([1, 2], [])


@given(st.integers(1, 40), st.floats(0.0, 1.0, allow_nan=False),
       st.sampled_from(["HeadOfList", "TailOfList"]))
def test_donate_conserves_and_orders(n, fraction, end):
    items = list(range(n))
    kept, given = donate(items, fraction, end)
    if end == "HeadOfList":
        assert given + kept == items
    else:
        assert kept + given == items
    if n >= 2:
        assert len(kept) >= 1          # never beggared below one node


# ----------------------------------------------------- polling targets

def test_neighbor_polling_alternates_right_then_left():
    members = [10, 11, 12]
    flip = True                        # first request goes right
    seen = []
    for _ in range(4):
        target, flip = poll_target(1, members, flip, random.Random(0),
                                   "Neighbor")
        seen.append(target)
    assert seen == [12, 10, 12, 10]


def test_neighbor_polling_wraps_the_ring():
    target, _ = poll_target(2, [0, 1, 2], True, random.Random(0), "Neighbor")
    assert target == 0
    target, _ = poll_target(0, [0, 1, 2], False, random.Random(0), "Neighbor")
    assert target == 2


def test_random_polling_never_picks_self():
    rng = random.Random(7)
    members = [3, 4, 5, 6]
    picks = {poll_target(2, members, True, rng, "Random")[0]
             for _ in range(80)}
    assert picks == {3, 4, 6}


def test_polling_alone_in_cluster():
    assert poll_target(0, [9], True, random.Random(0), "Neighbor") \
        == (None, True)


def test_anticipatory_trigger():
    assert anticipatory_check(0, 0, False)
    assert anticipatory_check(2, 2, False)
    assert not anticipatory_check(3, 2, False)
    assert not anticipatory_check(0, 2, True)      # request already out


# ------------------------------------------------ configuration planning

def test_plan_clusters_blocks():
    assert plan_clusters(10, 3) == [(0, 1, 2, 3), (4, 5, 6), (7, 8, 9)]
    assert plan_clusters(4, 4) == [(0,), (1,), (2,), (3,)]
    assert plan_clusters(5, 1) == [(0, 1, 2, 3, 4)]
    with pytest.raises(InvalidConfig):
        plan_clusters(4, 5)
    with pytest.raises(InvalidConfig):
        plan_clusters(4, 0)


def test_config_token_round_trip():
    config = StrategyConfig(distribution="KumarRao", clusters=3,
                            load_balancing=True, polling="Random",
                            donation_fraction=0.5,
                            donate_from="HeadOfList",
                            anticipation_trigger=2,
                            ordering=OrderPolicy.fixed((1, 0, 2)))
    assert StrategyConfig.from_token(config.token()) == config
    assert DEFAULT_CONFIG.token() \
        == "BreadthFirst:1:on:Neighbor:0.3:TailOfList:0:Fixed"
    with pytest.raises(InvalidConfig):
        StrategyConfig.from_token("BreadthFirst:1:on")
    with pytest.raises(InvalidConfig):
        StrategyConfig.from_token(
            "BreadthFirst:1:maybe:Neighbor:0.3:TailOfList:0:Fixed")
    assert config.describe() == "\n".join([
        "distribution=KumarRao", "clusters=3", "load_balancing=on",
        "polling=Random", "fraction=0.5", "donate_from=HeadOfList",
        "trigger=2", "ordering=Fixed:102"])


def test_malformed_axis_text_is_invalid_config():
    for axis, text in (("clusters", "x"), ("clusters", "1.5"),
                       ("fraction", "abc"), ("trigger", ""),
                       ("load_balancing", "maybe"),
                       ("ordering", "Fixed:01x"), ("ordering", "Sorted")):
        with pytest.raises(InvalidConfig):
            DEFAULT_CONFIG.with_value(axis, text)
    for token in ("BreadthFirst:x:on:Neighbor:0.3:TailOfList:0:Fixed",
                  "BreadthFirst:1:on:Neighbor:abc:TailOfList:0:Fixed",
                  "BreadthFirst:1:on:Neighbor:0.3:TailOfList:0:Fixed:0:1"):
        with pytest.raises(InvalidConfig):
            StrategyConfig.from_token(token)


def test_toida_text_parses_unscored():
    config = DEFAULT_CONFIG.with_value("ordering", "Toida")
    assert config.ordering == OrderPolicy("Toida")
    assert config.text("ordering") == "Toida"
    token = "KumarRao:2:on:Random:0.5:HeadOfList:1:Toida"
    assert StrategyConfig.from_token(token).ordering.scores is None
    assert config_for_axis_value("all", token).token() == token
    # scores come from a profiling trace, never from the text
    with pytest.raises(InvalidConfig):
        validate_config(config, 4)


def test_config_axis_overrides():
    assert DEFAULT_CONFIG.with_value("clusters", "4").clusters == 4
    assert DEFAULT_CONFIG.with_value("fraction", "0.7").donation_fraction \
        == 0.7
    assert DEFAULT_CONFIG.with_value("load_balancing", "off") \
        .load_balancing is False
    assert DEFAULT_CONFIG.with_value("ordering", "Local").ordering.kind \
        == "Local"
    token = "KumarRao:2:on:Random:0.5:HeadOfList:1:Local"
    assert config_for_axis_value("all", token).token() == token
    assert config_for_axis_value("distribution", "KumarRao").distribution \
        == "KumarRao"


def test_validate_config_rejections():
    ok = DEFAULT_CONFIG
    validate_config(ok, 4)
    with pytest.raises(InvalidConfig):
        validate_config(ok, 0)
    with pytest.raises(InvalidConfig):
        validate_config(ok.with_value("clusters", "5"), 4)
    with pytest.raises(InvalidConfig):
        validate_config(ok.with_value("fraction", "1.5"), 4)
    with pytest.raises(InvalidConfig):
        validate_config(ok.with_value("trigger", "-1"), 4)
    with pytest.raises(InvalidConfig):
        validate_config(ok.with_value("distribution", "Sorted"), 4)
    with pytest.raises(InvalidConfig):
        validate_config(ok.with_value("polling", "RoundRobin"), 4)
    with pytest.raises(InvalidConfig):
        validate_config(ok.with_value("donate_from", "Middle"), 4)
    # idle workers could never acquire work
    kr_off = StrategyConfig(distribution="KumarRao", load_balancing=False)
    with pytest.raises(InvalidConfig):
        validate_config(kr_off, 4)
    with pytest.raises(InvalidConfig):
        validate_config(dataclasses.replace(
            ok, ordering=OrderPolicy("Toida", scores=None)), 4)


def test_execution_mode_validation():
    ExecutionMode().validate()
    ExecutionMode("RealThreads", 0).validate()
    with pytest.raises(InvalidConfig):
        ExecutionMode("Quantum").validate()
    with pytest.raises(InvalidConfig):
        ExecutionMode("DeterministicSim", -1).validate()


# --------------------------------------------------- simulator behaviour

def test_single_worker_matches_serial_exactly():
    for kw in (dict(), dict(herror=3, seed=4), dict(d=5, b=2, imbalance=0.5),
               dict(density=0.05, seed=7)):
        problem = ArtificialProblem(_spec(**kw))
        serial = serial_idastar(problem)
        report = _run(problem, workers=1)
        assert report.solution_cost == serial.cost
        assert tuple(report.solution_path) == tuple(serial.path)
        assert report.total_expanded == serial.total_expanded
        assert report.speedup == 1.0


def test_costs_optimal_across_strategy_space():
    grid = [
        dict(),
        dict(distribution="KumarRao"),
        dict(clusters="4"),
        dict(clusters="2", distribution="KumarRao"),
        dict(polling="Random"),
        dict(donate_from="HeadOfList"),
        dict(fraction="1.0"),
        dict(fraction="0.1", trigger="2"),
        dict(load_balancing="off"),
        dict(ordering="Local"),
    ]
    specs = [_spec(d=4, b=3, herror=2, seed=3),
             _spec(d=5, b=2, g=1.0, imbalance=0.4, herror=1, seed=9),
             _spec(d=4, b=3, g=0.25, density=0.02, seed=11)]
    for spec in specs:
        problem = ArtificialProblem(spec)
        want = astar_cost(problem)
        serial = serial_idastar(problem)
        assert serial.cost == want
        for axes in grid:
            report = _run(problem, workers=4, **axes)
            assert report.solution_cost == want, (spec, axes)


def test_returned_path_is_a_real_optimal_goal():
    # several optimal goals exist; any strategy may settle on any of
    # them, but the path must lead to a depth-d goal at optimal cost
    spec = _spec(d=4, b=3, g=0.8, density=0.08, seed=5)
    problem = ArtificialProblem(spec)
    serial = serial_idastar(problem)
    for axes in (dict(), dict(clusters="4"), dict(clusters="2"),
                 dict(distribution="KumarRao"),
                 dict(clusters="3", polling="Random")):
        report = _run(problem, workers=4, **axes)
        assert report.solution_cost == serial.cost, axes
        assert len(report.solution_path) == serial.cost
        assert problem.is_goal(problem.state_at(report.solution_path)), axes


def test_latency_does_not_change_the_answer():
    spec = _spec(d=5, b=3, herror=4, seed=6, imbalance=0.3)
    problem = ArtificialProblem(spec)
    want = serial_idastar(problem).cost
    for latency in (0, 1, 3, 7):
        mode = ExecutionMode("DeterministicSim", latency)
        report = _run(problem, workers=4, mode=mode, clusters="2")
        assert report.solution_cost == want, latency


def test_simulation_is_deterministic():
    spec = _spec(d=5, b=3, herror=3, seed=8, density=0.01)
    problem = ArtificialProblem(spec)
    reports = [_run(problem, workers=4, clusters="2", polling="Random",
                    seed=41) for _ in range(2)]
    assert repr(reports[0]) == repr(reports[1])


# Sim reports recorded before the threads driver began stepping the sim
# engine: (workers, config token) -> (makespan, first 16 hex digits of
# the sha256 of repr(report)), all at latency 1 and seed 3.
_PINNED_SPEC = _spec(d=7, g=0.7, b=3, imbalance=0.3, density=1e-9,
                     herror=5, seed=4)
_PINNED_REPORTS = {
    (4, "KumarRao:1:on:Random:0.3:TailOfList:0:Fixed"):
        (405.0, "d8445b8dced2f8ce"),
    (4, "BreadthFirst:1:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (345.0, "f3391893e4783b4d"),
    (4, "KumarRao:2:on:Random:0.3:TailOfList:0:Fixed"):
        (264.0, "f6c922705d0378c8"),
    (4, "BreadthFirst:2:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (537.0, "17241fb7b73fe670"),
    (4, "KumarRao:4:on:Random:0.3:TailOfList:0:Fixed"):
        (946.0, "7a6b83602963a2a2"),
    (4, "BreadthFirst:4:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (946.0, "7a6b83602963a2a2"),
    (16, "KumarRao:1:on:Random:0.3:TailOfList:0:Fixed"):
        (131.0, "2ec8e80228beb4cf"),
    (16, "BreadthFirst:1:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (192.0, "72ef8f74faad9e9a"),
    (16, "KumarRao:2:on:Random:0.3:TailOfList:0:Fixed"):
        (111.0, "e761ea9f64524309"),
    (16, "BreadthFirst:2:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (87.0, "f035e04b8f840108"),
    (16, "KumarRao:4:on:Random:0.3:TailOfList:0:Fixed"):
        (124.0, "f6db2557ba021b1b"),
    (16, "BreadthFirst:4:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (205.0, "7c37329e88815e03"),
    (4, "KumarRao:2:on:Random:0.3:TailOfList:0:Local"):
        (209.0, "0d031f0aed5001c8"),
}


def test_sim_reports_match_pinned_values():
    problem = ArtificialProblem(_PINNED_SPEC)
    for (workers, token), want in _PINNED_REPORTS.items():
        report = run_sim(problem, StrategyConfig.from_token(token), workers,
                         seed=3)
        digest = hashlib.sha256(repr(report).encode()).hexdigest()[:16]
        assert (report.makespan, digest) == want, (workers, token)


def test_report_accounting_invariants():
    spec = _spec(d=5, b=3, herror=4, seed=2)
    problem = ArtificialProblem(spec)
    for axes in (dict(clusters="4"), dict(clusters="2"),
                 dict(distribution="KumarRao", clusters="1")):
        report = _run(problem, workers=4, **axes)
        assert report.over_threshold_expansions == 0
        assert report.tokens_balanced
        assert report.total_expanded \
            == sum(w.nodes_expanded for w in report.per_worker)
        assert report.makespan >= 1.0
        assert report.speedup \
            == report.serial_equivalent_nodes / report.makespan
        assert len(report.final_pass_expansions) == report.workers
        # grants are chronological and never repeat a threshold
        assert report.thresholds_granted
        assert len(set(report.thresholds_granted)) \
            == len(report.thresholds_granted)


def test_makespan_never_below_critical_path():
    # even infinite parallelism must wait for the accepted pass to finish
    spec = _spec(d=4, b=3, herror=2, seed=12)
    problem = ArtificialProblem(spec)
    cost = serial_idastar(problem).cost
    report = _run(problem, workers=8, clusters="8")
    assert report.makespan >= cost     # one tick per depth level at best


def test_window_search_runs_thresholds_concurrently():
    # distinct thresholds are granted to distinct clusters up front
    spec = _spec(d=6, b=3, g=1.0, density=1e-12, herror=5, seed=3)
    problem = ArtificialProblem(spec)
    report = _run(problem, workers=4, clusters="4")
    assert len(set(report.thresholds_granted)) \
        == len(report.thresholds_granted)
    assert report.clusters == 4


def test_distributed_tree_search_beats_serial_on_right_goal():
    # goal on the far right: serial sweeps the whole tree, a worker team
    # splitting the frontier reaches it in a fraction of the time
    spec = _spec(d=6, b=3, g=1.0, density=1e-12, herror=0, seed=1)
    problem = ArtificialProblem(spec)
    report = _run(problem, workers=4, clusters="1")
    assert report.solution_cost == 6
    assert report.speedup > 1.5


def test_over_subscribed_clusters_rejected_at_run():
    problem = ArtificialProblem(_spec())
    config = DEFAULT_CONFIG.with_value("clusters", "3")
    with pytest.raises(InvalidConfig):
        run_parallel(problem, config, 2)


def test_threads_mode_finds_optimal_cost():
    spec = _spec(d=4, b=3, herror=2, seed=10)
    problem = ArtificialProblem(spec)
    want = serial_idastar(problem).cost
    mode = ExecutionMode("RealThreads")
    report = run_parallel(problem, DEFAULT_CONFIG.with_value("clusters", "2"),
                          2, mode=mode, seed=0)
    assert report.solution_cost == want
    assert report.mode == "threads"


def test_engine_failures_raise_in_both_modes():
    # a serial search of a goalless space raises, so pass a stand-in
    baseline = SearchOutcome((), 0, [], 1, 0)
    for mode in (ExecutionMode(), ExecutionMode("RealThreads")):
        with pytest.raises(SpaceExhausted):
            run_parallel(NoGoalProblem(), DEFAULT_CONFIG, 2, mode=mode,
                         serial_outcome=baseline)
    # about 95k serial expansions: far more than two threads finish
    # before a zero timeout stops them
    problem = ArtificialProblem(_spec(d=10, g=1.0, density=1e-9, herror=5,
                                      seed=1))
    with pytest.raises(EngineStall):
        run_parallel(problem, DEFAULT_CONFIG, 2,
                     mode=ExecutionMode("RealThreads"), timeout=0,
                     serial_outcome=baseline)


def test_threads_speedup_is_against_serial_wall_time():
    problem = ArtificialProblem(_spec(d=5, b=3, herror=3, seed=10))
    serial = serial_idastar(problem)
    assert serial.wall_s > 0
    report = run_parallel(problem, DEFAULT_CONFIG, 2,
                          mode=ExecutionMode("RealThreads"),
                          serial_outcome=serial)
    assert report.speedup == pytest.approx(serial.wall_s / report.makespan)


def test_threads_mode_stress_donates_and_stays_optimal():
    # four threads sharing clusters of two or four, so workers steal work
    mode = ExecutionMode("RealThreads")
    specs = [_spec(d=6, g=0.6, imbalance=0.3, density=1e-9, herror=4,
                   seed=1),
             _spec(d=7, g=0.7, imbalance=0.3, density=1e-9, herror=5,
                   seed=4),
             _spec(d=8, g=0.8, imbalance=0.2, density=1e-9, herror=4,
                   seed=2)]
    messages = 0
    for i, spec in enumerate(specs):
        problem = ArtificialProblem(spec)
        serial = serial_idastar(problem)
        for distribution, clusters, polling in product(
                ("BreadthFirst", "KumarRao"), (1, 2), ("Neighbor", "Random")):
            config = StrategyConfig(distribution=distribution,
                                    clusters=clusters, polling=polling)
            report = run_parallel(problem, config, 4, mode=mode, seed=i,
                                  serial_outcome=serial)
            case = (spec, config.token())
            assert report.solution_cost == serial.cost, case
            assert report.tokens_balanced, case
            assert report.over_threshold_expansions == 0, case
            assert report.total_expanded \
                == sum(w.nodes_expanded for w in report.per_worker), case
            assert len(set(report.thresholds_granted)) \
                == len(report.thresholds_granted), case
            messages += report.total_messages
    assert messages > 0


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 4), b=st.integers(2, 3), g=st.floats(0.0, 1.0),
       herror=st.integers(0, 3), seed=st.integers(0, 99),
       clusters=st.integers(1, 4))
def test_parallel_cost_always_optimal(d, b, g, herror, seed, clusters):
    spec = _spec(d=d, b=b, g=g, herror=herror, seed=seed)
    problem = ArtificialProblem(spec)
    report = _run(problem, workers=4, clusters=str(clusters))
    assert report.solution_cost == d
