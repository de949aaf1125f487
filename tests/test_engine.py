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

from idastra.core import (SearchOutcome, cost_bounded_dfs, make_root,
                          serial_idastar)
from idastra.domains.puzzle import PuzzleProblem, scramble
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec
from idastra.engine import (DEFAULT_CONFIG, StrategyConfig,
                            config_for_axis_value, plan_clusters,
                            run_parallel, run_sim, validate_config)
from idastra.engine import threads
from idastra.engine.parts import donate, poll_target
from idastra.engine.sim import _Coordinator, _SimEngine
from idastra.errors import EngineStall, InvalidConfig, SpaceExhausted
from idastra.ordering import OrderPolicy
from oracles import PlainLoopSim, astar_cost, expand_all
from test_core import NoGoalProblem


def _spec(**kw):
    base = dict(d=4, g=0.5, b=3, imbalance=0.0, density=0.0, herror=0,
                seed=0)
    base.update(kw)
    return ArtificialSpec(**base)


def _run(problem, workers=4, mode="sim", latency=1, seed=0, **axes):
    config = DEFAULT_CONFIG
    for axis, value in axes.items():
        config = config.with_value(axis, value)
    validate_config(config, workers)
    return run_parallel(problem, config, workers, mode=mode, latency=latency,
                        seed=seed)


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
    # a last node is never given away, even at fraction 1
    assert donate([5], 1.0, "HeadOfList") == ([5], [])
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
    assert len(kept) >= 1              # never beggared below one node


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
    # the lead of a two-member KumarRao cluster expands the root, which
    # leaves its three children on its list; it asks its neighbour for
    # work when the list is at or below the trigger and it has no
    # request out
    problem = ArtificialProblem(_spec(d=4, b=3))
    for trigger, outstanding, sent in ((3, False, 1),   # falls to it
                                       (2, False, 0),   # stays above it
                                       (3, True, 0)):   # a request is out
        config = StrategyConfig(distribution="KumarRao",
                                anticipation_trigger=trigger)
        engine = _SimEngine(problem, config, 2, 1, 0)
        cl = engine.clusters[0]
        lead, other = cl.members
        engine._grant_pending()
        cl.threshold = 100              # keeps every child
        lead.outstanding = outstanding
        engine._step(lead)
        assert len(lead.open) == 3
        assert lead.stats.messages_sent == sent, (trigger, outstanding)
        assert [kind for _due, _epoch, kind, _payload in other.inbox] \
            == ["req"] * sent
        assert lead.outstanding is (outstanding or sent == 1)


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
    problem = ArtificialProblem(_spec())
    assert _run(problem, workers=2, latency=0).mode == "sim"
    assert _run(problem, workers=2, mode="threads").mode == "threads"
    # both checks come before any search, so a goalless space never runs
    for mode, latency in (("Quantum", 1), ("Threads", 1), (None, 1),
                          ("sim", -1), ("threads", -1)):
        with pytest.raises(InvalidConfig):
            run_parallel(NoGoalProblem(), DEFAULT_CONFIG, 2, mode=mode,
                         latency=latency)


def test_sim_rejects_negative_latency():
    # run_sim checks it as run_parallel does, before any search
    for problem in (ArtificialProblem(_spec()), NoGoalProblem()):
        with pytest.raises(InvalidConfig):
            run_sim(problem, DEFAULT_CONFIG, 2, latency=-1)


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


@pytest.mark.parametrize("distribution", ["BreadthFirst", "KumarRao"])
def test_fraction_one_at_two_workers_finishes(distribution):
    # two members once passed a last node back and forth at fraction 1,
    # each answering the other's request before expanding it
    problem = ArtificialProblem(_spec(d=8, b=3, herror=4, g=0.5))
    config = StrategyConfig(distribution=distribution,
                            donation_fraction=1.0)
    report = run_sim(problem, config, 2)
    assert report.solution_cost == serial_idastar(problem).cost
    assert report.tokens_balanced


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
        report = _run(problem, workers=4, latency=latency, clusters="2")
        assert report.solution_cost == want, latency


def test_simulation_is_deterministic():
    spec = _spec(d=5, b=3, herror=3, seed=8, density=0.01)
    problem = ArtificialProblem(spec)
    reports = [_run(problem, workers=4, clusters="2", polling="Random",
                    seed=41) for _ in range(2)]
    assert repr(reports[0]) == repr(reports[1])


# Sim reports pinned as (spec, workers, latency, config token) ->
# (makespan, first 16 hex digits of the sha256 of repr(report)), all at
# seed 3.  The latency-1 "deep" P=4 and P=16 entries up to the Local one
# were recorded before the threads driver began stepping the sim engine,
# the rest up to the last "skewed" one before parked workers stopped
# being stepped, and the BreadthFirst entries after it before the split
# moved onto the lead's open list.  At P=16 most clusters wait for a
# threshold; on "dense" and "skewed", work requests and donations are
# still in flight to clusters that finish or hold a solution, so parked
# workers receive messages and answer with refusals.  On "split" h is
# the remaining depth (herror 0, and a nonzero density caps it there), so
# every node's f is d: one cluster of 16 expands levels of 1, 3 and 9
# nodes in the root pass and deals out the 27 of the next.
_PINNED_SPECS = {
    "deep": _spec(d=7, g=0.7, b=3, imbalance=0.3, density=1e-9, herror=5,
                  seed=4),
    "dense": _spec(d=6, g=0.5, b=3, imbalance=0.6, density=1.0, herror=4,
                   seed=1),
    "skewed": _spec(d=6, g=0.5, b=3, imbalance=0.6, density=1e-9, herror=4,
                    seed=1),
    "split": _spec(d=7, g=0.9, b=3, density=1e-9, seed=2),
}
_PINNED_REPORTS = {
    ("deep", 4, 1, "KumarRao:1:on:Random:0.3:TailOfList:0:Fixed"):
        (405.0, "d8445b8dced2f8ce"),
    ("deep", 4, 1, "BreadthFirst:1:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (345.0, "f3391893e4783b4d"),
    ("deep", 4, 1, "KumarRao:2:on:Random:0.3:TailOfList:0:Fixed"):
        (264.0, "f6c922705d0378c8"),
    ("deep", 4, 1, "BreadthFirst:2:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (537.0, "17241fb7b73fe670"),
    ("deep", 4, 1, "KumarRao:4:on:Random:0.3:TailOfList:0:Fixed"):
        (946.0, "7a6b83602963a2a2"),
    ("deep", 4, 1, "BreadthFirst:4:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (946.0, "7a6b83602963a2a2"),
    ("deep", 16, 1, "KumarRao:1:on:Random:0.3:TailOfList:0:Fixed"):
        (131.0, "2ec8e80228beb4cf"),
    ("deep", 16, 1, "BreadthFirst:1:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (192.0, "72ef8f74faad9e9a"),
    ("deep", 16, 1, "KumarRao:2:on:Random:0.3:TailOfList:0:Fixed"):
        (111.0, "e761ea9f64524309"),
    ("deep", 16, 1, "BreadthFirst:2:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (87.0, "f035e04b8f840108"),
    ("deep", 16, 1, "KumarRao:4:on:Random:0.3:TailOfList:0:Fixed"):
        (124.0, "f6db2557ba021b1b"),
    ("deep", 16, 1, "BreadthFirst:4:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (205.0, "7c37329e88815e03"),
    ("deep", 4, 1, "KumarRao:2:on:Random:0.3:TailOfList:0:Local"):
        (209.0, "0d031f0aed5001c8"),
    ("deep", 16, 1, "KumarRao:8:on:Random:0.3:TailOfList:0:Fixed"):
        (213.0, "2833df0a07d4a7bf"),
    ("deep", 16, 1, "BreadthFirst:16:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (944.0, "f9fb82ddfca54919"),
    ("deep", 16, 0, "KumarRao:8:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (207.0, "0464ebbd432025ca"),
    ("deep", 16, 3, "BreadthFirst:8:on:Random:0.3:TailOfList:0:Fixed"):
        (498.0, "90ddb1addcd7c71d"),
    ("deep", 16, 3, "KumarRao:4:on:Neighbor:0.3:TailOfList:0:Local"):
        (314.0, "3518195ecedc8dd5"),
    ("dense", 16, 0, "KumarRao:2:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (28.0, "7d19ac77edeeeec5"),
    ("dense", 16, 3, "KumarRao:4:on:Random:0.3:TailOfList:0:Fixed"):
        (46.0, "4ee5441ed8c1e452"),
    ("dense", 16, 1, "BreadthFirst:8:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (46.0, "8882a25e95f398af"),
    ("dense", 16, 1, "KumarRao:16:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (88.0, "e1b41e60487d8370"),
    ("skewed", 16, 3, "KumarRao:2:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (53.0, "b01d1aaa03a179dd"),
    ("skewed", 16, 3, "KumarRao:4:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (47.0, "2fbf5499ac681c87"),
    ("deep", 4, 1, "BreadthFirst:2:on:Neighbor:0.3:TailOfList:0:Local"):
        (569.0, "9d16e750496ae75b"),
    ("deep", 16, 3, "BreadthFirst:4:on:Random:0.3:TailOfList:0:Local"):
        (235.0, "70f6f74422ed4bd2"),
    ("dense", 16, 0, "BreadthFirst:2:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (30.0, "0b1f60357ca138fc"),
    ("dense", 16, 3, "BreadthFirst:4:on:Random:0.3:TailOfList:0:Fixed"):
        (35.0, "ac2708099b3a818e"),
    ("skewed", 16, 0, "BreadthFirst:1:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (79.0, "cff55b119e8429b2"),
    ("skewed", 16, 3, "BreadthFirst:2:on:Random:0.3:TailOfList:0:Local"):
        (55.0, "89d4b3ce0e8db9ea"),
    ("split", 16, 1, "BreadthFirst:1:on:Neighbor:0.3:TailOfList:0:Fixed"):
        (172.0, "f38f922e3a55143a"),
    ("split", 16, 3, "BreadthFirst:1:on:Random:0.3:TailOfList:0:Local"):
        (172.0, "bbe33ac742d97dd6"),
}


def test_sim_reports_match_pinned_values():
    for (name, workers, latency, token), want in _PINNED_REPORTS.items():
        report = run_sim(ArtificialProblem(_PINNED_SPECS[name]),
                         StrategyConfig.from_token(token), workers,
                         latency=latency, seed=3)
        digest = hashlib.sha256(repr(report).encode()).hexdigest()[:16]
        assert (report.makespan, digest) == want, (name, workers, latency,
                                                   token)


def test_breadth_first_split_deals_the_lead_list_round_robin():
    problem = ArtificialProblem(_PINNED_SPECS["split"])
    config = StrategyConfig(distribution="BreadthFirst", clusters=1)
    engine = _SimEngine(problem, config, 16, 1, 0)
    cl = engine.clusters[0]
    lead, others = cl.members[0], cl.members[1:]
    frontier = [make_root(problem)]
    for _ in range(3):
        frontier = [child for node in frontier
                    for child in expand_all(problem, node)]
    assert len(frontier) == 27
    engine._grant_pending()
    # until the deal only the lead expands, one node a tick, and no
    # worker sends a message
    for tick in range(1 + 3 + 9):
        assert cl.phase == "distributing"
        engine.tick = tick
        engine._step(lead)
        assert lead.stats.nodes_expanded == tick + 1
        if cl.phase != "distributing":
            break
        for w in others:
            engine._step(w)
    assert tick == 12 and cl.phase == "searching"
    assert cl.live_nodes == 27
    assert all(w.stats.nodes_expanded == 0 for w in others)
    assert all(w.stats.messages_sent == 0 and not w.inbox
               for w in engine.workers)
    for j, w in enumerate(cl.members):
        assert [(node[0], node[1]) for node in w.open] \
            == [(child[0], 3) for child in frontier[j::16]], j


def _pushed(problem, node, threshold):
    """node's kept children at threshold, as expand pushes them."""
    pushed = []
    problem.expand(node, threshold, pushed.append, [].append)
    return pushed


def test_a_local_step_leaves_its_children_arranged_at_the_head():
    # expand pushes straight onto the head of the worker's open list, and
    # a Local order rewrites just the children it pushed: the worker pops
    # them in arrange's stack order read from the top, ahead of the rest
    problem = PuzzleProblem(scramble(20, 1))
    local = OrderPolicy.local()
    config = StrategyConfig(distribution="KumarRao", ordering=local)
    engine = _SimEngine(problem, config, 1, 1, 0)
    cl = engine.clusters[0]
    w = cl.members[0]
    engine._grant_pending()
    cl.threshold = 80                   # keeps every child
    engine._step(w)
    level = local.arrange(_pushed(problem, engine.root, 80), True)[::-1]
    assert list(w.open) == level
    engine._step(w)
    below = local.arrange(_pushed(problem, level[0], 80), False)[::-1]
    assert list(w.open) == below + level[1:]
    # Local moved a child at both levels
    for nodes in (level, below):
        ops = [child[3] for child in nodes]
        assert ops != sorted(ops)
    assert cl.live_nodes == len(w.open)


@pytest.mark.parametrize("seed", range(20))
def test_toida_steers_the_sims_root_children_as_serial_does(seed):
    # arrange is told which children are the root's: a lone KumarRao
    # worker searches as serial IDA* does only if Toida's scores steer
    # the root's children and Local orders every other node's
    problem = ArtificialProblem(_spec(d=7, g=0.6, density=1e-9, herror=4,
                                      seed=seed))
    toida = OrderPolicy.toida({0: 3.0, 1: 2.0, 2: 1.0})
    config = StrategyConfig(distribution="KumarRao", clusters=1,
                            ordering=toida)
    report = run_sim(problem, config, 1)
    assert report.total_expanded \
        == serial_idastar(problem, order=toida).total_expanded


def test_an_acceptance_inside_a_breadth_first_split_ends_the_run():
    # a pass whose lead's level runs dry completes inside _split, and
    # that completion accepts the held solution: the tick loop must
    # stop on it as the plain loop does
    problem = ArtificialProblem(_spec(d=4, g=0.0, b=2, density=1e-9,
                                      herror=3, seed=1))
    config = StrategyConfig(distribution="BreadthFirst", clusters=2)
    accepted_in_split = []
    original = _SimEngine._split

    def recording(self, cl):
        original(self, cl)
        if self.coord.accepted is not None:
            accepted_in_split.append(self.tick)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_SimEngine, "_split", recording)
        report = run_sim(problem, config, 4, latency=0, seed=1)
    assert accepted_in_split == [8]
    assert report.solution_cost == serial_idastar(problem).cost
    assert report == PlainLoopSim(problem, config, 4, 0, 1).run()


def test_a_distributing_step_puts_the_next_level_at_the_tail():
    problem = ArtificialProblem(_PINNED_SPECS["split"])
    config = StrategyConfig(distribution="BreadthFirst", clusters=1)
    engine = _SimEngine(problem, config, 16, 1, 0)
    cl = engine.clusters[0]
    lead = cl.members[0]
    engine._grant_pending()
    engine._step(lead)
    level = _pushed(problem, engine.root, cl.threshold)[::-1]
    assert list(lead.open) == level and cl.phase == "distributing"
    engine._step(lead)
    below = _pushed(problem, level[0], cl.threshold)[::-1]
    assert [child[3] for child in below] == sorted(
        child[3] for child in below)
    assert list(lead.open) == level[1:] + below
    assert cl.phase == "distributing" and cl.level_left == 2


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
        # the final pass is the finder's: one cluster's block of workers
        finders = [block for block
                   in plan_clusters(report.workers, report.clusters)
                   if any(report.final_pass_expansions[w] for w in block)]
        assert len(finders) == 1
        assert sum(report.final_pass_expansions) <= report.total_expanded
        # grants are chronological and never repeat a threshold
        assert report.thresholds_granted
        assert len(set(report.thresholds_granted)) \
            == len(report.thresholds_granted)


@settings(max_examples=200, deadline=None)
@given(spec=st.builds(_spec, d=st.integers(3, 7), b=st.integers(2, 3),
                      g=st.floats(0.0, 1.0), herror=st.integers(0, 3),
                      density=st.sampled_from((0.0, 1e-9)),
                      imbalance=st.sampled_from((0.0, 0.6)),
                      seed=st.integers(0, 99)),
       workers=st.integers(4, 16), latency=st.integers(0, 3),
       distribution=st.sampled_from(("KumarRao", "BreadthFirst")),
       polling=st.sampled_from(("Neighbor", "Random")), data=st.data())
def test_sim_report_equals_the_plain_tick_loop(
        spec, workers, latency, distribution, polling, data):
    # the awake list skips only steps that expand nothing, and idle
    # ticks are read off the clock: the report equals, field for field,
    # that of a loop stepping every worker every tick and counting idle
    # per step, and its over-threshold count of 0 equals the plain
    # loop's count of expansions above their cluster's threshold
    clusters = data.draw(st.integers(1, workers), label="clusters")
    config = DEFAULT_CONFIG.with_value("clusters", str(clusters)) \
        .with_value("distribution", distribution) \
        .with_value("polling", polling)
    problem = ArtificialProblem(spec)
    serial = serial_idastar(problem)
    report = run_sim(problem, config, workers, latency=latency,
                     serial_outcome=serial)
    plain = PlainLoopSim(problem, config, workers, latency, 0,
                         serial).run()
    assert report == plain
    # the plain loop ends inside the accepting step's tick: the workers
    # before it make makespan steps and the rest one fewer, whether
    # their cluster was searching, pending or done
    makespan = int(plain.makespan)
    ticks = [w.nodes_expanded + w.idle_ticks for w in plain.per_worker]
    assert set(ticks) <= {makespan, makespan - 1}
    at_makespan = ticks.count(makespan)
    assert at_makespan >= 1
    assert ticks == [makespan] * at_makespan \
        + [makespan - 1] * (workers - at_makespan)


@pytest.mark.parametrize("spec, workers, clusters, distribution", [
    (_spec(d=6, g=0.7, density=0.05, herror=4, seed=146), 10, 7,
     "BreadthFirst"),
    (_spec(d=6, g=0.9, imbalance=0.6, density=0.05, herror=3, seed=314), 9,
     4, "KumarRao")])
def test_a_done_cluster_refuses_due_requests_as_the_plain_loop_does(
        spec, workers, clusters, distribution):
    # rare on the drawn trees: a cluster completes a pass and goes done
    # with requests among its members in flight, and its members refuse
    # them on later ticks, each refusal a message sent
    config = DEFAULT_CONFIG.with_value("clusters", str(clusters)) \
        .with_value("distribution", distribution) \
        .with_value("polling", "Random")
    problem = ArtificialProblem(spec)
    refused = []
    original = _SimEngine._answer_request

    def recording(self, donor, requester):
        if donor.cluster.phase == "done":
            refused.append(self.tick)
        original(self, donor, requester)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_SimEngine, "_answer_request", recording)
        report = run_sim(problem, config, workers, latency=2)
    assert refused
    assert report == PlainLoopSim(problem, config, workers, 2, 0).run()


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
    report = run_parallel(problem, DEFAULT_CONFIG.with_value("clusters", "2"),
                          2, mode="threads", seed=0)
    assert report.solution_cost == want
    assert report.mode == "threads"


def test_engine_failures_raise_in_both_modes(monkeypatch):
    # a serial search of a goalless space raises, so pass a stand-in.  A
    # pass is exhausted when the candidate pool holds nothing above its
    # threshold, whichever cluster's passes filled the pool.  Threads
    # deliver at the next step whatever the latency, so they run once
    baseline = SearchOutcome((), 0, [], 1, 0)
    runs = [("sim", latency) for latency in (0, 1, 3)] + [("threads", 0)]
    for (mode, latency), (workers, clusters), distribution in product(
            runs, ((2, 1), (4, 2), (4, 4)), ("BreadthFirst", "KumarRao")):
        config = DEFAULT_CONFIG.with_value("clusters", str(clusters)) \
            .with_value("distribution", distribution)
        try:
            run_parallel(NoGoalProblem(), config, workers, mode=mode,
                         latency=latency, serial_outcome=baseline)
        except SpaceExhausted:
            continue
        pytest.fail(f"no SpaceExhausted: {mode} P{workers} "
                    f"clusters {clusters} {distribution} latency {latency}")
    # about 95k serial expansions: far more than two threads finish
    # before a zero timeout stops them
    monkeypatch.setattr(threads, "TIMEOUT", 0)
    problem = ArtificialProblem(_spec(d=10, g=1.0, density=1e-9, herror=5,
                                      seed=1))
    with pytest.raises(EngineStall):
        run_parallel(problem, DEFAULT_CONFIG, 2,
                     mode="threads", serial_outcome=baseline)


def test_threads_speedup_is_against_serial_wall_time():
    problem = ArtificialProblem(_spec(d=5, b=3, herror=3, seed=10))
    serial = serial_idastar(problem)
    assert serial.wall_s > 0
    report = run_parallel(problem, DEFAULT_CONFIG, 2,
                          mode="threads", serial_outcome=serial)
    assert report.speedup == pytest.approx(serial.wall_s / report.makespan)


def test_threads_mode_stress_donates_and_stays_optimal():
    # four threads sharing clusters of two or four, so workers steal work
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
            report = run_parallel(problem, config, 4, mode="threads",
                                  seed=i, serial_outcome=serial)
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


# Puzzle goals sit at many depths, so a deeper window can find a costlier
# goal while the root pass is still running; the gate must hold it until
# the root pass has ruled out a cheaper one.
def test_window_search_never_accepts_a_costlier_puzzle_goal():
    for depth, seed in ((14, 46), (14, 24), (22, 1), (18, 7), (10, 48),
                        (18, 53), (14, 57), (18, 57)):
        problem = PuzzleProblem(scramble(depth, seed))
        serial = serial_idastar(problem)
        assert serial.cost == astar_cost(problem)
        for distribution, clusters, workers, latency in product(
                ("BreadthFirst", "KumarRao"), (2, 4), (4, 8), (0, 1, 3)):
            config = StrategyConfig(distribution=distribution,
                                    clusters=clusters)
            report = run_sim(problem, config, workers, latency=latency,
                             serial_outcome=serial)
            assert report.solution_cost == serial.cost, \
                (depth, seed, config.token(), workers, latency)


def test_a_held_solution_grants_a_cheaper_threshold(monkeypatch):
    # a cluster finishing a pass while another holds a solution is
    # granted a threshold below the held cost, not parked
    problem = ArtificialProblem(_spec(d=7, g=0.6, b=3, imbalance=0.3,
                                      density=0.05, herror=6, seed=7))
    below_hold = []
    original = _SimEngine._start_pass

    def counting(self, cl, threshold):
        if self.coord.held is not None and cl.phase != "pending":
            below_hold.append((threshold, self.coord.holding_cost()))
        original(self, cl, threshold)

    monkeypatch.setattr(_SimEngine, "_start_pass", counting)
    config = StrategyConfig(distribution="BreadthFirst", clusters=2)
    report = run_sim(problem, config, 8, latency=0)
    assert below_hold
    assert all(threshold < hold for threshold, hold in below_hold)
    assert report.solution_cost == serial_idastar(problem).cost


def test_coordinator_holds_one_best_solution_and_gates_on_the_pool():
    coord = _Coordinator()
    coord.pool.update((3, 5, 7, 9))

    # a tie in (cost, path) keeps the first solution; a cheaper one
    # replaces it
    coord.hold(9, (1, 2), [4])
    coord.hold(9, (1, 2), [5])
    coord.hold(9, (2, 0), [6])
    assert coord.held == (9, (1, 2), [4])
    coord.hold(9, (0, 3), [7])
    assert coord.held == (9, (0, 3), [7])
    assert coord.holding_cost() == 9

    # nothing is accepted while a candidate below the held cost is above
    # the highest completed pass
    for done in (-1, 3, 5):
        coord.max_done = done
        coord.reevaluate()
        assert coord.accepted is None, done
    coord.max_done = 7
    coord.reevaluate()
    assert coord.accepted == coord.held

    # grants skip granted values and values at or below max_done
    coord = _Coordinator()
    coord.pool.update((3, 5, 7, 9))
    assert coord.next_unclaimed() == 3
    coord.granted.extend((3, 7))
    assert coord.next_unclaimed() == 5
    coord.max_done = 5
    assert coord.next_unclaimed() == 9
    assert coord.next_unclaimed(below=9) is None

    # extrapolation steps by the mean granted increment, past every
    # value already granted
    coord.granted[:] = [3, 5, 7, 9]
    assert coord.extrapolate() == 11
    coord.granted[:] = [3, 7]         # two grants give one increment
    assert coord.extrapolate() == 11
    coord.granted[:] = [2, 8, 6]      # 6 + 2 was granted already
    assert coord.extrapolate() == 10


# Every pass a cluster completes expands exactly the nodes of the serial
# pass at its threshold, and that pass finds no goal: ties the sim's
# goal test to the serial pass's.
@settings(max_examples=300, deadline=None)
@given(d=st.integers(4, 7), b=st.integers(2, 3), g=st.floats(0.0, 1.0),
       herror=st.integers(2, 6), density=st.sampled_from((1e-9, 0.05)),
       imbalance=st.sampled_from((0.0, 0.6)), seed=st.integers(0, 99),
       workers=st.sampled_from((4, 8)), clusters=st.sampled_from((1, 2, 4)),
       distribution=st.sampled_from(("KumarRao", "BreadthFirst")),
       latency=st.sampled_from((0, 1, 3)),
       ordering=st.sampled_from(("Fixed", "Local")))
def test_each_completed_pass_conserves_the_serial_pass(
        d, b, g, herror, density, imbalance, seed, workers, clusters,
        distribution, latency, ordering):
    problem = ArtificialProblem(_spec(d=d, b=b, g=g, herror=herror,
                                      density=density, imbalance=imbalance,
                                      seed=seed))
    config = DEFAULT_CONFIG.with_value("clusters", str(clusters)) \
        .with_value("distribution", distribution) \
        .with_value("ordering", ordering)
    passes = []
    original = _SimEngine._pass_complete

    def recording(self, cl):
        passes.append((cl.threshold, sum(w.stats.nodes_expanded - w.pass_start
                                         for w in cl.members)))
        original(self, cl)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_SimEngine, "_pass_complete", recording)
        run_sim(problem, config, workers, latency=latency, seed=seed)
    root = make_root(problem)
    for threshold, expanded in passes:
        serial = cost_bounded_dfs(problem, root, threshold, config.ordering)
        assert serial.solution is None, threshold
        assert expanded == serial.nodes_expanded, threshold


class _ShuffledTicks(_SimEngine):
    """The sim engine with every worker stepped once a tick in a seeded
    random order: the arbitrary interleavings threads mode exercises,
    made reproducible (Burckhardt et al., "A Randomized Scheduler with
    Probabilistic Guarantees of Finding Bugs", ASPLOS 2010)."""

    def __init__(self, *args, order_seed):
        super().__init__(*args)
        self.step_order = random.Random(order_seed)

    def _tick(self):
        workers = self.workers[:]
        self.step_order.shuffle(workers)
        for w in workers:
            self._step(w)
            if self.coord.accepted is not None:
                return w
        return None


@settings(max_examples=300, deadline=None)
@given(instance=st.one_of(
           st.builds(_spec, d=st.integers(3, 6), b=st.integers(2, 3),
                     g=st.floats(0.0, 1.0), herror=st.integers(0, 4),
                     density=st.sampled_from((0.0, 1e-9, 0.05)),
                     imbalance=st.sampled_from((0.0, 0.6)),
                     seed=st.integers(0, 99)),
           st.sampled_from(((14, 46), (30, 2), (36, 3), (40, 5)))),
       distribution=st.sampled_from(("KumarRao", "BreadthFirst")),
       workers=st.sampled_from((4, 8)), clusters=st.sampled_from((1, 2, 4)),
       latency=st.sampled_from((0, 1, 3)),
       polling=st.sampled_from(("Neighbor", "Random")),
       ordering=st.sampled_from(("Fixed", "Local")),
       order_seed=st.integers(0, 2**32 - 1))
def test_shuffled_step_order_keeps_cost_and_tokens(
        instance, distribution, workers, clusters, latency, polling,
        ordering, order_seed):
    if isinstance(instance, ArtificialSpec):
        problem = ArtificialProblem(instance)
    else:
        problem = PuzzleProblem(scramble(*instance))
    config = DEFAULT_CONFIG.with_value("distribution", distribution) \
        .with_value("clusters", str(clusters)) \
        .with_value("polling", polling).with_value("ordering", ordering)
    serial = serial_idastar(problem)
    report = _ShuffledTicks(problem, config, workers, latency, 0, None,
                            order_seed=order_seed).run()
    assert report.solution_cost == serial.cost
    assert report.tokens_balanced
    assert report.total_expanded \
        == sum(w.nodes_expanded for w in report.per_worker)
