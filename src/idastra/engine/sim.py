"""Deterministic discrete-event parallel search engine.

Virtual time advances in ticks; each worker performs at most one node
expansion per tick, and workers are stepped round-robin by id.  A node
is goal-tested only where its h is 0 (the contract in idastra.core).
Every pass starts with the root on the cluster lead's open list, and
every worker takes its nodes from its own open list.  A cluster moves
through the phases pending (waiting for a threshold), distributing (a
BreadthFirst lead expanding the top of the tree level by level, until a
level holds a node per member and is dealt out round-robin), searching,
and done (it found a solution, or no threshold below the held cost is
left for it).  A worker whose cluster is parked (pending or done) and
has no message due is not stepped: the tick loop credits its idle tick
directly.  Work messages (requests, donations, refusals) arrive
message_latency_ticks after sending; coordination
(threshold grants, pass reports, solution gating) is centralised in the
coordinator and modelled as instantaneous.
The whole run is a pure function of (problem, config, workers, latency,
seed), so reports are bit-identical across repetitions.  The threads
driver (engine/threads.py) steps this same engine on real threads.
"""

import random
from bisect import insort
from collections import deque

from idastra.core import make_root, path_to, serial_idastar
from idastra.engine.config import plan_clusters, validate_config
from idastra.engine.parts import anticipatory_check, donate, poll_target
from idastra.engine.report import EngineReport, WorkerStats
from idastra.errors import EngineStall, SpaceExhausted

_NO_PROGRESS_CAP = 20000
# cluster phases whose workers have nothing to expand
_PARKED = frozenset(("pending", "done"))


class _Worker:
    __slots__ = ("wid", "cluster", "open", "inbox", "stats", "outstanding",
                 "flip", "rng", "pass_start", "position")

    def __init__(self, wid, seed):
        self.wid = wid
        self.cluster = None
        self.position = 0               # index within the cluster
        self.open = deque()
        self.inbox = deque()            # (due_tick, epoch, kind, payload)
        self.stats = WorkerStats()
        self.outstanding = False
        self.flip = True                # next neighbor poll goes right
        self.rng = random.Random((seed * 0x9E3779B1 + wid * 2654435761)
                                 & 0xFFFFFFFF)
        # stats.nodes_expanded when this worker's current pass started
        self.pass_start = 0


class _Cluster:
    __slots__ = ("cid", "members", "can_balance", "threshold", "epoch",
                 "phase", "live_nodes", "pruned", "level_left",
                 "last_pass_expansions")

    def __init__(self, cid, members, load_balancing):
        self.cid = cid
        self.members = members
        self.can_balance = load_balancing and len(members) > 1
        self.threshold = None
        self.epoch = 0
        self.phase = "pending"   # pending|distributing|searching|done
        self.live_nodes = 0
        self.pruned = False             # this pass pruned a child
        self.level_left = 0             # distributing: level nodes unexpanded
        self.last_pass_expansions = [0] * len(members)

    def snapshot_pass(self):
        self.last_pass_expansions = [w.stats.nodes_expanded - w.pass_start
                                     for w in self.members]

    def reset(self):
        """End the running pass: its in-flight work messages go stale
        and every member starts over with an empty list."""
        self.epoch += 1
        self.pruned = False
        self.live_nodes = 0
        for w in self.members:
            w.open.clear()
            w.outstanding = False
            w.pass_start = w.stats.nodes_expanded


class _Coordinator:
    """Threshold pool, grants, and the optimality gate.

    Candidate thresholds are the root's f, the pool's first candidate,
    and the pruned f values every running pass reports.  Every grant,
    the first included, is the smallest candidate not yet claimed; with
    no unclaimed candidate a finishing cluster extrapolates by the mean
    granted increment.  A found solution is held until every candidate
    value below its cost has been searched to completion, which keeps
    the accepted cost optimal even when earlier grants raced ahead of
    candidate discovery (admissibility puts a pruned witness below any
    cheaper goal in the pool).  The root's f is the gate's base case:
    no goal costs less, so a goal found in a deeper window waits until
    the root pass, or a completed pass above it, has ruled out a
    cheaper one.
    """

    def __init__(self):
        self.pool = []                  # sorted candidate f values
        self.pool_set = set()
        self.max_done = None            # highest completed empty pass
        self.claimed = set()
        self.granted_order = []
        self.solutions = []             # (cost, path, cid)
        self.accepted = None            # the best solution, once proven

    def add_candidate(self, f):
        if f not in self.pool_set:
            self.pool_set.add(f)
            insort(self.pool, f)

    def claim(self, value):
        self.claimed.add(value)
        self.granted_order.append(value)

    def next_unclaimed(self, below=None):
        for v in self.pool:
            if below is not None and v >= below:
                return None
            if v in self.claimed:
                continue
            if self.max_done is not None and v <= self.max_done:
                continue                # already proven empty
            return v
        return None

    def extrapolate(self):
        g = self.granted_order
        if len(g) >= 2:
            step = max(1, round((g[-1] - g[0]) / (len(g) - 1)))
        else:
            step = 1
        value = g[-1] + step
        # an earlier extrapolation may have leapfrogged this value
        while value in self.claimed:
            value += step
        return value

    def mark_done(self, threshold):
        if self.max_done is None or threshold > self.max_done:
            self.max_done = threshold

    def holding_cost(self):
        return min(s[0] for s in self.solutions) if self.solutions else None

    def reevaluate(self):
        """Accept the best held solution once nothing cheaper can exist."""
        if not self.solutions or self.accepted is not None:
            return
        best = min(self.solutions, key=lambda s: (s[0], s[1]))
        for v in self.pool:
            if v >= best[0]:
                break
            if self.max_done is None or v > self.max_done:
                return                  # unswept candidate below the cost
        self.accepted = best


class _SimEngine:
    def __init__(self, problem, config, workers, latency, seed,
                 serial_outcome=None):
        validate_config(config, workers)
        self.problem = problem
        self.config = config
        self.P = workers
        self.latency = latency
        self.order = (None if config.ordering.is_identity()
                      else config.ordering)
        if serial_outcome is None:
            serial_outcome = serial_idastar(problem, order=self.order)
        self.serial = serial_outcome

        self.workers = [_Worker(w, seed) for w in range(workers)]
        self.clusters = []
        for cid, block in enumerate(plan_clusters(workers, config.clusters)):
            members = [self.workers[w] for w in block]
            cl = _Cluster(cid, members, config.load_balancing)
            for pos, w in enumerate(members):
                w.cluster = cl
                w.position = pos
            self.clusters.append(cl)

        self._is_goal = problem.is_goal
        self._expand_node = problem.expand
        self._arrange = None if self.order is None else self.order.arrange
        self._trigger = config.anticipation_trigger
        self.root = make_root(problem)
        _state, g, h, _op, _parent = self.root
        self.coord = _Coordinator()
        self.coord.add_candidate(g + h)
        self.tick = 0
        self.donated_sent = 0
        self.donated_delivered = 0
        self.donated_dropped = 0
        self.over_threshold = 0
        self.last_progress = 0
        self.space_exhausted = False

    # -- messaging ------------------------------------------------------

    def _send(self, sender, target, kind, payload):
        # latency is fixed for a run, so each inbox is in due-tick order
        sender.stats.messages_sent += 1
        target.inbox.append((self.tick + self.latency, sender.cluster.epoch,
                             kind, payload))

    def _deliver(self, w):
        while w.inbox and w.inbox[0][0] <= self.tick:
            _due, epoch, kind, payload = w.inbox.popleft()
            cl = w.cluster
            if epoch != cl.epoch:       # stale: sent during an ended pass
                if kind == "don":
                    self.donated_dropped += len(payload)
                continue
            if kind == "req":
                self._answer_request(w, payload)
            elif kind == "don":
                self.donated_delivered += len(payload)
                w.open.extend(payload)
                w.outstanding = False
            else:                       # refusal
                w.outstanding = False

    def _answer_request(self, donor, requester_wid):
        requester = self.workers[requester_wid]
        kept, batch = donate(donor.open, self.config.donation_fraction,
                             self.config.donate_from)
        if batch:
            donor.open = deque(kept)
            self.donated_sent += len(batch)
            self._send(donor, requester, "don", batch)
        else:
            self._send(donor, requester, "ref", None)

    # -- pass/threshold management ----------------------------------------

    def _start_pass(self, cl, threshold):
        self.coord.claim(threshold)
        cl.threshold = threshold
        cl.reset()
        cl.members[0].open.append(self.root)
        if self.config.distribution == "BreadthFirst":
            self._split(cl)
        else:                           # KumarRao: lead starts, others beg
            cl.live_nodes = 1
            cl.phase = "searching"

    def _split(self, cl):
        """A BreadthFirst lead's list at a level boundary: the pass is
        complete if it is empty, it is dealt out round-robin once it
        holds a node per member, and otherwise its level is expanded."""
        frontier = cl.members[0].open
        k = len(cl.members)
        if not frontier:
            self._pass_complete(cl)
        elif len(frontier) >= k:
            frontier = list(frontier)
            for j, w in enumerate(cl.members):
                w.open = deque(frontier[j::k])
            cl.live_nodes = len(frontier)
            cl.phase = "searching"
        else:
            cl.level_left = len(frontier)
            cl.phase = "distributing"

    def _grant_pending(self):
        hold = self.coord.holding_cost()
        for cl in self.clusters:
            if cl.phase != "pending":
                continue
            v = self.coord.next_unclaimed(below=hold)
            if v is None:
                return              # nor is there one for a later cluster
            self._start_pass(cl, v)

    def _pass_complete(self, cl):
        cl.snapshot_pass()
        if not cl.pruned and not self.coord.solutions:
            # nothing exceeded the threshold: the whole space was swept
            self.space_exhausted = True
            return
        self.coord.mark_done(cl.threshold)
        self.coord.reevaluate()
        if self.coord.accepted is not None:
            return
        # with a solution held, only thresholds below its cost matter
        hold = self.coord.holding_cost()
        v = self.coord.next_unclaimed(below=hold)
        if v is None:
            if hold is not None:
                cl.phase = "done"
                return
            v = self.coord.extrapolate()
        self._start_pass(cl, v)

    def _report_solution(self, cl, node):
        cl.snapshot_pass()
        self.coord.solutions.append((node[1], path_to(node), cl.cid))
        cl.phase = "done"
        cl.reset()
        self.coord.reevaluate()

    # -- worker stepping --------------------------------------------------

    def _step(self, w):
        """One tick of worker w: take due messages, then expand the head
        of its open list or idle.  Only the lead holds nodes while its
        cluster is distributing."""
        inbox = w.inbox
        if inbox and inbox[0][0] <= self.tick:
            self._deliver(w)
        coord = self.coord
        if coord.accepted is not None or self.space_exhausted:
            return
        cl = w.cluster
        phase = cl.phase
        open_ = w.open
        if open_:
            node = open_.popleft()
        else:
            w.stats.idle_ticks += 1
            if phase == "searching" and cl.can_balance \
                    and not w.outstanding:
                self._request_work(w)
            return

        state, g, h, op, parent = node
        threshold = cl.threshold
        stats = w.stats
        stats.nodes_expanded += 1
        self.last_progress = self.tick
        if g + h > threshold:
            self.over_threshold += 1
        if not h and self._is_goal(state):
            self._report_solution(cl, node)
            return
        raw = self._expand_node(state, op, h)
        arrange = self._arrange
        if arrange is not None and len(raw) > 1:
            raw = arrange(raw, parent is None)
        stats.nodes_generated += len(raw)
        pool_set = coord.pool_set
        kept = []
        for child, cop, cost, ch in raw:
            cg = g + cost
            cf = cg + ch
            if cf > threshold:
                if cf not in pool_set:
                    coord.add_candidate(cf)
                cl.pruned = True
            else:
                kept.append((child, cg, ch, cop, node))

        if phase == "distributing":
            open_.extend(kept)          # the next level, in order
            cl.level_left -= 1
            if not cl.level_left:
                self._split(cl)
            return
        live = cl.live_nodes - 1 + len(kept)
        cl.live_nodes = live
        if live == 0:
            self._pass_complete(cl)
            return
        if kept:
            open_.extendleft(reversed(kept))
        if cl.can_balance and anticipatory_check(
                len(open_), self._trigger, w.outstanding):
            self._request_work(w)

    def _request_work(self, w):
        members = [m.wid for m in w.cluster.members]
        target, w.flip = poll_target(w.position, members, w.flip, w.rng,
                                     self.config.polling)
        if target is None:
            return
        w.outstanding = True
        self._send(w, self.workers[target], "req", w.wid)

    # -- main loop ----------------------------------------------------------

    def _tick(self):
        """Step every worker once, in id order (clusters are contiguous
        id blocks).  A worker of a parked cluster (pending or done) with
        no message due is credited its idle tick unstepped: its step
        would only count that tick."""
        tick = self.tick
        coord = self.coord
        step = self._step
        for cl in self.clusters:
            if cl.phase in _PARKED:
                # a parked worker's step only drops stale messages, takes
                # a refusal or refuses a request: it changes no phase and
                # accepts no solution
                for w in cl.members:
                    inbox = w.inbox
                    if inbox and inbox[0][0] <= tick:
                        step(w)
                    else:
                        w.stats.idle_ticks += 1
                continue
            for w in cl.members:
                step(w)
                if coord.accepted is not None:
                    return

    def run(self):
        cap = max(100000, 50 * self.serial.total_expanded)
        while True:
            self._grant_pending()
            self._tick()
            if self.space_exhausted:
                raise SpaceExhausted(
                    "a pass completed without pruning or solving")
            if self.coord.accepted is not None:
                break
            self.tick += 1
            if self.tick > cap or \
                    self.tick - self.last_progress > _NO_PROGRESS_CAP:
                raise EngineStall(
                    f"no acceptance after {self.tick} ticks "
                    f"(last progress at tick {self.last_progress})")
        makespan = self.tick + 1
        return self._finish(float(makespan),
                            self.serial.total_expanded / makespan, "sim")

    def _finish(self, makespan, speedup, mode):
        """Build the report once a solution is accepted; the driver
        supplies its clock's makespan and the speedup it implies."""
        cost, path, cid = self.coord.accepted
        # undelivered donations count as returned work
        for w in self.workers:
            for _due, _epoch, kind, payload in w.inbox:
                if kind == "don":
                    self.donated_dropped += len(payload)
        balanced = (self.donated_sent
                    == self.donated_delivered + self.donated_dropped)
        finder = self.clusters[cid]
        final_pass = [0] * self.P
        for pos, w in enumerate(finder.members):
            final_pass[w.wid] = finder.last_pass_expansions[pos]
        max_per_worker = max(w.stats.nodes_expanded for w in self.workers)
        return EngineReport(
            solution_path=path,
            solution_cost=cost,
            per_worker=[w.stats for w in self.workers],
            makespan=makespan,
            serial_equivalent_nodes=self.serial.total_expanded,
            speedup=speedup,
            mode=mode,
            workers=self.P,
            clusters=self.config.clusters,
            thresholds_granted=list(self.coord.granted_order),
            final_pass_expansions=final_pass,
            tokens_balanced=balanced,
            over_threshold_expansions=self.over_threshold,
            max_worker_expansions=max_per_worker,
        )


def run_sim(problem, config, workers, latency=1, seed=0, serial_outcome=None):
    """Run the parallel engine in deterministic simulation mode."""
    return _SimEngine(problem, config, workers, latency, seed,
                      serial_outcome).run()
