"""Deterministic discrete-event parallel search engine.

Virtual time advances in ticks; each worker performs at most one node
expansion per tick, and workers are stepped round-robin by id.  A node
is the goal where its expansion returns GOAL (the protocol in
idastra.core).  Every pass starts with the root on the cluster lead's
open list, and every worker takes its nodes from the head of its own
open list, where its expansions push their children.  A cluster moves
through the phases pending (waiting for a threshold), distributing (a
BreadthFirst lead expanding the top of the tree level by level, until a
level holds a node per member and is dealt out round-robin), searching,
and done (it found a solution, or no threshold below the held cost is
left for it).  A pass ends at the expansion that leaves no node
anywhere in it: on no member's list and in no queued donation of the
pass.  No count is kept for that: a BreadthFirst level that runs dry
ends it, and so does a searching member's expansion that empties its
own list while _Cluster.quiet() finds the rest of the pass empty too.
One step body, _steps, steps workers once each; a tick hands it the
awake workers, a flat id-ordered list that a cluster's members join at
its first grant and leave once it is done and no message is queued to
any of them.
No step of a member off the awake list could expand a node, so a
worker's idle ticks are read off the clock when the run ends: the
ticks a visit in id order would have made, less its expansions.
Work messages are requests and donations (an empty donation
is a refusal) and arrive message_latency_ticks after sending;
coordination (threshold grants, pass reports, the held best solution)
is centralised in the coordinator and modelled as instantaneous.
The whole run is a pure function of (problem, config, workers, latency,
seed), so reports are bit-identical across repetitions.  The threads
driver (engine/threads.py) steps this same engine on real threads.
"""

import random
import sys
from collections import deque

from idastra.core import GOAL, make_root, path_to, serial_idastar
from idastra.engine.config import plan_clusters, validate_config
from idastra.engine.parts import donate, poll_target
from idastra.engine.report import EngineReport, WorkerStats
from idastra.errors import EngineStall, InvalidConfig, SpaceExhausted

_NO_PROGRESS_CAP = 20000


class _Worker:
    __slots__ = ("wid", "cluster", "open", "push", "inbox", "stats",
                 "outstanding", "flip", "rng", "pass_start", "position")

    def __init__(self, wid, seed):
        self.wid = wid
        self.cluster = None
        self.position = 0               # index within the cluster
        # the open list is only ever mutated in place, so expand's push
        # sink, bound once, stays valid
        self.open = deque()
        self.push = self.open.appendleft
        self.inbox = deque()            # (due_tick, epoch, kind, payload)
        self.stats = WorkerStats()
        self.outstanding = False
        self.flip = True                # next neighbor poll goes right
        self.rng = random.Random((seed * 0x9E3779B1 + wid * 2654435761)
                                 & 0xFFFFFFFF)
        # stats.nodes_expanded when this worker's current pass started
        self.pass_start = 0


class _Cluster:
    """A block of workers running one pass at a time.

    The pass's live nodes are those on the members' lists and those in
    donations of its epoch still queued in their inboxes; every other
    message carries none.  An expansion takes one live node and adds
    the children it keeps, and a donation only moves nodes between a
    list and an inbox, so the live count can fall to 0 only at an
    expansion that leaves its worker's list empty: the pass has ended
    there exactly when quiet() holds."""

    __slots__ = ("members", "can_balance", "threshold", "epoch", "phase",
                 "level_left")

    def __init__(self, members, load_balancing):
        self.members = members
        self.can_balance = load_balancing and len(members) > 1
        self.threshold = None
        self.epoch = 0
        self.phase = "pending"   # pending|distributing|searching|done
        self.level_left = 0             # distributing: level nodes unexpanded

    def quiet(self):
        """Whether the running pass has no live node left: none on a
        member's list and none in a queued donation of this epoch (a
        request's payload is a worker, and a refusal is empty)."""
        epoch = self.epoch
        for w in self.members:
            if w.open:
                return False
            for _due, sent_in, kind, payload in w.inbox:
                if sent_in == epoch and kind == "don" and payload:
                    return False
        return True

    def reset(self):
        """End the running pass: its in-flight work messages go stale
        and every member starts over with an empty list."""
        self.epoch += 1
        for w in self.members:
            w.open.clear()
            w.outstanding = False
            w.pass_start = w.stats.nodes_expanded


class _Coordinator:
    """Threshold pool, grants, and the optimality gate.

    Candidate thresholds are the root's f and the pruned f values every
    running pass reports.  Every grant, the first included, is the
    smallest candidate neither granted before nor at or below a
    completed pass; with no such candidate a finishing cluster
    extrapolates by the mean granted increment.  The best solution found
    so far is held until every candidate value below its cost has been
    searched to completion, which keeps the accepted cost optimal even
    when earlier grants raced ahead of candidate discovery
    (admissibility puts a pruned witness below any cheaper goal in the
    pool).  The root's f is the gate's base case: no goal costs less, so
    a goal found in a deeper window waits until the root pass, or a
    completed pass above it, has ruled out a cheaper one.
    """

    def __init__(self):
        self.pool = set()               # candidate f values
        # the highest completed empty pass; below every f, which is >= 0
        self.max_done = -1
        self.granted = []               # thresholds, in grant order
        self.held = None                # best (cost, path, final_pass)
        self.accepted = None            # the held solution, once proven

    def next_unclaimed(self, below=None):
        for v in sorted(self.pool):
            if below is not None and v >= below:
                return None
            if v > self.max_done and v not in self.granted:
                return v
        return None

    def extrapolate(self):
        g = self.granted
        if len(g) >= 2:
            step = max(1, round((g[-1] - g[0]) / (len(g) - 1)))
        else:
            step = 1
        value = g[-1] + step
        # an earlier extrapolation may have leapfrogged this value
        while value in g:
            value += step
        return value

    def hold(self, cost, path, final_pass):
        # on a tie in (cost, path) the first solution found stays held
        if self.held is None or (cost, path) < self.held[:2]:
            self.held = (cost, path, final_pass)

    def holding_cost(self):
        return None if self.held is None else self.held[0]

    def reevaluate(self):
        """Accept the held solution once every candidate below its cost
        is at or below a completed pass."""
        if self.held is not None and not any(
                self.max_done < v < self.held[0] for v in self.pool):
            self.accepted = self.held


class _SimEngine:
    def __init__(self, problem, config, workers, latency, seed,
                 serial_outcome=None):
        validate_config(config, workers)
        if latency < 0:
            raise InvalidConfig("message latency must be >= 0")
        self.config = config
        self.latency = latency
        if serial_outcome is None:
            serial_outcome = serial_idastar(problem, order=config.ordering)
        self.serial = serial_outcome

        self.workers = [_Worker(w, seed) for w in range(workers)]
        self.clusters = []
        for block in plan_clusters(workers, config.clusters):
            members = [self.workers[w] for w in block]
            cl = _Cluster(members, config.load_balancing)
            for pos, w in enumerate(members):
                w.cluster = cl
                w.position = pos
            self.clusters.append(cl)
        # the clusters never granted a threshold, in cluster order, and
        # the pool's size when a grant last found no candidate (the
        # largest int once none is pending): a grant is due only once
        # the pool outgrows it
        self.pending = deque(self.clusters)
        self.refused_size = -1
        # the workers the tick loop steps, in id order, and the done
        # clusters whose members are still among them
        self.awake_workers = []
        self.done = []

        self._expand_node = problem.expand
        order = config.ordering
        self._arrange = None if order.is_identity() else order.arrange
        self._trigger = config.anticipation_trigger
        self.root = make_root(problem)
        _state, g, h, _op, _parent = self.root
        self.coord = _Coordinator()
        # a pruned child's f is a candidate threshold
        self._prune = self.coord.pool.add
        self._prune(g + h)
        self.tick = 0
        self.donated_sent = 0
        self.donated_delivered = 0
        self.donated_dropped = 0
        self.last_progress = 0

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
            else:                       # a donation; empty is a refusal
                self.donated_delivered += len(payload)
                w.open.extend(payload)
                w.outstanding = False

    def _answer_request(self, donor, requester):
        kept, batch = donate(donor.open, self.config.donation_fraction,
                             self.config.donate_from)
        if batch:
            donor.open.clear()
            donor.open.extend(kept)
            self.donated_sent += len(batch)
        self._send(donor, requester, "don", batch)

    # -- pass/threshold management ----------------------------------------

    def _start_pass(self, cl, threshold):
        self.coord.granted.append(threshold)
        cl.threshold = threshold
        cl.reset()
        cl.members[0].open.append(self.root)
        if self.config.distribution == "BreadthFirst":
            self._split(cl)
        else:                           # KumarRao: lead starts, others beg
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
                w.open.clear()
                w.open.extend(frontier[j::k])
            cl.phase = "searching"
        else:
            cl.level_left = len(frontier)
            cl.phase = "distributing"

    def _expand_level(self, w, node):
        """Expand node, which w, a distributing cluster's lead, has just
        popped.  Its children go to a fresh list, which an ordering
        policy arranges, and join the tail in the order they pop, as
        the next level; the level's last expansion splits."""
        cl = w.cluster
        kids = []
        ops = self._expand_node(node, cl.threshold, kids.append, self._prune)
        if ops is GOAL:
            self._report_solution(cl, node)
            return
        w.stats.nodes_generated += len(ops)
        if len(kids) > 1 and self._arrange is not None:
            kids = self._arrange(kids, node[4] is None)
        w.open.extend(reversed(kids))
        cl.level_left -= 1
        if not cl.level_left:
            self._split(cl)

    def _grant_pending(self):
        """Grant the never-granted clusters thresholds, in cluster order.
        A cluster is pending only until its first grant, so the pending
        ones are the tail of the cluster list that self.pending holds,
        and each one's members join the awake list's end at its grant.
        Grants, completed passes and a held solution only rule candidates
        out, so once no candidate is left a new one can come only with a
        new pool value, and a call before then refuses again: run calls
        it only once the pool outgrows refused_size."""
        pending = self.pending
        coord = self.coord
        while pending:
            v = coord.next_unclaimed(below=coord.holding_cost())
            if v is None:
                # nor is there one for a later cluster
                self.refused_size = len(coord.pool)
                return
            cl = pending.popleft()
            self._start_pass(cl, v)
            self.awake_workers.extend(cl.members)
        self.refused_size = sys.maxsize

    def _pass_complete(self, cl):
        # every pruned f joins the pool, and a pass that pruned nothing
        # swept the whole space, so no pass can prune above its
        # threshold: this pass pruned nothing exactly when the pool's
        # largest value is at most its threshold
        if self.coord.held is None and max(self.coord.pool) <= cl.threshold:
            raise SpaceExhausted(
                "a pass completed without pruning or solving")
        self.coord.max_done = max(self.coord.max_done, cl.threshold)
        self.coord.reevaluate()
        if self.coord.accepted is not None:
            return
        # with a solution held, only thresholds below its cost matter
        hold = self.coord.holding_cost()
        v = self.coord.next_unclaimed(below=hold)
        if v is None:
            if hold is not None:
                cl.phase = "done"
                self.done.append(cl)
                return
            v = self.coord.extrapolate()
        self._start_pass(cl, v)

    def _report_solution(self, cl, node):
        # a cluster is done once it reports, so this is its one report;
        # the coordinator holds it, with each worker's expansions in this,
        # the finder's final pass, if it is the best solution so far
        final_pass = [0] * len(self.workers)
        for w in cl.members:
            final_pass[w.wid] = w.stats.nodes_expanded - w.pass_start
        self.coord.hold(node[1], path_to(node), final_pass)
        cl.phase = "done"
        self.done.append(cl)
        cl.reset()
        self.coord.reevaluate()

    # -- worker stepping --------------------------------------------------

    def _step(self, w):
        """One tick of worker w alone; see _steps."""
        return self._steps((w,))

    def _steps(self, workers):
        """Step each of workers once, in order, and return the worker
        whose step accepted a solution, or None.

        A step takes the worker's due messages, then expands the head of
        its open list or idles.  Expansion pushes the kept children onto
        the head, first operator first; under an ordering policy they go
        to a fresh list, which arrange puts in stack order and
        extendleft moves onto the head.  Only the lead holds nodes while
        its cluster is distributing, and _expand_level steps it.  A
        searching cluster's pass ends at an expansion that leaves its
        worker's list empty while the cluster is quiet (see _Cluster).
        Only _report_solution, _split and _pass_complete can accept a
        solution.  A call that expanded stores its tick as the last
        progress."""
        tick = self.tick
        expand = self._expand_node
        prune = self._prune
        arrange = self._arrange
        trigger = self._trigger
        coord = self.coord
        node = None                     # set by every expansion
        for w in workers:
            inbox = w.inbox
            if inbox and inbox[0][0] <= tick:
                self._deliver(w)
            cl = w.cluster
            open_ = w.open
            if not open_:
                if cl.phase == "searching" and cl.can_balance \
                        and not w.outstanding:
                    self._request_work(w)
                continue
            node = open_.popleft()
            stats = w.stats
            stats.nodes_expanded += 1
            if cl.phase == "distributing":
                self._expand_level(w, node)
                if coord.accepted is not None:
                    return w
                continue
            if arrange is None:
                ops = expand(node, cl.threshold, w.push, prune)
            else:
                kids = []
                ops = expand(node, cl.threshold, kids.append, prune)
                if len(kids) > 1:
                    kids = arrange(kids, node[4] is None)
                open_.extendleft(kids)
            if ops:
                stats.nodes_generated += len(ops)
            elif ops is GOAL:
                self._report_solution(cl, node)
                if coord.accepted is not None:
                    return w
                continue
            if open_:
                # ask for work before the list runs dry
                if trigger and len(open_) <= trigger and cl.can_balance \
                        and not w.outstanding:
                    self._request_work(w)
            elif cl.quiet():
                self._pass_complete(cl)
                if coord.accepted is not None:
                    return w
            elif cl.can_balance and not w.outstanding:
                self._request_work(w)
        if node is not None:
            self.last_progress = tick
        return None

    def _request_work(self, w):
        target, w.flip = poll_target(w.position, w.cluster.members, w.flip,
                                     w.rng, self.config.polling)
        w.outstanding = True
        self._send(w, target, "req", w)

    # -- main loop ----------------------------------------------------------

    def _tick(self):
        """Step every awake worker once, in id order, and return the
        worker whose step accepted a solution, or None.

        The awake workers are the members of every cluster granted a
        threshold, less those of the done clusters gone silent.  A done
        cluster's member holds no node and is not searching, so its step
        only takes due messages: it drops stale ones, takes an empty
        donation or refuses a request.  Done is terminal and messages
        never cross clusters, so once no member of a done cluster has a
        message queued it stays silent, and when every done cluster is
        silent their members leave the list for good."""
        done = self.done
        if done and not any(w.inbox for cl in done for w in cl.members):
            done.clear()
            self.awake_workers = [w for w in self.awake_workers
                                  if w.cluster.phase != "done"]
        return self._steps(self.awake_workers)

    def run(self):
        """Tick until a step accepts a solution, and report.  A tick
        grants pending clusters thresholds only once the pool has
        outgrown refused_size, then steps the awake workers.  A run ends
        without a solution in one of two ways.  A pass that ends having
        pruned nothing, with no solution held, raises SpaceExhausted from
        _pass_complete.  A run that expands nothing for _NO_PROGRESS_CAP
        ticks, as when passes never end, or outlasts its tick cap raises
        EngineStall naming the tick of its last expansion."""
        cap = max(100000, 50 * self.serial.total_expanded)
        pool = self.coord.pool
        while True:
            if len(pool) > self.refused_size:
                self._grant_pending()
            accepting = self._tick()
            if accepting is not None:
                break
            self.tick += 1
            if self.tick > cap or \
                    self.tick - self.last_progress > _NO_PROGRESS_CAP:
                raise EngineStall(
                    f"no acceptance after {self.tick} ticks "
                    f"(last progress at tick {self.last_progress})")
        makespan = self.tick + 1
        # a tick would visit every worker once, in id order, and the run
        # ends inside the accepting step: a worker's idle ticks are its
        # visits less its expansions
        for w in self.workers:
            w.stats.idle_ticks = (makespan - (w.wid > accepting.wid)
                                  - w.stats.nodes_expanded)
        return self._finish(float(makespan),
                            self.serial.total_expanded / makespan, "sim")

    def _finish(self, makespan, speedup, mode):
        """Build the report once a solution is accepted; the driver
        supplies its clock's makespan and the speedup it implies.  The
        accepted solution carries its finder's final-pass expansions."""
        cost, path, final_pass = self.coord.accepted
        # undelivered donations count as returned work
        for w in self.workers:
            for _due, _epoch, kind, payload in w.inbox:
                if kind == "don":
                    self.donated_dropped += len(payload)
        balanced = (self.donated_sent
                    == self.donated_delivered + self.donated_dropped)
        max_per_worker = max(w.stats.nodes_expanded for w in self.workers)
        return EngineReport(
            solution_path=path,
            solution_cost=cost,
            per_worker=[w.stats for w in self.workers],
            makespan=makespan,
            serial_equivalent_nodes=self.serial.total_expanded,
            speedup=speedup,
            mode=mode,
            workers=len(self.workers),
            clusters=self.config.clusters,
            thresholds_granted=list(self.coord.granted),
            final_pass_expansions=final_pass,
            tokens_balanced=balanced,
            max_worker_expansions=max_per_worker,
        )


def run_sim(problem, config, workers, latency=1, seed=0, serial_outcome=None):
    """Run the parallel engine in deterministic simulation mode."""
    return _SimEngine(problem, config, workers, latency, seed,
                      serial_outcome).run()
