"""Real-thread execution of the same worker protocol.

Wall-clock timing replaces the virtual clock, so reports from this mode
are not deterministic and speedups mostly reflect interpreter overhead;
the mode exists to check the protocol against a genuinely concurrent
schedule.  Coordination state lives behind two locks (coordinator, then
per-cluster; never acquired in the other order).
"""

import queue
import threading
import time
from collections import deque

from idastra.core import SearchNode, make_root, serial_idastar
from idastra.engine.config import plan_clusters, validate_config
from idastra.engine.parts import donate, poll_target
from idastra.engine.report import EngineReport, WorkerStats
from idastra.engine.sim import _Coordinator
from idastra.errors import EngineStall, SpaceExhausted

_IDLE_SLEEP = 0.0002


class _TWorker:
    def __init__(self, wid, rng_seed):
        self.wid = wid
        self.cluster = None
        self.position = 0
        self.open = deque()
        self.inbox = queue.SimpleQueue()
        self.stats = WorkerStats()
        self.outstanding = False
        self.flip = True
        self.rng_seed = rng_seed
        self.pass_expanded = 0


class _TCluster:
    def __init__(self, cid, members):
        self.cid = cid
        self.members = members
        self.lock = threading.Lock()
        self.threshold = None
        self.epoch = 0
        self.phase = "pending"
        self.live_nodes = 0
        self.min_exceed = None
        self.last_pass_expansions = [0] * len(members)


class _ThreadEngine:
    def __init__(self, problem, config, workers, seed, timeout,
                 serial_outcome=None):
        validate_config(config, workers)
        self.problem = problem
        self.config = config
        self.P = workers
        self.timeout = timeout
        self.order = (None if config.ordering.is_identity()
                      else config.ordering)
        t0 = time.perf_counter()
        if serial_outcome is None:
            serial_outcome = serial_idastar(problem, order=self.order)
        self.serial = serial_outcome
        self.serial_wall = max(time.perf_counter() - t0, 1e-9)

        self.workers = [_TWorker(w, seed * 65599 + w) for w in range(workers)]
        self.clusters = []
        for cid, block in enumerate(plan_clusters(workers, config.clusters)):
            members = [self.workers[w] for w in block]
            cl = _TCluster(cid, members)
            for pos, w in enumerate(members):
                w.cluster = cl
                w.position = pos
            self.clusters.append(cl)
        self.root = make_root(problem)
        self.coord = _Coordinator(self.root.f)
        self.coord_lock = threading.Lock()
        self.stop = threading.Event()
        self.failed = None
        self.accepting_cluster = 0
        self.donated_sent = 0
        self.donated_delivered = 0
        self.donated_dropped = 0

    # coordinator actions (call with coord_lock held)

    def _grant_locked(self, below=None):
        if not self.coord.granted_order:
            return self.root.f
        v = self.coord.next_unclaimed(below=below)
        if v is None and below is None:
            v = self.coord.extrapolate()
        return v

    def _start_pass(self, cl, threshold):
        # caller holds cl.lock and coord_lock
        self.coord.claim(threshold)
        cl.threshold = threshold
        cl.epoch += 1
        cl.min_exceed = None
        cl.live_nodes = 0
        for w in cl.members:
            w.open.clear()
            w.outstanding = False
            w.pass_expanded = 0
        cl.phase = "seeding"

    def _seed_pass(self, cl, runner):
        """Distribute the root (some expansions happen on the runner)."""
        root = SearchNode(self.root.state, self.root.g, self.root.h,
                          self.root.f, -1, ())
        if self.config.distribution == "KumarRao":
            with cl.lock:
                cl.members[0].open.append(root)
                cl.live_nodes = 1
                cl.phase = "searching"
            return
        k = len(cl.members)
        level = [root]
        while level and len(level) < k:
            nxt = []
            for node in level:
                kept = self._expand(runner, cl, node)
                if kept is None:
                    return              # goal reported during seeding
                nxt.extend(kept)
            level = nxt
        with cl.lock:
            for j, w in enumerate(cl.members):
                w.open.extend(level[j::k])
            cl.live_nodes = len(level)
            cl.phase = "searching"
        if not level:
            self._pass_complete(cl)

    def _pass_complete(self, cl):
        with self.coord_lock:
            cl.last_pass_expansions = [w.pass_expanded for w in cl.members]
            if cl.min_exceed is None and not self.coord.solutions:
                self.failed = SpaceExhausted(
                    "a pass completed without pruning or solving")
                self.stop.set()
                return
            self.coord.mark_done(cl.threshold)
            self.coord.reevaluate()
            if self.coord.accepted is not None:
                self.accepting_cluster = self.coord.best_solution()[3]
                self.stop.set()
                return
            hold = self.coord.holding_cost()
            v = self._grant_locked(below=hold)
            if v is None:
                with cl.lock:
                    cl.phase = "done"
                return
            with cl.lock:
                self._start_pass(cl, v)
        self._seed_pass(cl, cl.members[0])

    def _report_solution(self, cl, node):
        with self.coord_lock:
            cl.last_pass_expansions = [w.pass_expanded for w in cl.members]
            self.coord.solutions.append(
                (node.g, node.path, cl.threshold, cl.cid))
            with cl.lock:
                cl.phase = "holding"
                for w in cl.members:
                    w.open.clear()
                    w.outstanding = False
                cl.live_nodes = 0
                cl.epoch += 1
            self.coord.reevaluate()
            if self.coord.accepted is not None:
                self.accepting_cluster = self.coord.best_solution()[3]
                self.stop.set()

    def _expand(self, w, cl, node):
        w.stats.nodes_expanded += 1
        w.pass_expanded += 1
        if self.problem.is_goal(node.state):
            self._report_solution(cl, node)
            return None
        raw = self.problem.expand(node.state, node.prev_op, node.h)
        if self.order is not None:
            raw = self.order.arrange(raw, not node.path)
        w.stats.nodes_generated += len(raw)
        kept = []
        pruned = []
        for child_state, op, cost, h in raw:
            cg = node.g + cost
            cf = cg + h
            if cf > cl.threshold:
                pruned.append(cf)
            else:
                kept.append(SearchNode(child_state, cg, h, cf, op,
                                       node.path + (op,)))
        if pruned:
            with self.coord_lock:
                for cf in pruned:
                    self.coord.add_candidate(cf)
            with cl.lock:
                for cf in pruned:
                    if cl.min_exceed is None or cf < cl.min_exceed:
                        cl.min_exceed = cf
        return kept

    def _drain_inbox(self, w, cl):
        while True:
            try:
                epoch, kind, payload = w.inbox.get_nowait()
            except queue.Empty:
                return
            with cl.lock:
                if epoch != cl.epoch:
                    if kind == "don":
                        with self.coord_lock:
                            self.donated_dropped += len(payload)
                    continue
                if kind == "don":
                    w.open.extend(payload)
                    w.outstanding = False
                    with self.coord_lock:
                        self.donated_delivered += len(payload)
                elif kind == "ref":
                    w.outstanding = False
                else:                   # req
                    self._answer_request_locked(w, cl, payload)

    def _answer_request_locked(self, donor, cl, requester_wid):
        requester = self.workers[requester_wid]
        kept, batch = donate(donor.open, self.config.donation_fraction,
                             self.config.donate_from)
        donor.stats.messages_sent += 1
        if batch and cl.phase == "searching":
            donor.open = deque(kept)
            with self.coord_lock:
                self.donated_sent += len(batch)
            requester.inbox.put((cl.epoch, "don", batch))
        else:
            requester.inbox.put((cl.epoch, "ref", None))

    def _worker_loop(self, w):
        import random
        rng = random.Random(w.rng_seed)
        cl = w.cluster
        try:
            while not self.stop.is_set():
                self._drain_inbox(w, cl)
                with cl.lock:
                    phase = cl.phase
                    node = None
                    if phase == "searching" and w.open:
                        node = w.open.popleft()
                        cl.live_nodes -= 1
                if node is None:
                    if phase == "searching" and self.config.load_balancing \
                            and len(cl.members) > 1 and not w.outstanding:
                        members = [m.wid for m in cl.members]
                        target, w.flip = poll_target(
                            w.position, members, w.flip, rng,
                            self.config.polling)
                        if target is not None:
                            w.outstanding = True
                            w.stats.messages_sent += 1
                            self.workers[target].inbox.put(
                                (cl.epoch, "req", w.wid))
                    w.stats.idle_ticks += 1
                    time.sleep(_IDLE_SLEEP)
                    continue
                kept = self._expand(w, cl, node)
                if kept is None:
                    continue
                finished = False
                with cl.lock:
                    if kept:
                        w.open.extendleft(reversed(kept))
                        cl.live_nodes += len(kept)
                    elif cl.live_nodes == 0 and cl.phase == "searching":
                        finished = True
                if finished:
                    self._pass_complete(cl)
        except Exception as exc:        # surface worker crashes to the caller
            self.failed = exc
            self.stop.set()

    def run(self):
        start = time.perf_counter()
        with self.coord_lock:
            with self.clusters[0].lock:
                self._start_pass(self.clusters[0], self.root.f)
        self._seed_pass(self.clusters[0], self.clusters[0].members[0])
        granter = threading.Thread(target=self._granter, daemon=True)
        threads = [threading.Thread(target=self._worker_loop, args=(w,),
                                    daemon=True)
                   for w in self.workers]
        for t in threads:
            t.start()
        granter.start()
        done = self.stop.wait(self.timeout)
        self.stop.set()
        for t in threads:
            t.join(timeout=2.0)
        granter.join(timeout=2.0)
        if self.failed is not None:
            raise self.failed
        if not done:
            raise EngineStall(f"no acceptance within {self.timeout}s")
        wall = max(time.perf_counter() - start, 1e-9)
        return self._finish(wall)

    def _granter(self):
        """Feed pending clusters as candidate thresholds appear."""
        while not self.stop.is_set():
            for cl in self.clusters:
                if cl.phase != "pending":
                    continue
                with self.coord_lock:
                    hold = self.coord.holding_cost()
                    v = self.coord.next_unclaimed(below=hold)
                    if v is None:
                        continue
                    with cl.lock:
                        self._start_pass(cl, v)
                self._seed_pass(cl, cl.members[0])
            time.sleep(_IDLE_SLEEP)

    def _finish(self, wall):
        cost, path = self.coord.accepted
        for w in self.workers:
            while True:
                try:
                    _epoch, kind, payload = w.inbox.get_nowait()
                except queue.Empty:
                    break
                if kind == "don":
                    self.donated_dropped += len(payload)
        balanced = (self.donated_sent
                    == self.donated_delivered + self.donated_dropped)
        finder = self.clusters[self.accepting_cluster]
        final_pass = [0] * self.P
        for pos, w in enumerate(finder.members):
            final_pass[w.wid] = finder.last_pass_expansions[pos]
        return EngineReport(
            solution_path=path,
            solution_cost=cost,
            per_worker=[w.stats for w in self.workers],
            makespan=wall,
            serial_equivalent_nodes=self.serial.total_expanded,
            speedup=self.serial_wall / wall,
            mode="threads",
            workers=self.P,
            clusters=self.config.clusters,
            thresholds_granted=list(self.coord.granted_order),
            final_pass_expansions=final_pass,
            tokens_balanced=balanced,
            over_threshold_expansions=0,
            max_worker_expansions=max(w.stats.nodes_expanded
                                      for w in self.workers),
        )


def run_threads(problem, config, workers, seed=0, timeout=60.0,
                serial_outcome=None):
    """Run the parallel engine on real threads (wall-clock timing)."""
    return _ThreadEngine(problem, config, workers, seed, timeout,
                         serial_outcome).run()
