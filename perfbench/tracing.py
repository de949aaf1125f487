"""Call recording for the benchmark: result taps and the span tracer.

Both wrap public idastra functions where their callers look them up
(module attributes and class attributes), are installed for one round
and restored afterwards, so nothing under src/ is edited.

Coarse calls (each CLI command, run_parallel/run_sim/run_threads,
serial_idastar, shallow_search, extract_features, the learner calls and
curve_table) always become spans: name, start, end, parent span, run id,
self time and the counts their results carry.  They are few (hundreds a
round), so recording them costs nothing measurable.  With tracing on,
the hot per-node calls (domain expand, is_goal, heuristic, ordering
arrange, the kernels) are also counted and timed, in aggregate under
their enclosing span, never one span per call.
"""

import importlib
import threading
import time

_perf = time.perf_counter

# label -> lookup sites (module, attribute).  Every site of one function
# gets its own wrapper around the original, so calls are never counted twice.
COARSE_SITES = {
    "core.serial": [("idastra.core", "serial_idastar"),
                    ("idastra", "serial_idastar"),
                    ("idastra.cli", "serial_idastar"),
                    ("idastra.engine.sim", "serial_idastar"),
                    ("idastra.engine.threads", "serial_idastar")],
    "features.shallow_search": [("idastra.features", "shallow_search"),
                                ("idastra.cli", "shallow_search")],
    "features.extract": [("idastra.features", "extract_features"),
                         ("idastra.cli", "extract_features")],
    "engine.run_parallel": [("idastra.engine.run", "run_parallel"),
                            ("idastra.engine", "run_parallel"),
                            ("idastra.cli", "run_parallel")],
    "engine.sim": [("idastra.engine.sim", "run_sim"),
                   ("idastra.engine", "run_sim")],
    "engine.threads": [("idastra.engine.threads", "run_threads")],
    "analytics.curves": [("idastra.cli", "curve_table")],
    "cli": [("idastra.cli", "main")],
}
LEARNER_CALLS = ("read_store", "variance_filter", "induce_tree",
                 "cross_validate", "paired_t_test", "label_cases",
                 "append_cases", "classify", "save_tree", "load_tree")
for _name in LEARNER_CALLS:
    COARSE_SITES[f"learner.{_name}"] = [("idastra.cli", _name)]

# (label, module, class, method, whether to count the returned items)
HOT_SITES = [
    ("domains.expand", "idastra.domains.puzzle", "PuzzleProblem", "expand",
     True),
    ("domains.expand", "idastra.domains.synthetic", "ArtificialProblem",
     "expand", True),
    ("domains.is_goal", "idastra.domains.puzzle", "PuzzleProblem",
     "is_goal", False),
    ("domains.is_goal", "idastra.domains.synthetic", "ArtificialProblem",
     "is_goal", False),
    ("domains.heuristic", "idastra.domains.puzzle", "PuzzleProblem",
     "heuristic", False),
    ("domains.heuristic", "idastra.domains.synthetic", "ArtificialProblem",
     "heuristic", False),
    ("ordering.arrange", "idastra.ordering", "OrderPolicy", "arrange",
     False),
]
KERNEL_CALLS = ("puzzle_expand", "manhattan", "path_hash")


def _summary(label, args, result):
    """The counts a coarse call's result carries (deterministic in sim)."""
    if label == "core.serial":
        return {"expanded": result.total_expanded,
                "generated": result.total_generated,
                "passes": len(result.iterations), "cost": result.cost}
    if label == "features.shallow_search":
        return {"expanded": result.total_expanded,
                "generated": result.total_generated}
    if label in ("engine.sim", "engine.threads"):
        workers = result.per_worker
        return {"expanded": result.total_expanded,
                "generated": sum(w.nodes_generated for w in workers),
                "idle": sum(w.idle_ticks for w in workers),
                "messages": result.total_messages,
                "makespan": result.makespan,
                "workers": result.workers,
                "serial": result.serial_equivalent_nodes,
                "over_threshold": result.over_threshold_expansions,
                "balanced": result.tokens_balanced,
                "cost": result.solution_cost,
                "config": args[1].token()}
    if label == "learner.read_store":
        return {"cases": len(result)}
    return None


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "self_s",
                 "hot", "thread_hot", "info", "error", "in_threads")

    def __init__(self, sid, name, parent):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = self.end = None
        self.self_s = None
        self.hot = {}            # label -> [calls, total_s, self_s, items]
        self.thread_hot = []     # one such dict per worker thread
        self.info = None
        self.error = None
        self.in_threads = (name == "engine.threads"
                           or (parent is not None and parent.in_threads))

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self, run_id):
        return {"run": run_id, "id": self.sid, "name": self.name,
                "parent": None if self.parent is None else self.parent.sid,
                "start": self.start, "end": self.end, "self_s": self.self_s,
                "error": self.error, "info": self.info,
                "hot": _hot_json(self.hot),
                "thread_hot": _hot_json(_merge(self.thread_hot))}


def _hot_json(agg):
    return {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
            for k, v in sorted(agg.items())}


class Recorder:
    """Records one round's coarse calls as spans; with trace=True also the
    aggregated hot calls.  Use as a context manager around the round."""

    def __init__(self, trace, run_id):
        self.trace = trace
        self.run_id = run_id
        self.spans = []
        self.t0 = None
        self._open = None           # innermost open span (main thread)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # -- installation -------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        for label, sites in COARSE_SITES.items():
            for modname, attr in sites:
                mod = importlib.import_module(modname)
                self._patch(mod, attr, self._coarse(label,
                                                    getattr(mod, attr)))
        if self.trace:
            for label, modname, cls, attr, count in HOT_SITES:
                owner = getattr(importlib.import_module(modname), cls)
                self._patch(owner, attr,
                            self._hot(label, owner.__dict__[attr], count))
            kernels = importlib.import_module("idastra._backend").kernels
            for name in KERNEL_CALLS:
                self._patch(kernels, name,
                            self._hot(f"kernels.{name}",
                                      getattr(kernels, name), False))
        self._local.stack = [[0.0, {}]]
        self.t0 = _perf()
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- wrappers -----------------------------------------------------

    def _coarse(self, label, fn):
        rec = self

        def coarse(*args, **kwargs):
            name = label
            if label == "cli":
                argv = args[0] if args else kwargs.get("argv")
                name = f"cli.{argv[0]}"
            return rec._call(label, name, fn, args, kwargs)

        coarse.__wrapped__ = fn
        return coarse

    def _call(self, label, name, fn, args, kwargs):
        parent = self._open
        span = Span(len(self.spans), name, parent)
        self.spans.append(span)
        self._open = span
        stack = self._local.stack
        frame = [0.0, span.hot]
        stack.append(frame)
        span.start = _perf() - self.t0
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = _perf() - self.t0
            stack.pop()
            dur = span.end - span.start
            span.self_s = dur - frame[0]
            stack[-1][0] += dur
            self._open = parent
        span.info = _summary(label, args, result)
        return result

    def _thread_stack(self):
        """First hot call on a worker thread: its calls aggregate in a dict
        of its own, kept on the span open in the main thread (run_threads)."""
        agg = {}
        with self._lock:
            if self._open is not None:
                self._open.thread_hot.append(agg)
        stack = [[0.0, agg]]
        self._local.stack = stack
        return stack

    def _hot(self, label, fn, count_len):
        local = self._local
        rec = self

        def hot(*args):
            try:
                stack = local.stack
            except AttributeError:
                stack = rec._thread_stack()
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args)
            finally:
                dt = _perf() - t0
                stack.pop()
                parent[0] += dt
                agg = parent[1].get(label)
                if agg is None:
                    agg = parent[1][label] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
            if count_len:
                agg[3] += len(result)
            return result

        hot.__wrapped__ = fn
        return hot

    # -- summaries ----------------------------------------------------

    def hot_totals(self):
        """Aggregated hot calls over every span outside real threads."""
        return _merge(span.hot for span in self.spans if not span.in_threads)

    def spans_json(self):
        return [span.to_json(self.run_id) for span in self.spans]


def _merge(aggs):
    totals = {}
    for agg in aggs:
        for label, v in agg.items():
            t = totals.setdefault(label, [0, 0.0, 0.0, 0])
            for i in range(4):
                t[i] += v[i]
    return totals
