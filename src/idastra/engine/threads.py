"""Real-thread driver of the sim engine's worker protocol.

One thread per worker steps the same `_SimEngine` the deterministic
simulator runs, so the protocol (seeding, donation, pass completion,
the optimality gate) exists once.  Wall-clock time replaces the virtual
clock: reports are not deterministic, and the speedup is the serial
search's wall time over this run's.  Under the GIL the mode shows the
protocol against a genuinely concurrent schedule, not parallel speed.

Lock discipline: one engine lock.  A worker thread holds it for each
check-grant-and-step: it reads `coord.accepted` and stops if a solution
is accepted, and otherwise runs `_grant_pending` then `_step` of its own
worker, counting a step that expands nothing as an idle poll in the
worker's `idle_ticks`.  Nothing else touches engine state until every
worker thread is joined; only then does the calling thread read the
engine to build the report.  A search writes no problem state, so the
problem itself needs no lock: the engine reads problem.expand once, in
_SimEngine.__init__ before any thread starts, and that binding writes
nothing either (the kernel, or a partial over the problem's tables,
which every worker calls).  A step that exhausts the space raises
SpaceExhausted in its worker thread, which stops the run and re-raises
it in the caller.
Messages are delivered at the recipient's next step (latency 0):
run_parallel's `latency` (the CLI's `--latency`) applies to "sim" only.
"""

import threading
import time

# not called here, since the engine runs the serial baseline, but bound
# as a lookup site that perfbench/tracing.py patches
from idastra.core import serial_idastar  # noqa: F401
from idastra.engine.sim import _SimEngine
from idastra.errors import EngineStall

_IDLE_SLEEP = 0.0002
# seconds a run may take before it is declared stalled
TIMEOUT = 60.0


def run_threads(problem, config, workers, seed=0, serial_outcome=None):
    """Run the parallel engine on real threads (wall-clock timing)."""
    # the engine validates the config and runs the serial baseline
    engine = _SimEngine(problem, config, workers, 0, seed, serial_outcome)
    lock = threading.Lock()
    stop = threading.Event()
    failed = []

    def work(w):
        try:
            while not stop.is_set():
                with lock:
                    # _step would expand on past an acceptance
                    if engine.coord.accepted is not None:
                        stop.set()
                        return
                    before = w.stats.nodes_expanded
                    engine._grant_pending()
                    engine._step(w)
                    busy = w.stats.nodes_expanded != before
                    if not busy:
                        w.stats.idle_ticks += 1
                if not busy:
                    time.sleep(_IDLE_SLEEP)
        except Exception as exc:        # surface worker crashes to the caller
            failed.append(exc)
            stop.set()

    threads = [threading.Thread(target=work, args=(w,))
               for w in engine.workers]
    start = time.perf_counter()
    for t in threads:
        t.start()
    try:
        stop.wait(TIMEOUT)
    finally:
        stop.set()
        for t in threads:
            t.join()
    wall = max(time.perf_counter() - start, 1e-9)
    if failed:
        raise failed[0]
    if engine.coord.accepted is None:
        raise EngineStall(f"no acceptance within {TIMEOUT}s")
    return engine._finish(wall, engine.serial.wall_s / wall, "threads")
