"""Mode dispatch for the parallel engine."""

from idastra.errors import InvalidConfig


def run_parallel(problem, config, workers, mode="sim", latency=1, seed=0,
                 serial_outcome=None):
    """Run the engine in "sim" mode (deterministic simulation, the
    default) or "threads" mode (real threads, stalled after
    engine.threads.TIMEOUT seconds).

    latency is the simulated message latency in ticks and applies to
    "sim" only: threads deliver a message at the recipient's next step."""
    from idastra.engine.sim import run_sim
    from idastra.engine.threads import run_threads

    if mode not in ("sim", "threads"):
        raise InvalidConfig(f"unknown mode {mode!r}")
    if latency < 0:
        raise InvalidConfig("message latency must be >= 0")
    if mode == "sim":
        return run_sim(problem, config, workers, latency=latency, seed=seed,
                       serial_outcome=serial_outcome)
    return run_threads(problem, config, workers, seed=seed,
                       serial_outcome=serial_outcome)
