"""Run accounting."""

from dataclasses import dataclass, field


@dataclass(slots=True)
class WorkerStats:
    nodes_expanded: int = 0
    nodes_generated: int = 0
    # sim: the run's ticks without an expansion, read off the clock when
    # it ends; threads: the idle polls, steps that expanded nothing
    idle_ticks: int = 0
    messages_sent: int = 0


@dataclass(slots=True)
class EngineReport:
    solution_path: tuple
    solution_cost: int
    per_worker: list                    # WorkerStats by worker id
    makespan: float                     # virtual ticks (sim) or seconds
    serial_equivalent_nodes: int
    speedup: float
    mode: str
    workers: int
    clusters: int
    thresholds_granted: list = field(default_factory=list)
    final_pass_expansions: list = field(default_factory=list)
    tokens_balanced: bool = True
    over_threshold_expansions: int = 0
    max_worker_expansions: int = 0

    @property
    def total_expanded(self):
        return sum(w.nodes_expanded for w in self.per_worker)

    @property
    def total_messages(self):
        return sum(w.messages_sent for w in self.per_worker)
