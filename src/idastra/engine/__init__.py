from idastra.engine.config import (AXES, DEFAULT_CONFIG, StrategyConfig,
                                   config_for_axis_value, plan_clusters,
                                   validate_config)
from idastra.engine.parts import donate, poll_target
from idastra.engine.report import EngineReport, WorkerStats
from idastra.engine.sim import run_sim
from idastra.engine.run import run_parallel

__all__ = [
    "AXES",
    "DEFAULT_CONFIG",
    "StrategyConfig",
    "config_for_axis_value",
    "plan_clusters",
    "validate_config",
    "donate",
    "poll_target",
    "EngineReport",
    "WorkerStats",
    "run_sim",
    "run_parallel",
]
