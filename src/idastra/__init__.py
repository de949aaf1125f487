"""Adaptive parallel iterative-deepening A* with learned strategy selection."""

from idastra._backend import backend_name
from idastra.core import (PassResult, SearchOutcome, cost_bounded_dfs,
                          make_root, next_threshold, serial_idastar)
from idastra.ordering import OrderPolicy, toida_scores_from_trace

__version__ = "0.1.0"

__all__ = [
    "backend_name",
    "PassResult",
    "SearchOutcome",
    "cost_bounded_dfs",
    "make_root",
    "next_threshold",
    "serial_idastar",
    "OrderPolicy",
    "toida_scores_from_trace",
    "__version__",
]
