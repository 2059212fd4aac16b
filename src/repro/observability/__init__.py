"""Query-lifecycle observability: metrics registry + per-operator stats.

Three layers, built for the paper's quantitative claims to be checkable
from inside the engine:

* :mod:`.registry` — a process-wide :class:`MetricsRegistry` of counters
  and gauges that storage components (segment cache, columnstore
  scans, delta stores, the tuple mover, spill files) always report into;
* :mod:`.opstats` — :class:`OperatorStats` attached to every batch and
  row operator by the operator wrapper, counting only while
  :func:`collect` is on so stats-off execution pays nothing;
* :mod:`.report` — :class:`ExecutionStats`, the per-execution handle
  behind ``EXPLAIN ANALYZE``, ``Result.stats`` and the CLI ``--stats``
  flag.
"""

from .opstats import (
    OperatorStats,
    collect,
    collecting,
    disable,
    enable,
    operator_stats,
)
from .registry import (
    STABLE_COUNTERS,
    MetricsRegistry,
    MorphReason,
    get_registry,
    increment,
    set_registry,
    snapshot_delta,
)
from .report import ExecutionStats, OperatorNodeStats

__all__ = [
    "ExecutionStats",
    "MetricsRegistry",
    "MorphReason",
    "OperatorNodeStats",
    "OperatorStats",
    "STABLE_COUNTERS",
    "collect",
    "collecting",
    "disable",
    "enable",
    "get_registry",
    "increment",
    "operator_stats",
    "set_registry",
    "snapshot_delta",
]
