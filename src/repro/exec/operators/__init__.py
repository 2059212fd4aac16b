"""Batch-mode physical operators.

The expanded operator repertoire of the paper: columnstore scan (with
segment elimination, predicate pushdown — including evaluation on encoded
data — and bitmap-filter pushdown), filter, project, hash join with
spilling, hash aggregation with spilling, sort and top-n.
"""

from .base import BatchOperator
from .scan import ColumnStoreScan
from .filter import BatchFilter
from .project import BatchProject
from .hash_join import BatchHashJoin
from .hash_aggregate import BatchHashAggregate
from .sort import BatchSort, BatchTop

__all__ = [
    "BatchFilter",
    "BatchHashAggregate",
    "BatchHashJoin",
    "BatchOperator",
    "BatchProject",
    "BatchSort",
    "BatchTop",
    "ColumnStoreScan",
]
