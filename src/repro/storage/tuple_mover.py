"""The tuple mover: compresses closed delta stores into row groups.

In SQL Server this is a background task; here it runs when invoked (tests
and benchmarks drive it explicitly, and the database facade exposes it as a
maintenance call). A run is a planned change
(:meth:`ColumnStoreIndex.plan_move`) installed like every other change of
row groups, through :meth:`ColumnStoreIndex.install_row_groups` inside the
statement's transaction: the new row groups are created and the
compressed-away delta stores retired at PENDING, both are stamped by the
commit, and a run that fails is rolled back. Under the concurrency
layer (DESIGN.md "Statement pipeline") a run takes the exclusive side of
the database lock, like any writer. A reader that pinned *before* the
run is unaffected — the mover never mutates a delta store
or row group in place, so a pinned snapshot (delta captures + the old
group list) keeps serving the same rows the statement started with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..observability import registry as metrics
from .columnstore import ColumnStoreIndex, RowGroupChange


@dataclass
class TupleMoverReport:
    """What one tuple-mover run did (for tests and observability)."""

    delta_stores_compressed: int = 0
    rows_moved: int = 0
    row_groups_created: int = 0
    group_ids: list[int] = field(default_factory=list)


class TupleMover:
    """Moves rows from closed delta stores into compressed row groups."""

    def __init__(self, index: ColumnStoreIndex) -> None:
        self.index = index

    def run(self, change: RowGroupChange, txn) -> TupleMoverReport:
        """Install a planned move under ``txn`` and report what it moved.

        ``change`` is :meth:`ColumnStoreIndex.plan_move`'s (or a replayed
        record's). A forced move (e.g. REORGANIZE with
        COMPRESS_ALL_ROW_GROUPS) is planned with
        ``plan_move(include_open=True)``: the open delta store is closed
        first. A delta store that is missing, or open when the move does
        not include it, raises :class:`~repro.errors.StorageError`.
        """
        index = self.index
        deltas = [index._delta_stores.get(delta_id) for delta_id in change.deltas]
        index.install_row_groups(change, txn)
        report = TupleMoverReport(
            delta_stores_compressed=len(deltas),
            rows_moved=sum(delta.row_count for delta in deltas),
            row_groups_created=len(change.groups),
            group_ids=[group.group_id for group in change.groups],
        )
        metrics.increment("storage.tuple_mover.runs")
        metrics.increment(
            "storage.tuple_mover.delta_stores_compressed",
            report.delta_stores_compressed,
        )
        metrics.increment("storage.tuple_mover.rows_moved", report.rows_moved)
        metrics.increment(
            "storage.tuple_mover.row_groups_created", report.row_groups_created
        )
        return report
