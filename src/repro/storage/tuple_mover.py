"""The tuple mover: compresses closed delta stores into row groups.

In SQL Server this is a background task; here it runs when invoked (tests
and benchmarks drive it explicitly, and the database facade exposes it as a
maintenance call). Each closed delta store's live columns are gathered,
compressed through the bulk loader, and dropped — after which its rows are
served from the new compressed row group.

Under the concurrency layer (DESIGN.md "Statement pipeline") a tuple-mover run
takes the exclusive side of the database lock, like any writer: no
reader is mid-pin and no DML is mid-statement while it reorganizes. A
reader that pinned *before* the run is unaffected — the mover never
mutates a delta store or row group in place, it builds new row groups
and swaps the directory, so a pinned snapshot (delta captures + the
old group list) keeps serving the same rows the statement started
with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import StorageError
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

    def run(self, change: RowGroupChange | None = None) -> TupleMoverReport:
        """Install a planned move: its row groups go in and its delta
        stores are retired.

        ``change`` is :meth:`ColumnStoreIndex.plan_move`'s (or a replayed
        record's); without one, every closed delta store is compressed. A
        forced move (e.g. REORGANIZE with COMPRESS_ALL_ROW_GROUPS) is
        planned with ``plan_move(include_open=True)``: the open delta
        store is closed first.
        """
        index = self.index
        change = change or index.plan_move()
        if change.include_open:
            index.close_open_delta()
        deltas = [index._delta_stores.get(delta_id) for delta_id in change.deltas]
        if any(delta is None or delta.is_open for delta in deltas):
            raise StorageError(f"the tuple mover found no closed delta store among {change.deltas}")
        report = TupleMoverReport(
            delta_stores_compressed=len(deltas),
            rows_moved=sum(delta.row_count for delta in deltas),
            row_groups_created=len(change.groups),
            group_ids=[group.group_id for group in change.groups],
        )
        # The whole reorganization installs one new epoch: replacement
        # row groups become visible at it, the compressed-away delta
        # stores are retired at it — a snapshot reader pinned before the
        # run keeps scanning the retired deltas, one pinned after sees
        # only the new groups. Vacuum then frees whatever no reader needs.
        with index.mvcc.installing() as epoch:
            with index.directory.creating_at(epoch):
                index.directory.install(change.groups)
            for delta in deltas:
                index._retire_delta(delta, epoch)
        index.vacuum()
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
