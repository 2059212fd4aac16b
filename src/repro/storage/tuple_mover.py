"""The tuple mover: compresses closed delta stores into row groups.

In SQL Server this is a background task; here it runs when invoked (tests
and benchmarks drive it explicitly, and the database facade exposes it as a
maintenance call). Each closed delta store is materialized column-wise,
compressed through the bulk loader, and dropped — after which its rows are
served from the new compressed row group.

Under the concurrency layer (DESIGN.md "Statement pipeline") a tuple-mover run
takes the exclusive side of the database lock, like any writer: no
reader is mid-pin and no DML is mid-statement while it reorganizes. A
reader that pinned *before* the run is unaffected — the mover never
mutates a delta store or row group in place, it builds new row groups
and swaps the directory, so a pinned snapshot (frozen delta copies +
the old group list) keeps serving the same rows the statement started
with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..observability import registry as metrics
from .columnstore import ColumnStoreIndex


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

    def run(self, include_open: bool = False) -> TupleMoverReport:
        """Compress every closed delta store (optionally the open one too).

        ``include_open`` models a forced move (e.g. REORGANIZE with
        COMPRESS_ALL_ROW_GROUPS): the open delta store is closed first.
        """
        if include_open:
            self.index.close_open_delta()
        report = TupleMoverReport()
        # The whole reorganization installs one new epoch: replacement
        # row groups become visible at it, the compressed-away delta
        # stores are retired at it — a snapshot reader pinned before the
        # run keeps scanning the retired deltas, one pinned after sees
        # only the new groups. Vacuum then frees whatever no reader needs.
        with self.index.mvcc.installing() as epoch:
            for delta in self.index.closed_delta_stores():
                columns, null_masks, _row_ids = delta.to_columns()
                with self.index.directory.creating_at(epoch):
                    groups = self.index.loader.load_columns(columns, null_masks)
                report.rows_moved += delta.row_count
                self.index._retire_delta(delta, epoch)
                report.delta_stores_compressed += 1
                report.row_groups_created += len(groups)
                report.group_ids.extend(g.group_id for g in groups)
        self.index.vacuum()
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
