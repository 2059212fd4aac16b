"""Process-wide metrics registry: counters, gauges, and timers.

Storage components (segment cache, columnstore scans, delta stores, the
tuple mover, spill files) report into a :class:`MetricsRegistry` so the
engine can prove, from the inside, what a query actually did — row groups
eliminated, cache hits paid for, bytes spilled. The paper's claims are
quantitative; this registry is how the repo's benchmarks assert them via
engine counters instead of wall clock alone.

A single process-wide registry (:func:`get_registry`) is the default
sink. Tests that need isolation install their own instance with
:func:`set_registry` (or simply call :meth:`MetricsRegistry.reset`).

Counter names are dotted paths (``storage.scan.units_eliminated``); the
names listed in ``STABLE_COUNTERS`` are a stable API documented in the
README — benchmarks and external tooling may rely on them.
"""

from __future__ import annotations

import enum
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


class MorphReason(enum.Enum):
    """Why a column (or a whole scan unit) left encoded space.

    Compressed execution keeps a column encoded until an explicit
    *morph point* — ``ColumnStoreScan._decode``, or for a vector handed
    to a hash join its ``_plain_except`` — turns it into plain rows, and
    every morph names its reason from this closed set. Each
    event bumps ``storage.scan.morph.<value>``; ``EXPLAIN ANALYZE`` shows
    the non-zero ones on the scan's line. The entries below are the
    fallback matrix (DESIGN.md "Compressed execution" renders them, and
    a test keeps the two identical):

    ``delta_unit``
        Delta-store unit under an encoded-input aggregate: delta rows
        are never compressed, so the unit arrives as plain batches and
        merges into the same accumulators (one event per unit).
    ``archived``
        Archived segment: it hands out no vector (dictionary and code
        stream would each decompress the archive), so a key or argument
        the consumer could have taken encoded is decoded once instead.
    ``key_not_dictionary``
        Group key whose segment hands out no vector (value-encoded
        bit-packed, or raw): every key of the unit is decoded and the
        aggregate codes them itself. Dictionary and run-length keys are
        taken as codes.
    ``key_space_overflow``
        The keys' combined code space (product of dictionary sizes + 1
        NULL slot each) exceeds 2^62 cells, past what one int64
        mixed-radix key can hold: the keys are decoded.
    ``bitmap_or_locators``
        A join bitmap probes the column's values, or row locators ride on
        the scan: the probed column is decoded, and under an encoded-input
        aggregate so is the whole unit (rows must leave one by one).
    ``inexact_float_sum``
        Scalar SUM/AVG over a non-integer column: float addition is not
        associative, so value x weight would change the bits; the
        argument is decoded and accumulated per row in storage order.
    ``no_vector``
        Scalar argument on a bit-packed or raw segment: there are no
        distinct values to weigh, so the argument is decoded.
    ``residual_predicate``
        A conjunct that could be evaluated neither on the column's
        distinct values nor from its [min, max] (multi-column, or the
        segment has no vector): its columns are decoded to evaluate it.
    ``output``
        The consumer takes the column as plain rows: every column of a
        scan with no encoded-input consumer, and grouped aggregate
        arguments (each row updates its own group).
    ``join_cannot_carry``
        Raised by a hash join, not the scan: a vector reached a join that
        cannot gather it still encoded — it spilled (spill files hold
        plain columns), it null-extends the probe side (RIGHT/FULL), or
        its own consumer never declared the column — so the join decoded
        it (one event per vector per batch).
    """

    DELTA_UNIT = "delta_unit"
    ARCHIVED = "archived"
    KEY_NOT_DICTIONARY = "key_not_dictionary"
    KEY_SPACE_OVERFLOW = "key_space_overflow"
    BITMAP_OR_LOCATORS = "bitmap_or_locators"
    INEXACT_FLOAT_SUM = "inexact_float_sum"
    NO_VECTOR = "no_vector"
    RESIDUAL_PREDICATE = "residual_predicate"
    OUTPUT = "output"
    JOIN_CANNOT_CARRY = "join_cannot_carry"

    @property
    def counter(self) -> str:
        return f"storage.scan.morph.{self.value}"


# Counters whose names and meanings are frozen (documented in README).
STABLE_COUNTERS = (
    "storage.cache.hits",
    "storage.cache.misses",
    "storage.cache.evictions",
    "storage.scan.units_seen",
    "storage.scan.units_eliminated",
    "storage.scan.units_eliminated_by_bitmap",
    "storage.scan.rows_scanned",
    "storage.scan.rows_emitted",
    "storage.scan.delta_rows_scanned",
    "storage.scan.rows_rejected_by_bitmap",
    "storage.scan.bitmap_probes_settled",
    "storage.scan.rows_rejected_deleted",
    "storage.scan.encoded_space_conjuncts",
    "storage.scan.conjuncts_pruned_by_range",
    "storage.scan.columns_decoded",
    "storage.scan.values_decoded",
    "storage.scan.agg_runs_processed",
    "storage.scan.agg_code_space_groups",
    "storage.scan.agg_fallbacks",
    *(reason.counter for reason in MorphReason),
    "storage.segments.decode_requests",
    "storage.delta.rows_inserted",
    "storage.delta.stores_closed",
    "storage.tuple_mover.runs",
    "storage.tuple_mover.rows_moved",
    "storage.tuple_mover.delta_stores_compressed",
    "storage.tuple_mover.row_groups_created",
    "storage.recovery.files_verified",
    "storage.recovery.checksum_failures",
    "storage.recovery.snapshots_rolled_back",
    "storage.snapshot.saves_skipped",
    "storage.snapshot.files_written",
    "storage.snapshot.files_reused",
    "storage.snapshot.bytes_written",
    "storage.snapshot.bytes_checksummed",
    "storage.wal.records_appended",
    "storage.wal.bytes_appended",
    "storage.wal.commits",
    "storage.wal.fsyncs",
    "storage.wal.group_commit.batched_commits",
    "storage.wal.segments_created",
    "storage.wal.segments_deleted",
    "storage.wal.checkpoints",
    "storage.wal.replay.records",
    "storage.wal.replay.torn_tails_truncated",
    "storage.wal.replay.uncommitted_skipped",
    "txn.begins",
    "txn.commits",
    "txn.rollbacks",
    "txn.statement_rollbacks",
    "exec.spill.files",
    "exec.spill.batches",
    "exec.spill.rows",
    "exec.spill.bytes_written",
    "exec.hash_join.offset_probes",
    "exec.hash_join.search_probes",
    "exec.hash_join.rows_passed_through",
    "exec.hash_join.columns_emitted_encoded",
    "exec.hash_aggregate.keys_from_vectors",
    "exec.hash_aggregate.keys_coded_locally",
    "exec.hash_aggregate.directory_misses",
    "concurrency.sessions",
    "concurrency.read_waits",
    "concurrency.write_waits",
    "concurrency.latch_waits",
    "concurrency.snapshot_pins",
    "concurrency.pinned_statements",
    "concurrency.locked_statements",
    "mvcc.versions_installed",
    "mvcc.versions_gced",
    "mvcc.reader_pins",
    "mvcc.oldest_active_epoch",
    "mvcc.lockfree_reads",
    "mvcc.leases_leaked",
    "backup.started",
    "backup.completed",
    "backup.failed",
    "backup.files_copied",
    "backup.bytes_copied",
    "backup.checkpoints_deferred",
    "restore.completed",
    "restore.records_restored",
    "wal.archive.segments_archived",
    "wal.archive.bytes",
    "wal.archive.segments_pruned",
    "wal.archive.failures",
    "sql.shapes.hits",
    "sql.shapes.misses",
    "sql.shapes.evicted",
    *(f"sql.shapes.not_kept.{reason}" for reason in ("join", "subquery", "statement")),
    "governance.statements_timed_out",
    "governance.statements_cancelled",
    "governance.statements_killed",
    "governance.statements_shed",
    "governance.spills_forced",
    "governance.budget_rejections",
    "server.drain_killed",
)


@dataclass
class TimerStat:
    """Accumulated observations of one named timer."""

    count: int = 0
    seconds: float = 0.0


class MetricsRegistry:
    """Counters, gauges, and timers behind one lock.

    All mutation is O(1) dict work; callers on hot paths report at coarse
    granularity (per scan unit, per spill batch — never per row of a
    batch-mode pipeline), so the registry is always on.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, TimerStat] = {}

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #
    def increment(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    # ------------------------------------------------------------------ #
    # Gauges
    # ------------------------------------------------------------------ #
    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def max_gauge(self, name: str, value: float) -> None:
        """Keep the high-water mark of a gauge (e.g. peak memory)."""
        with self._lock:
            if value > self._gauges.get(name, float("-inf")):
                self._gauges[name] = value

    def gauge(self, name: str) -> float | None:
        with self._lock:
            return self._gauges.get(name)

    # ------------------------------------------------------------------ #
    # Timers
    # ------------------------------------------------------------------ #
    def record_time(self, name: str, seconds: float) -> None:
        with self._lock:
            stat = self._timers.get(name)
            if stat is None:
                stat = self._timers[name] = TimerStat()
            stat.count += 1
            stat.seconds += seconds

    @contextmanager
    def timer(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record_time(name, time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, float]:
        """A flat point-in-time view: counters and gauges verbatim,
        timers flattened to ``<name>.count`` / ``<name>.seconds``."""
        with self._lock:
            out: dict[str, float] = dict(self._counters)
            out.update(self._gauges)
            for name, stat in self._timers.items():
                out[f"{name}.count"] = stat.count
                out[f"{name}.seconds"] = stat.seconds
            return out

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()


def snapshot_delta(
    before: dict[str, float], after: dict[str, float]
) -> dict[str, float]:
    """Nonzero per-key growth between two :meth:`snapshot` calls."""
    delta = {}
    for name, value in after.items():
        grown = value - before.get(name, 0)
        if grown:
            delta[name] = grown
    return delta


_global_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every storage component reports into."""
    return _global_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install a registry (tests); returns the previously installed one."""
    global _global_registry
    previous = _global_registry
    _global_registry = registry
    return previous


def increment(name: str, value: float = 1) -> None:
    """Convenience: bump a counter on the process-wide registry."""
    _global_registry.increment(name, value)
