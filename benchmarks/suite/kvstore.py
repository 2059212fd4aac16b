"""The durable ``kv`` table shared by served_short, trickle_write and htap_mix:
building it, replaying a write list against it, and checking what it holds."""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import common
import inputs
import oracle
from common import Window
from inputs import Op

TABLE = "kv"
_READ_KINDS = ("group_read", "range_read")
PROBE_SQL = "SELECT COUNT(*) AS n, SUM(v) AS s FROM kv"


@dataclass
class KvSetup:
    """What building the table produced; times are ``(calibrated,
    measured)`` seconds, see ``common.calibrated``."""

    rows: list[tuple]
    user_bytes: int
    generate_s: tuple[float, float]
    builds_s: list[tuple[float, float]]  # one entry per build: load + checkpoint

    @property
    def setup_s(self) -> float:
        """Data generation plus the median build, calibrated."""
        return self.generate_s[0] + common.median_calibrated(self.builds_s)


def store_config(rowgroup_size: int, delta_close_rows: int | None = None):
    from repro import StoreConfig

    # bulk_load_threshold=1: the preload compresses straight into row
    # groups, so every workload starts with an empty delta store.
    return StoreConfig(
        rowgroup_size=rowgroup_size,
        bulk_load_threshold=1,
        delta_close_rows=delta_close_rows,
    )


def build_seconds(directory: Path, rows: list[tuple], config) -> tuple[float, float]:
    """Create the durable database in ``directory`` (removed first): bulk
    load, checkpoint, close. Returns the ``(calibrated, measured)`` seconds
    it took; the kernel is sampled before, between the two and after."""
    from repro import Database

    shutil.rmtree(directory, ignore_errors=True)
    calibrator = common.Calibrator()
    calibrator.take(8)
    start = time.perf_counter()
    db = Database.open(str(directory), default_config=config)
    db.sql(inputs.create_table_sql(TABLE, inputs.KV_TABLE))
    db.bulk_load(TABLE, rows)
    loaded = time.perf_counter()
    calibrator.take(8)
    resumed = time.perf_counter()
    db.save(str(directory))
    seconds = (time.perf_counter() - resumed) + (loaded - start)
    calibrator.take(8)
    db.close()
    return seconds * calibrator.factor(), seconds


def build(directory: Path, n_rows: int, seed: int, config) -> KvSetup:
    calibrated_s, measured_s, rows = common.calibrated(lambda: inputs.kv_rows(n_rows, seed))
    return KvSetup(rows, inputs.user_bytes(inputs.KV_TABLE, rows), (calibrated_s, measured_s),
                   [build_seconds(directory, rows, config)])


def open_session(directory: Path):
    """``(ConcurrentDatabase, Session)`` on the durable directory, group commit."""
    from repro.concurrency import ConcurrentDatabase

    cdb = ConcurrentDatabase.open(str(directory))
    return cdb, cdb.session("bench")


def clone(source: Path, target: Path) -> Path:
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(source, target)
    return target


@dataclass
class Maintenance:
    """What the client's maintenance calls cost inside a replay, in call
    order: ``calls[k]`` is ``(kind, seconds)`` of the ``k``-th one."""

    calls: list[tuple[str, float]] = field(default_factory=list)

    def _seconds(self, kind: str) -> list[float]:
        return [seconds for name, seconds in self.calls if name == kind]

    @property
    def mover_s(self) -> float:
        return sum(self._seconds("mover"))

    @property
    def mover_runs(self) -> int:
        return len(self._seconds("mover"))

    @property
    def checkpoint_s(self) -> float:
        return sum(self._seconds("checkpoint"))

    @property
    def checkpoints(self) -> int:
        return len(self._seconds("checkpoint"))

    def ms(self) -> list[float]:
        return [seconds * 1000.0 for _kind, seconds in self.calls]


class WriteReplay:
    """Replays an operation list through ``execute`` with the client-side
    maintenance policy: run the tuple mover whenever a delta store has
    closed, checkpoint every ``checkpoint_every`` statements (never when
    ``None``) — both only between transactions, where the engine allows
    them. ``start`` is how much of the list an earlier replay applied."""

    def __init__(self, cdb, directory: Path, execute: Callable[[str], object],
                 checkpoint_every: int | None, start: int = 0) -> None:
        self.cdb = cdb
        self.directory = directory
        self.execute = execute
        self.checkpoint_every = checkpoint_every
        self.columnstore = cdb.db.table(TABLE).columnstore
        self.maintenance = Maintenance()
        self.delta_share_at_read: list[float] = []
        self.read_results: list[tuple[int, object]] = []
        self.executed = start  # ops of the list applied so far
        self._since_checkpoint = 0

    def run(self, ops: list[Op], window: Window, stop_after: int | None = None,
            on_statement=None) -> None:
        """Execute ``ops[self.executed:]`` until the list ends or
        ``stop_after`` more statements ran — stopping only between
        transactions. Latencies land in ``window``."""
        in_txn = False
        ran = 0
        cpu0 = time.process_time()
        start = time.perf_counter()
        while self.executed < len(ops):
            op = ops[self.executed]
            if not in_txn:
                if stop_after is not None and ran >= stop_after:
                    break
                if self.columnstore.closed_delta_stores():
                    self._tuple_mover()
                if (self.checkpoint_every is not None
                        and self._since_checkpoint >= self.checkpoint_every):
                    self.checkpoint()
            if op.kind == "group_read":
                self.delta_share_at_read.append(self.columnstore.fraction_in_delta)
            if on_statement is not None:
                on_statement(self.executed)
            begin = time.perf_counter()
            try:
                result = self.execute(op.sql)
            except Exception as exc:  # an erroring statement is a failed one
                common.log(f"  statement failed: {op.sql!r}: {type(exc).__name__}: {exc}")
                window.attempted += 1
                window.failed += 1
            else:
                window.record(op.kind, (time.perf_counter() - begin) * 1000.0)
                if op.kind in _READ_KINDS:
                    self.read_results.append((self.executed, result))
            in_txn = op.kind == "begin" or (in_txn and op.kind != "commit")
            self.executed += 1
            ran += 1
            self._since_checkpoint += 1
        window.elapsed_s += time.perf_counter() - start
        window.cpu_s += time.process_time() - cpu0

    def _tuple_mover(self) -> None:
        seconds, _report = common.timed(lambda: self.cdb.run_tuple_mover(TABLE))
        self.maintenance.calls.append(("mover", seconds))

    def checkpoint(self) -> None:
        seconds, _ = common.timed(lambda: self.cdb.save(str(self.directory)))
        self.maintenance.calls.append(("checkpoint", seconds))
        self._since_checkpoint = 0


def table_summary(execute: Callable[[str], object]) -> tuple[int, int, str]:
    """``(row count, SUM(v), key-set hash)`` as the engine reports them."""
    count, total = execute(PROBE_SQL).rows[0]
    keys = [row[0] for row in execute("SELECT k FROM kv").rows]
    return int(count), int(total or 0), oracle.key_set_hash(keys)


def check_final_state(label: str, execute, model: oracle.TableModel, window: Window) -> None:
    """One attempted check; failed when the table differs from the model."""
    window.attempted += 1
    got = table_summary(execute)
    want = model.summary()
    if got != want:
        window.failed += 1
        common.log(f"  final-state mismatch ({label}): engine {got} != model {want}")
    else:
        common.log(f"  final state ok ({label}): rows={got[0]} sum_v={got[1]} keys#{got[2]}")


def reopen(directory: Path):
    """``Database.open`` on a closed directory, up to its first answer
    (the probe query): recovery replays the log's un-checkpointed tail."""
    from repro import Database

    db = Database.open(str(directory))
    db.sql(PROBE_SQL)
    return db


def check_probe(execute, model: oracle.TableModel, window: Window) -> None:
    """One attempted check, cheap enough for every pass: row count and SUM(v)."""
    window.attempted += 1
    count, total = execute(PROBE_SQL).rows[0]
    want = (len(model.rows), sum(row[2] for row in model.rows.values()))
    if (int(count), int(total or 0)) != want:
        window.failed += 1
        common.log(f"  reopened table differs: engine {(count, total)} != model {want}")


def replay_reference(ops: list[Op], rows: list[tuple]) -> tuple[oracle.SqliteOracle, dict[int, list]]:
    """Expected answer of every read in ``ops``: sqlite3 replays the list."""
    reference = oracle.SqliteOracle()
    reference.load(TABLE, inputs.KV_TABLE, rows, key="k")
    expected: dict[int, list] = {}
    for index, op in enumerate(ops):
        if op.kind in _READ_KINDS:
            expected[index] = reference.query(op.sql)
        elif op.kind in ("insert", "update", "delete"):
            reference.apply(op)
    return reference, expected


def durability_check(work: Path, mode: str, statements: int, window: Window) -> None:
    """Power-cut test: acknowledged statements at or below ``durable_lsn``
    must be readable after reopening; each missing one counts as failed.

    ``FaultyDisk(lose_unsynced_on_crash=True)`` discards every byte that
    was appended but never fsynced — killing the process would not, since
    the operating system's cache survives that.
    """
    from repro import Database
    from repro.storage.diskio import FaultyDisk, InjectedFault

    directory = work / f"durability-{mode}"
    disk = FaultyDisk(lose_unsynced_on_crash=True)
    db = Database.open(str(directory), disk=disk, durability=mode)
    db.sql("CREATE TABLE d (k INT NOT NULL, v INT NOT NULL)")
    acknowledged: list[tuple[int, int]] = []
    for key in range(statements):
        db.sql(f"INSERT INTO d VALUES ({key}, {key % 7})")
        acknowledged.append((key, db.wal.last_lsn))
    durable_lsn = db.wal.durable_lsn
    disk.crash_after_ops = disk.ops  # the next write point is the power cut
    try:
        db.sql("INSERT INTO d VALUES (-1, 0)")
    except InjectedFault:
        pass
    recovered = Database.open(str(directory))
    present = {row[0] for row in recovered.sql("SELECT k FROM d").rows}
    recovered.close()
    promised = [key for key, lsn in acknowledged if lsn <= durable_lsn]
    lost = [key for key in promised if key not in present]
    window.attempted += statements
    window.failed += len(lost)
    common.log(
        f"  durability[{mode}]: {statements} acknowledged, {len(promised)} at or below "
        f"durable_lsn={durable_lsn}, {len(present)} readable after the cut, {len(lost)} lost"
    )
