"""Statement-level atomicity under injected faults at every mutation point.

The sweep wraps every low-level storage mutator (heap insert/delete,
index insert/delete, delta-store insert/delete/close, delete-bitmap
mark and take, row-group registration and removal) with a counter that
raises at call *k*. A clean
run counts the mutation points a statement touches; the sweep then
replays the statement on an identically rebuilt database for every
``k`` in 1..N and asserts the post-failure state fingerprint is
**identical** to the pre-statement fingerprint — allocator counters,
page bytes, dictionary contents and all. Finally the statement is run
clean again to prove rollback + retry converges to the same end state
(the property WAL replay determinism rests on).
"""

import pytest

from repro import Database, StoreConfig
from repro.rowstore.index import RowStoreIndex
from repro.rowstore.table import RowStoreTable
from repro.storage.delete_bitmap import DeleteBitmap
from repro.storage.deltastore import DeltaStore
from repro.storage.diskio import DiskIO
from repro.storage.directory import SegmentDirectory

from .conftest import fingerprint_db

_CONFIG = StoreConfig(rowgroup_size=16, bulk_load_threshold=8, delta_close_rows=8)


class InjectedTxnFault(Exception):
    """Raised by the wrapped mutators; not a ReproError on purpose —
    atomicity must hold for unexpected exception types too."""


class FaultInjector:
    def __init__(self):
        self.active = False
        self.calls = 0
        self.fail_at = None

    def reset(self, fail_at):
        self.calls = 0
        self.fail_at = fail_at

    def tick(self, point: str) -> None:
        if not self.active:
            return
        self.calls += 1
        if self.fail_at is not None and self.calls == self.fail_at:
            raise InjectedTxnFault(f"injected fault at {point} (call {self.calls})")


MUTATION_POINTS = [
    (RowStoreTable, "insert"),
    (RowStoreTable, "delete"),
    (RowStoreIndex, "insert"),
    (RowStoreIndex, "delete"),
    (DeltaStore, "insert"),
    (DeltaStore, "delete"),
    (DeltaStore, "close"),
    (DeleteBitmap, "mark"),
    (DeleteBitmap, "take_group"),
    (SegmentDirectory, "add_row_group"),
    (SegmentDirectory, "remove_row_group"),
]


@pytest.fixture
def injector(monkeypatch):
    inj = FaultInjector()
    for cls, name in MUTATION_POINTS:
        original = getattr(cls, name)
        point = f"{cls.__name__}.{name}"

        def wrapped(self, *args, _original=original, _point=point, **kwargs):
            inj.tick(_point)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapped)
    return inj


def seeded_db(storage: str) -> Database:
    db = Database(_CONFIG)
    db.sql(
        f"CREATE TABLE t (id INT NOT NULL, grp VARCHAR, amount FLOAT) "
        f"USING {storage}"
    )
    if storage in ("rowstore", "both"):
        db.create_index("t", "t_grp", ["grp"])
    # Enough rows that a columnstore has a compressed row group (bulk
    # path), a closed delta and an open delta — deletes then touch the
    # bitmap, the closed delta and the open delta in one statement.
    db.bulk_load("t", [(i, "seed", float(i)) for i in range(16)])
    db.insert("t", [(100 + i, "d1", float(i)) for i in range(9)])
    db.insert("t", [(200 + i, "d2", float(i)) for i in range(3)])
    return db


def run_sweep(injector, make_db, statement, min_points: int, fingerprint=fingerprint_db):
    # Clean run: count the mutation points and capture the end state.
    db = make_db()
    before = fingerprint(db)
    injector.reset(fail_at=None)
    injector.active = True
    statement(db)
    injector.active = False
    total = injector.calls
    after_clean = fingerprint(db)
    assert total >= min_points, f"expected >= {min_points} mutation points, saw {total}"
    assert after_clean != before, "statement must actually mutate state"

    # Fault sweep: fail at every mutation point in turn.
    for k in range(1, total + 1):
        db = make_db()
        assert fingerprint(db) == before, "db rebuild is not deterministic"
        injector.reset(fail_at=k)
        injector.active = True
        with pytest.raises(InjectedTxnFault):
            statement(db)
        injector.active = False
        assert fingerprint(db) == before, (
            f"state diverged after fault at mutation point {k}/{total}"
        )
        # The database stays usable: the same statement retried on the
        # rolled-back state converges to the clean end state.
        statement(db)
        assert fingerprint(db) == after_clean, (
            f"retry after fault at point {k}/{total} diverged"
        )


class TestInsertAtomicity:
    @pytest.mark.parametrize("storage", ["columnstore", "rowstore", "both"])
    def test_multi_row_insert(self, injector, storage, registry):
        run_sweep(
            injector,
            lambda: seeded_db(storage),
            lambda db: db.insert("t", [(300 + i, "new", float(i)) for i in range(4)]),
            min_points=4,
        )

    def test_insert_tripping_delta_close(self, injector, registry):
        # The seeded open delta (d2) holds 3 rows; 8 closes it. A fault
        # after the close transition must reopen the delta and rewind
        # the row-id allocator.
        run_sweep(
            injector,
            lambda: seeded_db("columnstore"),
            lambda db: db.insert("t", [(300 + i, "new", float(i)) for i in range(7)]),
            min_points=7,
        )


class TestDeleteAtomicity:
    @pytest.mark.parametrize("storage", ["columnstore", "both"])
    def test_delete_across_groups_and_deltas(self, injector, storage, registry):
        # Matches compressed rows (bitmap marks), closed-delta rows and
        # open-delta rows in one statement.
        run_sweep(
            injector,
            lambda: seeded_db(storage),
            lambda db: db.sql("DELETE FROM t WHERE id % 2 = 0"),
            min_points=8,
        )

    def test_delete_rowstore_with_index(self, injector, registry):
        run_sweep(
            injector,
            lambda: seeded_db("rowstore"),
            lambda db: db.sql("DELETE FROM t WHERE grp = 'd1'"),
            min_points=2,
        )


class TestUpdateAtomicity:
    @pytest.mark.parametrize("storage", ["columnstore", "rowstore", "both"])
    def test_update_is_atomic_delete_plus_insert(self, injector, storage, registry):
        run_sweep(
            injector,
            lambda: seeded_db(storage),
            lambda db: db.sql("UPDATE t SET amount = 99.5 WHERE grp = 'd1'"),
            min_points=4,
        )


class TestBulkLoadAtomicity:
    def test_bulk_load_above_threshold(self, injector, registry):
        # The compressed path registers row groups; a fault mid-load
        # must withdraw the partial groups, rewind the group-id
        # allocator and truncate the global dictionaries.
        run_sweep(
            injector,
            lambda: seeded_db("columnstore"),
            lambda db: db.bulk_load(
                "t", [(400 + i, f"g{i % 3}", float(i)) for i in range(20)]
            ),
            min_points=1,
        )

    def test_bulk_load_below_threshold_trickles(self, injector, registry):
        run_sweep(
            injector,
            lambda: seeded_db("columnstore"),
            lambda db: db.bulk_load("t", [(500 + i, "small", 1.0) for i in range(4)]),
            min_points=4,
        )


def archived_db() -> Database:
    db = seeded_db("columnstore")
    db.set_archival("t", True)
    return db


def fingerprint_with_retired(db) -> tuple:
    """:func:`fingerprint_db` and the retired structures awaiting vacuum:
    an undone install takes back what it retired."""
    return fingerprint_db(db), db.catalog.table("t").columnstore.retired_counts


class TestMaintenanceAtomicity:
    # The seeded table holds one compressed row group, a closed delta
    # and an open one. A fault anywhere in a maintenance statement must
    # put back the groups, their delete marks, the delta stores, which
    # one was open, the id allocator, the dictionaries and the retired
    # lists.
    @pytest.mark.parametrize("include_open", [False, True])
    def test_tuple_mover(self, injector, include_open, registry):
        run_sweep(
            injector,
            lambda: seeded_db("columnstore"),
            lambda db: db.run_tuple_mover("t", include_open=include_open),
            min_points=3 if include_open else 1,
            fingerprint=fingerprint_with_retired,
        )

    def test_rebuild(self, injector, registry):
        def make_db():
            db = seeded_db("columnstore")
            db.sql("DELETE FROM t WHERE id % 3 = 0")  # marks to take and put back
            return db

        run_sweep(
            injector,
            make_db,
            lambda db: db.rebuild("t"),
            min_points=4,
            fingerprint=fingerprint_with_retired,
        )

    def test_archival_on(self, injector, registry):
        run_sweep(
            injector,
            lambda: seeded_db("columnstore"),
            lambda db: db.set_archival("t", True),
            min_points=2,
            fingerprint=fingerprint_with_retired,
        )

    def test_archival_off(self, injector, registry):
        run_sweep(
            injector,
            archived_db,
            lambda db: db.set_archival("t", False),
            min_points=2,
            fingerprint=fingerprint_with_retired,
        )


class FailingAppends(DiskIO):
    """A disk whose log appends raise before writing a byte while
    ``failing`` is set."""

    failing = False

    def append_file(self, path, data):
        if self.failing:
            raise OSError("injected log append failure")
        super().append_file(path, data)


# Each logged change of row groups, on a table with one compressed row
# group, two closed delta stores of 8 rows and an open one of 4.
ROW_GROUP_CHANGES = {
    "load": lambda db: db.bulk_load("t", [(500 + i, "bulk", float(i)) for i in range(40)]),
    "move": lambda db: db.run_tuple_mover("t"),
    "rebuild": lambda db: db.rebuild("t"),
    "archival": lambda db: db.set_archival("t", True),
}


class TestFailedStatementNeverLogged:
    @pytest.mark.parametrize("change", sorted(ROW_GROUP_CHANGES))
    def test_failed_row_group_append_leaves_memory_and_log_agreeing(
        self, change, tmp_path, registry
    ):
        config = StoreConfig(rowgroup_size=64, bulk_load_threshold=32, delta_close_rows=8)
        path = str(tmp_path / "d")
        disk = FailingAppends()
        db = Database.open(path, disk=disk, durability="per-commit", default_config=config)
        db.sql("CREATE TABLE t (k INT NOT NULL, grp VARCHAR, amount FLOAT)")
        db.bulk_load("t", [(100 + i, "seed", float(i)) for i in range(40)])
        for k in range(20):
            db.insert("t", [(k, "row", float(k))])
        before = fingerprint_db(db)
        lsn_before = db.wal.last_lsn
        disk.failing = True
        with pytest.raises(OSError):
            ROW_GROUP_CHANGES[change](db)
        disk.failing = False
        assert fingerprint_db(db) == before
        assert db.wal.last_lsn == lsn_before
        # The next statement addresses rows as memory holds them; replay
        # must find them at the same addresses.
        db.sql("DELETE FROM t WHERE k = 3")
        rows = sorted(db.sql("SELECT k, grp, amount FROM t").rows)
        db.close()
        reopened = Database.open(path, default_config=config)
        assert sorted(reopened.sql("SELECT k, grp, amount FROM t").rows) == rows
        reopened.close()

    def test_wal_untouched_by_failed_statement(self, injector, tmp_path, registry):
        db = Database.open(
            str(tmp_path / "d"), durability="per-commit", default_config=_CONFIG
        )
        db.sql("CREATE TABLE t (id INT NOT NULL, grp VARCHAR, amount FLOAT)")
        db.insert("t", [(1, "a", 1.0), (2, "b", 2.0)])
        before = fingerprint_db(db)
        lsn_before = db.wal.last_lsn
        injector.reset(fail_at=2)
        injector.active = True
        with pytest.raises(InjectedTxnFault):
            db.insert("t", [(3, "c", 3.0), (4, "d", 4.0)])
        injector.active = False
        assert fingerprint_db(db) == before
        # Apply-then-log: the failed statement produced no redo record,
        # so a reopen replays to exactly the committed state.
        assert db.wal.last_lsn == lsn_before
        db.close()
        reopened = Database.open(str(tmp_path / "d"), default_config=_CONFIG)
        assert fingerprint_db(reopened) == before

    def test_statement_rollback_metric_counts_faults(self, injector, registry):
        db = seeded_db("columnstore")
        injector.reset(fail_at=2)
        injector.active = True
        with pytest.raises(InjectedTxnFault):
            db.insert("t", [(300, "x", 1.0), (301, "y", 2.0)])
        injector.active = False
        assert registry.counter("txn.statement_rollbacks") == 1
