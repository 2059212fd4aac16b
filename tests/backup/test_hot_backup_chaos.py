"""Hot backup under concurrent load: the image is the pinned epoch.

Two writers keep committing and a reader keeps scanning while the backup
runs. The barrier hook fingerprints the database at the exact instant
the cut is taken (under the write lock, so nothing commits between the
fingerprint and the cut); the restored image must match that fingerprint
exactly — not "roughly the rows at around that time".
"""

from __future__ import annotations

import threading

import pytest

from repro.backup import restore_backup
from repro.concurrency.database import ConcurrentDatabase
from repro.db.database import Database


def _fingerprint(sql):
    row = sql("SELECT COUNT(*) AS c, SUM(v) AS s FROM t").rows[0]
    return tuple(row)


class TestHotBackupChaos:
    @pytest.mark.parametrize("round_", [0, 1])
    def test_restore_matches_the_pinned_cut_exactly(self, tmp_path, round_):
        src = tmp_path / "src"
        cdb = ConcurrentDatabase.open(str(src))
        cdb.sql("CREATE TABLE t (id INT NOT NULL, v INT)")
        for i in range(10):
            cdb.sql(f"INSERT INTO t VALUES ({i}, {i})")
        cdb.save(str(src))

        stop = threading.Event()
        started = threading.Barrier(4)
        errors = []

        def writer(base):
            try:
                started.wait(timeout=10)
                i = 0
                while not stop.is_set() and i < 3000:
                    cdb.sql(f"INSERT INTO t VALUES ({base + i}, {i})")
                    i += 1
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        def reader():
            try:
                started.wait(timeout=10)
                while not stop.is_set():
                    _fingerprint(cdb.sql)
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(1_000_000,)),
            threading.Thread(target=writer, args=(2_000_000,)),
            threading.Thread(target=reader),
        ]
        for t in threads:
            t.start()

        cut = {}

        def hook(db):
            # Runs under the write lock as the last barrier step: this IS
            # the state the backup's epoch covers.
            cut["fp"] = _fingerprint(db.sql)

        started.wait(timeout=10)
        # Let the writers race for a moment so the backup overlaps real
        # commits, then cut.
        for _ in range(50):
            cdb.sql("SELECT COUNT(*) AS c FROM t")
        result = cdb.backup(str(tmp_path / f"bk{round_}"), barrier_hook=hook)

        # Writers kept committing during the copy: the live database has
        # moved past the cut by the time the backup lands.
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert not errors, errors
        live_fp = _fingerprint(cdb.sql)
        cdb.close()

        restored = restore_backup(tmp_path / f"bk{round_}", tmp_path / f"dest{round_}")
        assert restored.epoch == result.epoch
        rdb = Database.load(str(tmp_path / f"dest{round_}"))
        restored_fp = _fingerprint(rdb.sql)
        rdb.close()

        assert restored_fp == cut["fp"], (
            f"restored image diverged from the pinned cut: {restored_fp} != "
            f"{cut['fp']} (live ended at {live_fp})"
        )
        # Sanity: the writers really did commit past the cut.
        assert live_fp[0] >= cut["fp"][0]

    def test_backup_lease_is_released_after_the_copy(self, tmp_path):
        cdb = ConcurrentDatabase.open(str(tmp_path / "src"))
        cdb.sql("CREATE TABLE t (id INT NOT NULL, v INT)")
        cdb.sql("INSERT INTO t VALUES (1, 1)")
        cdb.backup(str(tmp_path / "bk"))
        assert len(cdb.db.mvcc.readers) == 0
        assert cdb.db.durability.backups_in_flight == 0
        cdb.close()
