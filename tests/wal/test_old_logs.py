"""Logs written before row groups were logged still replay.

``old_log/seg_000000000001.wal`` was written by that build
(``old_log/make_log.py``): a bulk load logged as its columns, trickle
inserts, deletes and updates, and the tuple mover, REBUILD and archival
logged as markers. Replayed by this build through
``repro.storage.compat`` — the markers by compressing again — it must
land on the table that build read back (``old_log/expected.json``), and
the open leaves the directory upgraded.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro import Database
from repro.storage.compat import scan_segment
from repro.wal.log import WAL_DIR_NAME
from repro.wal.record import WalRecordType

from ..storage.format_checks import assert_upgraded

OLD_LOG = Path(__file__).parent / "old_log"
SEGMENT = OLD_LOG / "seg_000000000001.wal"


def old_records():
    return scan_segment(SEGMENT.read_bytes(), 1).records


def open_old_log(tmp_path: Path) -> Database:
    (tmp_path / WAL_DIR_NAME).mkdir(parents=True)
    shutil.copy(SEGMENT, tmp_path / WAL_DIR_NAME / SEGMENT.name)
    assert Database.check(str(tmp_path)).ok  # read through compat, unstamped
    return Database.open(str(tmp_path))


def test_the_fixture_holds_every_old_record_kind():
    kinds = [record.rtype for record in old_records()]
    assert kinds.count(WalRecordType.BULK_LOAD) == 1
    assert kinds.count(WalRecordType.TUPLE_MOVER) == 2
    assert kinds.count(WalRecordType.REBUILD) == 1
    assert kinds.count(WalRecordType.ARCHIVAL) == 2
    assert WalRecordType.ROW_GROUPS not in kinds


def test_an_old_log_replays_to_the_table_it_was_written_for(tmp_path):
    expected = json.loads((OLD_LOG / "expected.json").read_text())
    db = open_old_log(tmp_path)
    columnstore = db.table("t").columnstore
    assert repr(db.sql("SELECT * FROM t ORDER BY id").rows) == expected["rows"]
    groups = [
        [group.group_id, group.row_count, group.archived]
        for group in columnstore.directory.row_groups()
    ]
    assert groups == expected["groups"]
    assert columnstore.delta_rows == expected["delta_rows"]
    db.close()
    assert_upgraded(tmp_path)
    assert Database.check(str(tmp_path)).ok


def test_an_old_log_replayed_then_checkpointed_reopens_the_same(tmp_path):
    db = open_old_log(tmp_path)
    want = repr(db.sql("SELECT * FROM t ORDER BY id").rows)
    db.save(str(tmp_path))
    db.run_tuple_mover("t", include_open=True)
    db.close()
    reopened = Database.open(str(tmp_path))
    assert repr(reopened.sql("SELECT * FROM t ORDER BY id").rows) == want
    reopened.close()
