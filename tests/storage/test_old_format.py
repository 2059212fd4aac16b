"""A directory written by a build whose checksums were CRC-32C still opens.

``old_format/`` was written by that build (``old_format/make_fixture.py``):
a columnstore table checkpointed under a ``format_version`` 2 manifest
with its segment pool, a log tail past the checkpoint (an INSERT, a
DELETE, an UPDATE, a tuple-mover run whose ROW_GROUPS record names
CRC-32C blobs, a committed transaction) and a hot backup taken after it.
This build verifies those checksums, never writes one: the first
checkpoint lists every file with a CRC-32, and frames appended to the old
log segment carry the CRC-32 marker beside the old frames.
"""

from __future__ import annotations

import json
import shutil
import struct
from pathlib import Path

import pytest

from repro import Database
from repro.backup import restore_backup
from repro.cli import main as cli_main
from repro.storage.diskio import DiskIO
from repro.storage.snapshot import MANIFEST_NAME, MANIFEST_VERSION, load_manifest
from repro.wal.log import WAL_DIR_NAME
from repro.wal.record import WalRecordType, parse_row_groups, scan_segment

OLD_FORMAT = Path(__file__).parent / "old_format"
EXPECTED = json.loads((OLD_FORMAT / "expected.json").read_text())
SEGMENT = "seg_000000000003.wal"


@pytest.fixture
def old(tmp_path, monkeypatch) -> Path:
    """A copy of the fixture (opening it replays and collects garbage),
    with the working directory at its parent: the archive names the
    backup by the relative path it was written to."""
    shutil.copytree(OLD_FORMAT, tmp_path / "old_format")
    monkeypatch.chdir(tmp_path)
    return tmp_path / "old_format"


def answers(db: Database) -> dict:
    columnstore = db.table("t").columnstore
    return {
        "rows": repr(db.sql("SELECT * FROM t ORDER BY id").rows),
        "groups": [[g.group_id, g.row_count] for g in columnstore.directory.row_groups()],
        "delta_rows": columnstore.delta_rows,
    }


def frame_markers(segment: Path) -> list[bool]:
    """Per frame of a log segment: does its length word carry the CRC-32
    marker?"""
    data, pos, markers = segment.read_bytes(), 0, []
    while pos < len(data):
        (word,) = struct.unpack_from("<I", data, pos)
        markers.append(bool(word >> 31))
        pos += 8 + (word & 0x7FFFFFFF)
    return markers


def test_the_fixture_is_what_the_old_build_wrote():
    manifest = json.loads((OLD_FORMAT / "db" / MANIFEST_NAME).read_text())
    assert manifest["format_version"] == 2 and "manifest_crc32c" in manifest
    assert all("crc32c" in entry for entry in manifest["files"])
    segment = OLD_FORMAT / "db" / WAL_DIR_NAME / SEGMENT
    records = scan_segment(segment.read_bytes(), 3).records
    kinds = [r.rtype for r in records]
    for kind in ("INSERT", "DELETE", "UPDATE", "ROW_GROUPS", "TXN_BEGIN", "TXN_COMMIT"):
        assert WalRecordType[kind] in kinds
    assert not any(frame_markers(segment))
    moved = records[kinds.index(WalRecordType.ROW_GROUPS)]
    entries = [e for g in parse_row_groups(moved.payload)["groups"] for e in g["segments"].values()]
    assert entries and all(entry.legacy for entry in entries)


def test_opens_and_answers_what_the_old_build_read(old):
    db = Database.open(str(old / "db"))
    assert answers(db) == EXPECTED
    db.close()


def test_passes_repro_check(old, capsys):
    report = Database.check(str(old / "db"))
    assert report.ok, report.render()
    assert report.manifest_status == "ok" and report.verdicts
    assert cli_main(["check", str(old / "db")]) == 0
    assert "result: ok" in capsys.readouterr().out


def test_restores_from_its_backup_to_the_same_rows(old):
    restore_backup(old / "backup", old / "restored")
    db = Database.open(str(old / "restored"))
    assert answers(db)["rows"] == EXPECTED["rows"]
    db.close()


def test_one_checkpoint_lists_only_crc32_entries_and_reopens_the_same(old):
    root = old / "db"
    db = Database.open(str(root))
    db.save(str(root))
    db.close()
    raw = json.loads((root / MANIFEST_NAME).read_text())
    assert raw["format_version"] == MANIFEST_VERSION == 3
    assert "manifest_crc32" in raw and "manifest_crc32c" not in raw
    assert all("crc32" in entry and "crc32c" not in entry for entry in raw["files"])
    assert not any(entry.legacy for entry in load_manifest(DiskIO(), root).files)
    db = Database.open(str(root))
    assert answers(db) == EXPECTED
    db.close()
    assert Database.check(str(root)).ok


def test_new_frames_appended_to_the_old_segment_reopen(old):
    root = old / "db"
    db = Database.open(str(root))
    db.sql("INSERT INTO t VALUES (500, 7, 'new')")
    db.sql("DELETE FROM t WHERE id = 1")
    db.run_tuple_mover("t", include_open=True)
    want = answers(db)
    db.close()
    markers = frame_markers(root / WAL_DIR_NAME / SEGMENT)
    assert markers == [False] * 9 + [True] * (len(markers) - 9) and len(markers) > 9
    db = Database.open(str(root))
    assert answers(db) == want
    assert want["rows"] != EXPECTED["rows"]
    db.close()
    assert Database.check(str(root)).ok
