"""A directory written by a build whose checksums were CRC-32C still opens.

``old_format/`` was written by that build (``old_format/make_fixture.py``):
a columnstore table checkpointed under a ``format_version`` 2 manifest
with its segment pool, a log tail past the checkpoint (an INSERT, a
DELETE, an UPDATE, a tuple-mover run whose ROW_GROUPS record names
CRC-32C blobs, a committed transaction) and a hot backup taken after it.
Only ``repro.storage.compat`` reads those checksums, verifying them; the
first open upgrades the directory to this build's format, and ``repro
check`` of it before then writes nothing.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro import Database
from repro.backup import restore_backup
from repro.cli import main as cli_main
from repro.storage import compat
from repro.storage.snapshot import FORMAT_NAME, MANIFEST_NAME
from repro.wal import record
from repro.wal.log import WAL_DIR_NAME
from repro.wal.record import WalRecordType

from .format_checks import assert_upgraded, frame_markers, sweep_upgrade_crashes

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


def digests(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_the_fixture_is_what_the_old_build_wrote():
    root = OLD_FORMAT / "db"
    assert not (root / FORMAT_NAME).exists()
    manifest = json.loads((root / MANIFEST_NAME).read_text())
    assert manifest["format_version"] == 2 and "manifest_crc32c" in manifest
    assert all("crc32c" in entry for entry in manifest["files"])
    data = (root / WAL_DIR_NAME / SEGMENT).read_bytes()
    records = compat.scan_segment(data, 3).records
    kinds = [r.rtype for r in records]
    for kind in ("INSERT", "DELETE", "UPDATE", "ROW_GROUPS", "TXN_BEGIN", "TXN_COMMIT"):
        assert WalRecordType[kind] in kinds
    assert not any(frame_markers(root / WAL_DIR_NAME / SEGMENT))
    assert record.scan_segment(data, 3).records == []  # this build's scan reads none
    moved = records[kinds.index(WalRecordType.ROW_GROUPS)]
    entries = [
        e for g in compat.parse_row_groups(moved.payload)["groups"] for e in g["segments"].values()
    ]
    assert entries and all(isinstance(entry, compat.Crc32cEntry) for entry in entries)


def test_opens_and_answers_what_the_old_build_read(old):
    db = Database.open(str(old / "db"))
    assert answers(db) == EXPECTED
    db.close()
    assert_upgraded(old / "db")


def test_passes_repro_check(old, capsys):
    before = digests(old / "db")
    report = Database.check(str(old / "db"))
    assert report.ok, report.render()
    assert report.manifest_status == "ok" and report.verdicts
    assert cli_main(["check", str(old / "db")]) == 0
    assert "result: ok" in capsys.readouterr().out
    assert digests(old / "db") == before  # a check of an earlier build's directory writes nothing
    Database.open(str(old / "db")).close()
    report = Database.check(str(old / "db"))
    assert report.ok, report.render()


def test_restores_from_its_backup_to_the_same_rows(old):
    restore_backup(old / "backup", old / "restored")
    assert not (old / "restored" / FORMAT_NAME).exists()  # an earlier build's image
    assert Database.check(str(old / "restored")).ok
    db = Database.open(str(old / "restored"))
    assert answers(db)["rows"] == EXPECTED["rows"]
    db.close()
    assert_upgraded(old / "restored")
    assert Database.check(str(old / "restored")).ok


def test_one_checkpoint_lists_only_crc32_entries_and_reopens_the_same(old):
    """The upgrade's checkpoint lists every file with a CRC-32."""
    root = old / "db"
    Database.open(str(root)).close()
    raw = json.loads((root / MANIFEST_NAME).read_text())
    assert "manifest_crc32" in raw and "manifest_crc32c" not in raw
    assert all("crc32" in entry and "crc32c" not in entry for entry in raw["files"])
    db = Database.open(str(root))
    assert answers(db) == EXPECTED
    db.save(str(root))
    db.close()
    assert Database.check(str(root)).ok


def test_after_the_upgrade_every_live_frame_has_its_marker_bit_set(old):
    root = old / "db"
    db = Database.open(str(root))
    assert not (root / WAL_DIR_NAME / SEGMENT).exists()
    assert (root / "wal_archive" / SEGMENT).exists()  # archived before it went
    db.sql("INSERT INTO t VALUES (500, 7, 'new')")
    db.sql("DELETE FROM t WHERE id = 1")
    db.run_tuple_mover("t", include_open=True)
    want = answers(db)
    db.close()
    segments = sorted((root / WAL_DIR_NAME).glob("seg_*.wal"))
    assert segments and all(all(frame_markers(segment)) for segment in segments)
    db = Database.open(str(root))
    assert answers(db) == want
    assert want["rows"] != EXPECTED["rows"]
    db.close()
    assert Database.check(str(root)).ok


def test_the_upgrade_survives_a_crash_at_every_write_point(tmp_path):
    points = sweep_upgrade_crashes(OLD_FORMAT / "db", tmp_path, answers, EXPECTED)
    assert points > 20
