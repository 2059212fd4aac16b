"""A table an earlier build archived, its archives in XPR1, still opens.

``old_archive/`` was written by that build (``old_archive/make_fixture.py``):
three archived row groups checkpointed into the segment pool, then a log
tail past the checkpoint (a DELETE, an INSERT, a bulk load of two more
row groups and an archival of every live group, whose ROW_GROUPS record
names XPR1 blobs). Only ``repro.storage.compat`` reads XPR1; the first
open upgrades the directory, deflating every archive again, and this
build never writes XPR1: an archive it makes is one zlib stream.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro import Database
from repro.cli import main as cli_main
from repro.storage.blob import split_archive
from repro.storage.snapshot import FORMAT_NAME
from repro.wal.log import WAL_DIR_NAME
from repro.wal.record import WalRecordType, parse_row_groups, scan_segment

from .format_checks import assert_upgraded, sweep_upgrade_crashes

OLD_ARCHIVE = Path(__file__).parent / "old_archive"
EXPECTED = json.loads((OLD_ARCHIVE / "expected.json").read_text())
QUERIES = [
    "SELECT * FROM t ORDER BY id",
    "SELECT s, COUNT(*), SUM(a), MIN(f) FROM t GROUP BY s ORDER BY s",
    "SELECT COUNT(*), SUM(id) FROM t WHERE a BETWEEN 100 AND 300",
]


@pytest.fixture
def old(tmp_path) -> Path:
    """A copy of the fixture's database (opening it replays the tail and
    collects garbage)."""
    shutil.copytree(OLD_ARCHIVE / "db", tmp_path / "db")
    return tmp_path / "db"


def answers(db: Database) -> dict:
    columnstore = db.table("t").columnstore
    return {
        "answers": [repr(db.sql(query).rows) for query in QUERIES],
        "groups": [
            [group.group_id, group.row_count, group.archived]
            for group in columnstore.directory.row_groups()
        ],
        "delta_rows": columnstore.delta_rows,
    }


def archive_codecs(db: Database) -> set[bytes]:
    """The first two bytes of every live segment's archive."""
    return {
        segment.archive[:2]
        for group in db.table("t").columnstore.directory.row_groups()
        for segment in group.segments.values()
    }


def xpr1(path: Path) -> bool:
    return split_archive(path.read_bytes())[1][:4] == b"XPR1"


def test_the_fixture_is_what_the_old_build_wrote():
    root = OLD_ARCHIVE / "db"
    assert not (root / FORMAT_NAME).exists()
    (segment,) = (root / WAL_DIR_NAME).glob("seg_*.wal")
    records = scan_segment(segment.read_bytes(), int(segment.stem[4:])).records
    changes = [r for r in records if r.rtype is WalRecordType.ROW_GROUPS]
    assert len(changes) == 2  # the bulk load, then the archival
    named = [
        entry.path
        for group in parse_row_groups(changes[-1].payload)["groups"]
        for entry in group["segments"].values()
    ]
    assert len(named) == 5 * 4
    for path in named:
        assert xpr1(root / path), path
    checkpointed = [p for p in (root / "segments").rglob("*.seg") if p.name.startswith("g0.")]
    assert checkpointed and all(xpr1(p) for p in checkpointed)


def test_opens_to_the_answers_the_old_build_read(old):
    db = Database.open(str(old))
    assert answers(db) == EXPECTED
    assert archive_codecs(db) == {b"\x78\x9c"}  # deflated again by the upgrade
    db.close()
    assert_upgraded(old)


def test_passes_repro_check(old, capsys):
    report = Database.check(str(old))
    assert report.ok, report.render()
    assert cli_main(["check", str(old)]) == 0
    assert "result: ok" in capsys.readouterr().out


def test_survives_one_checkpoint_and_a_reopen(old):
    db = Database.open(str(old))
    db.save(str(old))
    db.close()
    assert Database.check(str(old)).ok
    db = Database.open(str(old))
    assert answers(db) == EXPECTED
    assert archive_codecs(db) == {b"\x78\x9c"}
    db.close()


def test_archived_again_by_this_build_the_answers_hold(old):
    db = Database.open(str(old))
    db.set_archival("t", False)
    db.set_archival("t", True)
    assert archive_codecs(db) == {b"\x78\x9c"}  # zlib, its default window
    assert answers(db) == EXPECTED
    db.save(str(old))
    db.close()
    db = Database.open(str(old))
    assert answers(db) == EXPECTED and archive_codecs(db) == {b"\x78\x9c"}
    db.close()
    assert Database.check(str(old)).ok


def test_the_upgrade_survives_a_crash_at_every_write_point(tmp_path):
    points = sweep_upgrade_crashes(OLD_ARCHIVE / "db", tmp_path, answers, EXPECTED)
    assert points > 20
