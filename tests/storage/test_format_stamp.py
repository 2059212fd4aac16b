"""The ``FORMAT`` stamp: written when a directory is made, read first by
every door, and a number above this build's refused before anything is
read or written."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import Database, StoreConfig
from repro.backup import restore_backup
from repro.cli import main as cli_main
from repro.errors import RecoveryError
from repro.storage.snapshot import FORMAT_NAME, FORMAT_VERSION

from .format_checks import assert_upgraded

NEWER = FORMAT_VERSION + 1
CONFIG = StoreConfig(rowgroup_size=32, bulk_load_threshold=8)


def stamp_of(root: Path) -> dict:
    return json.loads((root / FORMAT_NAME).read_text())


def digests(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture
def durable(tmp_path) -> Path:
    """A database with a checkpoint, a log tail and a backup at ``bk``."""
    root = tmp_path / "db"
    db = Database.open(str(root), default_config=CONFIG)
    db.sql("CREATE TABLE t (a INT, s VARCHAR)")
    db.bulk_load("t", [(i, f"v{i % 5}") for i in range(64)])
    db.save(str(root))
    db.sql("INSERT INTO t VALUES (100, 'tail')")
    db.backup(str(tmp_path / "bk"))
    db.close()
    return root


def test_a_directory_is_stamped_when_it_is_made(tmp_path):
    Database.open(str(tmp_path / "opened")).close()
    assert stamp_of(tmp_path / "opened") == {"format": FORMAT_VERSION}
    db = Database(CONFIG)
    db.sql("CREATE TABLE t (a INT)")
    db.save(str(tmp_path / "saved"))
    assert stamp_of(tmp_path / "saved") == {"format": FORMAT_VERSION}
    assert Database.load(str(tmp_path / "saved")).catalog.table_names() == ["t"]


def test_a_backup_carries_the_stamp_and_its_restore_lays_it_down(durable, tmp_path):
    assert stamp_of(tmp_path / "bk") == {"format": FORMAT_VERSION}
    restore_backup(tmp_path / "bk", tmp_path / "restored")
    assert stamp_of(tmp_path / "restored") == {"format": FORMAT_VERSION}
    db = Database.open(str(tmp_path / "restored"))
    assert db.sql("SELECT COUNT(*) FROM t").scalar() == 65
    db.close()


def test_a_newer_format_is_refused_by_every_door_and_nothing_changes(durable, tmp_path, capsys):
    newer = (json.dumps({"format": NEWER}) + "\n").encode()
    (durable / FORMAT_NAME).write_bytes(newer)
    (tmp_path / "bk" / FORMAT_NAME).write_bytes(newer)
    before = digests(tmp_path)
    named = f"format {NEWER}.*format {FORMAT_VERSION}"
    with pytest.raises(RecoveryError, match=named):
        Database.open(str(durable))
    with pytest.raises(RecoveryError, match=named):
        Database.load(str(durable))
    with pytest.raises(RecoveryError, match=named):
        Database.check(str(durable))
    with pytest.raises(RecoveryError, match=named):
        restore_backup(tmp_path / "bk", tmp_path / "restored")
    assert cli_main(["check", str(durable)]) == 1
    assert cli_main(["serve", str(durable), "--port", "0"]) == 1
    out = capsys.readouterr().out
    assert f"format {NEWER}" in out and f"format {FORMAT_VERSION}" in out
    assert "check failed" in out and "serve failed" in out
    assert digests(tmp_path) == before


def test_an_unstamped_directory_is_upgraded_by_its_first_open(durable):
    """A directory without a stamp is an earlier build's, even when its
    files are in this build's format: the first open reads it through
    compat, checkpoints and stamps it."""
    (durable / FORMAT_NAME).unlink()
    assert Database.check(str(durable)).ok
    assert not (durable / FORMAT_NAME).exists()  # a check writes nothing
    db = Database.open(str(durable))
    assert db.sql("SELECT COUNT(*) FROM t").scalar() == 65
    db.close()
    assert_upgraded(durable)
