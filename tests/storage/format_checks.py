"""What a directory this build upgraded holds, checked file by file."""

from __future__ import annotations

import json
import shutil
import struct
from pathlib import Path

from repro.storage.blob import split_archive
from repro.storage.snapshot import FORMAT_NAME, FORMAT_VERSION, MANIFEST_NAME
from repro.wal.log import WAL_DIR_NAME


def frame_markers(segment: Path) -> list[bool]:
    """Per frame of a log segment: does its length word carry the CRC-32
    marker?"""
    data, pos, markers = segment.read_bytes(), 0, []
    while pos < len(data):
        (word,) = struct.unpack_from("<I", data, pos)
        markers.append(bool(word >> 31))
        pos += 8 + (word & 0x7FFFFFFF)
    return markers


def assert_upgraded(root: Path) -> None:
    """``root`` holds this build's format: a stamp, a version-3 manifest
    listing every file with a CRC-32, no XPR1 archive in any blob it
    names, and a live log every frame of which has its marker bit set."""
    assert json.loads((root / FORMAT_NAME).read_text()) == {"format": FORMAT_VERSION}
    manifest = json.loads((root / MANIFEST_NAME).read_text())
    assert manifest["format_version"] == 3 and "manifest_crc32" in manifest
    assert manifest["files"] and all(
        set(entry) == {"path", "size", "crc32"} for entry in manifest["files"]
    )
    for entry in manifest["files"]:
        if entry["path"].endswith(".seg"):
            archive = split_archive((root / entry["path"]).read_bytes())[1]
            assert archive is None or not archive.startswith(b"XPR1"), entry["path"]
    for segment in (root / WAL_DIR_NAME).glob("seg_*.wal"):
        assert all(frame_markers(segment)), segment.name


def sweep_upgrade_crashes(source: Path, scratch: Path, answers, expected) -> int:
    """Crash the first open of a copy of ``source`` (an earlier build's
    directory) at each of its write points in turn, unsynced writes lost
    with the power; each copy must reopen to ``expected`` and end
    upgraded. Returns how many write points the upgrade has."""
    from repro import Database
    from repro.storage.diskio import FaultyDisk, InjectedFault

    point = 0
    while True:
        root = scratch / f"crash_{point}"
        shutil.copytree(source, root)
        try:
            disk = FaultyDisk(crash_after_ops=point, lose_unsynced_on_crash=True)
            Database.open(str(root), disk=disk).close()
        except InjectedFault:
            pass
        else:
            shutil.rmtree(root)
            return point
        db = Database.open(str(root))
        assert answers(db) == expected, point
        db.close()
        assert_upgraded(root)
        shutil.rmtree(root)
        point += 1
