"""Damage is caught under both checksum algorithms.

Every file and frame this build writes carries a CRC-32; what earlier
builds wrote carries a CRC-32C, which the format names (a manifest's
``format_version`` and JSON keys, the top bit of a frame's length word)
and which only :mod:`repro.storage.compat` reads, verifying it. A flipped bit or a truncation anywhere
in a frame, a manifest or a pool blob must fail verification whichever
algorithm the damaged thing was made with; a flipped marker bit must
never make a bad frame verify, nor make recovery truncate a log whose
damaged frame has a good one after it.
"""

from __future__ import annotations

import shutil
import struct
from pathlib import Path

import pytest

from repro import Database, StoreConfig
from repro.errors import CorruptBlobError, RecoveryError, WalCorruptError
from repro.storage import compat, snapshot
from repro.storage.compat import crc32c_scalar, scan_segment
from repro.storage.diskio import DiskIO
from repro.storage.snapshot import MANIFEST_NAME
from repro.wal import record
from repro.wal.log import WriteAheadLog
from repro.wal.record import WalRecordType, encode_record

OLD_FORMAT = Path(__file__).parent / "old_format"
OLD_LOG = Path(__file__).parents[1] / "wal" / "old_log" / "seg_000000000001.wal"


def earlier_frame(frame: bytes) -> bytes:
    """``frame`` as an earlier build wrote it: no marker, a CRC-32C."""
    body = frame[8:]
    return struct.pack("<II", len(body), crc32c_scalar(body)) + body


def mixed_segment() -> tuple[bytes, list[int]]:
    """Five frames, an earlier build's and this build's interleaved, and
    where each starts."""
    data, starts = b"", []
    for lsn in range(1, 6):
        frame = encode_record(WalRecordType.INSERT, lsn, "t", bytes([lsn]) * (10 * lsn))
        starts.append(len(data))
        data += earlier_frame(frame) if lsn in (1, 3) else frame
    return data, starts


def frame_of(starts: list[int], offset: int) -> int:
    return max(i for i, start in enumerate(starts) if start <= offset)


# ---------------------------------------------------------------------- #
# Frames
# ---------------------------------------------------------------------- #
def test_a_mixed_segment_scans_clean():
    data, starts = mixed_segment()
    scan = scan_segment(data, 1)
    assert scan.damage is None and [r.lsn for r in scan.records] == [1, 2, 3, 4, 5]
    # This build's own scan reads only its own frames.
    assert record.scan_segment(data[: starts[1]], 1).damage.detail == "record checksum mismatch"


def test_every_flipped_bit_in_either_kind_of_frame_is_caught():
    data, starts = mixed_segment()
    for offset in range(len(data)):
        for bit in range(8):
            mutated = bytearray(data)
            mutated[offset] ^= 1 << bit
            scan = scan_segment(bytes(mutated), 1)
            hit = frame_of(starts, offset)
            assert scan.damage is not None, (offset, bit)
            # Nothing from the damaged frame on is returned as a record.
            assert [r.lsn for r in scan.records] == list(range(1, hit + 1)), (offset, bit)


def test_every_truncation_of_either_kind_of_frame_is_a_torn_tail():
    data, starts = mixed_segment()
    ends = starts[1:] + [len(data)]
    for cut in range(len(data)):
        scan = scan_segment(data[:cut], 1)
        whole = sum(end <= cut for end in ends)
        assert [r.lsn for r in scan.records] == list(range(1, whole + 1)), cut
        if cut not in starts:
            assert scan.damage is not None and scan.damage.kind == "torn-tail", cut


@pytest.mark.parametrize("frame", range(5))
def test_a_flipped_marker_bit_never_verifies_and_never_truncates_good_frames(tmp_path, frame):
    data, starts = mixed_segment()
    mutated = bytearray(data)
    mutated[starts[frame] + 3] ^= 0x80  # the top bit of the little-endian length word
    scan = scan_segment(bytes(mutated), 1)
    assert [r.lsn for r in scan.records] == list(range(1, frame + 1))
    assert "checksum mismatch" in scan.damage.detail
    # The length is read without the marker, so a good frame after the
    # damaged one is found and recovery refuses instead of truncating.
    assert scan.damage.kind == ("torn-tail" if frame == 4 else "corrupt")
    wal_dir = tmp_path / "wal"
    wal_dir.mkdir()
    (wal_dir / "seg_000000000001.wal").write_bytes(bytes(mutated))
    if frame < 4:
        with pytest.raises(WalCorruptError):
            WriteAheadLog.attach(DiskIO(), wal_dir, reader=compat)
        assert (wal_dir / "seg_000000000001.wal").read_bytes() == bytes(mutated)


def test_the_old_log_keeps_its_damage_classes():
    data = OLD_LOG.read_bytes()
    records = scan_segment(data, 1).records
    assert len(records) > 3
    # A torn tail: any cut inside the last frame.
    last_start = scan_segment(data[:-1], 1).good_bytes
    for cut in (last_start + 1, last_start + 8, len(data) - 1):
        scan = scan_segment(data[:cut], 1)
        assert scan.damage.kind == "torn-tail" and len(scan.records) == len(records) - 1
    # A mid-log flip: in the body of the first frame.
    mutated = bytearray(data)
    mutated[20] ^= 0x04
    scan = scan_segment(bytes(mutated), 1)
    assert scan.damage.kind == "corrupt" and scan.records == []


# ---------------------------------------------------------------------- #
# Manifests and pool blobs
# ---------------------------------------------------------------------- #
@pytest.fixture
def saved(tmp_path) -> Path:
    root = tmp_path / "db"
    db = Database.open(str(root), default_config=StoreConfig(rowgroup_size=32, bulk_load_threshold=8))
    db.sql("CREATE TABLE t (a INT, s VARCHAR)")
    db.bulk_load("t", [(i, f"v{i % 5}") for i in range(64)])
    db.save(str(root))
    db.close()
    return root


def _manifests(saved: Path):
    yield "crc32", (saved / MANIFEST_NAME).read_bytes()
    yield "crc32c", (OLD_FORMAT / "db" / MANIFEST_NAME).read_bytes()


def test_every_flipped_bit_and_cut_of_a_manifest_is_caught(saved):
    for kind, payload in _manifests(saved):
        read = snapshot.Manifest.from_json if kind == "crc32" else compat.read_manifest
        read(payload, "m")
        for offset in range(len(payload)):
            for bit in range(8) if kind == "crc32" else (offset % 8,):
                mutated = bytearray(payload)
                mutated[offset] ^= 1 << bit
                with pytest.raises((RecoveryError, CorruptBlobError)):
                    read(bytes(mutated), "m")
        for cut in range(len(payload) - 1):  # dropping the final newline leaves valid JSON
            with pytest.raises((RecoveryError, CorruptBlobError)):
                read(payload[:cut], "m")


def _blobs(saved: Path):
    for root, reader in ((saved, snapshot), (OLD_FORMAT / "db", compat)):
        entry = next(e for e in reader.load_manifest(DiskIO(), root).files if e.path.endswith(".seg"))
        yield root, entry


def test_every_flipped_bit_and_cut_of_a_pool_blob_is_caught(saved):
    earlier = []
    for root, entry in _blobs(saved):
        data = (root / entry.path).read_bytes()
        earlier.append(isinstance(entry, compat.Crc32cEntry))
        assert entry.matches(data)
        for offset in range(len(data)):
            for bit in range(8):
                mutated = bytearray(data)
                mutated[offset] ^= 1 << bit
                assert not entry.matches(bytes(mutated)), (entry.path, offset, bit)
        assert not any(entry.matches(data[:cut]) for cut in range(len(data)))
    assert earlier == [False, True]


@pytest.mark.parametrize("which", ["crc32", "crc32c"])
def test_a_damaged_blob_fails_the_open_by_name(saved, tmp_path, which):
    root = saved if which == "crc32" else shutil.copytree(OLD_FORMAT / "db", tmp_path / "old")
    reader = snapshot if which == "crc32" else compat
    entry = next(e for e in reader.load_manifest(DiskIO(), root).files if e.path.endswith(".seg"))
    path = root / entry.path
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x10
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptBlobError, match="checksum mismatch") as caught:
        reader.open_snapshot(DiskIO(), root)
    assert entry.path in str(caught.value)
    path.write_bytes(bytes(data[:-1]))
    with pytest.raises(CorruptBlobError, match="size mismatch"):
        reader.open_snapshot(DiskIO(), root)
