"""Unit tests for the disk I/O abstraction and the snapshot protocol:
CRC-32C vectors, atomic file replacement, fault injection semantics,
manifest round-trips, verification, and garbage collection."""

import json

import pytest

from repro.errors import CorruptBlobError, RecoveryError
from repro.storage.diskio import DiskIO, FaultyDisk, InjectedFault, crc32c
from repro.storage.snapshot import (
    MANIFEST_NAME,
    Manifest,
    SnapshotWriter,
    check_database,
    collect_garbage,
    load_manifest,
    open_snapshot,
    roll_back,
)


class TestCrc32c:
    """The vectors; the kernel's differential tests are in test_crc32c.py."""

    def test_known_vectors(self):
        # RFC 3720 appendix B test vector for CRC-32C.
        assert crc32c(b"123456789") == 0xE3069283
        assert crc32c(b"") == 0
        assert crc32c(b"\x00" * 32) == 0x8A9136AA

    def test_chaining(self):
        whole = crc32c(b"hello world")
        chained = crc32c(b" world", crc32c(b"hello"))
        assert whole == chained

    def test_single_bit_flip_always_detected(self):
        data = bytes(range(256))
        reference = crc32c(data)
        for byte_index in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[byte_index] ^= 1 << bit
                assert crc32c(bytes(flipped)) != reference


class TestDiskIO:
    def test_write_file_is_atomic_and_clean(self, tmp_path):
        disk = DiskIO()
        target = tmp_path / "a" / "b.bin"
        disk.write_file(target, b"payload")
        assert target.read_bytes() == b"payload"
        # No temp residue after a successful write.
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_overwrite_replaces(self, tmp_path):
        disk = DiskIO()
        target = tmp_path / "f"
        disk.write_file(target, b"old")
        disk.write_file(target, b"new")
        assert target.read_bytes() == b"new"

    def test_remove_tree(self, tmp_path):
        disk = DiskIO()
        disk.write_file(tmp_path / "d" / "x", b"1")
        disk.write_file(tmp_path / "d" / "sub" / "y", b"2")
        disk.remove_tree(tmp_path / "d")
        assert not (tmp_path / "d").exists()
        disk.remove_tree(tmp_path / "d")  # missing is fine


class TestFaultyDisk:
    def test_crash_counts_write_points(self, tmp_path):
        disk = FaultyDisk(crash_after_ops=2)
        disk.write_file(tmp_path / "a", b"1")  # ops 0 (write) + 1 (rename)
        with pytest.raises(InjectedFault):
            disk.write_file(tmp_path / "b", b"2")
        assert (tmp_path / "a").read_bytes() == b"1"
        assert not (tmp_path / "b").exists()

    def test_crash_on_first_op(self, tmp_path):
        disk = FaultyDisk(crash_after_ops=0)
        with pytest.raises(InjectedFault):
            disk.write_file(tmp_path / "a", b"1")
        assert list(tmp_path.iterdir()) == []

    def test_torn_write_leaves_prefix_in_temp(self, tmp_path):
        disk = FaultyDisk(crash_after_ops=0, torn_write_bytes=3)
        with pytest.raises(InjectedFault):
            disk.write_file(tmp_path / "a", b"abcdef")
        assert not (tmp_path / "a").exists()
        assert (tmp_path / "a.tmp").read_bytes() == b"abc"

    def test_dropped_rename_reports_success(self, tmp_path):
        disk = FaultyDisk(drop_rename_of="victim")
        disk.write_file(tmp_path / "victim.bin", b"gone")
        assert not (tmp_path / "victim.bin").exists()
        assert disk.dropped_renames == [str(tmp_path / "victim.bin")]
        disk.write_file(tmp_path / "other.bin", b"kept")
        assert (tmp_path / "other.bin").read_bytes() == b"kept"

    def test_bit_flip_on_read(self, tmp_path):
        (tmp_path / "seg").write_bytes(b"\x00\x00")
        disk = FaultyDisk(flip_bit_on_read=("seg", 1, 0))
        assert disk.read_file(tmp_path / "seg") == b"\x00\x01"
        # Non-matching paths read clean.
        (tmp_path / "other").write_bytes(b"\x00")
        assert disk.read_file(tmp_path / "other") == b"\x00"

    def test_injected_fault_not_catchable_as_exception(self):
        assert not issubclass(InjectedFault, Exception)


class TestManifest:
    def test_roundtrip(self):
        from repro.storage.snapshot import ManifestEntry

        manifest = Manifest(snapshot_id=7)
        manifest.files.append(ManifestEntry(path="t/a.seg", size=12, crc32c=0xDEAD))
        restored = Manifest.from_json(manifest.to_json(), "m")
        assert restored.snapshot_id == 7
        assert restored.directory == "snap_000007"
        assert restored.files == manifest.files

    def test_paths_are_root_relative_and_map_back_to_persist_names(self):
        manifest = Manifest(snapshot_id=7)
        assert manifest.relpath_of("snap_000007/t/meta.json") == "t/meta.json"
        assert (
            manifest.relpath_of("segments/t/rowgroups/g3.a.b.0123abcd.seg")
            == "t/rowgroups/g3.a.b.seg"
        )

    def test_version_1_manifest_is_refused_naming_the_layout(self):
        from repro.storage.snapshot import self_checksum

        body = {
            "format_version": 1,
            "snapshot_id": 7,
            "directory": "snap_000007",
            "checkpoint_lsn": 3,
            "files": [{"path": "t/a.seg", "size": 12, "crc32c": "0000dead"}],
        }
        body["manifest_crc32c"] = f"{self_checksum(body):08x}"
        with pytest.raises(RecoveryError, match=r"format_version 1 .*snap_<id>/"):
            Manifest.from_json(json.dumps(body).encode(), "m")

    def test_self_checksum_detects_tamper(self):
        manifest = Manifest(snapshot_id=1)
        payload = bytearray(manifest.to_json())
        index = payload.index(b'"snapshot_id": 1') + len(b'"snapshot_id": ')
        payload[index : index + 1] = b"2"
        with pytest.raises(CorruptBlobError):
            Manifest.from_json(bytes(payload), "m")

    def test_garbage_is_recovery_error(self):
        with pytest.raises(RecoveryError):
            Manifest.from_json(b"not json at all", "m")
        with pytest.raises(RecoveryError):
            Manifest.from_json(b'{"format_version": 99}', "m")


class TestSnapshotWriterReader:
    def test_write_commit_open(self, tmp_path):
        disk = DiskIO()
        writer = SnapshotWriter(disk, tmp_path)
        writer.write("t/one.bin", b"alpha")
        writer.write("two.json", b"{}")
        manifest = writer.commit()
        assert manifest.snapshot_id == 1
        reader = open_snapshot(disk, tmp_path)
        assert reader.read("t/one.bin") == b"alpha"
        assert reader.exists("two.json") and not reader.exists("absent")
        with pytest.raises(RecoveryError):
            reader.read("absent")

    def test_ids_increase_and_old_snapshots_collected(self, tmp_path):
        disk = DiskIO()
        for n in range(3):
            writer = SnapshotWriter(disk, tmp_path)
            writer.write("f", f"v{n}".encode())
            collect_garbage(disk, tmp_path, writer.commit())
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [MANIFEST_NAME, "snap_000003"]
        assert open_snapshot(disk, tmp_path).read("f") == b"v2"

    def test_interrupted_save_ignored_then_rolled_back(self, tmp_path):
        disk = DiskIO()
        writer = SnapshotWriter(disk, tmp_path)
        writer.write("f", b"committed")
        writer.commit()
        # An interrupted save: files written, manifest never committed.
        orphan = SnapshotWriter(disk, tmp_path)
        assert orphan.snapshot_id == 2
        orphan.write("f", b"uncommitted")
        reader = open_snapshot(disk, tmp_path)
        assert reader.read("f") == b"committed"
        # Rolling back after the open collects the interrupted directory.
        roll_back(disk, tmp_path, reader.manifest)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            MANIFEST_NAME,
            "snap_000001",
        ]

    def test_next_id_skips_orphan_directories(self, tmp_path):
        disk = DiskIO()
        (tmp_path / "snap_000009").mkdir(parents=True)
        writer = SnapshotWriter(disk, tmp_path)
        assert writer.snapshot_id == 10

    def test_missing_file_detected_by_name(self, tmp_path):
        disk = DiskIO()
        writer = SnapshotWriter(disk, tmp_path)
        writer.write("t/keep.bin", b"x")
        writer.write("t/lost.bin", b"y")
        writer.commit()
        (tmp_path / "snap_000001" / "t" / "lost.bin").unlink()
        with pytest.raises(CorruptBlobError, match="lost.bin"):
            open_snapshot(disk, tmp_path)

    def test_size_mismatch_detected(self, tmp_path):
        disk = DiskIO()
        writer = SnapshotWriter(disk, tmp_path)
        writer.write("f", b"12345")
        writer.commit()
        (tmp_path / "snap_000001" / "f").write_bytes(b"123")
        with pytest.raises(CorruptBlobError, match="size mismatch"):
            open_snapshot(disk, tmp_path)

    def test_all_corrupt_files_named_at_once(self, tmp_path):
        disk = DiskIO()
        writer = SnapshotWriter(disk, tmp_path)
        writer.write("a.bin", b"aaaa")
        writer.write("b.bin", b"bbbb")
        writer.commit()
        for name in ("a.bin", "b.bin"):
            path = tmp_path / "snap_000001" / name
            data = bytearray(path.read_bytes())
            data[0] ^= 0xFF
            path.write_bytes(bytes(data))
        with pytest.raises(CorruptBlobError) as excinfo:
            open_snapshot(disk, tmp_path)
        assert "a.bin" in str(excinfo.value) and "b.bin" in str(excinfo.value)

    def test_collect_garbage_keeps_exactly_what_the_manifest_names(self, tmp_path):
        disk = DiskIO()
        writer = SnapshotWriter(disk, tmp_path)
        writer.write("t/kept.bin", b"kept")
        manifest = writer.commit()
        strays = [
            "MANIFEST.json.tmp",  # torn manifest write at the root
            "snap_000001/t/kept.bin.tmp",  # torn write inside the live snapshot
            "snap_000002/t/half.bin",  # an interrupted save
            "segments/t/rowgroups/g0.a.0badf00d.seg",  # a blob nothing names
            "segments/t/rowgroups/g0.a.0badf00d.seg.tmp",
        ]
        for stray in strays:
            (tmp_path / stray).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / stray).write_bytes(b"stray")
        (tmp_path / "wal").mkdir()  # not a snapshot or pool directory: untouched
        (tmp_path / "wal" / "seg.tmp").write_bytes(b"not ours")
        assert collect_garbage(disk, tmp_path, manifest) == 1  # snap_000002
        left = sorted(
            p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()
        )
        assert left == [MANIFEST_NAME, "snap_000001/t/kept.bin", "wal/seg.tmp"]
        assert not (tmp_path / "segments").exists()  # emptied directories go too

    def test_collect_garbage_without_a_manifest_keeps_nothing(self, tmp_path):
        disk = DiskIO()
        (tmp_path / "MANIFEST.json.tmp").write_bytes(b"torn")
        (tmp_path / "snap_000002").mkdir()
        assert collect_garbage(disk, tmp_path, None) == 1
        assert list(tmp_path.iterdir()) == []


class TestCheckDatabase:
    def test_empty_dir(self, tmp_path):
        report = check_database(DiskIO(), tmp_path)
        assert report.manifest_status == "missing"
        assert not report.ok

    def test_legacy_layout(self, tmp_path):
        (tmp_path / "catalog.json").write_text("[]")
        report = check_database(DiskIO(), tmp_path)
        assert report.manifest_status == "missing"
        assert "pre-manifest layout" in report.detail
        assert not report.ok

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{broken")
        report = check_database(DiskIO(), tmp_path)
        assert report.manifest_status == "corrupt"
        assert not report.ok

    def test_ok_and_render(self, tmp_path):
        disk = DiskIO()
        writer = SnapshotWriter(disk, tmp_path)
        writer.write("data.bin", b"fine")
        writer.commit()
        report = check_database(disk, tmp_path)
        assert report.ok and report.snapshot_id == 1
        text = "\n".join(report.render())
        assert "data.bin: ok" in text and "result: ok" in text

    def test_load_manifest_none_when_absent(self, tmp_path):
        assert load_manifest(DiskIO(), tmp_path) is None

    def test_undecodable_segment_reported(self, tmp_path):
        import numpy as np

        from repro import types
        from repro.storage.blob import serialize_segment
        from repro.storage.segment import encode_segment

        blob = serialize_segment(
            encode_segment(types.INT, np.arange(10, dtype=np.int32))
        )
        disk = DiskIO()
        writer = SnapshotWriter(disk, tmp_path)
        writer.write("t/rowgroups/g0.a.seg", blob[: len(blob) // 2])
        writer.commit()
        report = check_database(disk, tmp_path)
        # Checksum matches what was written, but the blob is truncated:
        # the structural decode pass must flag it.
        assert [v.status for v in report.verdicts] == ["undecodable"]
        json.loads((tmp_path / MANIFEST_NAME).read_text())  # still valid JSON
