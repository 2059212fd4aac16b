"""E25 — Checkpoints and opens that cost what changed.

Two mechanisms, one property (DESIGN.md "Persistence"): zlib's CRC-32
makes a checksummed byte cost a fraction of a nanosecond instead of a
tenth of a microsecond, and the write-once segment pool makes a checkpoint write
only the segments the directory does not hold yet — which is none: a
change that creates row groups wrote their blobs into the pool when it
logged them (DESIGN.md "Logged row groups"). Four tables:

1. Checksum ns/byte by input size, ``crc32`` (what every new file and
   frame carries) against ``crc32c_scalar`` (the loop that verifies the
   CRC-32C earlier builds stored) — from a 60- or 99-byte WAL frame to a
   multi-megabyte record.
2. One checkpoint by what changed since the last one: the blobs the
   change logged, then the checkpoint's milliseconds, files written and
   reused, bytes written, fsyncs issued.
3. ``Database.open``: milliseconds and bytes verified, with the
   checksum share under ``crc32`` and under the scalar loop.
4. Building the table (bulk load + first checkpoint): where the
   checksum time went, same two arms.

The acceptance checks are on exact counters, not on the clock: no
checkpoint writes a segment file; an insert-only one reuses every one; a
tuple-mover run logs its new row groups' segments, re-encoding logs all
of them, and the checkpoint after either reuses them.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np

from conftest import save_report, scaled
from repro.bench.harness import ReportTable
from repro.db.database import Database
from repro.observability import MetricsRegistry
from repro.observability.registry import set_registry
from repro.storage.compat import crc32c_scalar
from repro.storage.config import StoreConfig
from repro.storage.diskio import DiskIO, crc32
from repro.storage.snapshot import POOL_DIR_NAME, load_manifest

_COLUMNS = 5
_GROUPS = 7


class _CountingDisk(DiskIO):
    """The real disk, counting the fsyncs it issues."""

    def __init__(self) -> None:
        self.fsyncs = 0

    def _write_bytes(self, path, data):
        self.fsyncs += 1
        super()._write_bytes(path, data)

    def _fsync_dir(self, directory):
        self.fsyncs += 1
        super()._fsync_dir(directory)

    def sync_file(self, path):
        self.fsyncs += 1
        super().sync_file(path)


class _ChecksumClock:
    """Calls, bytes and seconds spent in the checksum function."""

    def __init__(self, function) -> None:
        self.function = function
        self.calls = self.bytes = 0
        self.seconds = 0.0

    def __call__(self, data, value=0):
        start = time.perf_counter()
        result = self.function(data, value)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        self.bytes += len(data)
        return result


@contextlib.contextmanager
def _checksum_arm(function):
    """Run the engine with ``function`` as its checksum, timed. The
    scalar arm is what every caller paid before the CRC-32C kernel, and
    what verifying an earlier build's checksums pays, on today's code."""
    import repro.storage.snapshot
    import repro.wal.record

    clock = _ChecksumClock(function)
    modules = (repro.wal.record, repro.storage.snapshot)
    for module in modules:
        module.crc32 = clock
    try:
        yield clock
    finally:
        for module in modules:
            module.crc32 = crc32


def _best_seconds(function, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def crc_table() -> tuple[ReportTable, dict[int, float]]:
    table = ReportTable(
        "E25a: checksum by input size (best of repeats)",
        ["bytes", "crc32c_scalar ns/B", "crc32 ns/B", "ratio"],
    )
    rng = np.random.default_rng(25)
    ratios = {}
    for size in (60, 99, 600, 1024, 4096, 16384, 32768, 262144, 3 << 20):
        data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        repeats = min(200, 300_000 // size)  # ~30 ms of scalar loop per size
        scalar = _best_seconds(lambda: crc32c_scalar(data), max(1, repeats))
        fast = _best_seconds(lambda: crc32(data), max(7, repeats))
        ratios[size] = scalar / fast
        table.add_row(
            f"{size:,}",
            f"{scalar / size * 1e9:.1f}",
            f"{fast / size * 1e9:.2f}",
            f"{scalar / fast:.0f}x",
        )
    table.add_note(
        "crc32 is zlib's, one C call whatever the size; crc32c_scalar only "
        "verifies checksums an earlier build stored"
    )
    return table, ratios


def _rows(start: int, count: int) -> list[tuple]:
    return [
        (start + i, i % 97, (i * 7) % 1000, i * 0.25, f"tag{i % 50}")
        for i in range(count)
    ]


def _insert(db: Database, start: int, count: int) -> None:
    for base in range(0, count, 50):
        values = ", ".join(
            f"({k}, 1, 2, 0.5, 'fresh')"
            for k in range(start + base, start + min(base + 50, count))
        )
        db.sql(f"INSERT INTO kv VALUES {values}")


def _load(root, rows: int, disk: DiskIO) -> Database:
    """A durable ``kv`` table of ``rows`` rows in exactly ``_GROUPS`` row
    groups, bulk-loaded and not yet checkpointed."""
    config = StoreConfig(
        rowgroup_size=-(-rows // _GROUPS),  # ceiling division
        bulk_load_threshold=1,
        delta_close_rows=256,
    )
    db = Database.open(str(root), disk=disk, default_config=config)
    db.sql("CREATE TABLE kv (k INT NOT NULL, grp INT, v INT, price FLOAT, tag VARCHAR)")
    db.bulk_load("kv", _rows(0, rows))
    return db


def _pool_blobs(disk: DiskIO, root) -> set[str]:
    manifest = load_manifest(disk, root)
    if manifest is None:
        return set()
    return {e.path for e in manifest.files if e.path.startswith(POOL_DIR_NAME + "/")}


def checkpoint_table(tmp_path, rows: int) -> tuple[ReportTable, dict[str, dict]]:
    registry = MetricsRegistry()
    previous = set_registry(registry)
    disk = _CountingDisk()
    root = tmp_path / "kv"
    observed: dict[str, dict] = {}
    table = ReportTable(
        f"E25b: one checkpoint of a {rows:,}-row table "
        f"({_GROUPS} row groups x {_COLUMNS} columns) by what changed",
        ["since the last checkpoint", "blobs logged", "ms", "files written", ".seg written",
         "segments reused", "KB written", "fsyncs"],
    )
    logged = {"so far": 0}

    def checkpoint(label: str, db: Database) -> None:
        before = registry.snapshot()
        blobs, fsyncs = _pool_blobs(disk, root), disk.fsyncs
        start = time.perf_counter()
        db.save(str(root), disk=disk)
        elapsed = time.perf_counter() - start
        after = registry.snapshot()

        def moved(name: str) -> int:
            key = f"storage.snapshot.{name}"
            return int(after.get(key, 0) - before.get(key, 0))

        blobs_logged = int(before.get("storage.wal.blobs_written", 0)) - logged["so far"]
        logged["so far"] += blobs_logged
        written = moved("files_written")
        manifest = load_manifest(disk, root)
        fresh = sum(not e.path.startswith(POOL_DIR_NAME + "/") for e in manifest.files)
        observed[label] = {
            "blobs_logged": blobs_logged,
            "files_written": written,
            # What the checkpoint wrote into the pool (a skipped one, nothing).
            "segments_written": written - fresh if written else 0,
            "segments_named": len(_pool_blobs(disk, root) - blobs),
            "files_reused": moved("files_reused"),
        }
        table.add_row(
            label,
            blobs_logged,
            f"{elapsed * 1e3:.1f}",
            moved("files_written"),
            observed[label]["segments_written"],
            moved("files_reused"),
            f"{moved('bytes_written') / 1024:.1f}",
            disk.fsyncs - fsyncs,
        )

    try:
        db = _load(root, rows, disk)
        checkpoint("everything (the first checkpoint)", db)
        checkpoint("nothing (skipped)", db)
        _insert(db, 10_000_000, 100)
        checkpoint("100 inserted rows", db)
        _insert(db, 20_000_000, 1000)
        checkpoint("1,000 inserted rows, 4 closed delta stores", db)
        db.run_tuple_mover("kv")
        checkpoint("one tuple-mover run (4 new row groups)", db)
        db.sql("DELETE FROM kv WHERE k < 500")
        checkpoint("500 deleted rows", db)
        db.set_archival("kv", True)
        checkpoint("every segment re-encoded (archival on)", db)
        db.close()
    finally:
        set_registry(previous)
    table.add_note(
        "blobs logged = segment blobs the statements since the last checkpoint "
        "wrote into the pool; files written = fresh files (delta stores, delete "
        "bitmap, meta.json, catalog.json) + new pool blobs; fsyncs also cover "
        "the manifest, the WAL flush and the WAL segment archived before "
        "truncation"
    )
    return table, observed


def open_and_build_table(tmp_path, rows: int) -> ReportTable:
    table = ReportTable(
        f"E25c/d: building and opening the {rows:,}-row table, by checksum arm",
        ["step", "checksum", "total ms", "in checksum ms", "calls", "MB"],
    )
    for arm, function in (("crc32", crc32), ("scalar loop", crc32c_scalar)):
        root = tmp_path / f"arm_{arm.split()[0]}"
        with _checksum_arm(function) as clock:
            start = time.perf_counter()
            db = _load(root, rows, DiskIO())
            db.save(str(root))
            elapsed = time.perf_counter() - start
            db.close()
        table.add_row(
            "bulk load + first checkpoint", arm,
            f"{elapsed * 1e3:.0f}", f"{clock.seconds * 1e3:.0f}",
            clock.calls, f"{clock.bytes / 1e6:.1f}",
        )
        with _checksum_arm(function) as clock:
            start = time.perf_counter()
            Database.open(str(root)).close()
            elapsed = time.perf_counter() - start
        table.add_row(
            "Database.open", arm,
            f"{elapsed * 1e3:.0f}", f"{clock.seconds * 1e3:.0f}",
            clock.calls, f"{clock.bytes / 1e6:.1f}",
        )
    table.add_note(
        "the bulk load checksums each segment blob once, to name it; its WAL "
        "record only names the blobs, and archiving links them"
    )
    return table


def test_e25_checkpoint_costs_what_changed(benchmark, report_dir, tmp_path):
    rows = scaled(100_000)

    def run():
        crc, ratios = crc_table()
        checkpoints, observed = checkpoint_table(tmp_path, rows)
        return crc, ratios, checkpoints, observed, open_and_build_table(tmp_path, rows)

    crc, ratios, checkpoints, observed, build = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    save_report(
        report_dir,
        "e25_checkpoint.txt",
        "\n\n".join(t.render() for t in (crc, checkpoints, build)),
    )

    segments = _GROUPS * _COLUMNS
    moved = 4 * _COLUMNS
    # The property, on exact counters: no checkpoint writes a segment.
    assert all(step["segments_written"] == 0 for step in observed.values())
    first = observed["everything (the first checkpoint)"]
    assert first["blobs_logged"] == segments and first["files_reused"] == segments
    assert observed["nothing (skipped)"]["files_written"] == 0
    assert observed["100 inserted rows"]["blobs_logged"] == 0
    assert observed["100 inserted rows"]["files_reused"] == segments
    mover = observed["one tuple-mover run (4 new row groups)"]
    assert mover["blobs_logged"] == moved and mover["files_reused"] == segments + moved
    assert observed["500 deleted rows"]["files_reused"] == segments + moved
    reencoded = observed["every segment re-encoded (archival on)"]
    assert reencoded["blobs_logged"] == segments + moved
    assert reencoded["files_reused"] == segments + moved
    # The checksum, loosely: it must beat the scalar loop wherever it is
    # used, by a margin no noisy host erases.
    if os.environ.get("REPRO_BENCH_SCALE") is None:
        assert ratios[16384] >= 4.0 and ratios[262144] >= 8.0
