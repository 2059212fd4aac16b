"""Filesystem abstraction for crash-safe persistence.

Every durable byte the persistence layer writes flows through a
:class:`DiskIO` instance instead of raw :mod:`pathlib` calls. The default
implementation provides the two primitives that the snapshot protocol's
atomicity rests on:

* :meth:`DiskIO.write_file` — write to a temporary sibling, flush,
  ``fsync``, then atomically rename into place. A file is either fully
  present under its final name or absent; a crash can only ever leave a
  stray ``*.tmp`` file, which recovery garbage-collects.
* :meth:`DiskIO.rename` — ``os.replace``, the atomic commit point.

Because all I/O funnels through one small object, tests substitute
:class:`FaultyDisk` to simulate crashes after N write operations, torn
writes (only a prefix reaches the disk), silently lost renames, and bit
flips on read — the machinery behind the crash-consistency suite in
``tests/storage/test_crash_consistency.py``.

The module also hosts :func:`crc32`, the one checksum this build
computes and reads: every manifest entry, manifest self-checksum, pool
blob name, WAL frame and backup file is a CRC-32 (zlib's, the IEEE
polynomial). The checksums earlier builds stored are verified by
:mod:`repro.storage.compat` only.
"""

from __future__ import annotations

import os
import shutil
import zlib
from pathlib import Path


def crc32(data, value: int = 0) -> int:
    """CRC-32 of ``data``'s bytes, whatever its item size; ``value`` chains."""
    return zlib.crc32(data, value)


class InjectedFault(BaseException):
    """A simulated crash raised by :class:`FaultyDisk`.

    Deliberately derives from :class:`BaseException` (not ``ReproError``,
    not even ``Exception``) so no error-handling path in the engine can
    accidentally swallow it — a real power cut is not catchable either.
    """


class DiskIO:
    """Real filesystem access with atomic, durable file replacement.

    :meth:`append_file` keeps its descriptor (one ``open`` per log segment)
    until :meth:`close_file`, or a rename, remove or write over the path.
    """

    _appending: dict[str, int] | None = None  # by path; made at first append

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def write_file(self, path: Path, data: bytes) -> None:
        """Atomically (re)place ``path`` with ``data``.

        Write-temp -> flush -> fsync -> atomic rename: after this returns
        the file is durable; if it is interrupted the final name is
        untouched and only a ``*.tmp`` sibling may remain.
        """
        path = Path(path)
        self.mkdir(path.parent)
        tmp = path.with_name(path.name + ".tmp")
        self._write_bytes(tmp, data)
        self.rename(tmp, path)

    def _write_bytes(self, path: Path, data: bytes) -> None:
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def append_file(self, path: Path, data: bytes) -> None:
        """Append ``data`` to ``path`` (created if missing), written to the
        OS but **not** fsynced — durability is deferred to
        :meth:`sync_file` so a write-ahead log can amortize fsyncs across
        many appends (group commit)."""
        appending = self._appending = self._appending or {}
        key = os.fspath(path)
        fd = appending.get(key)
        if fd is None:
            flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
            try:
                fd = os.open(key, flags, 0o666)
            except FileNotFoundError:
                # Only a first append can find the directory missing: a
                # log pays for no mkdir per record.
                self.mkdir(Path(path).parent)
                fd = os.open(key, flags, 0o666)
            appending[key] = fd
        while data:  # a regular file takes it all but on error
            data = data[os.write(fd, data) :]

    def sync_file(self, path: Path) -> None:
        """fsync a file previously written with :meth:`append_file`."""
        fd = (self._appending or {}).get(os.fspath(path))
        if fd is not None:
            return os.fsync(fd)
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def close_file(self, path: Path) -> None:
        """Close the append descriptor held for ``path``, if any."""
        fd = (self._appending or {}).pop(os.fspath(path), None)
        if fd is not None:
            os.close(fd)

    def close(self) -> None:
        """Close every append descriptor this object holds."""
        while self._appending:
            os.close(self._appending.popitem()[1])

    __del__ = close

    def sync_dir(self, path: Path) -> None:
        """fsync a directory, persisting its entries.

        ``fsync`` of a file makes its *bytes* durable but not the
        directory entry that names it: on a metadata-lazy filesystem a
        power cut can leave a fully-fsynced file unreachable. Callers
        that create files via :meth:`append_file` (the WAL's segment
        creation) must sync the parent directory too —
        :meth:`write_file`/:meth:`rename` already do this internally as
        part of the atomic-rename protocol.
        """
        self._fsync_dir(Path(path))

    def file_size(self, path: Path) -> int:
        """Size of a file in bytes; 0 if it does not exist."""
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    def link_file(self, src: Path, dst: Path) -> None:
        """Give the written-once file ``src`` a second name ``dst`` (a hard
        link; a copy where the two cannot share the file, as across
        devices). Not durable until ``dst``'s directory is synced
        (:meth:`sync_dir`); an existing ``dst`` is replaced."""
        dst = Path(dst)
        self.mkdir(dst.parent)
        tmp = dst.with_name(dst.name + ".tmp")
        self.remove(tmp)
        try:
            os.link(src, tmp)
        except OSError:
            self._write_bytes(tmp, self.read_file(src))
        os.replace(tmp, dst)

    def rename(self, src: Path, dst: Path) -> None:
        self.close_file(src)
        self.close_file(dst)
        os.replace(src, dst)
        self._fsync_dir(Path(dst).parent)

    def _fsync_dir(self, directory: Path) -> None:
        # Persist the directory entry itself (best-effort: not all
        # platforms allow opening a directory for fsync).
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform dependent
            pass
        finally:
            os.close(fd)

    def mkdir(self, path: Path) -> None:
        """Create ``path`` and what leads to it; like a file's, a new
        directory's entry is not durable until its parent is synced."""
        Path(path).mkdir(parents=True, exist_ok=True)

    def make_dirs(self, path: Path) -> None:
        """:meth:`mkdir`, then sync the parent of every directory it
        created, deepest first: afterwards ``path`` survives a power cut."""
        path = Path(path)
        created = []
        for directory in (path, *path.parents):
            if self.is_dir(directory):
                break
            created.append(directory)
        self.mkdir(path)
        for directory in created:
            self.sync_dir(directory.parent)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def read_file(self, path: Path) -> bytes:
        return Path(path).read_bytes()

    def exists(self, path: Path) -> bool:
        return Path(path).exists()

    def is_dir(self, path: Path) -> bool:
        return Path(path).is_dir()

    def listdir(self, path: Path) -> list[str]:
        """Sorted entry names of a directory; ``[]`` if it is missing."""
        try:
            return sorted(os.listdir(path))
        except FileNotFoundError:
            return []

    # ------------------------------------------------------------------ #
    # Removal (garbage collection)
    # ------------------------------------------------------------------ #
    def remove(self, path: Path) -> None:
        self.close_file(path)
        try:
            os.remove(path)
        except FileNotFoundError:
            pass

    def remove_tree(self, path: Path) -> None:
        """Recursively delete a directory tree (missing is fine)."""
        path = Path(path)
        if not path.is_dir():
            self.remove(path)
            return
        for name in self.listdir(path):
            self.remove_tree(path / name)
        try:
            os.rmdir(path)
        except OSError:  # pragma: no cover - raced or non-empty
            pass


class FaultyDisk(DiskIO):
    """Deterministic fault injection for the crash-consistency suite.

    Counts *write points* — every file-content write and every rename is
    one operation. Fault knobs:

    ``crash_after_ops=N``
        the first N operations succeed, then the next one raises
        :class:`InjectedFault` (N=0 crashes on the very first write).
    ``torn_write_bytes=K``
        when the crashing operation is a content write, the first K bytes
        still reach the (temporary) file before the crash — a torn write.
    ``drop_rename_of=substr``
        renames whose destination contains ``substr`` silently do nothing
        (a lost directory-entry update); the save continues believing the
        rename happened.
    ``flip_bit_on_read=(substr, byte_index, bit)``
        reads of paths containing ``substr`` come back with one bit
        flipped (``byte_index`` is taken modulo the file length).
    ``lose_unsynced_on_crash=True``
        appends that were never followed by a :meth:`sync_file` are
        rolled back (the file truncated to its last-synced length) when
        the crash fires — the honest power-cut model for group commit,
        where a commit is durable only once its fsync completed. Every
        directory entry made since its directory was last synced — a
        file :meth:`append_file` created, a name :meth:`link_file`
        made, a directory :meth:`mkdir` made — disappears entirely,
        with everything under it: the entry was still unsynced
        metadata, so the power cut unlinks it no matter how many times
        the file itself (or the directory's own entries) were fsynced.
        A directory's entries become durable when it is
        :meth:`sync_dir`-ed or something is renamed into it (rename
        fsyncs the destination directory as part of the atomic
        protocol).

    Every content write, append, fsync (file or directory), link and
    rename counts as one write point, so crash sweeps cover the WAL's
    append/sync sequence too; a crash closes every descriptor held.
    """

    def __init__(
        self,
        crash_after_ops: int | None = None,
        torn_write_bytes: int | None = None,
        drop_rename_of: str | None = None,
        flip_bit_on_read: tuple[str, int, int] | None = None,
        lose_unsynced_on_crash: bool = False,
    ) -> None:
        self.crash_after_ops = crash_after_ops
        self.torn_write_bytes = torn_write_bytes
        self.drop_rename_of = drop_rename_of
        self.flip_bit_on_read = flip_bit_on_read
        self.lose_unsynced_on_crash = lose_unsynced_on_crash
        self.ops = 0
        self.dropped_renames: list[str] = []
        self._synced_sizes: dict[str, int] = {}
        # Entries (files appended or linked, directories made) whose
        # parent directory was not synced since: parent dir -> paths. A
        # crash with lose_unsynced_on_crash unlinks them, trees and all.
        self._unsynced_entries: dict[str, set[str]] = {}

    def _maybe_crash(
        self, path: Path, data: bytes | None, append: bool = False
    ) -> None:
        if self.crash_after_ops is None or self.ops < self.crash_after_ops:
            return
        if data is not None and self.torn_write_bytes is not None:
            # Model a torn write: a prefix hits the platter, no fsync.
            self.mkdir(Path(path).parent)
            with open(path, "ab" if append else "wb") as handle:
                handle.write(data[: self.torn_write_bytes])
        # The process dies: no descriptor it held writes again.
        self.close()
        if self.lose_unsynced_on_crash:
            # Un-fsynced appended bytes never reached the platter.
            for unsynced_path, synced_size in self._synced_sizes.items():
                try:
                    os.truncate(unsynced_path, synced_size)
                except OSError:  # pragma: no cover - file never created
                    pass
            # Un-fsynced directory entries never reached the platter:
            # what they name is unreachable after the power cut, however
            # thoroughly its contents were fsynced.
            for entries in self._unsynced_entries.values():
                for entry_path in entries:
                    if os.path.isdir(entry_path):
                        shutil.rmtree(entry_path, ignore_errors=True)
                    else:
                        try:
                            os.remove(entry_path)
                        except OSError:  # removed since, or under a removed tree
                            pass
        raise InjectedFault(
            f"simulated crash at write point {self.ops} ({Path(path).name})"
        )

    def _write_bytes(self, path: Path, data: bytes) -> None:
        self._maybe_crash(path, data)
        super()._write_bytes(path, data)
        self.ops += 1

    def _new_entry(self, path: Path) -> None:
        """Record ``path`` as an unsynced entry of its directory, if it is
        about to be created."""
        if self.lose_unsynced_on_crash and not os.path.lexists(path):
            self._unsynced_entries.setdefault(str(Path(path).parent), set()).add(str(path))

    def append_file(self, path: Path, data: bytes) -> None:
        self._maybe_crash(path, data, append=True)
        self._new_entry(path)
        if self.lose_unsynced_on_crash:
            self._synced_sizes.setdefault(str(path), self.file_size(path))
        super().append_file(path, data)
        self.ops += 1

    def mkdir(self, path: Path) -> None:
        path = Path(path)
        for directory in (path, *path.parents):
            if os.path.lexists(directory):
                break
            self._new_entry(directory)
        super().mkdir(path)

    def sync_file(self, path: Path) -> None:
        self._maybe_crash(path, None)
        super().sync_file(path)
        self._synced_sizes.pop(str(path), None)
        self.ops += 1

    def sync_dir(self, path: Path) -> None:
        self._maybe_crash(path, None)
        super().sync_dir(path)
        self._unsynced_entries.pop(str(Path(path)), None)
        self.ops += 1

    def link_file(self, src: Path, dst: Path) -> None:
        self._maybe_crash(dst, None)
        self._new_entry(dst)
        super().link_file(src, dst)
        self.ops += 1

    def rename(self, src: Path, dst: Path) -> None:
        self._maybe_crash(dst, None)
        if self.drop_rename_of is not None and self.drop_rename_of in str(dst):
            # The rename is lost: leave the temp file behind, report success.
            self.dropped_renames.append(str(dst))
            self.ops += 1
            return
        super().rename(src, dst)
        # rename fsyncs the destination directory, so every entry in it
        # (not just the renamed one) is durable from here on.
        self._unsynced_entries.pop(str(Path(dst).parent), None)
        self.ops += 1

    def read_file(self, path: Path) -> bytes:
        data = super().read_file(path)
        if self.flip_bit_on_read is not None and data:
            substr, byte_index, bit = self.flip_bit_on_read
            if substr in str(path):
                flipped = bytearray(data)
                flipped[byte_index % len(flipped)] ^= 1 << (bit % 8)
                return bytes(flipped)
        return data
