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

The module also hosts :func:`crc32c` (CRC-32C/Castagnoli, the checksum
of every manifest entry, WAL frame and backup file). Checksumming *is*
the hot path of a checkpoint, an open and a bulk-load log record, so
inputs of 1,280 bytes or more run lane-parallel in numpy:

* the buffer is cut into 16-byte lanes whose registers advance together,
  four bytes per step, through byte-sliced table gathers over the
  ``<u4`` view of the data;
* a CRC register is linear over GF(2), so "advance the register over
  2**k zero bytes" is a 32x32 bit matrix; the lane registers are folded
  pairwise — ``advance(left) ^ right`` — with the precomputed matrix for
  the lane length, then twice that, and so on. The per-step function is
  the same thing: the 4-zero-byte matrix applied to ``register ^ word``;
* the caller's ``value`` seeds the first lane's register, blocks of
  256 KB chain through the register so a multi-megabyte record adds no
  full-length temporary, and the tail that does not fill a lane goes
  through :func:`crc32c_scalar`.

Smaller inputs (a 99-byte WAL frame) advance four bytes a step through
two half-word tables; a big-endian host takes :func:`crc32c_scalar`, the
byte-at-a-time walk both faster paths are tested against, bit for bit.
"""

from __future__ import annotations

import os
import sys
from array import array
from pathlib import Path

import numpy as np


# ---------------------------------------------------------------------- #
# CRC-32C (Castagnoli)
# ---------------------------------------------------------------------- #
def _build_crc32c_table() -> tuple[int, ...]:
    poly = 0x82F63B78  # reversed Castagnoli polynomial
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC32C_TABLE = _build_crc32c_table()


def crc32c_scalar(data: bytes, value: int = 0) -> int:
    """CRC-32C of ``data`` one byte at a time: the reference :func:`crc32c`
    is tested against, and its path on a big-endian host."""
    crc = value ^ 0xFFFFFFFF
    table = _CRC32C_TABLE
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def _build_half_word_tables() -> tuple[array, array]:
    """Tables advancing the register over a little-endian word: the low
    half-word of ``register ^ word`` indexes the first, the high the second."""
    ends = [np.array(_CRC32C_TABLE, dtype=np.uint32)]  # ends[k]: byte k before the end
    for _ in range(3):
        ends.append((ends[-1] >> 8) ^ ends[0][ends[-1] & 0xFF])
    low, high = np.bitwise_xor.outer(ends[2], ends[3]), np.bitwise_xor.outer(ends[0], ends[1])
    return array("I", low.tobytes()), array("I", high.tobytes())


_LOW_HALF, _HIGH_HALF = _build_half_word_tables()


def _crc_words(data: memoryview, value: int) -> int:
    """CRC-32C of a byte view, four bytes a step (little-endian hosts)."""
    whole = len(data) & ~3
    crc = value ^ 0xFFFFFFFF
    low, high = _LOW_HALF, _HIGH_HALF
    for word in data[:whole].cast("I"):
        crc ^= word
        crc = low[crc & 0xFFFF] ^ high[crc >> 16]
    table = _CRC32C_TABLE
    for byte in data[whole:]:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


_U4 = np.dtype("<u4")
_LANE_LOG2 = 4
_LANE_BYTES = 1 << _LANE_LOG2  # 16: best at segment-file sizes (16-32 KB)
_BLOCK_LOG2 = 18
_BLOCK_BYTES = 1 << _BLOCK_LOG2  # 256 KB blocks bound every temporary
_KERNEL_MIN_BYTES = 1280  # the word loop wins below (measured: EXPERIMENTS.md E25)


def _byte_sliced(images: np.ndarray) -> np.ndarray:
    """The GF(2)-linear map that sends register bit ``i`` to ``images[i]``
    as a ``(4, 256)`` lookup table: row ``b`` maps byte ``b`` of a
    register to its contribution, and the four contributions XOR."""
    images = images.reshape(4, 8)
    byte = np.arange(256)
    table = np.zeros((4, 256), dtype=_U4)
    for bit in range(8):
        table[:, (byte >> bit) & 1 == 1] ^= images[:, bit : bit + 1]
    return table


def _advance(table: np.ndarray, registers: np.ndarray, stride: int = 4) -> np.ndarray:
    """Apply a byte-sliced map to every ``stride``-th byte quadruple of
    ``registers`` (stride 8 = the even-indexed registers)."""
    octets = registers.view(np.uint8).reshape(-1, stride)
    return (
        table[0][octets[:, 0]]
        ^ table[1][octets[:, 1]]
        ^ table[2][octets[:, 2]]
        ^ table[3][octets[:, 3]]
    )


def _build_zero_advance_tables() -> tuple[np.ndarray, ...]:
    """``tables[k]`` advances a register over ``2**k`` zero bytes, for
    every ``k`` the kernel uses (each is the square of the one before)."""
    basis = np.left_shift(1, np.arange(32)).astype(_U4)
    one_byte = [(bit >> 8) ^ _CRC32C_TABLE[bit & 0xFF] for bit in basis.tolist()]
    tables = [_byte_sliced(np.array(one_byte, dtype=_U4))]
    for _ in range(1, _BLOCK_LOG2):
        tables.append(_byte_sliced(_advance(tables[-1], _advance(tables[-1], basis))))
    return tuple(tables)


_ZERO_ADVANCE = _build_zero_advance_tables()


def _crc_lanes(block: np.ndarray, register: int) -> int:
    """The register after ``block`` (uint8, a whole number of lanes, at
    most one block long), starting from ``register``."""
    words = block.view(_U4).reshape(-1, _LANE_BYTES // 4)
    lanes = words.shape[0]
    # Zero lanes in *front* are free (a zero register stays zero over
    # zero bytes), so the fold below always sees a power-of-two count.
    registers = np.zeros(1 << (lanes - 1).bit_length(), dtype=_U4)
    live = registers[registers.size - lanes :]
    live[0] = register
    for column in np.ascontiguousarray(words.T):
        live ^= column
        live[:] = _advance(_ZERO_ADVANCE[2], live)
    span = _LANE_LOG2
    while registers.size > 1:
        registers = _advance(_ZERO_ADVANCE[span], registers, 8) ^ registers[1::2]
        span += 1
    return int(registers[0])


def crc32c(data: bytes, value: int = 0) -> int:
    """CRC-32C of ``data``'s bytes, whatever its item size; ``value`` chains."""
    data = memoryview(data).cast("B")
    if len(data) < _KERNEL_MIN_BYTES:
        if sys.byteorder != "little":
            return crc32c_scalar(data, value)
        return _crc_words(data, value)
    buffer = np.frombuffer(data, dtype=np.uint8)
    whole = buffer.size - buffer.size % _LANE_BYTES
    register = value ^ 0xFFFFFFFF
    for start in range(0, whole, _BLOCK_BYTES):
        register = _crc_lanes(buffer[start : min(start + _BLOCK_BYTES, whole)], register)
    return crc32c_scalar(data[whole:], register ^ 0xFFFFFFFF)


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
        Path(path).mkdir(parents=True, exist_ok=True)

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
        where a commit is durable only once its fsync completed. Files
        *created* by :meth:`append_file` whose parent directory was
        never :meth:`sync_dir`-ed disappear entirely: their directory
        entry was still unsynced metadata, so the power cut unlinks them
        no matter how many times the file itself was fsynced. (Files
        that arrive via :meth:`rename` are exempt — rename fsyncs the
        destination directory as part of the atomic protocol.)

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
        # Directory entries created by append_file whose parent dir was
        # never sync_dir-ed: parent dir -> set of file paths. A crash
        # with lose_unsynced_on_crash unlinks these files entirely.
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
            # the files they name are unreachable after the power cut,
            # however thoroughly their contents were fsynced.
            for entries in self._unsynced_entries.values():
                for entry_path in entries:
                    try:
                        os.remove(entry_path)
                    except OSError:  # pragma: no cover - never created
                        pass
        raise InjectedFault(
            f"simulated crash at write point {self.ops} ({Path(path).name})"
        )

    def _write_bytes(self, path: Path, data: bytes) -> None:
        self._maybe_crash(path, data)
        super()._write_bytes(path, data)
        self.ops += 1

    def append_file(self, path: Path, data: bytes) -> None:
        self._maybe_crash(path, data, append=True)
        if self.lose_unsynced_on_crash:
            if not self.exists(path):
                self._unsynced_entries.setdefault(
                    str(Path(path).parent), set()
                ).add(str(path))
            self._synced_sizes.setdefault(str(path), self.file_size(path))
        super().append_file(path, data)
        self.ops += 1

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
