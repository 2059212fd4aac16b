"""Spill files for hash join, hash aggregation and window.

When an operator's memory grant runs out it partitions its input by key
hash and writes partitions to spill files, then processes partitions one at
a time — the paper's graceful-degradation behaviour. Spill files are real
temporary files (pickled dense batches), so spilling has a genuine I/O and
serialization cost in benchmarks.

Join (both sides), aggregate and window all partition by ``partition_of``,
which compares keys as the operators do: by value, every NULL alike.
"""

from __future__ import annotations

import os
import pickle
import tempfile

import numpy as np

from ..errors import ExecutionError
from ..observability import registry as metrics
from .batch import Batch
from .bloom import _hash_keys

_MIX = np.uint64(0xC2B2AE3D27D4EB4F)  # folds a key column's hash into the row's


class SpillFile:
    """An append-then-read-back stream of dense batches on disk.

    Every file creation and append reports into the metrics registry
    (``exec.spill.files`` / ``batches`` / ``rows`` / ``bytes_written``),
    and :attr:`bytes_written` lets the owning operator attribute spill
    volume to itself for EXPLAIN ANALYZE.
    """

    def __init__(self) -> None:
        fd, self._path = tempfile.mkstemp(prefix="repro-spill-", suffix=".bin")
        self._file = os.fdopen(fd, "w+b")
        self._n_batches = 0
        self._rows = 0
        self._bytes_written = 0
        self._closed = False
        metrics.increment("exec.spill.files")

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def bytes_written(self) -> int:
        return self._bytes_written

    def append(self, batch: Batch) -> None:
        if self._closed:
            raise ExecutionError("spill file is closed")
        dense = batch.compact()
        if dense.encoded:
            raise ExecutionError("spill files hold plain columns: decode vectors first")
        if dense.row_count == 0:
            return
        payload = pickle.dumps(
            (dense.columns, dense.null_masks), protocol=pickle.HIGHEST_PROTOCOL
        )
        self._file.write(len(payload).to_bytes(8, "little"))
        self._file.write(payload)
        self._n_batches += 1
        self._rows += dense.row_count
        written = len(payload) + 8
        self._bytes_written += written
        metrics.increment("exec.spill.batches")
        metrics.increment("exec.spill.rows", dense.row_count)
        metrics.increment("exec.spill.bytes_written", written)

    def read_back(self):
        """Yield the spilled batches in write order."""
        if self._closed:
            raise ExecutionError("spill file is closed")
        self._file.flush()
        self._file.seek(0)
        for _ in range(self._n_batches):
            header = self._file.read(8)
            if len(header) != 8:
                raise ExecutionError("truncated spill file")
            length = int.from_bytes(header, "little")
            columns, null_masks = pickle.loads(self._file.read(length))
            yield Batch(columns=columns, null_masks=null_masks)
        self._file.seek(0, os.SEEK_END)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._file.close()
            try:
                os.unlink(self._path)
            except OSError:
                pass

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        self.close()


def partition_of(batch: Batch, keys: list[str], n_partitions: int) -> np.ndarray:
    """Deterministic hash partition of ``batch``'s rows on its ``keys``
    columns, hashed a column at a time (no key tuples). Equal keys land
    together: values hash by value (``_hash_keys``: 1, 1.0 and True
    alike), a NULL as 0 whatever filler lies under it. No keys: one
    partition."""
    hashed = np.zeros(batch.row_count, dtype=np.uint64)
    for key in keys:
        column, mask = _hash_keys(batch.column(key)), batch.null_mask(key)
        if mask is not None:
            column = np.where(mask, np.uint64(0), column)
        hashed = hashed * _MIX + column
    mixed = (hashed * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(32)
    return mixed.astype(np.int64) % n_partitions


def spill_by_key(batch: Batch, keys: list[str], spills: list[SpillFile]) -> None:
    """Append each row of ``batch`` to the spill file of its partition."""
    parts = partition_of(batch, keys, len(spills))
    for p, spill in enumerate(spills):
        spill.append(batch.take(np.flatnonzero(parts == p)))
