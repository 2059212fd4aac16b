"""Run-length encoding of integer code streams.

RLE is the preferred compression for column segments when values cluster
into runs (which the Vertipaq-style row reordering actively manufactures —
see :mod:`repro.storage.reorder`). A run is a ``(value, length)`` pair; both
streams are themselves bit-packed with their minimal widths.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..errors import EncodingError
from . import bitpack


# RleBlock.take expands (np.repeat, ~2 ns per stored row) rather than
# searches (np.searchsorted, ~30-60 ns per position) from one position per
# this many rows: measured equal at 1/32 on 16k-row blocks of 8-4,096 runs,
# between 1/16 and 1/8 on 1M-row blocks (EXPERIMENTS.md E24).
_SEARCH_BELOW = 32


def split_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose ``values`` into (run_values, run_lengths).

    >>> split_runs(np.array([7, 7, 7, 2, 2, 9]))
    (array([7, 2, 9]), array([3, 2, 1]))
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise EncodingError("split_runs expects a 1-D array")
    if values.size == 0:
        return values[:0], np.zeros(0, dtype=np.int64)
    boundaries = np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [values.size]))
    return values[starts], (ends - starts).astype(np.int64)


def run_count(values: np.ndarray) -> int:
    """Number of runs, without materializing them (used by size estimation)."""
    values = np.asarray(values)
    if values.size == 0:
        return 0
    return int(np.count_nonzero(values[1:] != values[:-1])) + 1


@dataclass(frozen=True)
class RleBlock:
    """An RLE-compressed stream of non-negative integer codes."""

    count: int
    n_runs: int
    value_width: int
    length_width: int
    value_payload: bytes
    length_payload: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.value_payload) + len(self.length_payload) + 16

    def decode(self) -> np.ndarray:
        """Expand back to the original code stream (dtype uint64)."""
        decoded = np.repeat(*self.runs())
        self._check_total(decoded.size)
        return decoded

    def take(self, positions: np.ndarray) -> np.ndarray:
        """``decode()[positions]``: a binary search of the cumulative run
        ends per position while positions are few, else the expansion."""
        if positions.size * _SEARCH_BELOW >= self.count:
            return self.decode()[positions]
        run_values, run_lengths = self.runs()
        ends = np.cumsum(run_lengths)
        self._check_total(int(ends[-1]) if ends.size else 0)
        return run_values[np.searchsorted(ends, positions, side="right")]

    def take_few(self, positions: list[int]) -> list[int]:
        """:meth:`take` in Python integers: each position's run found from
        the run lengths, and only those runs' values read."""
        # The value stream is checked first, as runs() unpacks it first.
        bitpack.take_few(self.value_payload, self.value_width, self.n_runs, [])
        lengths = bitpack.unpack(self.length_payload, self.length_width, self.n_runs)
        ends = list(accumulate(lengths.tolist()))
        self._check_total(ends[-1] if ends else 0)
        runs = [bisect_right(ends, position) for position in positions]
        return bitpack.take_few(self.value_payload, self.value_width, self.n_runs, runs)

    def _check_total(self, total: int) -> None:
        if total != self.count:
            raise EncodingError(f"RLE block decodes to {total} values, expected {self.count}")

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The (values, lengths) pair, for per-run predicate evaluation."""
        run_values = bitpack.unpack(self.value_payload, self.value_width, self.n_runs)
        run_lengths = bitpack.unpack(self.length_payload, self.length_width, self.n_runs)
        return run_values, run_lengths.astype(np.int64)


def encode(values: np.ndarray) -> RleBlock:
    """RLE-encode a stream of non-negative integer codes."""
    values = np.asarray(values)
    run_values, run_lengths = split_runs(values)
    value_width = bitpack.bits_needed(int(run_values.max()) if run_values.size else 0)
    length_width = bitpack.bits_needed(int(run_lengths.max()) if run_lengths.size else 0)
    return RleBlock(
        count=int(values.size),
        n_runs=int(run_values.size),
        value_width=value_width,
        length_width=length_width,
        value_payload=bitpack.pack(run_values.astype(np.uint64), value_width),
        length_payload=bitpack.pack(run_lengths.astype(np.uint64), length_width),
    )


def estimated_size_bytes(values: np.ndarray, value_width: int) -> int:
    """Cheap size estimate used by the encoding chooser (no payload built).

    Assumes run lengths fit in 20 bits (row groups are ≤ 2^20 rows).
    """
    n_runs = run_count(values)
    return (
        bitpack.packed_size_bytes(n_runs, value_width)
        + bitpack.packed_size_bytes(n_runs, 20)
        + 16
    )
