"""Per-operator runtime statistics, kept by the operator wrapper.

Every :class:`~repro.exec.operators.base.BatchOperator` subclass has its
``batches()`` generator wrapped at class-creation time (and every
``RowOperator`` its ``rows()``) by
:func:`~repro.exec.operators.base.operator_stream`, so *all* operators
inherit runtime counters — batches emitted, rows out, inclusive wall
time, peak memory grant, spill bytes — without per-operator edits. The
counting costs nothing (one flag read per stream) unless collection is
active, which keeps stats-off execution at full speed.

Collection is turned on per execution with :func:`collect` (used by
``EXPLAIN ANALYZE``, ``Database.execute(stats=True)`` and the CLI's
``--stats`` flag), or process-wide with :func:`enable`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

_collecting = False
# ``collecting()`` is ``enable()``d or inside any open ``collect()`` block.
# Blocks are counted, not saved and restored: one block of one thread may
# close while another thread's is still open.
_enabled = False
_open_blocks = 0
_lock = threading.Lock()


def collecting() -> bool:
    """Whether per-operator stats collection is currently on."""
    return _collecting


def enable() -> None:
    _switch(enabled=True)


def disable() -> None:
    _switch(enabled=False)


@contextmanager
def collect():
    """Collect per-operator stats for the duration of the block."""
    _switch(blocks=1)
    try:
        yield
    finally:
        _switch(blocks=-1)


def _switch(enabled: bool | None = None, blocks: int = 0) -> None:
    global _collecting, _enabled, _open_blocks
    with _lock:
        _enabled = _enabled if enabled is None else enabled
        _open_blocks += blocks
        _collecting = _enabled or _open_blocks > 0


@dataclass
class OperatorStats:
    """Runtime counters one operator accumulated while collection was on.

    ``wall_seconds`` is *inclusive* time — the time the operator's
    consumer spent blocked in its ``next()``, children included — the
    conventional EXPLAIN ANALYZE reading.
    """

    batches: int = 0
    rows: int = 0
    wall_seconds: float = 0.0
    peak_grant_bytes: int = 0
    spill_bytes: int = 0

    @property
    def touched(self) -> bool:
        return bool(self.batches or self.rows or self.wall_seconds)


def operator_stats(operator) -> OperatorStats:
    """The lazily created :class:`OperatorStats` record of an operator."""
    stats = getattr(operator, "_op_stats", None)
    if stats is None:
        stats = OperatorStats()
        operator._op_stats = stats
    return stats


def capture_extras(operator, stats: OperatorStats) -> None:
    """Pull grant / spill figures off the operator once a stream ends."""
    grant = getattr(operator, "grant", None)
    if grant is not None:
        peak = getattr(grant, "peak_bytes", 0)
        if peak > stats.peak_grant_bytes:
            stats.peak_grant_bytes = peak
    own = getattr(operator, "stats", None)
    if own is not None:
        spill_bytes = getattr(own, "spill_bytes", 0)
        if spill_bytes > stats.spill_bytes:
            stats.spill_bytes = spill_bytes
