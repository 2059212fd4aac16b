"""Base class for batch-mode physical operators."""

from __future__ import annotations

import abc
import functools
import time
from typing import Iterator

from ...governance.context import current
from ...observability import opstats
from ...observability.opstats import OperatorStats, operator_stats
from ..batch import Batch

# Row-mode operators emit one row at a time; checking each row would put
# an Event read + clock read on a per-row hot path, so check every 64th.
ROW_CHECK_INTERVAL = 64


def operator_stream(fn, check_every: int = 1):
    """Wrap an operator's ``batches()`` (or ``rows()``) generator function
    once, at class creation: the item it emits every ``check_every`` is a
    cancellation checkpoint of the statement's
    :class:`~repro.governance.QueryContext`, and while stats collection is
    on each item counts into the operator's :class:`OperatorStats` (a
    batch by its active rows, anything else as one row). Both are read
    when the generator first runs — at the first ``next()``, when the
    statement's context is active; with neither the stream is the bare
    generator's."""

    @functools.wraps(fn)
    def wrapper(self):
        ctx = current()
        if not opstats.collecting():
            if ctx is None:
                yield from fn(self)
                return
            for emitted, item in enumerate(fn(self)):
                if emitted % check_every == 0:
                    ctx.check()
                yield item
            return
        stats = operator_stats(self)
        source = fn(self)
        emitted = 0
        try:
            while True:
                start = time.perf_counter()
                try:
                    item = next(source)
                except StopIteration:
                    stats.wall_seconds += time.perf_counter() - start
                    break
                if ctx is not None and emitted % check_every == 0:
                    ctx.check()
                stats.wall_seconds += time.perf_counter() - start
                emitted += 1
                if isinstance(item, Batch):
                    stats.batches += 1
                    stats.rows += item.active_count
                else:
                    stats.rows += 1
                yield item
        finally:
            opstats.capture_extras(self, stats)

    return wrapper


class BatchOperator(abc.ABC):
    """A pull-based operator producing a stream of batches.

    Subclasses implement :meth:`batches`; consumers iterate it exactly
    once. ``output_names`` lists the columns every produced batch carries.

    Every concrete ``batches`` implementation is wrapped at class-creation
    time by :func:`operator_stream`, so all operators carry runtime
    counters (:attr:`op_stats`) without per-operator edits, and every
    operator is a cancellation point for the statement's QueryContext.
    The wrapper costs a flag and a thread-local read when both are off.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        batches = cls.__dict__.get("batches")
        if batches is not None:
            cls.batches = operator_stream(batches)

    @property
    @abc.abstractmethod
    def output_names(self) -> list[str]:
        """Names of the columns in produced batches."""

    @abc.abstractmethod
    def batches(self) -> Iterator[Batch]:
        """Produce the operator's output, one batch at a time."""

    def declare_encoded(self, takes: dict[str, str] | None) -> None:
        """The consumer says how it can take each output column still
        encoded (column -> ``AS_*`` of :mod:`repro.exec.batch`, every
        column named; ``None`` withdraws it). An operator that produces
        no vectors ignores it: every column leaves as plain rows."""

    @property
    def op_stats(self) -> OperatorStats:
        """Runtime counters (filled while stats collection is on)."""
        return operator_stats(self)

    def explain_lines(self, depth: int = 0) -> list[str]:
        """Human-readable plan rendering (one line per operator).

        Recursion goes through :meth:`child_operators` — the single
        source of truth for plan shape, shared with EXPLAIN ANALYZE —
        so subclasses must override ``child_operators``, never hand-roll
        their own tree walk here.
        """
        pad = "  " * depth
        lines = [f"{pad}{self.describe()}"]
        for child in self.child_operators():
            lines.extend(child.explain_lines(depth + 1))
        return lines

    def describe(self) -> str:
        return type(self).__name__

    def child_operators(self) -> list["BatchOperator"]:
        """Direct children in execution order (cross-engine adapters may
        return row operators; tree walks only need the shared surface of
        ``describe`` / ``explain_lines`` / ``child_operators``)."""
        return []
