"""Base class for batch-mode physical operators."""

from __future__ import annotations

import abc
from typing import Iterator

from ...governance.context import governed_batches
from ...observability.opstats import OperatorStats, instrument_batches, operator_stats
from ..batch import Batch


class BatchOperator(abc.ABC):
    """A pull-based operator producing a stream of batches.

    Subclasses implement :meth:`batches`; consumers iterate it exactly
    once. ``output_names`` lists the columns every produced batch carries.

    Every concrete ``batches`` implementation is wrapped at class-creation
    time with the observability instrumented iterator, so all operators
    carry runtime counters (:attr:`op_stats`) without per-operator edits,
    and with the governance checkpoint wrapper, so every operator is a
    cancellation point for the statement's QueryContext. Each wrapper
    costs one flag/thread-local read when its feature is off.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        batches = cls.__dict__.get("batches")
        if batches is not None and not getattr(batches, "_instrumented", False):
            cls.batches = instrument_batches(governed_batches(batches))

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
