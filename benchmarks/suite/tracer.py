"""A span tracer that lives outside the engine.

The traced run wraps the engine's public callables at run time — the
name is replaced in the defining class or module *and* in every loaded
``repro`` module that imported it by name — and restores them afterwards.
No file under ``src/`` changes. Each span records name, start, end, the
span that caused it and the statement it belongs to; spans stay in memory
and are written out once, at the end (``trace_<workload>.jsonl``).

A layer's self time is its span's duration minus the part its direct
children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

# (span name, module, attribute path). Span names start with the layer
# (the ``repro`` sub-package) the callable belongs to.
TARGETS: list[tuple[str, str, str]] = [
    ("sql.parse", "repro.sql.parser", "parse_statement"),
    ("sql.bind", "repro.sql.binder", "Binder.bind_select"),
    ("sql.run_parsed", "repro.sql.runner", "run_parsed"),
    ("planner.optimize", "repro.planner.optimizer", "Optimizer.optimize"),
    ("planner.compile", "repro.planner.optimizer", "Optimizer.compile"),
    ("exec.rows", "repro.planner.optimizer", "PhysicalPlan.rows"),
    ("db.sql", "repro.db.database", "Database.sql"),
    ("db.execute", "repro.db.database", "Database.execute"),
    ("db.insert", "repro.db.database", "Database.insert"),
    ("db.update", "repro.db.database", "Database.update_where"),
    ("db.delete", "repro.db.database", "Database.delete_where"),
    ("db.begin", "repro.db.database", "Database.begin"),
    ("db.commit", "repro.db.database", "Database.commit"),
    ("db.checkpoint", "repro.db.database", "Database.save"),
    ("db.query_context", "repro.db.database", "Database.new_query_context"),
    ("storage.tuple_mover", "repro.storage.tuple_mover", "TupleMover.run"),
    ("wal.log_statement", "repro.wal.log", "WriteAheadLog.log_statement"),
    ("wal.append", "repro.wal.log", "WriteAheadLog.append"),
    ("wal.commit", "repro.wal.log", "WriteAheadLog.commit"),
    ("wal.flush", "repro.wal.log", "WriteAheadLog.flush"),
    ("mvcc.epoch_commit", "repro.mvcc.epoch", "EpochManager.commit"),
    ("mvcc.pin", "repro.mvcc.epoch", "ReaderRegistry.pin"),
    ("mvcc.release", "repro.mvcc.epoch", "ReaderLease.release"),
    ("concurrency.session_sql", "repro.concurrency.session", "Session.sql"),
]


class Span(NamedTuple):
    span_id: int
    parent_id: int  # -1 for a root span
    statement: int
    name: str
    start: float
    end: float

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Collects spans; ``statement`` is set by the replay loop."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.statement = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record a span around a block (the staged replays use this)."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, self.statement, name, start, end))

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # The span runs from the first row asked for to exhaustion, so
            # it also covers what the consumer does between rows.
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name):
                    yield from fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self, targets: list[tuple[str, str, str]] = TARGETS):
        """Patch every target for the duration of the block."""
        undo: list[tuple[object, str, object]] = []
        try:
            for name, module_name, path in targets:
                module = importlib.import_module(module_name)
                owner: object = module
                *holders, attribute = path.split(".")
                for holder in holders:
                    owner = getattr(owner, holder)
                original = owner.__dict__[attribute] if holders else getattr(owner, attribute)
                wrapper = self.wrap(name, original)
                undo.append((owner, attribute, original))
                setattr(owner, attribute, wrapper)
                if not holders:
                    # A module-level function: modules that did
                    # ``from x import f`` hold their own reference.
                    for other in list(sys.modules.values()):
                        if (
                            other is not module
                            and getattr(other, "__name__", "").startswith("repro.")
                            and other.__dict__.get(attribute) is original
                        ):
                            undo.append((other, attribute, original))
                            setattr(other, attribute, wrapper)
            yield self
        finally:
            for owner, attribute, original in reversed(undo):
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> list[float]:
        """Milliseconds of every span called ``name``."""
        return [span.ms for span in self.spans if span.name == name]

    def self_times(self) -> dict[int, float]:
        """Span id -> self time in ms (duration minus direct children)."""
        child_ms: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent_id >= 0:
                child_ms[span.parent_id] += span.ms
        return {span.span_id: span.ms - child_ms[span.span_id] for span in self.spans}

    def self_durations(self, name: str) -> list[float]:
        own = self.self_times()
        return [own[span.span_id] for span in self.spans if span.name == name]

    def per_statement(self, names: tuple[str, ...]) -> dict[int, float]:
        """Statement id -> summed self time (ms) of spans in ``names``."""
        own = self.self_times()
        totals: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.name in names:
                totals[span.statement] += own[span.span_id]
        return totals


def write_jsonl(path: Path, replays: dict[str, Tracer]) -> None:
    """Write every span of the named replays, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for replay, tracer in replays.items():
            own = tracer.self_times()
            for span in sorted(tracer.spans, key=lambda s: s.start):
                handle.write(json.dumps({
                    "replay": replay,
                    "id": span.span_id,
                    "parent": span.parent_id,
                    "statement": span.statement,
                    "name": span.name,
                    "layer": span.name.split(".")[0],
                    "start_s": span.start,
                    "end_s": span.end,
                    "self_ms": own[span.span_id],
                }) + "\n")
