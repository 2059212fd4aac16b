"""Query lifecycle governance: deadlines, cancellation, memory budgets.

Public surface:

* :class:`QueryContext` — per-statement deadline / cancel flag / memory
  accounting, installed thread-locally while the statement runs.
* :func:`current` / :func:`activate` — thread-local context access.
* :func:`governed` — register + activate + outcome classification, the
  wrapper the statement pipeline's *govern* stage uses.
* :class:`QueryRegistry` / :func:`get_query_registry` — the process-wide
  directory behind ``SHOW QUERIES`` and ``KILL <id>``.
* :class:`MemoryGovernor` / :func:`set_process_memory_limit` — the
  process-wide hard cap governed reservations are charged against.
"""

from .context import (
    RESERVE_OK,
    RESERVE_SPILL,
    MemoryGovernor,
    QueryContext,
    activate,
    checkpoint,
    current,
    get_memory_governor,
    governed_batches,
    governed_rows,
    set_process_memory_limit,
)
from .registry import (
    QueryRegistry,
    get_query_registry,
    governed,
    set_query_registry,
)

__all__ = [
    "RESERVE_OK",
    "RESERVE_SPILL",
    "MemoryGovernor",
    "QueryContext",
    "QueryRegistry",
    "activate",
    "checkpoint",
    "current",
    "get_memory_governor",
    "get_query_registry",
    "governed",
    "governed_batches",
    "governed_rows",
    "set_process_memory_limit",
    "set_query_registry",
]
