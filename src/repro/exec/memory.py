"""Memory grants for batch operators.

The paper's enhanced hash join and hash aggregate spill gracefully when
their memory grant is exhausted instead of failing the query. We model the
grant as byte accounting over the NumPy buffers an operator retains; when a
reservation would exceed the grant, the operator must spill (or the grant
raises, if spilling is disabled).

Grants are also the seam where per-query governance plugs in: a grant
created while a :class:`~repro.governance.QueryContext` is active charges
every reservation against that context too. The context's *soft* budget
turns an over-budget reservation into a spill signal (``try_reserve``
returns False, exactly like grant exhaustion), its *hard* limit and the
process-wide :class:`~repro.governance.MemoryGovernor` cap raise a
retryable :class:`~repro.errors.ResourceExhaustedError`. Ungoverned
callers (no active context) behave exactly as before.
"""

from __future__ import annotations

import numpy as np

from ..errors import SpillBudgetError
from ..governance import RESERVE_OK
from ..governance import context as _gov
from ..storage.cache import decoded_bytes

DEFAULT_GRANT_BYTES = 64 * 1024 * 1024


def batch_bytes(columns: dict[str, np.ndarray]) -> int:
    """Approximate retained size of a set of column vectors."""
    return sum(map(decoded_bytes, columns.values()))


class MemoryGrant:
    """Byte budget shared by the operators of one query.

    Binds to the governing :class:`QueryContext` active on the thread
    that *constructs* the grant (the planner thread), so every
    reservation and release is charged to the query it was planned for.
    """

    def __init__(
        self,
        budget_bytes: int = DEFAULT_GRANT_BYTES,
        allow_spill: bool = True,
        context=None,
    ) -> None:
        self.budget_bytes = budget_bytes
        self.allow_spill = allow_spill
        self.reserved_bytes = 0
        self.peak_bytes = 0
        self._ctx = context if context is not None else _gov.current()

    def try_reserve(self, n_bytes: int) -> bool:
        """Reserve if it fits; returns False when the operator must spill.

        Order of checks: the grant's own budget first (preserves the
        ungoverned behavior bit for bit), then the governing context —
        whose hard violations raise ResourceExhaustedError rather than
        returning False.
        """
        if self.reserved_bytes + n_bytes > self.budget_bytes:
            if not self.allow_spill:
                raise SpillBudgetError(
                    f"memory grant of {self.budget_bytes} bytes exhausted "
                    f"({self.reserved_bytes} reserved, {n_bytes} requested) "
                    "and spilling is disabled"
                )
            return False
        if self._ctx is not None:
            if self._ctx.try_reserve(n_bytes) != RESERVE_OK:
                # Over the query's soft budget: degrade to spilling, same
                # contract as grant exhaustion.
                if not self.allow_spill:
                    raise SpillBudgetError(
                        f"query memory budget of "
                        f"{self._ctx.memory_budget_bytes} bytes exhausted "
                        f"({self._ctx.reserved_bytes} reserved, {n_bytes} "
                        "requested) and spilling is disabled"
                    )
                return False
        self.reserved_bytes += n_bytes
        self.peak_bytes = max(self.peak_bytes, self.reserved_bytes)
        return True

    def release(self, n_bytes: int) -> None:
        released = min(n_bytes, self.reserved_bytes)
        self.reserved_bytes -= released
        if self._ctx is not None and released:
            self._ctx.release(released)

    @property
    def available_bytes(self) -> int:
        return max(0, self.budget_bytes - self.reserved_bytes)
