"""Batch-mode projection: computes named output expressions per batch."""

from __future__ import annotations

from collections import Counter
from typing import Iterator

import numpy as np

from ...storage.segment import DictionaryVector
from ..batch import AS_CODES, AS_ROWS, Batch
from ..expressions import Case, Column, Expr
from .base import BatchOperator
from .hash_join import BatchHashJoin


class BatchProject(BatchOperator):
    """Evaluates ``(name, expression)`` pairs over each input batch.

    Plain column references are passed through without copying; computed
    expressions are evaluated vectorized over the full batch (the batch
    selection vector is preserved, so non-qualifying rows carry garbage
    that downstream operators never look at — as in the paper's engine).

    A projection is also a producer of encoded columns: a CASE whose
    results are all literals *is* a dictionary (the literals) and a code
    per row (the branch that decides it), so a consumer that declared it
    takes that name ``AS_CODES`` gets a vector and no result array is
    built; a name it takes so that merely renames a child column is
    declared onward and the child's vector handed through.
    """

    def __init__(self, child: BatchOperator, projections: list[tuple[str, Expr]]) -> None:
        self.child = child
        self.projections = list(projections)
        self._coded: dict[str, _CaseDictionary] = {}

    @property
    def output_names(self) -> list[str]:
        return [name for name, _ in self.projections]

    def declare_encoded(self, takes: dict[str, str] | None) -> None:
        as_codes = {name for name, how in (takes or {}).items() if how == AS_CODES}
        self._coded = {
            name: _CaseDictionary(expr, literals)
            for name, expr in self.projections
            if name in as_codes
            and type(expr) is Case
            and (literals := expr.literal_results()) is not None
        }
        # Onward goes only a column that one rename, and nothing else
        # here, reads — and only to an operator that makes vectors of its
        # own. Not to a scan: it would then emit whole units, and its
        # counters change meaning (ROADMAP item 2(iii)).
        if not isinstance(self.child, (BatchProject, BatchHashJoin)):
            return
        reads = Counter(
            column for _, expr in self.projections for column in expr.referenced_columns()
        )
        renamed = {
            expr.name
            for name, expr in self.projections
            if name in as_codes and type(expr) is Column and reads[expr.name] == 1
        }
        self.child.declare_encoded(
            {name: AS_CODES if name in renamed else AS_ROWS for name in self.child.output_names}
            if renamed
            else None
        )

    def describe(self) -> str:
        inner = ", ".join(f"{name}={expr}" for name, expr in self.projections)
        return f"BatchProject({inner})"

    def child_operators(self) -> list[BatchOperator]:
        return [self.child]

    def batches(self) -> Iterator[Batch]:
        for batch in self.child.batches():
            columns = {}
            null_masks = {}
            encoded = {}
            for name, expr in self.projections:
                if name in self._coded:
                    encoded[name] = self._coded[name].vector(batch)
                elif type(expr) is Column and expr.name in batch.encoded:
                    encoded[name] = batch.encoded[expr.name]
                else:
                    columns[name], null_masks[name] = expr.eval_batch(batch)
            yield Batch(
                columns=columns,
                null_masks=null_masks,
                selection=batch.selection,
                locators=batch.locators,
                encoded=encoded,
            )


class _CaseDictionary:
    """A CASE of literal results as a dictionary: the distinct non-NULL
    literals, and for each of its results the code (or NULL) it stands
    for."""

    def __init__(self, case: Case, literals: list) -> None:
        self.case = case
        values = list(dict.fromkeys(value for value in literals if value is not None))
        # Literals need no column types to be typed.
        dtype = case.infer_dtype(lambda name: None).numpy_dtype
        self.distinct = np.empty(len(values), dtype=dtype)
        self.distinct[:] = values
        self.code_of = np.array(
            [0 if value is None else values.index(value) for value in literals], dtype=np.int64
        )
        # None when no result is NULL: no mask to gather, batch after batch.
        self.is_null = (
            np.array([value is None for value in literals]) if None in literals else None
        )

    def vector(self, batch: Batch) -> DictionaryVector:
        branch = self.case.deciding_branch(batch)
        nulls = None if self.is_null is None else self.is_null[branch]
        if nulls is not None and not nulls.any():
            nulls = None
        return DictionaryVector.of(self.code_of[branch], self.distinct, nulls, source="project")
