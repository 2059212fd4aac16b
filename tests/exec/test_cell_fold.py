"""The aggregate's cell fold, held to a per-row fold in Python.

Every batch is folded into its key cells: each occupied cell is seeded
with its group's value, takes its rows in row order and goes back to its
group. The reference shares no code with that: each qualifying row, in
order, updates its group. Float SUM, AVG, MIN and MAX must come out with
the reference's bits and the groups in its order.

Keys are drawn to reach every path: none (a scalar aggregate, one cell;
an empty input gives one row), integers, strings and floats coded by the
aggregate (NaN among them: all NaNs are one group), and floats handed in
as a dictionary that keeps 0.0 and -0.0 apart, two cells of one group,
whose rows the fold moves to the group's lowest occupied cell. Arguments
hold NULLs; batches may carry a selection.
Under a one-byte grant (what ``query_memory_budget=1`` gives the
aggregate) every batch after the first spills: each batch is then a
partial of its own, and the partials merge in batch order.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, StoreConfig
from repro.exec.batch import Batch
from repro.exec.memory import MemoryGrant
from repro.exec.operators.base import BatchOperator
from repro.exec.operators.hash_aggregate import BatchHashAggregate, agg, count_star
from repro.observability.registry import STABLE_COUNTERS
from repro.storage.segment import CodeSpace, DictionaryVector

from .. import examples

# A dictionary a float key may be handed in over: 0.0 and -0.0 are two
# cells of one group.
_FLOAT_DICT = np.array([0.0, -0.0, math.nan, 1.5, -2.25])
_KEYS = {
    "int": st.one_of(st.none(), st.integers(-2, 2)),
    "str": st.one_of(st.none(), st.sampled_from(["", "a", "b", "ab"])),
    "float": st.one_of(st.none(), st.sampled_from([0.0, -0.0, math.nan, 1.5])),
    "fdict": st.one_of(st.none(), st.integers(0, _FLOAT_DICT.size - 1)),
}
_VALUES = {
    "f": st.one_of(st.none(), st.sampled_from([0.0, -0.0, 0.1, 0.2, 1e16, -1e16, 3.5, math.nan])),
    "i": st.one_of(st.none(), st.integers(-1000, 1000)),
    "s": st.one_of(st.none(), st.sampled_from(["x", "y", "xy", ""])),
}
_DTYPES = {"int": np.int64, "str": object, "float": np.float64, "f": np.float64,
           "i": np.int64, "s": object}
_NUMERIC = [count_star("n"), agg("sum", "f", "sf"), agg("avg", "f", "af"),
            agg("min", "f", "mnf"), agg("max", "f", "mxf"), agg("sum", "i", "si"),
            agg("count", "f", "cf")]
_STRINGS = [agg("min", "s", "mns"), agg("max", "s", "mxs")]


class BatchSource(BatchOperator):
    def __init__(self, names, batches):
        self._names, self._batches = names, batches

    @property
    def output_names(self):
        return self._names

    def batches(self):
        yield from self._batches


def _column(values, dtype):
    """A column and its NULL mask (None when nothing is NULL) from a list."""
    mask = np.array([v is None for v in values], dtype=bool)
    array = np.empty(len(values), dtype=dtype)
    array[:] = [(0 if dtype is not object else "") if v is None else v for v in values]
    return array, (mask if mask.any() else None)


@st.composite
def cases(draw):
    """Key names, and per batch the batch and its rows as Python values
    (None for NULL), the qualifying ones only."""
    kinds = draw(st.lists(st.sampled_from(list(_KEYS)), min_size=0, max_size=3))
    keys = [f"k{i}" for i in range(len(kinds))]
    space = CodeSpace()
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, 30))
        columns, masks, encoded, rows = {}, {}, {}, {}
        for key, kind in zip(keys, kinds):
            drawn = draw(st.lists(_KEYS[kind], min_size=n, max_size=n))
            if kind == "fdict":
                codes, mask = _column(drawn, np.int64)
                encoded[key] = DictionaryVector.of(codes, _FLOAT_DICT, mask, "join", space)
                drawn = [None if c is None else _FLOAT_DICT[c].item() for c in drawn]
            else:
                columns[key], masks[key] = _column(drawn, _DTYPES[kind])
            rows[key] = drawn
        for name, values in _VALUES.items():
            rows[name] = draw(st.lists(values, min_size=n, max_size=n))
            columns[name], masks[name] = _column(rows[name], _DTYPES[name])
        batch = Batch(columns=columns, null_masks=masks, encoded=encoded)
        qualifying = list(range(n))
        if n and draw(st.booleans()):
            keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            batch = batch.narrow(np.array(keep, dtype=bool))
            qualifying = [i for i in qualifying if keep[i]]
        batches.append((batch, [{k: v[i] for k, v in rows.items()} for i in qualifying]))
    return keys, batches


def _group(key: tuple) -> tuple:
    """A key as the aggregate groups it: every NaN one value, and -0.0
    the same as 0.0 (as Python equality has it)."""
    return tuple(
        ("NaN" if math.isnan(v) else v + 0.0) if isinstance(v, float) else v for v in key
    )


def _fold(specs, items) -> dict[tuple, list]:
    """Per group, in order of first appearance: [key, counts, values].
    Each item — (key, one (count, value) per aggregate): a row, or a
    spilled partial — updates them in order from the aggregate's
    identities (0, +inf, -inf; a string's first value), skipping a value
    no row counted in (a NULL)."""
    groups: dict[tuple, list] = {}
    for key, parts in items:
        _, counts, values = groups.setdefault(_group(key), [
            key, [0] * len(specs),
            [{"min": math.inf, "max": -math.inf}.get(spec.func, 0) for spec in specs]])
        for i, (spec, (count, value)) in enumerate(zip(specs, parts)):
            if count:
                counts[i] += count
                values[i] = _combine(spec.func, values[i], value, counts[i] == count)
    return groups


def _combine(func: str, current, value, first: bool):
    if func in ("count", "count_star"):
        return current
    if isinstance(value, str):
        return value if first else (min if func == "min" else max)(current, value)
    if func == "min":
        return np.minimum(current, value).item()
    if func == "max":
        return np.maximum(current, value).item()
    return current + value


def reference(specs, keys, batches, spill: bool) -> list[tuple]:
    """The result rows. Spilled, each batch is folded on its own, and its
    groups' partials are folded in batch order."""
    def items(rows):
        for row in rows:
            yield tuple(row[k] for k in keys), [
                (1, None) if spec.expr is None
                else (int(row[spec.expr.name] is not None), row[spec.expr.name])
                for spec in specs
            ]

    if spill:
        groups = _fold(specs, [
            (key, list(zip(counts, values)))
            for _, rows in batches
            for key, counts, values in _fold(specs, items(rows)).values()
        ])
    else:
        groups = _fold(specs, [item for _, rows in batches for item in items(rows)])
    if not keys and not groups:  # a scalar aggregate over no row: one row
        groups[()] = [(), [0] * len(specs), [None] * len(specs)]
    out = []
    for key, counts, values in groups.values():
        row = list(key)
        for spec, count, value in zip(specs, counts, values):
            if spec.func in ("count", "count_star"):
                row.append(count)
            elif not count:
                row.append(None)
            else:
                row.append(value / count if spec.func == "avg" else value)
        out.append(tuple(row))
    return out


def _bits(row: tuple, n_keys: int) -> tuple:
    """Keys as they group; every float result by its bits."""
    return _group(row[:n_keys]) + tuple(
        struct.pack("<d", v) if isinstance(v, float) else v for v in row[n_keys:]
    )


# A NaN argument to MIN / MAX warns as NumPy compares it.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=examples(150), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases(), st.booleans(), st.booleans())
def test_cell_fold_equals_the_per_row_fold(case, strings, spill):
    keys, batches = case
    specs = _NUMERIC + (_STRINGS if strings else [])
    names = [*keys, *_VALUES]
    grant = MemoryGrant(1) if spill else MemoryGrant()
    op = BatchHashAggregate(BatchSource(names, [b for b, _ in batches]), keys, specs, grant)
    got = [_bits(row, len(keys)) for batch in op.batches() for row in batch.to_rows()]
    want = [_bits(row, len(keys)) for row in reference(specs, keys, batches, spill)]
    if spill:  # groups come out partition by partition
        got, want = sorted(got, key=repr), sorted(want, key=repr)
    assert got == want
    # Every row of a grouped batch is folded by cell (a scalar batch is
    # not a grouped one).
    assert op.stats.rows_folded_by_cell == (sum(len(rows) for _, rows in batches) if keys else 0)


def test_two_cells_of_one_group_fold_into_the_lowest():
    """0.0 and -0.0 are one group in two cells. Per cell, the group would
    take 1e16 + -1e16 and 1 + 1 apart (2.0); moved to the lowest cell, in
    row order, it takes 1e16 + 1 (1e16), then -1e16, then 1: 1.0."""
    keys = DictionaryVector.of(
        np.array([0, 1, 0, 1]), np.array([0.0, -0.0]), None, "join", CodeSpace()
    )
    batch = Batch(columns={"v": np.array([1e16, 1.0, -1e16, 1.0])}, encoded={"k": keys})
    op = BatchHashAggregate(BatchSource(["k", "v"], [batch]), ["k"], [agg("sum", "v", "s")])
    assert [row for batch in op.batches() for row in batch.to_rows()] == [(0.0, 1.0)]
    assert op.stats.rows_folded_by_cell == 4


def test_a_cell_met_later_that_shares_a_group_folds_into_the_lowest():
    """The table of a space met again: 0.0's cell in the first batch, then
    -0.0's, a cell of the same group, in the second. From then on the
    space's rows of that group move to its lowest occupied cell (left in
    two cells, each would write the group back, and one would be lost)."""
    distinct, space = np.array([0.0, -0.0]), CodeSpace()
    batches = [
        Batch(columns={"v": np.array(values)},
              encoded={"k": DictionaryVector.of(np.array(codes), distinct, None, "join", space)})
        for codes, values in (([0, 0], [3.0, 4.0]), ([1, 0], [10.0, 100.0]), ([0, 0], [1.0, 1.0]))
    ]
    op = BatchHashAggregate(BatchSource(["k", "v"], batches), ["k"], [agg("sum", "v", "s")])
    assert [row for batch in op.batches() for row in batch.to_rows()] == [(0.0, 119.0)]
    assert op.stats.rows_folded_by_cell == 6


def test_rows_folded_by_cell_is_a_registered_counter_on_explain_analyze():
    db = Database(StoreConfig(rowgroup_size=64, bulk_load_threshold=10))
    db.sql("CREATE TABLE t (g INT, v FLOAT, s VARCHAR)")
    db.bulk_load("t", [(i % 5, i * 0.5, f"s{i % 7}") for i in range(300)])
    sql = "SELECT g, SUM(v) AS sv, COUNT(*) AS n FROM t GROUP BY g"
    assert "exec.hash_aggregate.rows_folded_by_cell" in STABLE_COUNTERS
    assert db.sql(sql, stats=True).stats.counter("exec.hash_aggregate.rows_folded_by_cell") == 300
    assert "rows_folded_by_cell=300" in db.explain_analyze(sql)
    # A string MIN folds by cell too, its group ids gathered in its loop.
    text = db.explain_analyze("SELECT g, MIN(s) AS m FROM t GROUP BY g")
    assert "rows_folded_by_cell=300" in text
