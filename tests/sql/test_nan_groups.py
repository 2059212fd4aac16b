"""Every NaN group key is one group, as in PostgreSQL, and as ``sort_keys``
orders NaN: one value, after every number.

NaN equals nothing, itself included, so a group directory keyed by
Python tuples found a new group for each NaN it was handed apart: batch
mode made one per batch holding NaNs (a row group's dictionary already
merged a batch's NaNs into one cell), row mode one per row. GROUP BY,
DISTINCT and COUNT(DISTINCT) group through the same aggregate, so they
answered differently by engine and by row-group size. (sqlite3 stores
NaN as NULL, so no oracle takes these rows.)
"""

from __future__ import annotations

import math

import pytest

from repro import Database, StoreConfig

ROWS = [(math.nan, 1), (2.0, 2), (math.nan, 3), (2.0, 4), (math.nan, 5)]
RUNS = {
    **{f"rowgroup_size={size}": ({"rowgroup_size": size}, {}) for size in (1, 2, 16)},
    "mode=row": ({"rowgroup_size": 16}, {"mode": "row"}),
    "spilled": ({"rowgroup_size": 2}, {"query_memory_budget": 1}),
}


def _nan_first(rows):
    return sorted(rows, key=lambda row: (not math.isnan(row[0]), row))


@pytest.mark.parametrize("config, options", RUNS.values(), ids=RUNS.keys())
def test_nan_keys_are_one_group(config, options):
    db = Database(StoreConfig(bulk_load_threshold=1, **config))
    db.sql("CREATE TABLE t (x FLOAT, k INT)")
    db.bulk_load("t", ROWS)
    grouped = db.sql("SELECT x, COUNT(*) AS n, SUM(k) AS s FROM t GROUP BY x", **options).rows
    [(nan, n, s), two] = _nan_first(grouped)
    assert math.isnan(nan) and (n, s) == (3, 9) and two == (2.0, 2, 6)
    distinct = _nan_first(db.sql("SELECT DISTINCT x FROM t", **options).rows)
    assert len(distinct) == 2 and math.isnan(distinct[0][0]) and distinct[1] == (2.0,)
    assert db.sql("SELECT COUNT(DISTINCT x) FROM t", **options).scalar() == 2
