"""A star join is a gather.

Four layers, each held to exact equality:

* ``_HashTable`` — every locator (direct / offsets / search), over raw
  integer keys and over coded ones (several columns, strings, floats,
  booleans, NULLs, a key space re-ranked past ``MAX_KEY_CELLS``), against
  a brute-force nested loop on drawn builds, and the two ``None``s of
  ``ranges``: rows ``None`` exactly when every probe row hit, counts
  ``None`` exactly when the build is unique.
* The six join types on batches where every row, some rows and no row
  finds a build row — encoded, decoded (``enable_encoded_agg=False``),
  without bitmaps, in row mode and under a spilling grant — against a
  Python reference, row order included for INNER and LEFT.
* The bitmap's three answers from a segment's [min, max]: what each one
  emits and what each one counts.
* Aliasing: a passed-through batch hands a segment cache's arrays
  downstream; the same statements must answer the same again.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, StoreConfig, types
from repro.bench.queries import QUERY_SUITE
from repro.bench.star_schema import build_star_schema
from repro.exec import batch as batch_module
from repro.exec.batch import Batch
from repro.exec.bloom import ALL, NONE, SOME, JoinBitmapFilter, dense_slots
from repro.exec.operators.hash_join import DENSE_DOMAIN_PER_ROW, _HashTable
from repro.exec.operators.scan import BitmapProbe, ColumnStoreScan
from repro.observability.registry import STABLE_COUNTERS
from repro.schema import schema
from repro.storage.columnstore import ColumnStoreIndex

from .test_codes_through_join import brute_force

I64 = np.iinfo(np.int64)
TOP = 2**62 - 1
BIG = 2**53  # the first integer past which a float cannot hold every integer


# --------------------------------------------------------------------- #
# (a) locators against a nested loop
# --------------------------------------------------------------------- #
def key_batch(prefix, keys, dtypes):
    """One column per key part: ``keys`` are values of one ``dtypes``, or
    tuples of values with a list of ``dtypes``, one a column."""
    if not isinstance(dtypes, list):
        return Batch.from_pydict({prefix: keys}, dtypes={prefix: np.dtype(dtypes)})
    names = [f"{prefix}{j}" for j in range(len(dtypes))]
    return Batch.from_pydict(
        {name: [None if k is None else k[j] for k in keys] for j, name in enumerate(names)},
        dtypes={name: np.dtype(dtype) for name, dtype in zip(names, dtypes)},
    )


def check_table(build_keys, probe_keys, probe_dtype=np.int64, build_dtype=np.int64):
    """Build on ``build_keys``, probe with ``probe_keys`` (tuples, with a
    list of dtypes, for a key of several columns), compare with the nested
    loop; returns the table for assertions about its locator."""
    build = key_batch("id", build_keys, build_dtype)
    probe = key_batch("k", probe_keys, probe_dtype)
    table = _HashTable(build, build.names)
    expected = brute_force(build_keys, probe_keys)

    rows, starts, counts = table.ranges(probe, probe.names)
    every_row_hit = {p for p, _ in expected} == set(range(len(probe_keys)))
    assert (rows is None) == every_row_hit
    assert (counts is None) == table.unique
    located = len(probe_keys) if rows is None else rows.size
    assert starts.shape == (located,)
    if rows is not None:
        assert rows.tolist() == sorted({p for p, _ in expected})
    if counts is not None:
        assert (counts > 0).all()

    probe_idx, build_idx = table.probe(probe, probe.names)
    assert list(zip(probe_idx.tolist(), build_idx.tolist())) == expected
    # A unique offsets table is direct: the build row instead of a range
    # into an order, never both.
    assert table.direct == (table.locate == "offsets" and table.unique)
    assert hasattr(table, "_row_of") == table.direct
    assert hasattr(table, "_starts") == (table.locate == "offsets" and not table.direct)
    # Only a raw integer key makes an exact bitmap, never codes.
    (first, *rest) = build.names
    raw = not rest and np.issubdtype(build.column(first).dtype, np.integer)
    assert (table.bitmap() is not None) == (table.direct and raw)
    return table


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.lists(st.one_of(st.none(), st.integers(-30, 30)), max_size=30),
    unique=st.booleans(),
    stretch=st.sampled_from([1, 3, DENSE_DOMAIN_PER_ROW + 1, 1000]),
    shift=st.sampled_from([0, -40, TOP - 40_000, -TOP + 40_000, 2**31 - 31, I64.max - 40_000]),
    probe=st.lists(st.one_of(st.none(), st.integers(-35, 35)), max_size=40),
    hit_every_row=st.booleans(),
    narrow=st.booleans(),
)
def test_every_locator_matches_the_nested_loop(
    keys, unique, stretch, shift, probe, hit_every_row, narrow
):
    if unique:
        keys = list(dict.fromkeys(keys))  # one NULL at most, too: it never matches
    build = [None if k is None else k * stretch + shift for k in keys]
    present = [k for k in build if k is not None]
    if hit_every_row and present:
        probe = [present[abs(k or 0) % len(present)] for k in probe]
    else:
        probe = [None if k is None else k * stretch + shift for k in probe]
    fits_int32 = all(k is None or -(2**31) <= k < 2**31 for k in probe)
    check_table(build, probe, np.int32 if narrow and fits_int32 else np.int64)


# Key values by column kind; a probe column may be of another kind than
# its build column (numbers compare by value across kinds, a string
# equals no number).
KIND_VALUES = {
    np.int64: st.one_of(st.integers(-3, 3), st.sampled_from([BIG, BIG + 1])),
    np.float64: st.sampled_from([0.5, 1.0, 2.0, -0.0, float(BIG), float("nan")]),
    np.bool_: st.booleans(),
    object: st.sampled_from(["", "a", "b", "1"]),
}


def coded_keys(dtypes):
    parts = (st.one_of(st.none(), KIND_VALUES[dtype]) for dtype in dtypes)
    return st.lists(st.tuples(*parts), max_size=25)


def as_stored(value, dtype):
    """``value`` as a column of ``dtype`` holds it (an int in a FLOAT
    column is a float), None where it cannot be held at all."""
    if value is None or (dtype is object) != isinstance(value, str):
        return None
    if dtype is np.int64 and value != value:  # NaN
        return None
    return {np.int64: int, np.float64: float, np.bool_: bool, object: str}[dtype](value)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), width=st.integers(1, 3), few_cells=st.booleans())
def test_every_coded_key_matches_the_nested_loop(data, width, few_cells):
    """Keys of one to three columns of any kind, NULLs among them, probed
    with columns of a drawn kind each; with ``few_cells`` the cell limit
    is lowered so that combining re-ranks (and the probe replays it)."""
    kinds = list(KIND_VALUES)
    build_dtypes = [data.draw(st.sampled_from(kinds)) for _ in range(width)]
    probe_dtypes = [data.draw(st.sampled_from(kinds)) for _ in range(width)]
    build = data.draw(coded_keys(build_dtypes))
    probe = data.draw(coded_keys(probe_dtypes))
    if build and data.draw(st.booleans()):
        probe += data.draw(st.lists(st.sampled_from(build), max_size=10))
    probe = [tuple(map(as_stored, key, probe_dtypes)) for key in probe]
    limit = 4 if few_cells else batch_module.MAX_KEY_CELLS
    with mock.patch.object(batch_module, "MAX_KEY_CELLS", limit):
        check_table(build, probe, probe_dtypes, build_dtypes)


SHAPES = {
    # name: (build keys, locator, direct)
    "dense unique": (list(range(100, 140)), "offsets", True),
    "unique with holes": ([0, 3, 4, 9, 12, 15], "offsets", True),
    "dense with duplicates": ([5, 7, 5, 6, 7, 7, 9, 5], "offsets", False),
    "negative": (list(range(-20, 5)), "offsets", True),
    "one row": ([42], "offsets", True),
    "sparse unique": ([0, 1000, 2000, 5_000_000], "search", False),
    "sparse duplicates": ([10, 10, 9_000, 9_000, -9_000], "search", False),
    "int64 extremes": ([I64.min, I64.max, 0], "search", False),
    "int64 top, dense": ([I64.max, I64.max - 1, I64.max - 3], "offsets", True),
    "int64 bottom, dense": ([I64.min, I64.min + 2, I64.min + 1], "offsets", True),
    "at +-(2**62 - 1)": ([TOP, -TOP], "search", False),
    "null build keys": ([1, None, 2, None, 3], "offsets", True),
    "all null build keys": ([None, None], "search", False),
    "empty build": ([], "search", False),
}


@pytest.mark.parametrize("shape", list(SHAPES))
def test_locator_shapes(shape):
    build_keys, locator, direct = SHAPES[shape]
    present = [k for k in build_keys if k is not None]
    near = [k + d for k in present for d in (-1, 1) if I64.min <= k + d <= I64.max]
    for probes in (
        present + near + [0, -1, I64.min, I64.max, None, None],
        present * 3,  # every row hits (when there is a build row to hit)
        near[:0],  # empty probe
        [None, None],
    ):
        table = check_table(build_keys, probes)
        assert (table.locate, table.direct) == (locator, direct)


NAN = float("nan")
CODED_SHAPES = {
    # name: (build keys, build dtypes, probe keys, probe dtypes)
    "int and string": (
        [(1, "a"), (1, "b"), (2, "a"), (None, "c"), (3, None), (2, "a"), (7, "é")],
        [np.int64, object],
        [(1, "a"), (2, "a"), (1, "c"), (3, None), (None, "a"), (4, "a"), (2, "b"), (7, "é")],
        [np.int64, object],
    ),
    "strings": (["x", "y", "x", None, ""], object, ["x", "z", None, "y", "", "x"], object),
    "string build, int probe": (["1", "2"], object, [1, 2, None], np.int64),
    "float build, int probe": (
        [0.5, 1.0, 2.0, float(BIG), -0.0, NAN, float("inf"), 3.0, 3.0, None],
        np.float64,
        [0, 1, 2, BIG, BIG + 1, 3, -1, None, 2**62],
        np.int64,
    ),
    # The raw integer key, for the other direction of the same rule.
    "int build, float probe": (
        [BIG + 1, BIG, 1, 2, 1], np.int64, [float(BIG), 1.0, 1.5, NAN, None, 2.0], np.float64,
    ),
    "float build, float probe": (
        [1.5, 2.5, NAN, -0.0], np.float64, [1.5, NAN, 2.5, 3.5, 0.0], np.float64,
    ),
    "bool build, int probe": ([True, False, None, True], np.bool_, [0, 1, 2, None, -1], np.int64),
    "int and float, float probe": (
        [(1, 0.5), (BIG + 1, 1.0), (BIG, 3.0), (2, 2.0), (2, 2.0)],
        [np.int64, np.float64],
        [(1.0, 0.5), (float(BIG), 1.0), (float(BIG), 3.0), (2.0, 2.0), (2.5, 2.0), (2.0, None)],
        [np.float64, np.float64],
    ),
}


@pytest.mark.parametrize("shape", list(CODED_SHAPES))
def test_coded_keys_match_the_nested_loop(shape):
    build_keys, build_dtypes, probe_keys, probe_dtypes = CODED_SHAPES[shape]
    for probes in (probe_keys, [k for k in probe_keys if k in build_keys], probe_keys[:0]):
        check_table(build_keys, probes, probe_dtypes, build_dtypes)


def test_a_three_column_key_past_the_cell_limit_is_reranked_on_both_sides():
    """Re-ranking needs a cell space past 2**62 (millions of build rows at
    three columns), so the limit is lowered: 4 x 3 x 5 cells pass 8."""
    build = [(a, s, b) for a in range(4) for s in "xyz" for b in (0.5, 1.5, 2.5, 3.5, 4.5)
             if (a + ord(s)) % 3]
    # Present; a value a dictionary lacks (9.5, 5, "q"); NULL; and every
    # value known but the combination not (0, "x": a miss at a re-rank).
    probes = build[::-3] + [(0, "y", 0.5), (1, "x", 9.5), (5, "x", 0.5), (None, "x", 0.5),
                           (3, "q", 0.5), (2, "z", 4.5), (0, "x", 0.5)]
    with mock.patch.object(batch_module, "MAX_KEY_CELLS", 8):
        table = check_table(build, probes, [np.int64, object, np.float64],
                            [np.int64, object, np.float64])
    assert len(table._ranks) == 2 and table.unique


def test_coded_keys_speak_the_same_nones():
    build = Batch.from_pydict({"a": ["x", "y", "z"], "b": [1, 2, 3]})
    table = _HashTable(build, ["a", "b"])
    assert table.locate == "offsets" and table.unique and table.direct
    assert table.bitmap() is None  # the cells are codes, not keys
    every = Batch.from_pydict({"a": ["z", "x", "x"], "b": [3, 1, 1]})
    rows, starts, counts = table.ranges(every, ["a", "b"])
    assert rows is None and counts is None
    assert table.pairs(rows, starts, counts)[1].tolist() == [2, 0, 0]
    some = Batch.from_pydict({"a": ["z", "q", None], "b": [3, 1, 1]})
    rows, starts, counts = table.ranges(some, ["a", "b"])
    assert rows.tolist() == [0] and counts is None
    duplicated = _HashTable(Batch.from_pydict({"a": ["x", "x"]}), ["a"])
    rows, starts, counts = duplicated.ranges(Batch.from_pydict({"a": ["x"]}), ["a"])
    assert rows is None and counts.tolist() == [2]


@pytest.mark.parametrize(
    "keys, matches",
    [
        ([1.5, 2.0, 3.0, float("nan"), float("inf"), -0.0, 2.0**63, -(2.0**63)], [1, 2, 5]),
        ([True, False, True], [0, 1, 2]),
        (["2", "x"], []),
    ],
)
def test_a_probe_key_that_is_not_an_integer_is_compared_by_value(keys, matches):
    """The integer locators would truncate 1.5 to 1: only a whole number
    can equal an integer key, whatever the locator."""
    for build_keys in ([0, 1, 2, 3], [0, 1, 1, 2, 3], [0, 1, 2, 3, 10**9]):
        table = _HashTable(Batch(columns={"id": np.array(build_keys)}), ["id"])
        probe = Batch(columns={"k": np.array(keys, dtype=object if "x" in keys else None)})
        probe_idx, build_idx = table.probe(probe, ["k"])
        assert sorted(set(probe_idx.tolist())) == matches
        for p, b in zip(probe_idx.tolist(), build_idx.tolist()):
            assert build_keys[b] == keys[p]


def test_dense_slots_is_the_whole_range_check():
    for base, cells in ((0, 10), (-5, 10), (I64.min, 4), (I64.max - 3, 4)):
        inside = [base, base + cells - 1]
        outside = [k for k in (base - 1, base + cells, I64.min, I64.max, 0) if not base <= k < base + cells]
        outside = [k for k in outside if I64.min <= k <= I64.max]
        slots = dense_slots(np.array(inside + outside, dtype=np.int64), base, cells)
        assert slots.tolist() == [0, cells - 1] + [cells] * len(outside)
    narrow = dense_slots(np.array([-(2**31), 2**31 - 1, 7], dtype=np.int32), 5, 10)
    assert narrow.dtype == np.int64 and narrow.tolist() == [10, 10, 2]


# --------------------------------------------------------------------- #
# (b) six join types x {every row hits, some, none}
# --------------------------------------------------------------------- #
GROUP_ROWS = 64
DIMENSIONS = {
    "dense": [(i, ("red", "green", "blue")[i % 3]) for i in range(20)],
    "holes": [(i * 2, ("red", "green", None)[i % 3]) for i in range(20)],
}
FACT_KEYS = {
    # hits -> key of fact row i (the dimensions hold even keys below 40)
    "every": lambda i: (i * 7 % 10) * 2,
    "some": lambda i: None if i % 31 == 5 else i * 7 % 52,
    "none": lambda i: 100 + i % 5,
}
_DATABASES: dict[tuple[str, str], Database] = {}


def case_db(dimension: str, hits: str) -> Database:
    if (dimension, hits) not in _DATABASES:
        db = Database(
            StoreConfig(rowgroup_size=GROUP_ROWS, bulk_load_threshold=1, reorder_rows=False)
        )
        db.sql("CREATE TABLE f (id INT NOT NULL, k INT, v FLOAT NOT NULL)")
        db.sql("CREATE TABLE d (id INT NOT NULL, attr VARCHAR)")
        db.bulk_load("d", DIMENSIONS[dimension])
        db.bulk_load("f", fact_rows(hits))
        _DATABASES[dimension, hits] = db
    return _DATABASES[dimension, hits]


def fact_rows(hits: str) -> list[tuple]:
    return [(i, FACT_KEYS[hits](i), (i % 37) * 0.25) for i in range(200)]


def reference(join_type: str, fact: list[tuple], dim: list[tuple]) -> list[tuple]:
    """(f.id, f.k, d.id, d.attr) the way the batch join emits them: a
    row group at a time, its pairs probe-major, then (LEFT/FULL) its
    probe rows nothing matched; (RIGHT/FULL) the unmatched build rows
    last. SEMI/ANTI: (f.id, f.k)."""
    out: list[tuple] = []
    matched_build: set[int] = set()
    for start in range(0, len(fact), GROUP_ROWS):
        unmatched = []
        for f_id, k, _v in fact[start : start + GROUP_ROWS]:
            found = [(b, row) for b, row in enumerate(dim) if k is not None and row[0] == k]
            matched_build.update(b for b, _ in found)
            if join_type in ("semi", "anti"):
                if bool(found) == (join_type == "semi"):
                    out.append((f_id, k))
            elif found:
                out.extend((f_id, k, *row) for _, row in found)
            elif join_type in ("left", "full"):
                unmatched.append((f_id, k, None, None))
        out.extend(unmatched)
    if join_type in ("right", "full"):
        out.extend((None, None, *row) for b, row in enumerate(dim) if b not in matched_build)
    return out


def by_value(rows):
    return sorted(rows, key=lambda row: tuple((v is None, 0 if v is None else v) for v in row))


JOIN_SQL = {"inner": "JOIN", "left": "LEFT JOIN", "right": "RIGHT JOIN", "full": "FULL JOIN"}


def rows_statement(join_type: str) -> str:
    if join_type in JOIN_SQL:
        return f"SELECT f.id, f.k, d.id, d.attr FROM f {JOIN_SQL[join_type]} d ON f.k = d.id"
    exists = "EXISTS" if join_type == "semi" else "NOT EXISTS"
    return f"SELECT f.id, f.k FROM f WHERE {exists} (SELECT 1 FROM d WHERE d.id = f.k)"


def grouped_statement(join_type: str) -> str:
    aggs = "COUNT(*) AS n, SUM(f.v) AS sv, MIN(f.id) AS first"
    if join_type in JOIN_SQL:
        return f"SELECT d.attr, {aggs} FROM f {JOIN_SQL[join_type]} d ON f.k = d.id GROUP BY d.attr"
    exists = "EXISTS" if join_type == "semi" else "NOT EXISTS"
    return (f"SELECT f.k, {aggs} FROM f WHERE {exists} (SELECT 1 FROM d WHERE d.id = f.k) "
            "GROUP BY f.k")


@pytest.mark.parametrize("dimension", list(DIMENSIONS))
@pytest.mark.parametrize("hits", list(FACT_KEYS))
@pytest.mark.parametrize("join_type", ["inner", "left", "right", "full", "semi", "anti"])
def test_join_types_by_how_many_rows_hit(join_type, hits, dimension):
    db = case_db(dimension, hits)
    expected = reference(join_type, fact_rows(hits), DIMENSIONS[dimension])

    sql = rows_statement(join_type)
    answer = db.sql(sql, mode="batch", stats=True)
    if join_type in ("inner", "left"):
        assert answer.rows == expected  # row order included
    assert by_value(answer.rows) == by_value(expected)
    no_bitmaps = db.sql(sql, mode="batch", enable_bitmaps=False, stats=True)
    if join_type in ("inner", "left"):
        assert no_bitmaps.rows == expected
    assert by_value(no_bitmaps.rows) == by_value(expected)
    assert by_value(db.sql(sql, mode="row").rows) == by_value(expected)
    assert by_value(db.sql(sql, mode="batch", grant_bytes=64).rows) == by_value(expected)

    # What passes through: the batches whose every row found its one
    # build row (an ANTI join emits none of those).
    fact = fact_rows(hits)
    keys = {row[0] for row in DIMENSIONS[dimension]}
    whole_groups = sum(
        len(group)
        for group in (fact[s : s + GROUP_ROWS] for s in range(0, len(fact), GROUP_ROWS))
        if all(k in keys for _, k, _ in group)
    )
    join = no_bitmaps.stats.find("BatchHashJoin")[0].details
    assert join["probe"] == {"offsets": len(fact)} and join["direct"] is True
    assert join.get("rows_passed_through", 0) == (0 if join_type == "anti" else whole_groups)
    assert no_bitmaps.stats.counter("exec.hash_join.rows_passed_through") == join.get(
        "rows_passed_through", 0
    )

    sql = grouped_statement(join_type)
    coded = db.sql(sql, mode="batch").rows
    assert coded == db.sql(sql, mode="batch", enable_encoded_agg=False).rows
    assert coded == db.sql(sql, mode="batch", enable_bitmaps=False).rows
    assert by_value(coded) == by_value(db.sql(sql, mode="row").rows)
    assert by_value(coded) == by_value(db.sql(sql, mode="batch", grant_bytes=64).rows)


def test_explain_analyze_says_how_rows_were_located_and_what_passed_through():
    text = case_db("dense", "every").explain_analyze(rows_statement("inner"))
    assert "probe: offsets=200, key_domain=20" in text
    assert "direct=True, rows_passed_through=200" in text
    assert "bitmap_probes_settled=4" in text
    assert "exec.hash_join.rows_passed_through=200" in text
    assert "storage.scan.bitmap_probes_settled=4" in text
    for name in ("exec.hash_join.rows_passed_through", "storage.scan.bitmap_probes_settled",
                 "storage.scan.units_eliminated_by_bitmap"):
        assert name in STABLE_COUNTERS


# --------------------------------------------------------------------- #
# (c) the bitmap's three answers
# --------------------------------------------------------------------- #
def test_covers_answers_for_an_interval():
    bitmap = JoinBitmapFilter.build(np.array([10, 11, 12, 14, 15], dtype=np.int64))
    assert bitmap.kind == "exact"
    for low, high, answer in [
        (10, 12, ALL), (14, 15, ALL), (11, 11, ALL),
        (10, 15, SOME), (12, 14, SOME), (13, 14, SOME), (9, 12, SOME), (14, 16, SOME),
        (13, 13, NONE), (0, 9, NONE), (16, 40, NONE), (I64.min, 9, NONE), (16, I64.max, NONE),
        (I64.min, I64.max, SOME),
        (10.0, 12.0, SOME), (True, True, SOME), ("a", "b", SOME),  # not its kind of key
    ]:
        assert bitmap.covers(low, high) == answer, (low, high)
    empty = JoinBitmapFilter.build(np.array([], dtype=np.int64))
    assert empty.covers(-5, 5) == NONE and not empty.might_contain(np.array([0, 1])).any()
    bloom = JoinBitmapFilter.build(np.array([0, 2**40], dtype=np.int64))
    assert bloom.kind == "bloom" and bloom.covers(0, 0) == SOME and bloom.covers(5, 9) == SOME


def test_a_filter_answers_only_for_keys_of_its_own_family():
    """Integers and other values hash differently, and an exact bitmap has
    no cell for 1.5: a probe of the other family is all 'maybe', never a
    false 'no' and never an error."""
    ints = np.array([1, 2, 3], dtype=np.int64)
    floats = np.array([1.5, 2.0, 9.0])
    for built_on, probed_with in ((ints, floats), (floats, ints), (ints * 2**40, floats)):
        assert JoinBitmapFilter.build(built_on).might_contain(probed_with).all()
    exact = JoinBitmapFilter.build(ints)
    assert exact.might_contain(np.array([0, 1, 3, 4], dtype=np.int32)).tolist() == [False, True, True, False]


@pytest.fixture
def index():
    """200 rows in 4 row groups of 50: ``day`` ascending (0..199), ``k``
    the same with a NULL on every 10th row, ``n`` the same but NULL
    throughout the second group."""
    sch = schema(("id", types.INT, False), ("day", types.INT, False),
                 ("k", types.INT), ("n", types.INT))
    idx = ColumnStoreIndex(
        sch, StoreConfig(rowgroup_size=50, bulk_load_threshold=10, reorder_rows=False)
    )
    idx.bulk_load([
        sch.coerce_row((i, i, None if i % 10 == 0 else i, None if 50 <= i < 100 else i))
        for i in range(200)
    ])
    return idx


def scanned(index, probes):
    """ids a scan of ``index`` under bitmaps over ``probes`` (column ->
    build keys) emits, and its stats."""
    scan = ColumnStoreScan(index, ["id"], bitmap_probes=[
        BitmapProbe(column, JoinBitmapFilter.build(np.array(list(keys), dtype=np.int64)))
        for column, keys in probes
    ])
    ids = sorted(row[0] for batch in scan.batches() for row in batch.to_rows())
    return ids, scan.stats


def test_interval_wholly_set_drops_the_probe(index):
    ids, stats = scanned(index, [("day", range(200))])
    assert ids == list(range(200))
    assert (stats.bitmap_probes_settled, stats.units_eliminated_by_bitmap) == (4, 0)
    assert stats.rows_rejected_by_bitmap == 0 and stats.rows_scanned == 200
    # The key column was never decoded to be probed.
    assert stats.morph == {"output": 4} and stats.columns_decoded == 4


def test_interval_wholly_clear_eliminates_the_unit(index):
    ids, stats = scanned(index, [("day", [10, 20, 30])])
    assert ids == [10, 20, 30]
    assert stats.units_eliminated == stats.units_eliminated_by_bitmap == 3
    assert stats.rows_scanned == 50  # an eliminated unit is not charged
    assert stats.rows_rejected_by_bitmap == 47 and stats.bitmap_probes_settled == 0


def test_a_hole_inside_the_interval_is_probed(index):
    keys = [k for k in range(200) if k != 120]
    ids, stats = scanned(index, [("day", keys)])
    assert ids == keys
    assert stats.bitmap_probes_settled == 3 and stats.rows_rejected_by_bitmap == 1
    assert stats.morph == {"output": 4, "bitmap_or_locators": 1}


def test_a_settled_unit_still_drops_its_null_keys(index):
    ids, stats = scanned(index, [("k", range(200))])
    assert ids == [i for i in range(200) if i % 10]
    assert stats.bitmap_probes_settled == 4
    assert stats.rows_rejected_by_bitmap == 0  # no probe ran


def test_an_all_null_key_segment_is_eliminated(index):
    ids, stats = scanned(index, [("n", range(200))])
    assert ids == [i for i in range(200) if not 50 <= i < 100]
    assert stats.units_eliminated_by_bitmap == 1 and stats.bitmap_probes_settled == 3
    # Whatever the filter's kind: a NULL key passes no probe.
    sparse = [i * 2**30 for i in range(200)]
    scan = ColumnStoreScan(index, ["id"], bitmap_probes=[
        BitmapProbe("n", JoinBitmapFilter.build(np.array(sparse, dtype=np.int64)))])
    assert scan.bitmap_probes[0].bitmap.kind == "bloom"
    assert [row for batch in scan.batches() for row in batch.to_rows()] == [(0,)]
    assert scan.stats.units_eliminated_by_bitmap == 1 and scan.stats.bitmap_probes_settled == 0


def test_deleted_rows_stay_deleted_under_every_answer(index):
    from repro.storage.columnstore import GROUP, RowLocator

    for position in (3, 4):
        index.delete(RowLocator(GROUP, 0, position))  # group 0: settled
    index.delete(RowLocator(GROUP, 2, 20))  # group 2: probed (key 120 is missing)
    keys = [k for k in range(200) if k != 121]
    ids, stats = scanned(index, [("day", keys)])
    assert ids == [k for k in keys if k not in (3, 4, 120)]
    assert stats.rows_rejected_deleted == 3 and stats.bitmap_probes_settled == 3


def test_a_delta_unit_is_always_probed(index):
    for day in (7, 500):
        index.insert(index.schema.coerce_row((1000 + day, day, day, day)))
    ids, stats = scanned(index, [("day", range(200))])
    assert ids == list(range(200)) + [1007]
    assert stats.bitmap_probes_settled == 4 and stats.rows_rejected_by_bitmap == 1


def test_a_bloom_filter_never_settles(index):
    keys = list(range(200)) + [2**40]  # too wide a span for an exact bitmap
    ids, stats = scanned(index, [("day", keys)])
    assert ids == list(range(200))
    assert stats.bitmap_probes_settled == stats.units_eliminated == 0
    assert stats.morph["bitmap_or_locators"] == 4


def test_two_probes_on_one_scan(index):
    # ``day`` says all everywhere; ``k`` says none of the last two groups,
    # some of the first, all (but its NULLs) of the second.
    ids, stats = scanned(index, [("day", range(200)), ("k", list(range(5, 30)) + list(range(50, 100)))])
    assert ids == [i for i in range(5, 30) if i % 10] + [i for i in range(50, 100) if i % 10]
    assert stats.units_eliminated_by_bitmap == 2 and stats.rows_scanned == 100
    assert stats.bitmap_probes_settled == 3  # day twice, k once
    assert stats.rows_rejected_by_bitmap == 50 - 23  # by the one probe that ran, NULL keys included


def test_enable_bitmaps_false_turns_all_three_answers_off():
    db = case_db("dense", "some")
    off = db.sql(rows_statement("inner"), enable_bitmaps=False, stats=True)
    on = db.sql(rows_statement("inner"), stats=True)
    assert on.rows == off.rows
    for counter in ("bitmap_probes_settled", "units_eliminated_by_bitmap", "rows_rejected_by_bitmap"):
        assert off.stats.counter(f"storage.scan.{counter}") == 0
    assert on.stats.counter("storage.scan.rows_rejected_by_bitmap") > 0


# --------------------------------------------------------------------- #
# (d) aliasing: passed-through batches hand cached arrays downstream
# --------------------------------------------------------------------- #
def test_star_statements_answer_the_same_over_a_segment_cache():
    star = build_star_schema(
        6_000,
        seed=20,
        config=StoreConfig(rowgroup_size=1024, bulk_load_threshold=1,
                           segment_cache_bytes=64 << 20),
    )
    db = star.db

    def answers():
        return {query.qid: db.sql(query.sql, mode="batch").rows for query in QUERY_SUITE}

    first = answers()
    passed = db.sql(QUERY_SUITE[11].sql, stats=True)  # Q12: two joins
    assert passed.stats.counter("exec.hash_join.rows_passed_through") == 2 * 6_000
    assert passed.stats.counter("storage.cache.hits") > 0
    assert answers() == first  # nothing wrote into what the cache holds
    uncached = build_star_schema(
        6_000, seed=20, config=StoreConfig(rowgroup_size=1024, bulk_load_threshold=1)
    ).db
    assert {q.qid: uncached.sql(q.sql, mode="batch").rows for q in QUERY_SUITE} == first
    for table in ("store_sales", "customer", "item", "store", "date_dim"):
        db.rebuild(table)
    assert answers() == first
