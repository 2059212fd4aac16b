"""Group keys travel as codes from the dimension to the group.

Three layers, each held to exact equality:

* ``_HashTable`` — the offset-table and sorted-search locators against a
  brute-force match, on the key shapes that could break either.
* The join/aggregate differential matrix — every statement runs with the
  declarations on (a join emits declared build columns as vectors, the
  aggregate groups on them), with ``enable_encoded_agg=False`` (nothing is
  declared: the decoded arm), in row mode, and again under a grant small
  enough to spill; rows must be equal, floats included.
* The one grouping path against a per-row Python fold, on mixed
  int/str/NULL multi-key input arriving in several batches.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, StoreConfig
from repro.bench.harness import DECODED_IN_ORDER, ROW_ENGINE, SPILL, same_answers, same_rows
from repro.exec.batch import AS_CODES, AS_ROWS, Batch, slice_into_batches
from repro.exec.memory import MemoryGrant
from repro.exec.operators.base import BatchOperator
from repro.exec.operators.hash_aggregate import (
    BatchHashAggregate,
    agg,
    count_star,
)
from repro.exec.operators.hash_join import (
    DENSE_DOMAIN_PER_ROW,
    BatchHashJoin,
    _HashTable,
)
from repro.observability.registry import MorphReason, get_registry

from .. import examples

I64 = np.iinfo(np.int64)


# --------------------------------------------------------------------- #
# _HashTable: offsets | search, one probe entry point
# --------------------------------------------------------------------- #
def brute_force(build_keys, probe_keys):
    """(probe index, build index) pairs, probe-major, build rows in order.
    A key is a value or a tuple of values (a key of several columns), NULL
    when any of them is None; values compare as Python compares them — by
    value, 1 == 1.0 == True, 2**53 + 1 != 2.0**53, "1" != 1, nan != nan."""

    def parts(key):
        return key if isinstance(key, tuple) else (key,)

    def equal(build_key, probe_key):
        pairs = list(zip(parts(build_key), parts(probe_key)))
        return all(b is not None and p is not None and b == p for b, p in pairs)

    return [
        (p, b)
        for p, pk in enumerate(probe_keys)
        for b, bk in enumerate(build_keys)
        if equal(bk, pk)
    ]


KEY_SHAPES = {
    # name: (build keys, expected locator)
    "dense unique": (list(range(100, 140)), "offsets"),
    "dense with duplicates": ([5, 7, 5, 6, 7, 7, 9, 5], "offsets"),
    "dense with gaps": ([0, 3, 4, 9, 12, 15], "offsets"),
    "negative": (list(range(-20, 5)), "offsets"),
    "one row": ([42], "offsets"),
    "sparse": ([0, 1000, 2000, 5_000_000], "search"),
    "sparse duplicates": ([10, 10, 9_000, 9_000, -9_000], "search"),
    "int64 extremes": ([I64.min, I64.max, 0, I64.max], "search"),
    "int64 top, dense": ([I64.max, I64.max - 1, I64.max - 3], "offsets"),
    "int64 bottom, dense": ([I64.min, I64.min + 2, I64.min + 1], "offsets"),
    "null build keys": ([1, None, 2, None, 2], "offsets"),
    "all null build keys": ([None, None], "search"),
}


@pytest.mark.parametrize("shape", list(KEY_SHAPES))
def test_hash_table_locators_match_brute_force(shape):
    build_keys, locator = KEY_SHAPES[shape]
    present = [k for k in build_keys if k is not None]
    probes = present + [k + d for k in present for d in (-1, 1) if I64.min <= k + d <= I64.max]
    probes += [0, -1, I64.min, I64.max, None, None]
    build = Batch.from_pydict({"id": build_keys}, dtypes={"id": np.dtype(np.int64)})
    probe = Batch.from_pydict({"k": probes}, dtypes={"k": np.dtype(np.int64)})
    table = _HashTable(build, ["id"])
    assert table.locate == locator
    probe_idx, build_idx = table.probe(probe, ["k"])
    assert probe_idx.dtype == np.int64 and build_idx.dtype == np.int64
    assert list(zip(probe_idx.tolist(), build_idx.tolist())) == brute_force(build_keys, probes)


def test_locator_follows_the_key_domain_not_a_setting():
    rows = 50
    dense = Batch(columns={"id": np.arange(rows) * DENSE_DOMAIN_PER_ROW})
    assert _HashTable(dense, ["id"]).locate == "offsets"
    assert _HashTable(dense, ["id"]).key_domain == (rows - 1) * DENSE_DOMAIN_PER_ROW + 1
    sparse = Batch(columns={"id": np.arange(rows) * (DENSE_DOMAIN_PER_ROW + 1)})
    assert _HashTable(sparse, ["id"]).locate == "search"
    # Any other key is coded, and the same rule reads the codes' domain:
    # strings are coded densely, so a unique string key is a direct table.
    strings = _HashTable(Batch.from_pydict({"id": ["a", "b", "a"]}), ["id"])
    assert (strings.locate, strings.key_domain, strings.unique) == ("offsets", 2, False)
    assert _HashTable(Batch.from_pydict({"id": ["a", "b"]}), ["id"]).direct
    # Two columns of 50 codes each: 2,500 cells, 50 of them used.
    diagonal = Batch(columns={"a": np.arange(rows) * 1000, "b": np.arange(rows) * 1000})
    table = _HashTable(diagonal, ["a", "b"])
    assert (table.locate, table.key_domain) == ("search", rows * rows)
    squares = Batch.from_pydict({"a": [0, 0, 1, 1], "b": [0, 1, 0, 1]})
    table = _HashTable(squares, ["a", "b"])
    assert (table.locate, table.key_domain, table.direct) == ("offsets", 4, True)
    # An exact bitmap is built from raw keys only, never from codes.
    assert table.bitmap() is None and strings.bitmap() is None
    assert _HashTable(dense, ["id"]).bitmap() is not None


@settings(max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    build=st.lists(st.one_of(st.none(), st.integers(-40, 40)), max_size=30),
    probe=st.lists(st.one_of(st.none(), st.integers(-45, 45)), max_size=40),
    stretch=st.sampled_from([1, 3, 1000]),
)
def test_hash_table_property(build, probe, stretch):
    build = [None if k is None else k * stretch for k in build]
    probe = [None if k is None else k * stretch for k in probe]
    int64 = {"id": np.dtype(np.int64)}
    table = _HashTable(Batch.from_pydict({"id": build}, dtypes=int64), ["id"])
    probe_idx, build_idx = table.probe(Batch.from_pydict({"id": probe}, dtypes=int64), ["id"])
    assert list(zip(probe_idx.tolist(), build_idx.tolist())) == brute_force(build, probe)


# --------------------------------------------------------------------- #
# The differential matrix
# --------------------------------------------------------------------- #
def _dimension(ids, attrs):
    return list(zip(ids, attrs))


def _cycle(values, n):
    return [values[i % len(values)] for i in range(n)]


def scenario_tables(name: str):
    """(fact rows, d rows, e rows). ``d`` is the dimension under test; ``e``
    is a plain second dimension. ``v`` holds multiples of 0.25, so a float
    SUM is exact in any order and row mode is a fair third arm."""
    d_ids = list(range(20))
    d_attrs = _cycle(["red", "green", "blue"], 20)
    fact_keys = [i * 7 % 26 for i in range(240)]  # 20..25 match nothing
    if name == "null build attribute":
        d_attrs = [None if i % 4 == 1 else a for i, a in enumerate(d_attrs)]
    elif name == "null join keys":
        d_ids = [None if i % 6 == 2 else i for i in d_ids]
        fact_keys = [None if i % 9 == 4 else k for i, k in enumerate(fact_keys)]
    elif name == "empty build":
        d_ids, d_attrs = [], []
    elif name == "empty probe":
        fact_keys = []
    elif name == "duplicate build keys":
        d_ids = [i // 2 for i in d_ids]
    elif name == "sparse key domain":
        d_ids = [i * 100_003 for i in d_ids]
        fact_keys = [k * 100_003 for k in fact_keys]
    elif name == "negative keys":
        d_ids = [i - 12 for i in d_ids]
        fact_keys = [k - 12 for k in fact_keys]
    elif name == "keys near the int64 extremes":
        # The widest spread a stored column holds (value encoding keeps
        # max - min inside int64); the true extremes are probed below, on
        # batches no segment has to store.
        top = 2**62 - 1
        d_ids = [-top, top, 0, -1, 1, top - 1, 1 - top]
        d_attrs = _cycle(["red", "green", "blue"], len(d_ids))
        fact_keys = _cycle(d_ids + [2, -2, top - 2], 240)
    elif name == "one distinct attribute":
        d_attrs = ["only"] * 20
    elif name == "all-null attribute":
        d_attrs = [None] * 20
    else:
        assert name == "plain"
    n = len(fact_keys)
    fact = [
        (i, fact_keys[i], i * 5 % 8, (i % 37) * 0.25, i % 11 if i % 13 else None)
        for i in range(n)
    ]
    e_rows = _dimension(range(6), ["x", "y", None, "x", "z", "y"])  # 6, 7 match nothing
    return fact, _dimension(d_ids, d_attrs), e_rows


SCENARIOS = [
    "plain",
    "null build attribute",
    "null join keys",
    "empty build",
    "empty probe",
    "duplicate build keys",
    "sparse key domain",
    "negative keys",
    "keys near the int64 extremes",
    "one distinct attribute",
    "all-null attribute",
]

_DATABASES: dict[str, Database] = {}


def scenario_db(name: str) -> Database:
    """Three small columnstore tables, several compressed row groups each
    for the fact table; built once per scenario (the statements only read)."""
    if name not in _DATABASES:
        db = Database(StoreConfig(rowgroup_size=64, bulk_load_threshold=1))
        db.sql("CREATE TABLE f (id INT, k BIGINT, k2 INT, v FLOAT, w INT)")
        db.sql("CREATE TABLE d (id BIGINT, attr VARCHAR)")
        db.sql("CREATE TABLE e (id INT, attr2 VARCHAR)")
        for table, rows in zip("fde", scenario_tables(name)):
            if rows:
                db.bulk_load(table, rows)
        _DATABASES[name] = db
    return _DATABASES[name]


AGGS = "COUNT(*) AS n, SUM(f.v) AS sv, MIN(f.w) AS mw, COUNT(f.w) AS cw"
JOIN_SQL = {"inner": "JOIN", "left": "LEFT JOIN", "right": "RIGHT JOIN", "full": "FULL JOIN"}
# ``v`` sums exactly in any order: the row engine and a spill are held to the bits.
ROW_EXACT, SPILL_EXACT = (replace(arm, digits=None) for arm in (ROW_ENGINE, SPILL))


def statements(join_type: str) -> dict[str, str]:
    """One join, and two stacked both ways round: the join under test on
    top of a plain inner join (it must carry that join's vector, or say
    why not) and underneath one (its vector must be carried)."""
    if join_type in JOIN_SQL:
        jt = JOIN_SQL[join_type]
        return {
            "one join": f"SELECT d.attr, {AGGS} FROM f {jt} d ON f.k = d.id GROUP BY d.attr",
            "stacked, on top": (
                f"SELECT d.attr, e.attr2, {AGGS} FROM f JOIN e ON f.k2 = e.id "
                f"{jt} d ON f.k = d.id GROUP BY d.attr, e.attr2"
            ),
            "stacked, underneath": (
                f"SELECT e.attr2, d.attr, {AGGS} FROM f {jt} d ON f.k = d.id "
                f"JOIN e ON f.k2 = e.id GROUP BY e.attr2, d.attr"
            ),
        }
    exists = "EXISTS" if join_type == "semi" else "NOT EXISTS"
    where = f"WHERE {exists} (SELECT 1 FROM d WHERE d.id = f.k)"
    return {
        "one join": f"SELECT f.k2, {AGGS} FROM f {where} GROUP BY f.k2",
        "stacked, on top": (
            f"SELECT e.attr2, {AGGS} FROM f JOIN e ON f.k2 = e.id {where} GROUP BY e.attr2"
        ),
    }


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("join_type", ["inner", "left", "right", "full", "semi", "anti"])
def test_join_aggregate_differential(join_type, scenario):
    db = scenario_db(scenario)
    for shape, sql in statements(join_type).items():
        # A budget too small for any build side: every join spills, and a
        # vector that reaches one is decoded, not dropped. 80 ms of spill
        # files a statement: once per case with a join to write.
        spills = shape == "stacked, on top" and join_type in JOIN_SQL
        same_answers(db, sql, [DECODED_IN_ORDER, ROW_EXACT, *([SPILL_EXACT] if spills else [])])
        if spills and scenario == "plain":
            assert db.sql(sql, **SPILL.settings, stats=True).stats.total("spilled") >= 1


def test_spilling_join_decodes_the_vector_it_was_handed():
    db = scenario_db("plain")
    sql = statements("inner")["stacked, on top"]
    plain = db.sql(sql, mode="batch", stats=True)
    assert plain.stats.counter(MorphReason.JOIN_CANNOT_CARRY.counter) == 0
    # The grant covers the lower join's 6-row build side, not the upper's 20.
    squeezed = db.sql(sql, mode="batch", query_memory_budget=600, stats=True)
    joins = squeezed.stats.find("BatchHashJoin")
    assert [bool(j.details.get("spilled")) for j in joins] == [True, False]
    assert joins[1].details["columns_emitted_encoded"] == 1
    assert joins[0].details["morph"] == {"join_cannot_carry": joins[1].runtime.batches}
    assert squeezed.stats.counter(MorphReason.JOIN_CANNOT_CARRY.counter) > 0
    same_rows(squeezed.rows, plain.rows)


# --------------------------------------------------------------------- #
# Observability: why it chose that path
# --------------------------------------------------------------------- #
def _star_db():
    db = Database(StoreConfig(rowgroup_size=512, bulk_load_threshold=1))
    db.sql("CREATE TABLE sales (id INT NOT NULL, cust INT NOT NULL, item INT NOT NULL, "
           "paid FLOAT NOT NULL)")
    db.sql("CREATE TABLE customer (c_id INT NOT NULL, c_region VARCHAR NOT NULL)")
    db.sql("CREATE TABLE item (i_id INT NOT NULL, i_category VARCHAR NOT NULL)")
    db.bulk_load("customer", [(i, ("east", "west", "north")[i % 3]) for i in range(90)])
    db.bulk_load("item", [(i, ("toys", "books")[i % 2]) for i in range(40)])
    db.bulk_load("sales", [(i, i * 7 % 90, i * 3 % 40, (i % 50) * 0.5) for i in range(2000)])
    return db


Q07_SHAPED = ("SELECT c.c_region, SUM(s.paid) AS revenue FROM sales s "
              "JOIN customer c ON s.cust = c.c_id GROUP BY c.c_region")
Q12_SHAPED = ("SELECT c.c_region, i.i_category, SUM(s.paid) AS revenue FROM sales s "
              "JOIN customer c ON s.cust = c.c_id JOIN item i ON s.item = i.i_id "
              "GROUP BY c.c_region, i.i_category")


def test_counters_on_a_two_join_star_plan():
    db = _star_db()
    result = db.sql(Q12_SHAPED, stats=True)
    stats = result.stats
    joins = stats.find("BatchHashJoin")
    assert len(joins) == 2
    assert stats.counter("exec.hash_join.columns_emitted_encoded") == 2
    assert stats.counter("exec.hash_join.search_probes") == 0
    assert stats.counter("exec.hash_join.offset_probes") == 2 * 2000
    assert stats.counter("exec.hash_aggregate.keys_coded_locally") == 0
    (aggregate,) = stats.find("BatchHashAggregate")
    batches = joins[0].runtime.batches
    assert stats.counter("exec.hash_aggregate.keys_from_vectors") == 2 * batches
    assert aggregate.details["keys"] == {
        "c.c_region": "codes:join", "i.i_category": "codes:join"
    }
    assert stats.counter(MorphReason.JOIN_CANNOT_CARRY.counter) == 0
    # What the scans handed out is counted where it always was, untouched.
    assert stats.counter("storage.scan.agg_code_space_groups") == 0
    assert stats.counter("storage.scan.agg_fallbacks") == 0
    for join, (build_rows, domain) in zip(joins, [(40, 40), (90, 90)]):
        assert join.details["probe"] == {"offsets": 2000}
        assert join.details["build_rows"] == build_rows
        assert join.details["key_domain"] == domain

    text = db.explain_analyze(Q12_SHAPED)
    assert "probe: offsets=2000, key_domain=40, columns_emitted_encoded=1" in text
    assert "keys: c.c_region=codes:join i.i_category=codes:join" in text
    assert "exec.hash_join.offset_probes=4000" in text

    decoded = db.sql(Q12_SHAPED, stats=True, enable_encoded_agg=False)
    assert decoded.rows == result.rows
    assert decoded.stats.counter("exec.hash_join.columns_emitted_encoded") == 0
    assert decoded.stats.counter("exec.hash_aggregate.keys_from_vectors") == 0
    assert decoded.stats.counter("exec.hash_aggregate.keys_coded_locally") == 2 * batches
    (aggregate,) = decoded.stats.find("BatchHashAggregate")
    assert aggregate.details["keys"] == {
        "c.c_region": "coded here", "i.i_category": "coded here"
    }


def test_counters_on_a_one_join_star_plan_and_a_sparse_dimension():
    db = _star_db()
    stats = db.sql(Q07_SHAPED, stats=True).stats
    assert stats.counter("exec.hash_join.columns_emitted_encoded") == 1
    assert stats.counter("exec.hash_join.search_probes") == 0
    assert stats.counter("exec.hash_aggregate.keys_coded_locally") == 0
    # One customer far away makes the key domain sparse: same structure,
    # the other locator, and the join line says so.
    db.sql("INSERT INTO customer VALUES (1000000, 'south')")
    stats = db.sql(Q07_SHAPED, stats=True).stats
    (join,) = stats.find("BatchHashJoin")
    assert join.details["probe"] == {"search": 2000}
    assert join.details["key_domain"] == 1_000_001
    assert stats.counter("exec.hash_join.offset_probes") == 0
    assert stats.counter("exec.hash_join.search_probes") == 2000


def test_the_aggregate_line_says_how_each_key_arrived():
    db = Database(StoreConfig(rowgroup_size=256, bulk_load_threshold=1))
    db.sql("CREATE TABLE t (s VARCHAR NOT NULL, n INT NOT NULL)")
    db.bulk_load("t", [(("a", "b", "c")[i % 3], i) for i in range(512)])
    stats = db.sql("SELECT s, COUNT(*) AS c FROM t GROUP BY s", stats=True).stats
    (aggregate,) = stats.find("BatchHashAggregate")
    assert aggregate.details["keys"] == {"s": "codes:scan"}
    assert stats.counter("storage.scan.agg_code_space_groups") == 3 * 2
    # A trickle-inserted row sits in a delta store: that unit's key is
    # coded by the aggregate, the compressed units' still arrive as codes.
    db.sql("INSERT INTO t VALUES ('d', 1000)")
    stats = db.sql("SELECT s, COUNT(*) AS c FROM t GROUP BY s", stats=True).stats
    (aggregate,) = stats.find("BatchHashAggregate")
    assert aggregate.details["keys"] == {"s": "codes:scan|coded here"}
    assert aggregate.details["keys_from_vectors"] == 2
    assert aggregate.details["keys_coded_locally"] == 1


# --------------------------------------------------------------------- #
# The declaration protocol, on hand-built plans
# --------------------------------------------------------------------- #
class ListSource(BatchOperator):
    def __init__(self, data: dict, batch_size: int = 100):
        self._batch = Batch.from_pydict(data)
        self._batch_size = batch_size
        self.declared = []

    def declare_encoded(self, takes):
        self.declared.append(takes)  # recorded, then ignored: plain rows only

    @property
    def output_names(self):
        return self._batch.names

    def batches(self):
        yield from slice_into_batches(self._batch, self._batch_size)


def _two_joins(top_type: str, grant: MemoryGrant | None = None):
    fact = ListSource({"k": [1, 2, 3, 1, 9], "k2": [7, 8, 7, 8, 7], "v": [1, 2, 3, 4, 5]}, 2)
    lower = BatchHashJoin(ListSource({"id": [1, 2, 3], "a": ["p", "q", None]}), fact,
                          ["id"], ["k"])
    upper = BatchHashJoin(ListSource({"id2": [7, 8], "b": ["x", "x"]}), lower,
                          ["id2"], ["k2"], join_type=top_type, grant=grant)
    return lower, upper


def test_declaration_is_split_between_build_side_and_probe_child():
    lower, upper = _two_joins("inner")
    aggregate = BatchHashAggregate(upper, ["a", "b"], [agg("sum", "v", "sv")])
    assert aggregate.takes_encoded() == {"v": AS_ROWS, "a": AS_CODES, "b": AS_CODES}
    upper.declare_encoded(aggregate.takes_encoded())
    assert upper._emits == {"b"} and upper._carries == {"a"}
    assert lower._emits == {"a"} and lower._carries == set()
    assert lower.probe_child.declared == []  # only a join below is declared to
    rows = [row for batch in aggregate.batches() for row in batch.to_rows()]
    same_rows(rows, [("p", "x", 5), ("q", "x", 2), (None, "x", 3)])
    assert aggregate.stats.keys == {"a": "codes:join", "b": "codes:join"}
    # Withdrawn again: nothing is declared onward either.
    upper.declare_encoded(None)
    assert upper._emits == lower._emits == set()


def test_probe_side_names_are_declared_to_a_join_below_in_full_and_own_keys_as_rows():
    lower, upper = _two_joins("inner")
    declared = []
    lower.declare_encoded = declared.append
    upper.declare_encoded({"k2": AS_CODES, "v": AS_CODES, "a": AS_CODES, "b": AS_CODES})
    assert upper._emits == {"b"}
    assert upper._carries == {"v", "a"}  # k2 it probes with: taken as rows
    assert declared == [{"k": AS_ROWS, "k2": AS_ROWS, "v": AS_CODES, "id": AS_ROWS, "a": AS_CODES}]


def test_a_probe_child_that_is_not_a_join_is_declared_nothing():
    lower, _ = _two_joins("inner")
    lower.declare_encoded({"v": AS_CODES, "a": AS_CODES})
    assert lower._emits == {"a"} and lower._carries == set()
    assert lower.probe_child.declared == []


@pytest.mark.parametrize("top_type", ["right", "full"])
def test_a_null_extending_join_declares_nothing_and_decodes_what_arrives(top_type):
    lower, upper = _two_joins(top_type)
    upper.declare_encoded({"a": AS_CODES, "b": AS_CODES, "v": AS_ROWS})
    assert upper._emits == set() and upper._carries == set()
    assert lower._emits == set() and lower._carries == set()
    # A vector can still arrive — here because the lower join was told to
    # produce one by hand, standing in for a consumer that never asked.
    lower.declare_encoded({"a": AS_CODES})
    got = [row for batch in upper.batches() for row in batch.to_rows()]
    reference = _two_joins(top_type)[1]
    want = [row for batch in reference.batches() for row in batch.to_rows()]
    assert got == want
    # One per batch that reached it (the fact's third batch matches nothing).
    assert upper.stats.morph == {"join_cannot_carry": 2}
    assert reference.stats.morph == {}


@pytest.mark.parametrize("top_type", ["semi", "anti"])
def test_semi_and_anti_joins_carry_probe_side_vectors(top_type):
    lower, upper = _two_joins(top_type)
    aggregate = BatchHashAggregate(upper, ["a"], [count_star("n")])
    upper.declare_encoded(aggregate.takes_encoded())
    assert upper._emits == set() and upper._carries == {"a"}
    rows = [row for batch in aggregate.batches() for row in batch.to_rows()]
    same_rows(rows, [("p", 2), ("q", 1), (None, 1)] if top_type == "semi" else [])
    assert upper.stats.morph == {}
    if top_type == "semi":
        assert aggregate.stats.keys == {"a": "codes:join"}


@pytest.mark.parametrize("join_type", ["inner", "left"])
def test_int64_extreme_keys_through_join_and_aggregate(join_type):
    int64 = np.dtype(np.int64)
    keys = [I64.min, I64.max, 0, I64.max - 1, None]
    build = {"id": keys, "a": ["lo", "hi", "zero", None, "never"]}
    probe = {"k": [I64.max, I64.min, I64.min + 1, 0, None, I64.max - 1, I64.max],
             "v": [1, 2, 4, 8, 16, 32, 64]}

    def run(declare: bool):
        join = BatchHashJoin(ListSource(build), ListSource(probe, 3), ["id"], ["k"],
                             join_type=join_type)
        aggregate = BatchHashAggregate(join, ["a"], [agg("sum", "v", "sv")])
        if declare:
            join.declare_encoded(aggregate.takes_encoded())
        rows = [row for batch in aggregate.batches() for row in batch.to_rows()]
        return rows, join, aggregate

    assert Batch.from_pydict(build, dtypes={"id": int64}).column("id").dtype == int64
    coded, join, aggregate = run(declare=True)
    plain, _, plain_aggregate = run(declare=False)
    assert coded == plain
    want = [("hi", 65), ("lo", 2), ("zero", 8), (None, 32)]
    if join_type == "left":
        want[-1] = (None, 32 + 4 + 16)
    same_rows(coded, want)
    assert join.stats.probe == {"search": 7}
    assert aggregate.stats.keys == {"a": "codes:join"}
    assert plain_aggregate.stats.keys == {"a": "coded here"}


@pytest.mark.parametrize("key", [1, "one"], ids=["int key", "string key"])
def test_duplicate_build_keys_never_emit_more_than_a_batch(key):
    """A probe batch is located whole and emitted in pieces cut where the
    running match count would pass a batch, so one emission (the unit of
    cancellation and of memory) stays a batch however large probe rows x
    matches is."""
    other = 2 if key == 1 else "two"
    build = {"id": [key] * 5 + [other], "tag": list("abcdef")}
    probe = {"k": [key] * 37 + [other] * 3, "v": list(range(40))}
    join = BatchHashJoin(ListSource(build), ListSource(probe, 40), ["id"], ["k"], batch_size=10)
    sizes, rows = [], []
    for batch in join.batches():
        sizes.append(batch.row_count)
        rows.extend(batch.to_rows())
    # 2 probe rows x 5 matches at a time, then 1 x 5 + 3 x 1.
    assert sizes == [10] * 18 + [8]
    assert join.stats.probe_rows == 40 and sum(join.stats.probe.values()) == 40
    whole = BatchHashJoin(ListSource(build), ListSource(probe, 40), ["id"], ["k"])
    assert rows == [row for batch in whole.batches() for row in batch.to_rows()]


@pytest.mark.parametrize("join_type", ["inner", "left", "right", "full"])
def test_one_probe_row_past_a_batch_is_a_piece_of_its_own(join_type):
    build = {"id": [1] * 7 + [2, 3], "tag": list("abcdefghi")}
    probe = {"k": [2, 1, 9, 2, 1, 2], "v": list(range(6))}
    join = BatchHashJoin(ListSource(build), ListSource(probe, 6), ["id"], ["k"],
                         join_type=join_type, batch_size=3)
    batches = list(join.batches())
    pad = [1] if join_type in ("left", "full") else []  # rides on the last piece
    tail = [1] if join_type in ("right", "full") else []  # build row 3, unmatched
    assert [b.row_count for b in batches] == [1, 7, 1, 7, 1 + sum(pad)] + tail
    whole = BatchHashJoin(ListSource(build), ListSource(probe, 6), ["id"], ["k"],
                          join_type=join_type)
    same_rows([r for b in batches for r in b.to_rows()],
              [r for b in whole.batches() for r in b.to_rows()])


@pytest.mark.parametrize(
    "locate, stretch, strings",
    [("offsets", 1, False), ("search", 1000, False), ("offsets", 1000, True)],
    ids=["offsets", "search", "string key"],
)
def test_a_hot_build_key_the_probe_never_hits_costs_nothing(locate, stretch, strings):
    """The pieces follow the fan-out of the rows being probed, not the
    worst duplicate run in the build: a skewed build (one 'unknown' key
    repeated past a batch) leaves every batch that misses it whole. A
    string key is coded densely, so however sparse the numbers it spells
    it is located through the offset table."""
    hot, keys = -stretch, np.arange(50) * stretch
    ids = np.concatenate([np.full(200, hot), keys])
    probe_keys = np.tile(keys, 6)
    if strings:
        ids, probe_keys = ids.astype(str).astype(object), probe_keys.astype(str).astype(object)
    build = BatchSource(["id", "tag"], [Batch(columns={"id": ids, "tag": np.arange(ids.size)})])
    probes = [
        Batch(columns={"k": probe_keys[at:at + 100], "v": np.arange(at, at + 100)})
        for at in range(0, 300, 100)
    ]
    join = BatchHashJoin(build, BatchSource(["k", "v"], probes), ["id"], ["k"], batch_size=64)
    out = list(join.batches())
    # 100 matches a probe batch, cut at 64; never one probe row at a time.
    assert [b.row_count for b in out] == [64, 36] * 3
    assert join.stats.probe == {locate: 300}
    assert np.concatenate([b.column("v") for b in out]).tolist() == list(range(300))
    assert all((b.column("tag") >= 200).all() for b in out)


def test_left_join_pads_a_vector_with_nulls():
    fact = ListSource({"k": [1, 5, 2, 6], "v": [1, 2, 3, 4]})
    join = BatchHashJoin(ListSource({"id": [1, 2], "a": ["p", "q"]}), fact, ["id"], ["k"],
                         join_type="left")
    join.declare_encoded({"a": AS_CODES})
    (batch,) = join.batches()
    assert "a" in batch.encoded and "a" not in batch.columns
    values, mask = batch.encoded["a"].decode()
    assert batch.column("k").tolist() == [1, 2, 5, 6]
    assert [None if m else v for v, m in zip(values.tolist(), mask.tolist())] == [
        "p", "q", None, None]


# --------------------------------------------------------------------- #
# The one grouping path against a per-row fold
# --------------------------------------------------------------------- #
def reference_aggregate(batches, group_keys, specs):
    """Each qualifying row, in order, updates its group (made on first
    appearance): a count per aggregate and, in Python, a value — shares
    no code with the aggregate."""
    groups: dict[tuple, list] = {}
    for batch in batches:
        for row in batch.to_rows():
            row = dict(zip(batch.names, row))
            counts, values = groups.setdefault(
                tuple(row[k] for k in group_keys), ([0] * len(specs), [None] * len(specs))
            )
            for i, spec in enumerate(specs):
                value = None if spec.expr is None else row[spec.expr.name]
                if spec.expr is not None and value is None:
                    continue
                counts[i] += 1
                if spec.func == "sum":
                    values[i] = value if values[i] is None else values[i] + value
                elif spec.func == "min":
                    values[i] = value if values[i] is None else min(values[i], value)
    return [
        (*key, *(count if spec.func in ("count", "count_star") else value
                 for spec, count, value in zip(specs, counts, values)))
        for key, (counts, values) in groups.items()
    ]


class BatchSource(BatchOperator):
    def __init__(self, names, batches):
        self._names, self._batches = names, batches

    @property
    def output_names(self):
        return self._names

    def batches(self):
        yield from self._batches


_int_key = st.one_of(st.none(), st.integers(-3, 3), st.sampled_from([I64.min, I64.max]))
_str_key = st.one_of(st.none(), st.sampled_from(["", "a", "b", "ab", "é"]))
_KEY_KINDS = {"int": (_int_key, np.dtype(np.int64)), "str": (_str_key, np.dtype(object))}


@st.composite
def keyed_batches(draw):
    kinds = draw(st.lists(st.sampled_from(["int", "str"]), min_size=1, max_size=3))
    names = [f"k{i}" for i in range(len(kinds))]
    batches = []
    late = 0
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 25))
        data, dtypes = {}, {}
        for name, kind in zip(names, kinds):
            values, dtypes[name] = _KEY_KINDS[kind]
            column = draw(st.lists(values, min_size=n, max_size=n))
            if kind == "int":  # keys no earlier batch has seen appear late
                column = [v if v is None or abs(v) > 3 else v + late for v in column]
            else:
                column = [v if v is None else v + "'" * late for v in column]
            data[name] = column
        data["v"] = draw(st.lists(st.one_of(st.none(), st.integers(-50, 50)),
                                  min_size=n, max_size=n))
        dtypes["v"] = np.dtype(np.int64)
        batch = Batch.from_pydict(data, dtypes=dtypes)
        if n and draw(st.booleans()):
            keep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            batch = batch.narrow(keep)
        batches.append(batch)
        late += draw(st.integers(0, 2))
    return names, batches


@settings(max_examples=examples(100), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(keyed_batches())
def test_grouping_equals_the_per_row_factorize(case):
    names, batches = case
    specs = [count_star("n"), agg("sum", "v", "sv"), agg("min", "v", "mn"), agg("count", "v", "c")]
    want = reference_aggregate(batches, names, specs)
    op = BatchHashAggregate(BatchSource([*names, "v"], batches), names, specs)
    got = [row for batch in op.batches() for row in batch.to_rows()]
    same_rows(got, want)
    # Groups come out in order of first appearance over the whole input.
    seen = list(dict.fromkeys(
        key for batch in batches for key in zip(*(
            [None if batch.null_mask(k) is not None and batch.null_mask(k)[i] else
             batch.column(k)[i].item() if batch.column(k).dtype != object else batch.column(k)[i]
             for i in batch.active_indices().tolist()] for k in names))
    ))
    assert [row[: len(names)] for row in got] == seen
    assert op.stats.keys == ({name: "coded here" for name in names} if got else {})


def test_key_space_past_int64_is_reranked_not_overflowed():
    """Six keys of 2,000 distinct values each span 2,001^6 > 2^63 cells."""
    n, width = 2000, 6
    rng = np.random.default_rng(8)
    columns = {f"k{i}": rng.permutation(n).astype(np.int64) for i in range(width)}
    twice = {name: np.concatenate([values, values]) for name, values in columns.items()}
    names = list(columns)
    op = BatchHashAggregate(BatchSource(names, [Batch(columns=twice)]), names, [count_star("n")])
    rows = [row for batch in op.batches() for row in batch.to_rows()]
    assert len(rows) == n and {row[-1] for row in rows} == {2}
    assert {row[:width] for row in rows} == set(zip(*(c.tolist() for c in columns.values())))


def test_join_key_space_past_int64_is_reranked_on_both_sides():
    """The join combines its key columns with the aggregate's combine: six
    columns of 2,000 codes re-rank before the sixth, and the probe side
    replays that re-rank — a combination no build row has is a miss."""
    n, width = 2000, 6
    rng = np.random.default_rng(22)
    build = {f"k{i}": rng.permutation(n).astype(np.int64) for i in range(width)}
    names = list(build)
    probe = {name: values.copy() for name, values in build.items()}
    probe["k5"][::2] = np.roll(probe["k5"][::2], 1)  # every other row: a new combination
    table = _HashTable(Batch(columns=build), names)
    assert table._ranks and table.unique
    probe_idx, build_idx = table.probe(Batch(columns=probe), names)
    assert probe_idx.tolist() == list(range(1, n, 2))
    assert build_idx.tolist() == probe_idx.tolist()


def test_registry_names_are_stable():
    from repro.observability.registry import STABLE_COUNTERS

    for name in (
        "exec.hash_join.offset_probes",
        "exec.hash_join.search_probes",
        "exec.hash_join.columns_emitted_encoded",
        "exec.hash_aggregate.keys_from_vectors",
        "exec.hash_aggregate.keys_coded_locally",
        MorphReason.JOIN_CANNOT_CARRY.counter,
    ):
        assert name in STABLE_COUNTERS
    assert get_registry() is not None
