"""A projection that produces a vector, and an aggregate that sorts and
interprets less.

* CASE-as-codes — a CASE of literal results leaves ``BatchProject`` as a
  dictionary vector when the aggregate above declared it groups by it —
  against the decoded arm (``enable_encoded_agg=False``: nothing declared,
  the CASE evaluated to a plain column), against row mode, and under a
  grant small enough to spill; rows must be equal, floats included.
* ``DictionaryVector.from_values`` by subtraction against ``np.unique``:
  equal ``decode()``, equal groups.
* The group directory is consulted in bulk: a key costs an interpreter
  call once per aggregate, not once per batch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, StoreConfig
from repro.exec.batch import AS_CODES, AS_ROWS, Batch
from repro.exec.expressions import Case, Column, Comparison, Literal
from repro.exec.operators.base import BatchOperator
from repro.exec.operators.hash_aggregate import BatchHashAggregate, agg, count_star
from repro.exec.operators.hash_join import BatchHashJoin
from repro.exec.operators.project import BatchProject
from repro.storage.segment import DENSE_DOMAIN_PER_ROW, DictionaryVector


def sort_key(row):
    return tuple((v is None, str(type(v)), 0 if v is None else v) for v in row)


def _db() -> Database:
    db = Database(StoreConfig(rowgroup_size=256, bulk_load_threshold=1))
    db.sql("CREATE TABLE sales (id INT NOT NULL, price INT, cust INT NOT NULL, paid FLOAT)")
    db.sql("CREATE TABLE customer (c_id INT NOT NULL, c_region VARCHAR)")
    db.bulk_load("customer", [(i, (None, "east", "west")[i % 3]) for i in range(60)])
    db.bulk_load(
        "sales",
        [(i, None if i % 17 == 0 else i * 7 % 300, i * 11 % 60, (i % 40) * 0.25) for i in range(1500)],
    )
    return db


TIER = "CASE WHEN price < 50 THEN 'budget' WHEN price < 150 THEN 'mid' ELSE 'premium' END"
STATEMENTS = {
    "Q21-shaped": f"SELECT {TIER} AS tier, COUNT(*) AS n, SUM(paid) AS revenue FROM sales GROUP BY tier",
    "no ELSE (a NULL group)": (
        "SELECT CASE WHEN price < 50 THEN 'budget' WHEN price < 150 THEN 'mid' END AS tier, "
        "COUNT(*) AS n FROM sales GROUP BY tier"
    ),
    "a NULL literal result": (
        "SELECT CASE WHEN price < 50 THEN NULL ELSE 'rest' END AS tier, SUM(paid) AS s "
        "FROM sales GROUP BY tier"
    ),
    "duplicate literals": (
        "SELECT CASE WHEN price < 50 THEN 'low' WHEN price < 150 THEN 'high' "
        "WHEN price < 250 THEN 'low' ELSE 'high' END AS tier, COUNT(*) AS n FROM sales GROUP BY tier"
    ),
    "numeric literals of two types": (
        "SELECT CASE WHEN price < 50 THEN 1 ELSE 2.5 END AS w, COUNT(*) AS n FROM sales GROUP BY w"
    ),
    "beside a plain key": (
        f"SELECT {TIER} AS tier, cust, MIN(paid) AS low FROM sales GROUP BY tier, cust"
    ),
    "under a filter": (
        f"SELECT {TIER} AS tier, COUNT(*) AS n FROM sales WHERE price > 20 AND id < 900 GROUP BY tier"
    ),
    "over a join, beside a key the join emits": (
        "SELECT CASE WHEN s.price < 100 THEN 'low' ELSE 'high' END AS tier, c.c_region, "
        "COUNT(*) AS n, SUM(s.paid) AS revenue FROM sales s JOIN customer c ON s.cust = c.c_id "
        "GROUP BY tier, c.c_region"
    ),
    "key also an aggregate argument": (
        "SELECT CASE WHEN price < 50 THEN 'a' ELSE 'b' END AS tier, "
        "MAX(CASE WHEN price < 50 THEN 'a' ELSE 'b' END) AS top FROM sales "
        "GROUP BY CASE WHEN price < 50 THEN 'a' ELSE 'b' END"
    ),
    "a non-literal branch": (
        "SELECT CASE WHEN price < 50 THEN 0 ELSE cust END AS k, COUNT(*) AS n FROM sales GROUP BY k"
    ),
}


@pytest.mark.parametrize("name", list(STATEMENTS))
def test_case_as_codes_equals_the_decoded_arm_row_mode_and_a_spilling_grant(name):
    db, sql = _db(), STATEMENTS[name]
    encoded = db.sql(sql).rows
    assert encoded == db.sql(sql, enable_encoded_agg=False).rows  # order too
    assert sorted(encoded, key=sort_key) == sorted(db.sql(sql, mode="row").rows, key=sort_key)
    spilled = db.sql(sql, grant_bytes=512)
    assert sorted(encoded, key=sort_key) == sorted(spilled.rows, key=sort_key)


def _aggregate_details(db, sql, **options):
    stats = db.sql(sql, stats=True, **options).stats
    (aggregate,) = stats.find("BatchHashAggregate")
    return aggregate.details, stats


def test_a_case_of_literals_arrives_as_codes_and_says_so():
    db = _db()
    details, stats = _aggregate_details(db, STATEMENTS["Q21-shaped"])
    assert details["keys"] == {"__group_0": "codes:project"}
    assert stats.counter("exec.hash_aggregate.keys_coded_locally") == 0
    assert stats.counter("exec.hash_aggregate.keys_from_vectors") == 6  # one per row group
    assert "keys: __group_0=codes:project" in db.explain_analyze(STATEMENTS["Q21-shaped"])
    # The scan below was told nothing: its counters are the decoded arm's.
    decoded_details, decoded = _aggregate_details(
        db, STATEMENTS["Q21-shaped"], enable_encoded_agg=False
    )
    assert decoded_details["keys"] == {"__group_0": "coded here"}
    for counter in ("columns_decoded", "values_decoded", "agg_fallbacks", "rows_scanned"):
        assert stats.counter(f"storage.scan.{counter}") == decoded.counter(f"storage.scan.{counter}")


def test_a_non_literal_branch_stays_plain_and_says_so():
    db = _db()
    details, stats = _aggregate_details(db, STATEMENTS["a non-literal branch"])
    assert details["keys"] == {"__group_0": "coded here"}
    assert stats.counter("exec.hash_aggregate.keys_from_vectors") == 0
    assert "keys: __group_0=coded here" in db.explain_analyze(STATEMENTS["a non-literal branch"])


def test_a_key_that_is_also_an_argument_is_taken_as_rows():
    details, _ = _aggregate_details(_db(), STATEMENTS["key also an aggregate argument"])
    assert set(details["keys"].values()) == {"coded here"}


def test_a_rename_above_a_join_hands_the_joins_vector_through():
    db = _db()
    sql = STATEMENTS["over a join, beside a key the join emits"]
    details, stats = _aggregate_details(db, sql)
    assert details["keys"] == {"__group_0": "codes:project", "c.c_region": "codes:join"}
    assert stats.counter("exec.hash_join.columns_emitted_encoded") == 1
    assert stats.counter("exec.hash_aggregate.keys_coded_locally") == 0


# --------------------------------------------------------------------- #
# Hand-built plans: what a projection is told, and what it tells
# --------------------------------------------------------------------- #
class Source(BatchOperator):
    """Replays batches and records what it was told."""

    def __init__(self, batches: list[Batch]) -> None:
        self._batches = batches
        self.told: object = "nothing"

    @property
    def output_names(self) -> list[str]:
        return self._batches[0].names

    def declare_encoded(self, takes) -> None:
        self.told = takes

    def batches(self):
        yield from self._batches


def _tier_case() -> Case:
    return Case(
        [(Comparison("<", Column("price"), Literal(50)), Literal("budget"))], Literal("premium")
    )


def _sales_batches() -> list[Batch]:
    rng = np.random.default_rng(19)
    return [
        Batch(columns={"price": rng.integers(0, 100, 300), "k": rng.integers(0, 40, 300)})
        for _ in range(3)
    ]


def _rows(op) -> list[tuple]:
    return [row for batch in op.batches() for row in batch.to_rows()]


def test_a_project_under_a_join_is_told_nothing_and_stays_plain():
    """The join declares onward only to another join: the CASE below it
    is evaluated to a plain column, which the join gathers like any
    other, and the aggregate codes it."""
    dimension = Source([Batch(columns={"id": np.arange(40), "w": np.arange(40) % 3})])

    def plan(declare: bool):
        project = BatchProject(
            Source(_sales_batches()), [("tier", _tier_case()), ("k", Column("k"))]
        )
        join = BatchHashJoin(dimension, project, ["id"], ["k"])
        aggregate = BatchHashAggregate(join, ["tier", "w"], [count_star("n")])
        if declare:
            join.declare_encoded(aggregate.takes_encoded())
        return project, aggregate

    project, aggregate = plan(declare=True)
    rows = _rows(aggregate)
    assert project._coded == {}
    assert aggregate.stats.keys == {"tier": "coded here", "w": "codes:join"}
    assert rows == _rows(plan(declare=False)[1])


def test_declarations_go_through_a_rename_to_a_project_but_never_to_a_scan_like_leaf():
    leaf = Source(_sales_batches())
    lower = BatchProject(leaf, [("tier", _tier_case()), ("k", Column("k"))])
    upper = BatchProject(lower, [("t", Column("tier")), ("key", Column("k"))])
    upper.declare_encoded({"t": AS_CODES, "key": AS_ROWS})
    assert set(lower._coded) == {"tier"}
    assert leaf.told == "nothing"  # not a join, not a projection: told nothing
    aggregate = BatchHashAggregate(upper, ["t"], [agg("sum", "key", "s")])
    rows = _rows(aggregate)
    assert aggregate.stats.keys == {"t": "codes:project"}
    plain = BatchHashAggregate(
        BatchProject(
            BatchProject(Source(_sales_batches()), [("tier", _tier_case()), ("k", Column("k"))]),
            [("t", Column("tier")), ("key", Column("k"))],
        ),
        ["t"],
        [agg("sum", "key", "s")],
    )
    assert rows == _rows(plain)
    # Withdrawn again (None), and a column two expressions read stays plain.
    upper.declare_encoded(None)
    assert lower._coded == {}
    twice = BatchProject(lower, [("t", Column("tier")), ("again", Column("tier"))])
    twice.declare_encoded({"t": AS_CODES, "again": AS_ROWS})
    assert lower._coded == {}


# --------------------------------------------------------------------- #
# from_values: subtraction against np.unique
# --------------------------------------------------------------------- #
def _by_unique(values: np.ndarray, mask) -> DictionaryVector:
    distinct, codes = np.unique(values, return_inverse=True)
    return DictionaryVector.of(codes, distinct, mask, source="here")


def _groups(vector_or_values, mask, payload) -> list[tuple]:
    encoded, columns, masks = {}, {"v": payload}, {}
    if isinstance(vector_or_values, DictionaryVector):
        encoded["k"] = vector_or_values
    else:
        columns["k"], masks["k"] = vector_or_values, mask
    source = Source([Batch(columns=columns, null_masks=masks, encoded=encoded)])
    aggregate = BatchHashAggregate(source, ["k"], [count_star("n"), agg("sum", "v", "s")])
    return _rows(aggregate)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=60),
    st.integers(-(2**62), 2**62),
    st.sampled_from([1, 3, DENSE_DOMAIN_PER_ROW, DENSE_DOMAIN_PER_ROW + 1, 1000]),
    st.sampled_from([np.int64, np.int32]),
    st.booleans(),
)
def test_from_values_by_subtraction_and_by_unique_agree(offsets, base, stride, dtype, with_nulls):
    if dtype is np.int32:
        base %= 2**20
    values = (np.array(offsets, dtype=np.int64) * stride + base).astype(dtype)
    mask = (np.arange(values.size) % 4 == 1) if with_nulls else None
    made = DictionaryVector.from_values(values, mask, source="here")
    reference = _by_unique(values, mask)
    for got, want in zip(made.decode(), reference.decode()):
        assert (got is None and want is None) or (
            got.dtype == want.dtype and got.tolist() == want.tolist()
        )
    payload = np.arange(values.size, dtype=np.int64)
    assert _groups(values, mask, payload) == _groups(reference, None, payload)


@pytest.mark.parametrize("rows", [2, 5, 64])
def test_the_density_rule_is_the_joins(rows):
    """Span at the rule: coded by subtraction (the dictionary is the whole
    range); one cell past it: ranked by np.unique (only what occurs)."""
    at = np.zeros(rows, dtype=np.int64)
    at[-1] = DENSE_DOMAIN_PER_ROW * rows - 1
    vector = DictionaryVector.from_values(at - 7)
    assert vector.n_distinct == DENSE_DOMAIN_PER_ROW * rows
    assert vector.distinct_values()[0] == -7 and vector.decode()[0].tolist() == (at - 7).tolist()
    past = at.copy()
    past[-1] += 1
    vector = DictionaryVector.from_values(past - 7)
    assert vector.n_distinct == len(set(past.tolist()))
    assert vector.decode()[0].tolist() == (past - 7).tolist()


def test_from_values_at_the_int64_extremes_does_not_wrap():
    values = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0], dtype=np.int64)
    vector = DictionaryVector.from_values(values)
    assert vector.n_distinct == 3 and vector.decode()[0].tolist() == values.tolist()


# --------------------------------------------------------------------- #
# The group directory, resolved in bulk
# --------------------------------------------------------------------- #
def test_a_key_reaches_gid_of_once_not_once_per_batch():
    rng = np.random.default_rng(7)
    batches = [
        Batch(columns={"k": rng.permutation(500) % 250, "v": np.ones(500)}) for _ in range(6)
    ]
    aggregate = BatchHashAggregate(Source(batches), ["k"], [agg("sum", "v", "s")])
    rows = _rows(aggregate)
    assert aggregate.stats.groups == 250 == aggregate.stats.directory_misses
    assert sorted(rows) == [(k, 12.0) for k in range(250)]
    # First-appearance order, whichever batch a key first shows up in.
    first_seen = list(dict.fromkeys(np.concatenate([b.columns["k"] for b in batches]).tolist()))
    assert [row[0] for row in rows] == first_seen


def test_directory_misses_is_a_registered_counter_and_counts_groups():
    from repro.observability.registry import STABLE_COUNTERS

    assert "exec.hash_aggregate.directory_misses" in STABLE_COUNTERS
    db = _db()
    stats = db.sql("SELECT cust, SUM(paid) AS s FROM sales GROUP BY cust", stats=True).stats
    (aggregate,) = stats.find("BatchHashAggregate")
    assert aggregate.runtime.batches >= 1 and aggregate.details["groups"] == 60
    assert stats.counter("exec.hash_aggregate.directory_misses") == 60  # 6 row groups, 60 keys
