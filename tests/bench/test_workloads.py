"""Tests for the benchmark workloads: generators, star schema and the
full 22-query suite (every differential arm answers as batch mode), and
for the harness that compares them."""

import pytest

from repro import StoreConfig
from repro.bench.datagen import DATASET_SPECS, make_dataset
from repro.bench.harness import (
    ARMS,
    Arm,
    ReportTable,
    answer,
    same_answers,
    same_rows,
    time_call,
)
from repro.bench.queries import QUERY_SUITE, query_by_id
from repro.bench.star_schema import build_star_schema, generate_star_data
from repro.errors import BindingError


class TestDatagen:
    @pytest.mark.parametrize("spec", DATASET_SPECS, ids=lambda s: s.name)
    def test_generates_requested_rows(self, spec):
        dataset = make_dataset(spec.name, 500)
        assert dataset.row_count == 500
        assert set(dataset.columns) == set(dataset.table_schema.names)

    def test_deterministic(self):
        a = make_dataset("low_ndv_ints", 200, seed=7)
        b = make_dataset("low_ndv_ints", 200, seed=7)
        for name in a.columns:
            assert (a.columns[name] == b.columns[name]).all()

    def test_rows_match_columns(self):
        dataset = make_dataset("wide_mixed", 100)
        rows = dataset.rows()
        assert len(rows) == 100
        assert rows[0][0] == dataset.columns["order_id"][0]

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            make_dataset("nope", 10)

    def test_low_ndv_is_more_compressible_than_high_ndv(self):
        from repro.storage.columnstore import ColumnStoreIndex
        from repro.storage.config import StoreConfig
        from repro.txn import autocommit

        ratios = {}
        for name in ("low_ndv_ints", "high_ndv_ints"):
            dataset = make_dataset(name, 2000)
            index = ColumnStoreIndex(
                dataset.table_schema, StoreConfig(rowgroup_size=2000)
            )
            with autocommit(index.mvcc) as txn:
                index.bulk_load_columns(dataset.columns, txn)
            ratios[name] = (
                index.directory.raw_size_bytes / index.directory.encoded_size_bytes
            )
        assert ratios["low_ndv_ints"] > ratios["high_ndv_ints"]


class TestStarSchema:
    def test_generate_deterministic(self):
        a = generate_star_data(100, seed=3)
        b = generate_star_data(100, seed=3)
        assert a["store_sales"] == b["store_sales"]

    def test_referential_integrity(self):
        data = generate_star_data(300)
        customer_ids = {row[0] for row in data["customer"]}
        item_ids = {row[0] for row in data["item"]}
        for fact in data["store_sales"]:
            assert fact[2] in customer_ids
            assert fact[3] in item_ids

    def test_facts_date_ordered(self):
        data = generate_star_data(200)
        dates = [row[1] for row in data["store_sales"]]
        assert dates == sorted(dates)

    def test_build_columnstore(self):
        star = build_star_schema(
            400, storage="columnstore",
            config=StoreConfig(rowgroup_size=128, bulk_load_threshold=100),
        )
        assert star.db.table("store_sales").row_count == 400
        assert star.db.table("store_sales").columnstore is not None

    def test_build_rowstore(self):
        star = build_star_schema(200, storage="rowstore")
        assert star.db.table("store_sales").rowstore is not None
        assert star.db.table("store_sales").columnstore is None


@pytest.fixture(scope="module")
def small_star():
    return build_star_schema(
        1500,
        storage="columnstore",
        config=StoreConfig(rowgroup_size=256, bulk_load_threshold=100),
    )


class TestQuerySuite:
    def test_suite_has_22_queries(self):
        assert len(QUERY_SUITE) == 22
        assert len({q.qid for q in QUERY_SUITE}) == 22

    def test_query_by_id(self):
        assert query_by_id("Q07").qid == "Q07"
        with pytest.raises(KeyError):
            query_by_id("Q99")

    @pytest.mark.parametrize("query", QUERY_SUITE, ids=lambda q: q.qid)
    def test_every_arm_answers_as_batch_mode(self, small_star, query):
        assert same_answers(small_star.db, query.sql) == [arm.name for arm in ARMS]
        if query.qid not in ("Q03",):  # Q03 may legitimately select 0 rows
            assert small_star.db.sql(query.sql).rows


class TestHarness:
    def test_time_call(self):
        timing = time_call(lambda: [1, 2, 3], repeat=2)
        assert timing.seconds >= 0
        assert timing.result_rows == 3

    def test_report_table_renders(self):
        table = ReportTable("T", ["name", "value"])
        table.add_row("alpha", 1.5)
        table.add_row("beta", 12345)
        table.add_note("synthetic")
        text = table.render()
        assert "alpha" in text and "12,345" in text and "note: synthetic" in text

    def test_report_table_arity_checked(self):
        table = ReportTable("T", ["a"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)

    def test_same_answers_names_the_arm_that_differs(self, small_star):
        other = build_star_schema(100, storage="columnstore").db

        class OtherDatabase(Arm):
            def answer(self, db, sql):
                return answer(other, sql)

        sql = "SELECT COUNT(*) AS n FROM store_sales"
        with pytest.raises(AssertionError, match="other database differs"):
            same_answers(small_star.db, sql, [ARMS[0], OtherDatabase("other database")])
        with pytest.raises(AssertionError, match="arm: Failure"):  # an error against rows
            same_answers(small_star.db, sql, [Arm("batch_size=0", {"batch_size": 0})])
        failing = "SELECT COUNT(*) AS n FROM store_sales WHERE nope = 1"
        with pytest.raises(BindingError, match="nope"):  # the reference must run
            same_answers(small_star.db, failing, [])

    def test_same_rows_compares_floats_by_bits_or_to_digits(self):
        same_rows([(0.1 + 0.2, "a"), (None, "b")], [(None, "b"), (0.3, "a")], digits=6)
        for got, want in ([(0.1 + 0.2,)], [(0.3,)]), ([(-0.0,)], [(0.0,)]), ([(1,)], [(1.0,)]):
            with pytest.raises(AssertionError):
                same_rows(got, want)
        same_rows([(float("nan"), True)], [(float("nan"), True)])
        with pytest.raises(AssertionError, match="in order"):
            same_rows([(1,), (2,)], [(2,), (1,)], label="in order", ordered=True)
