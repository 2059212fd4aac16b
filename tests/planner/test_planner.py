"""Tests for the optimizer: pushdown, pruning, join sides, bitmaps, modes."""

import pytest

from repro import Database, StoreConfig, schema, types
from repro.exec.expressions import And, Comparison, col, lit
from repro.exec.operators.hash_aggregate import agg, count_star
from repro.exec.operators.hash_join import BatchHashJoin
from repro.exec.operators.scan import ColumnStoreScan
from repro.planner.logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalScan,
    LogicalSort,
)
from repro.planner.rules import push_filters, prune_columns
from repro.planner.schema_infer import infer_output_dtypes


@pytest.fixture
def db():
    database = Database(
        StoreConfig(rowgroup_size=100, bulk_load_threshold=50, delta_close_rows=100)
    )
    fact = schema(
        ("id", types.INT, False),
        ("cust_id", types.INT, False),
        ("amount", types.FLOAT),
    )
    dim = schema(("cid", types.INT, False), ("region", types.VARCHAR))
    database.create_table("fact", fact)
    database.create_table("dim", dim)
    database.bulk_load(
        "fact", [(i, i % 20, float(i)) for i in range(400)]
    )
    database.bulk_load("dim", [(i, f"r{i % 4}") for i in range(20)])
    return database


def scan_of(db, table, cols):
    return db.scan_plan(table, cols)


class TestPushdown:
    def test_filter_merges_into_scan(self, db):
        plan = LogicalFilter(
            scan_of(db, "fact", ["id", "amount"]),
            Comparison(">", col("amount"), lit(10.0)),
        )
        optimized = push_filters(plan)
        assert isinstance(optimized, LogicalScan)
        assert optimized.predicate is not None

    def test_conjuncts_split_across_join(self, db):
        join = LogicalJoin(
            scan_of(db, "fact", ["id", "cust_id"]),
            scan_of(db, "dim", ["cid", "region"]),
            ["cust_id"],
            ["cid"],
        )
        predicate = And(
            Comparison(">", col("id"), lit(5)),
            Comparison("=", col("region"), lit("r1")),
        )
        optimized = push_filters(LogicalFilter(join, predicate))
        assert isinstance(optimized, LogicalJoin)
        assert optimized.left.predicate is not None
        assert optimized.right.predicate is not None

    def test_cross_table_conjunct_stays(self, db):
        join = LogicalJoin(
            scan_of(db, "fact", ["id", "cust_id"]),
            scan_of(db, "dim", ["cid", "region"]),
            ["cust_id"],
            ["cid"],
        )
        predicate = Comparison("<", col("id"), col("cid"))
        optimized = push_filters(LogicalFilter(join, predicate))
        assert isinstance(optimized, LogicalFilter)

    def test_left_join_does_not_push_to_null_side(self, db):
        join = LogicalJoin(
            scan_of(db, "fact", ["id", "cust_id"]),
            scan_of(db, "dim", ["cid", "region"]),
            ["cust_id"],
            ["cid"],
            join_type="left",
        )
        predicate = Comparison("=", col("region"), lit("r1"))
        optimized = push_filters(LogicalFilter(join, predicate))
        assert isinstance(optimized, LogicalFilter)
        assert optimized.child.right.predicate is None


class TestPruning:
    def test_scan_trimmed_to_needed(self, db):
        plan = LogicalProject(
            scan_of(db, "fact", ["id", "cust_id", "amount"]),
            [("id", col("id"))],
        )
        pruned = prune_columns(plan)
        assert list(pruned.child.projections) == ["id"]

    def test_predicate_columns_retained(self, db):
        scan = scan_of(db, "fact", ["id", "cust_id", "amount"])
        scan.predicate = Comparison(">", col("amount"), lit(1.0))
        plan = LogicalProject(scan, [("id", col("id"))])
        pruned = prune_columns(plan)
        assert set(pruned.child.projections) == {"id", "amount"}

    def test_join_keys_retained(self, db):
        join = LogicalJoin(
            scan_of(db, "fact", ["id", "cust_id", "amount"]),
            scan_of(db, "dim", ["cid", "region"]),
            ["cust_id"],
            ["cid"],
        )
        plan = LogicalProject(join, [("region", col("region"))])
        pruned = prune_columns(plan)
        assert set(pruned.child.left.projections) == {"cust_id"}
        assert set(pruned.child.right.projections) == {"cid", "region"}


class TestJoinSides:
    def test_smaller_side_becomes_build(self, db):
        # fact (400) joined with dim (20): dim must end up on the right.
        join = LogicalJoin(
            scan_of(db, "dim", ["cid", "region"]),
            scan_of(db, "fact", ["id", "cust_id"]),
            ["cid"],
            ["cust_id"],
        )
        plan = db.optimizer.optimize(
            LogicalProject(join, [("region", col("region")), ("id", col("id"))])
        )
        join_node = plan.child
        assert join_node.right.table == "dim"

    def test_bitmap_placed_for_star_join(self, db):
        join = LogicalJoin(
            scan_of(db, "fact", ["id", "cust_id"]),
            scan_of(db, "dim", ["cid", "region"]),
            ["cust_id"],
            ["cid"],
        )
        plan = db.optimizer.optimize(
            LogicalProject(join, [("id", col("id"))])
        )
        assert plan.child.use_bitmap is True


class TestPhysicalModes:
    def make_plan(self, db):
        return LogicalProject(
            scan_of(db, "fact", ["id", "amount"]), [("id", col("id"))]
        )

    def test_auto_uses_batch_for_columnstore(self, db):
        plan = db.compile(self.make_plan(db))
        assert plan.mode == "batch"

    def test_row_mode_forced(self, db):
        plan = db.compile(self.make_plan(db), mode="row")
        assert plan.mode == "row"
        rows = list(plan.rows())
        assert len(rows) == 400

    def test_rowstore_table_defaults_to_row_mode(self, db):
        db.create_table(
            "rs", schema(("a", types.INT, False)), storage="rowstore"
        )
        db.insert("rs", [(1,), (2,)])
        plan = db.compile(LogicalProject(db.scan_plan("rs"), [("a", col("a"))]))
        assert plan.mode == "row"

    def test_mixed_join_promotes_to_batch(self, db):
        db.create_table("rdim", schema(("cid", types.INT, False)), storage="rowstore")
        db.insert("rdim", [(i,) for i in range(20)])
        join = LogicalJoin(
            scan_of(db, "fact", ["id", "cust_id"]),
            db.scan_plan("rdim"),
            ["cust_id"],
            ["cid"],
        )
        plan = db.compile(LogicalProject(join, [("id", col("id"))]))
        assert plan.mode == "batch"
        assert len(list(plan.rows())) == 400

    def test_bitmap_wired_into_scan(self, db):
        join = LogicalJoin(
            scan_of(db, "fact", ["id", "cust_id"]),
            scan_of(db, "dim", ["cid", "region"]),
            ["cust_id"],
            ["cid"],
        )
        physical = db.compile(LogicalProject(join, [("id", col("id"))]))
        assert isinstance(physical.root.child_operators()[0], BatchHashJoin)
        join_op = physical.root.child_operators()[0]
        assert join_op.bitmap_target is not None
        rows = list(physical.rows())
        assert len(rows) == 400
        # After execution, the probe scan must have seen the bitmap.
        assert isinstance(join_op.bitmap_target, ColumnStoreScan)
        assert join_op.bitmap_target.bitmap_probes

    def test_disable_bitmaps(self, db):
        join = LogicalJoin(
            scan_of(db, "fact", ["id", "cust_id"]),
            scan_of(db, "dim", ["cid", "region"]),
            ["cust_id"],
            ["cid"],
        )
        physical = db.compile(
            LogicalProject(join, [("id", col("id"))]), enable_bitmaps=False
        )
        join_op = physical.root.child_operators()[0]
        assert join_op.bitmap_target is None


class TestEstimation:
    def test_scan_estimate_uses_stats(self, db):
        scan = scan_of(db, "fact", ["id", "cust_id"])
        base = db.optimizer.estimate_rows(scan)
        assert base == 400
        scan.predicate = Comparison("=", col("cust_id"), lit(3))
        filtered = db.optimizer.estimate_rows(scan)
        assert filtered < base

    def test_join_estimate(self, db):
        join = LogicalJoin(
            scan_of(db, "fact", ["id", "cust_id"]),
            scan_of(db, "dim", ["cid", "region"]),
            ["cust_id"],
            ["cid"],
        )
        estimate = db.optimizer.estimate_rows(join)
        assert 100 <= estimate <= 1600  # true value is 400

    def test_aggregate_estimate_capped_by_child(self, db):
        plan = LogicalAggregate(
            scan_of(db, "fact", ["cust_id"]), ["cust_id"], [count_star("n")]
        )
        assert db.optimizer.estimate_rows(plan) <= 400

    def test_limit_estimate(self, db):
        plan = LogicalLimit(scan_of(db, "fact", ["id"]), 7)
        assert db.optimizer.estimate_rows(plan) == 7


class TestTypeInference:
    def test_scan_types(self, db):
        dtypes = infer_output_dtypes(scan_of(db, "fact", ["id", "amount"]), db.catalog)
        assert dtypes["id"] == types.INT
        assert dtypes["amount"] == types.FLOAT

    def test_aggregate_types(self, db):
        plan = LogicalAggregate(
            scan_of(db, "fact", ["cust_id", "id", "amount"]),
            ["cust_id"],
            [count_star("n"), agg("sum", "id", "s"), agg("avg", "amount", "m")],
        )
        dtypes = infer_output_dtypes(plan, db.catalog)
        assert dtypes["n"] == types.BIGINT
        assert dtypes["s"] == types.BIGINT  # INT sums widen
        assert dtypes["m"] == types.FLOAT
