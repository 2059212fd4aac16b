"""Tests for mixed-mode plans: row-store and columnstore tables in one
query, adapters, and mode forcing across storage kinds."""

import pytest

from repro import Database, StoreConfig, schema, types
from repro.exec.operators.base import BatchOperator
from repro.sql.runner import plan_query


@pytest.fixture
def db():
    database = Database(StoreConfig(rowgroup_size=64, bulk_load_threshold=40))
    database.create_table(
        "facts",
        schema(("id", types.INT, False), ("dim_id", types.INT, False), ("v", types.FLOAT)),
        storage="columnstore",
    )
    database.create_table(
        "dims",
        schema(("did", types.INT, False), ("label", types.VARCHAR)),
        storage="rowstore",
    )
    database.bulk_load("facts", [(i, i % 7, float(i)) for i in range(300)])
    database.insert("dims", [(i, f"dim{i}") for i in range(7)])
    return database


class TestMixedModePlans:
    def test_columnstore_probe_rowstore_build(self, db):
        sql = (
            "SELECT d.label, COUNT(*) AS n FROM facts f "
            "JOIN dims d ON f.dim_id = d.did GROUP BY d.label ORDER BY d.label"
        )
        result = db.sql(sql)
        assert len(result.rows) == 7
        plan = db.explain(sql)
        # Mixed plan: the rowstore side is adapted into batches.
        assert "RowsToBatches" in plan
        assert "ColumnStoreScan" in plan

    def test_rowstore_from_clause_leading(self, db):
        sql = (
            "SELECT COUNT(*) AS n FROM dims d "
            "JOIN facts f ON f.dim_id = d.did WHERE d.label = 'dim3'"
        )
        expected = sum(1 for i in range(300) if i % 7 == 3)
        assert db.sql(sql).scalar() == expected

    def test_all_three_modes_agree(self, db):
        sql = (
            "SELECT d.label, SUM(f.v) AS s FROM facts f "
            "JOIN dims d ON f.dim_id = d.did GROUP BY d.label ORDER BY d.label"
        )
        auto = db.sql(sql)
        batch = db.sql(sql, mode="batch")
        row = db.sql(sql, mode="row")
        assert auto.rows == batch.rows == row.rows

    @pytest.mark.parametrize("mode", ["batch", "row"])
    def test_every_operator_makes_the_columns_it_names(self, db, mode):
        """A parent finds its child's columns by ``output_names``: every
        logical node names distinct ones, every operator of either engine,
        run on its own, makes exactly those (an encoded column beside the
        plain ones), and EXPLAIN shows it."""
        db.create_index("dims", "dims_did", ["did"])
        for sql in (
            "SELECT f.id, d.label FROM facts f JOIN dims d ON f.dim_id = d.did "
            "WHERE f.v + d.did > 2 ORDER BY f.id LIMIT 3",
            "SELECT d.label, SUM(f.v) AS s FROM facts f JOIN dims d ON f.dim_id = d.did "
            "WHERE f.v * 2 > 1 GROUP BY d.label ORDER BY s",
            "SELECT id, RANK() OVER (PARTITION BY dim_id ORDER BY v) AS r FROM facts",
            "SELECT label FROM dims WHERE did = 3",
        ):
            plan = db.compile(plan_query(db, sql), mode=mode)
            assert plan.logical.output_names() == plan.columns
            for node in _tree(plan.logical, lambda node: node.children()):
                assert len(set(node.output_names())) == len(node.output_names())
            text = plan.explain()
            assert all(op.describe() in text for op in _operators(plan.root))
            for at in range(len(list(_operators(plan.root)))):
                # A plan runs once (a join pushes its bitmap as it starts):
                # a fresh one for each operator run on its own.
                op = list(_operators(db.compile(plan_query(db, sql), mode=mode).root))[at]
                if isinstance(op, BatchOperator):
                    made = {name for batch in op.batches() for name in [*batch.names, *batch.encoded]}
                else:
                    made = {name for row in op.rows() for name in row}
                assert made == set(op.output_names), (sql, op.describe())

    def test_forced_batch_adapts_rowstore_scan(self, db):
        plan = db.explain("SELECT label FROM dims", mode="batch")
        assert "RowsToBatches" in plan

    def test_forced_row_uses_row_columnstore_scan(self, db):
        plan = db.explain("SELECT id FROM facts", mode="row")
        assert "RowColumnStoreScan" in plan

    def test_left_join_mixed(self, db):
        db.insert("facts", [(999, 77, 1.0)])  # dim 77 does not exist
        sql = (
            "SELECT f.id, d.label FROM facts f "
            "LEFT JOIN dims d ON f.dim_id = d.did WHERE f.id = 999"
        )
        assert db.sql(sql).rows == [(999, None)]

    def test_delta_rows_visible_in_mixed_join(self, db):
        db.insert("facts", [(1000, 3, 5.0)])  # trickle -> delta store
        sql = (
            "SELECT COUNT(*) AS n FROM facts f JOIN dims d ON f.dim_id = d.did "
            "WHERE f.id = 1000"
        )
        assert db.sql(sql).scalar() == 1


def _tree(node, children):
    yield node
    for child in children(node):
        yield from _tree(child, children)


def _operators(root):
    return _tree(root, lambda op: op.child_operators())


class TestBothStorageModeChoice:
    def test_auto_prefers_columnstore_for_both(self):
        db = Database()
        db.sql("CREATE TABLE t (a INT) USING both")
        db.sql("INSERT INTO t VALUES (1)")
        plan = db.explain("SELECT a FROM t")
        assert "ColumnStoreScan" in plan

    def test_row_mode_uses_heap_for_both(self):
        db = Database()
        db.sql("CREATE TABLE t (a INT) USING both")
        db.sql("INSERT INTO t VALUES (1)")
        plan = db.explain("SELECT a FROM t", mode="row")
        assert "RowTableScan" in plan
