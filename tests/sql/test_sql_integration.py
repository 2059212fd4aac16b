"""End-to-end SQL tests against the full engine."""

import datetime

import pytest

from repro import Database, StoreConfig
from repro.bench.harness import same_answers
from repro.errors import BindingError, CatalogError


@pytest.fixture
def db():
    database = Database(
        StoreConfig(rowgroup_size=64, bulk_load_threshold=50, delta_close_rows=64)
    )
    database.sql(
        "CREATE TABLE sales (id INT NOT NULL, cust_id INT NOT NULL, "
        "amount DECIMAL(10,2), sale_date DATE, note VARCHAR)"
    )
    database.sql(
        "CREATE TABLE customers (cid INT NOT NULL, name VARCHAR, region VARCHAR)"
    )
    database.bulk_load(
        "sales",
        [
            (i, i % 5, round(1.5 * i, 2), f"2024-01-{i % 28 + 1:02d}", f"note{i % 3}")
            for i in range(200)
        ],
    )
    database.bulk_load(
        "customers", [(i, f"cust{i}", ["east", "west"][i % 2]) for i in range(5)]
    )
    return database


class TestSelect:
    def test_simple_projection(self, db):
        result = db.sql("SELECT id FROM sales WHERE id < 3 ORDER BY id")
        assert result.rows == [(0,), (1,), (2,)]

    def test_star(self, db):
        result = db.sql("SELECT * FROM customers ORDER BY cid LIMIT 1")
        assert result.rows == [(0, "cust0", "east")]

    def test_expressions(self, db):
        result = db.sql("SELECT id * 2 + 1 AS v FROM sales WHERE id = 10")
        assert result.rows == [(21,)]

    def test_date_presentation(self, db):
        result = db.sql("SELECT sale_date FROM sales WHERE id = 0")
        assert result.rows == [(datetime.date(2024, 1, 1),)]

    def test_decimal_presentation(self, db):
        result = db.sql("SELECT amount FROM sales WHERE id = 10")
        assert result.rows == [(15.0,)]

    def test_case_expression(self, db):
        result = db.sql(
            "SELECT CASE WHEN id < 100 THEN 'low' ELSE 'high' END AS bucket, "
            "COUNT(*) AS n FROM sales GROUP BY bucket ORDER BY bucket"
        )
        assert result.rows == [("high", 100), ("low", 100)]

    def test_distinct(self, db):
        result = db.sql("SELECT DISTINCT note FROM sales ORDER BY note")
        assert result.rows == [("note0",), ("note1",), ("note2",)]

    def test_limit(self, db):
        assert len(db.sql("SELECT id FROM sales LIMIT 7").rows) == 7

    def test_order_by_position(self, db):
        result = db.sql("SELECT id, amount FROM sales ORDER BY 2 DESC LIMIT 1")
        assert result.rows[0][0] == 199


class TestAggregates:
    def test_global_aggregates(self, db):
        result = db.sql(
            "SELECT COUNT(*) AS n, SUM(amount) AS s, MIN(id) AS lo, "
            "MAX(id) AS hi, AVG(amount) AS m FROM sales"
        )
        n, s, lo, hi, m = result.rows[0]
        assert n == 200
        assert lo == 0 and hi == 199
        assert s == pytest.approx(sum(round(1.5 * i, 2) for i in range(200)))
        assert m == pytest.approx(s / 200)

    def test_group_by(self, db):
        result = db.sql(
            "SELECT cust_id, COUNT(*) AS n FROM sales GROUP BY cust_id ORDER BY cust_id"
        )
        assert result.rows == [(i, 40) for i in range(5)]

    def test_having(self, db):
        result = db.sql(
            "SELECT note, COUNT(*) AS n FROM sales GROUP BY note "
            "HAVING COUNT(*) > 66 ORDER BY note"
        )
        assert all(n > 66 for _, n in result.rows)
        assert len(result.rows) == 2  # note0 and note1 have 67, note2 has 66

    def test_group_by_expression(self, db):
        result = db.sql(
            "SELECT month(sale_date) AS m, COUNT(*) AS n FROM sales GROUP BY m"
        )
        assert result.rows == [(1, 200)]

    def test_aggregate_arithmetic_in_select(self, db):
        result = db.sql("SELECT SUM(amount) / COUNT(*) AS mean FROM sales")
        assert result.rows[0][0] == pytest.approx(
            sum(round(1.5 * i, 2) for i in range(200)) / 200
        )

    def test_bare_column_not_in_group_by_rejected(self, db):
        with pytest.raises(BindingError):
            db.sql("SELECT id, COUNT(*) FROM sales GROUP BY cust_id")


class TestJoins:
    def test_inner_join(self, db):
        result = db.sql(
            "SELECT c.region, SUM(s.amount) AS total "
            "FROM sales s JOIN customers c ON s.cust_id = c.cid "
            "GROUP BY c.region ORDER BY c.region"
        )
        assert [r[0] for r in result.rows] == ["east", "west"]

    def test_left_join(self, db):
        db.sql("INSERT INTO sales VALUES (999, 77, 1.0, '2024-02-01', 'orphan')")
        result = db.sql(
            "SELECT s.id, c.name FROM sales s LEFT JOIN customers c "
            "ON s.cust_id = c.cid WHERE s.id = 999"
        )
        assert result.rows == [(999, None)]

    def test_join_filters_both_sides(self, db):
        result = db.sql(
            "SELECT COUNT(*) AS n FROM sales s JOIN customers c ON s.cust_id = c.cid "
            "WHERE c.region = 'east' AND s.id < 50"
        )
        expected = sum(1 for i in range(50) if (i % 5) % 2 == 0)
        assert result.scalar() == expected

    def test_three_way_join(self, db):
        db.sql("CREATE TABLE regions (rname VARCHAR NOT NULL, code INT)")
        db.insert("regions", [("east", 1), ("west", 2)])
        result = db.sql(
            "SELECT r.code, COUNT(*) AS n FROM sales s "
            "JOIN customers c ON s.cust_id = c.cid "
            "JOIN regions r ON r.rname = c.region "
            "GROUP BY r.code ORDER BY r.code"
        )
        assert len(result.rows) == 2

    def test_ambiguous_column_rejected(self, db):
        db.sql("CREATE TABLE other (id INT)")
        with pytest.raises(BindingError):
            db.sql("SELECT id FROM sales s JOIN other o ON o.id = s.id")


class TestDml:
    def test_insert_then_query(self, db):
        db.sql("INSERT INTO sales VALUES (1000, 1, 9.99, '2024-03-01', 'new')")
        result = db.sql("SELECT amount FROM sales WHERE id = 1000")
        assert result.rows == [(9.99,)]

    def test_insert_column_subset(self, db):
        db.sql("INSERT INTO customers (cid, name) VALUES (100, 'newbie')")
        result = db.sql("SELECT name, region FROM customers WHERE cid = 100")
        assert result.rows == [("newbie", None)]

    def test_delete(self, db):
        affected = db.sql("DELETE FROM sales WHERE cust_id = 3")
        assert affected.scalar() == 40
        assert db.sql("SELECT COUNT(*) AS n FROM sales").scalar() == 160

    def test_delete_everything(self, db):
        db.sql("DELETE FROM customers")
        assert db.sql("SELECT COUNT(*) AS n FROM customers").scalar() == 0

    def test_update_literal(self, db):
        db.sql("UPDATE sales SET note = 'patched' WHERE id = 5")
        assert db.sql("SELECT note FROM sales WHERE id = 5").scalar() == "patched"

    def test_update_expression(self, db):
        before = db.sql("SELECT amount FROM sales WHERE id = 10").scalar()
        db.sql("UPDATE sales SET amount = amount * 2 WHERE id = 10")
        after = db.sql("SELECT amount FROM sales WHERE id = 10").scalar()
        assert after == pytest.approx(before * 2)

    def test_update_date_literal(self, db):
        db.sql("UPDATE sales SET sale_date = '2025-12-25' WHERE id = 0")
        assert db.sql("SELECT sale_date FROM sales WHERE id = 0").scalar() == (
            datetime.date(2025, 12, 25)
        )

    def test_deleted_rows_invisible_to_joins(self, db):
        db.sql("DELETE FROM customers WHERE region = 'west'")
        result = db.sql(
            "SELECT COUNT(*) AS n FROM sales s JOIN customers c ON s.cust_id = c.cid"
        )
        expected = sum(1 for i in range(200) if (i % 5) % 2 == 0)
        assert result.scalar() == expected


class TestDdl:
    def test_create_and_drop(self, db):
        db.sql("CREATE TABLE temp (a INT)")
        db.sql("INSERT INTO temp VALUES (1)")
        db.sql("DROP TABLE temp")
        with pytest.raises(CatalogError):
            db.sql("SELECT * FROM temp")

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.sql("CREATE TABLE sales (a INT)")

    def test_storage_clause(self, db):
        db.sql("CREATE TABLE rs (a INT) USING rowstore")
        assert db.table("rs").columnstore is None
        db.sql("CREATE TABLE dual (a INT) USING both")
        assert db.table("dual").columnstore is not None
        assert db.table("dual").rowstore is not None


class TestModeEquivalence:
    QUERIES = [
        "SELECT COUNT(*) AS n FROM sales",
        "SELECT cust_id, SUM(amount) AS s FROM sales GROUP BY cust_id ORDER BY cust_id",
        "SELECT c.region, COUNT(*) AS n FROM sales s "
        "JOIN customers c ON s.cust_id = c.cid GROUP BY c.region ORDER BY c.region",
        "SELECT id FROM sales WHERE note LIKE 'note1%' AND amount > 50 ORDER BY id",
        "SELECT note, MIN(id) AS lo, MAX(id) AS hi FROM sales "
        "WHERE sale_date BETWEEN '2024-01-05' AND '2024-01-20' "
        "GROUP BY note ORDER BY note",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_every_arm_agrees(self, db, query):
        same_answers(db, query)
