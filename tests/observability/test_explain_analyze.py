"""EXPLAIN ANALYZE end to end: SQL, Result.stats, CLI, engine counters."""

from __future__ import annotations

import pytest

from repro import Database, StoreConfig, schema, types
from repro.cli import Shell


@pytest.fixture()
def db():
    """128 rows of ascending ``a`` in 16-row groups: 8 row groups whose
    segment [min, max] ranges tile [0, 128) — elimination is predictable."""
    db = Database(StoreConfig(rowgroup_size=16, bulk_load_threshold=8))
    db.create_table(
        "t",
        schema(("a", types.INT, False), ("g", types.INT), ("s", types.VARCHAR)),
    )
    db.bulk_load(
        "t",
        [(i, i % 3, ["red", "green", "blue"][i % 3]) for i in range(128)],
    )
    return db


class TestSegmentElimination:
    def test_eliminated_segment_count_matches_hand_built_layout(self, db):
        # a >= 112 qualifies only the last of the 8 groups: 7 eliminated.
        result = db.sql(
            "SELECT COUNT(*) AS n FROM t WHERE a >= 112", mode="batch", stats=True
        )
        assert result.rows == [(16,)]
        assert result.stats.counter("storage.scan.units_seen") == 8
        assert result.stats.counter("storage.scan.units_eliminated") == 7

    def test_full_range_predicate_eliminates_nothing(self, db):
        result = db.sql(
            "SELECT COUNT(*) AS n FROM t WHERE a >= 0", mode="batch", stats=True
        )
        assert result.stats.counter("storage.scan.units_eliminated") == 0

    def test_elimination_shows_in_rendered_plan(self, db):
        text = db.explain_analyze(
            "SELECT COUNT(*) AS n FROM t WHERE a >= 112", mode="batch"
        )
        assert "units_eliminated=7" in text
        assert "units_seen=8" in text


class TestSpillReporting:
    SQL = "SELECT a, s, COUNT(*) AS n FROM t GROUP BY a, s"

    def test_tiny_grant_reports_nonzero_spill_bytes(self, db):
        result = db.sql(self.SQL, mode="batch", stats=True, query_memory_budget=2048)
        assert result.stats.counter("exec.spill.bytes_written") > 0
        assert result.stats.counter("exec.spill.files") > 0
        # The spilling operator's own actuals carry the bytes too.
        assert any(o.runtime.spill_bytes > 0 for o in result.stats.operators)

    def test_ample_grant_spills_nothing(self, db):
        result = db.sql(self.SQL, mode="batch", stats=True)
        assert result.stats.counter("exec.spill.bytes_written") == 0

    def test_results_identical_with_and_without_spilling(self, db):
        ample = db.sql(self.SQL, mode="batch")
        starved = db.sql(self.SQL, mode="batch", stats=True, query_memory_budget=2048)
        assert sorted(ample.rows) == sorted(starved.rows)


class TestResultStatsHandle:
    def test_stats_off_by_default(self, db):
        assert db.sql("SELECT COUNT(*) AS n FROM t").stats is None

    def test_per_operator_actuals(self, db):
        result = db.sql(
            "SELECT g, COUNT(*) AS n FROM t WHERE a >= 64 GROUP BY g",
            mode="batch",
            stats=True,
        )
        scans = result.stats.find("Scan")
        assert scans and scans[0].runtime.rows == 64
        root = result.stats.operators[0]
        assert root.runtime.rows == len(result.rows)
        assert result.stats.elapsed_seconds > 0
        assert result.stats.row_count == len(result.rows)

    def test_row_mode_collects_too(self, db):
        result = db.sql(
            "SELECT COUNT(*) AS n FROM t WHERE a >= 112", mode="row", stats=True
        )
        assert result.rows == [(16,)]
        assert any(o.runtime.touched for o in result.stats.operators)

    def test_to_dict_round_trips_counters(self, db):
        result = db.sql("SELECT COUNT(*) AS n FROM t WHERE a >= 112",
                        mode="batch", stats=True)
        data = result.stats.to_dict()
        assert data["rows"] == 1
        assert data["counters"]["storage.scan.units_eliminated"] == 7
        assert data["operators"][0]["label"]


class TestEncodedAggregate:
    """An aggregate fed encoded vectors pulls the scan's ordinary
    ``batches()``: the scan's actuals come from the same instrumentation
    as any operator's, and its line says why columns were decoded."""

    def test_scan_actuals_under_code_space_group_by(self, db):
        result = db.sql(
            "SELECT s, COUNT(*) AS n FROM t WHERE a >= 64 GROUP BY s",
            mode="batch",
            stats=True,
        )
        assert sorted(result.rows) == [("blue", 21), ("green", 22), ("red", 21)]
        [scan] = result.stats.find("ColumnStoreScan")
        assert "encoded=['s']" in scan.label
        assert scan.runtime.rows == 64
        assert scan.runtime.batches == 4  # one whole-unit batch per surviving group
        assert scan.runtime.wall_seconds > 0
        assert scan.details["units_eliminated"] == 4
        assert "morph" not in scan.details and "agg_fallbacks" not in scan.details
        assert result.stats.counter("storage.scan.agg_code_space_groups") == 4 * 3
        [aggregate] = result.stats.find("BatchHashAggregate")
        assert aggregate.rows_in == 64

    def test_morph_reasons_on_the_scan_line(self, db):
        rendered = db.explain_analyze("SELECT g, COUNT(*) AS n, SUM(a) AS s FROM t GROUP BY g")
        [line] = [text for text in rendered.splitlines() if "morph:" in text]
        # g is bit-packed, so all 8 units decode their key and say so; the
        # grouped argument is taken as rows.
        assert "agg_fallbacks=8" in line
        assert "morph: key_not_dictionary=8 output=8" in line
        assert "storage.scan.morph.key_not_dictionary=8" in rendered


class TestExplainAnalyzeSql:
    def test_explain_analyze_statement_returns_plan_rows(self, db):
        result = db.sql("EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM t WHERE a >= 112")
        assert result.columns == ["plan"]
        text = "\n".join(line for (line,) in result.rows)
        assert "executed in" in text
        assert "* actual:" in text
        assert "units_eliminated=7" in text
        assert "storage counters" in text

    def test_plain_explain_does_not_execute(self, db):
        result = db.sql("EXPLAIN SELECT COUNT(*) AS n FROM t")
        text = "\n".join(line for (line,) in result.rows)
        assert "Scan" in text
        assert "* actual:" not in text

    def test_explain_rejects_insert_and_ddl(self, db):
        from repro.errors import SqlSyntaxError

        for statement in ("INSERT INTO t VALUES (1)", "DROP TABLE t"):
            with pytest.raises(SqlSyntaxError, match="SELECT, DELETE or UPDATE"):
                db.sql(f"EXPLAIN ANALYZE {statement}")


class TestCliStats:
    def test_stats_meta_command_toggles(self, db):
        shell = Shell(db)
        out = shell.run_meta("\\stats")
        assert out[0] == "stats is off"
        assert any("transactions:" in line for line in out)
        assert shell.run_meta("\\stats on") == ["stats on"]
        out = shell.run_sql("SELECT COUNT(*) AS n FROM t WHERE a >= 112;")
        assert any("* actual:" in line for line in out)
        assert any("units_eliminated=7" in line for line in out)
        assert shell.run_meta("\\stats off") == ["stats off"]
        out = shell.run_sql("SELECT COUNT(*) AS n FROM t;")
        assert not any("* actual:" in line for line in out)

    def test_shell_stats_flag(self, db):
        shell = Shell(db, stats=True)
        out = shell.run_sql("SELECT COUNT(*) AS n FROM t;")
        assert any("executed in" in line for line in out)

    def test_non_query_statements_unaffected(self, db):
        shell = Shell(db, stats=True)
        out = shell.run_sql("DELETE FROM t WHERE a < 0;")
        assert out[0].startswith("rows_affected")
