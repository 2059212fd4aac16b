"""Tests for the SQL shell (I/O-free core)."""

import pytest

from repro.cli import Shell, format_result
from repro.db.database import Result
from repro import types


class TestFormatResult:
    def test_alignment_and_count(self):
        result = Result(
            columns=["name", "n"],
            dtypes=[types.VARCHAR, types.BIGINT],
            rows=[("alpha", 1), ("b", 22)],
        )
        text = format_result(result)
        lines = text.split("\n")
        assert lines[0].startswith("name")
        assert "(2 rows)" in text

    def test_null_rendering(self):
        result = Result(columns=["x"], dtypes=[types.INT], rows=[(None,)])
        assert "NULL" in format_result(result)

    def test_truncation(self):
        result = Result(
            columns=["x"], dtypes=[types.INT], rows=[(i,) for i in range(100)]
        )
        text = format_result(result, max_rows=5)
        assert "100 rows total" in text
        assert text.count("\n") < 12


@pytest.fixture
def shell():
    return Shell()


def feed(shell, *lines):
    out = []
    for line in lines:
        out.extend(shell.feed_line(line))
    return "\n".join(out)


class TestShell:
    def test_ddl_dml_query(self, shell):
        assert feed(shell, "CREATE TABLE t (a INT, b VARCHAR);") == "ok"
        out = feed(shell, "INSERT INTO t VALUES (1, 'x');")
        assert "rows_affected" in out
        out = feed(shell, "SELECT a, b FROM t;")
        assert "1 | x" in out

    def test_multiline_statement(self, shell):
        feed(shell, "CREATE TABLE t (a INT);")
        out = feed(shell, "SELECT a", "FROM t;")
        assert "(0 rows)" in out

    def test_prompt_reflects_buffer(self, shell):
        assert shell.prompt == "repro=> "
        shell.feed_line("SELECT 1")
        assert shell.prompt == "   ...> "

    def test_error_reported_not_raised(self, shell):
        out = feed(shell, "SELECT * FROM ghost;")
        assert out.startswith("error:")

    def test_syntax_error_reported(self, shell):
        out = feed(shell, "SELEKT;")
        assert out.startswith("error:")

    def test_quit(self, shell):
        shell.run_meta("\\q")
        assert not shell.running

    def test_tables_and_schema(self, shell):
        feed(shell, "CREATE TABLE t (a INT NOT NULL, b VARCHAR) USING both;")
        out = "\n".join(shell.run_meta("\\tables"))
        assert "t" in out and "both" in out
        out = "\n".join(shell.run_meta("\\schema t"))
        assert "a INT NOT NULL" in out

    def test_sizes(self, shell):
        feed(shell, "CREATE TABLE t (a INT);", "INSERT INTO t VALUES (1);")
        out = "\n".join(shell.run_meta("\\sizes t"))
        assert "columnstore" in out

    def test_mode_switch(self, shell):
        assert "batch" in shell.run_meta("\\mode batch")[0]
        assert shell.mode == "batch"
        assert "current mode" in shell.run_meta("\\mode nonsense")[0]

    def test_timing_toggle(self, shell):
        shell.run_meta("\\timing on")
        feed(shell, "CREATE TABLE t (a INT);")
        out = feed(shell, "SELECT a FROM t;")
        assert "time:" in out

    def test_explain(self, shell):
        feed(shell, "CREATE TABLE t (a INT);")
        out = "\n".join(shell.run_meta("\\explain SELECT a FROM t"))
        assert "ColumnStoreScan" in out

    def test_unknown_meta(self, shell):
        assert "unknown command" in shell.run_meta("\\bogus")[0]

    def test_help(self, shell):
        out = "\n".join(shell.run_meta("\\help"))
        assert "\\tables" in out

    def test_mover_and_rebuild(self, shell):
        feed(shell, "CREATE TABLE t (a INT);", "INSERT INTO t VALUES (1), (2);")
        out = "\n".join(shell.run_meta("\\mover t"))
        assert "moved 2 rows" in out
        assert shell.run_meta("\\rebuild t") == ["rebuilt t"]

    def test_save_and_open(self, shell, tmp_path):
        feed(shell, "CREATE TABLE t (a INT);", "INSERT INTO t VALUES (7);")
        target = str(tmp_path / "db")
        shell.run_meta(f"\\save {target}")
        fresh = Shell()
        out = "\n".join(fresh.run_meta(f"\\open {target}"))
        assert "1 tables" in out
        assert "7" in feed(fresh, "SELECT a FROM t;")

    def test_blank_lines_ignored(self, shell):
        assert shell.feed_line("") == []
        assert shell.feed_line("   ") == []


class TestExplainAnalyze:
    def test_database_api(self):
        from repro import Database

        db = Database()
        db.sql("CREATE TABLE t (a INT NOT NULL, g VARCHAR)")
        db.bulk_load("t", [(i, f"g{i % 3}") for i in range(200)])
        text = db.explain_analyze("SELECT g, COUNT(*) AS n FROM t WHERE a > 50 GROUP BY g")
        assert "executed in" in text
        assert "rows_scanned=200" in text
        assert "groups=3" in text

    def test_meta_command(self):
        shell = Shell()
        feed(shell, "CREATE TABLE t (a INT);", "INSERT INTO t VALUES (1), (2);")
        out = "\n".join(shell.run_meta("\\analyze SELECT a FROM t WHERE a > 1"))
        assert "executed in" in out
        assert "ColumnStoreScan" in out

    def test_join_stats_reported(self):
        from repro import Database

        db = Database()
        db.sql("CREATE TABLE f (k INT NOT NULL)")
        db.sql("CREATE TABLE d (id INT NOT NULL, t VARCHAR)")
        db.bulk_load("f", [(i % 5,) for i in range(100)])
        db.bulk_load("d", [(i, "x") for i in range(5)])
        text = db.explain_analyze(
            "SELECT COUNT(*) AS n FROM f JOIN d ON f.k = d.id"
        )
        assert "build_rows=5" in text
        assert "probe_rows=100" in text


class TestMainExitCodes:
    """`python -m repro` is scriptable: corruption, failed opens and
    usage errors must surface as nonzero exit codes, not just printed
    text with a lying `0`."""

    @staticmethod
    def _saved_dir(tmp_path):
        from repro import Database

        target = tmp_path / "db"
        db = Database.open(str(target), durability="per-commit")
        db.sql("CREATE TABLE t (id INT NOT NULL)")
        db.sql("INSERT INTO t VALUES (1), (2)")
        db.save(str(target))
        db.close()
        return target

    @staticmethod
    def _corrupt_manifest(target):
        from repro.storage.snapshot import MANIFEST_NAME

        path = target / MANIFEST_NAME
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x10
        path.write_bytes(bytes(data))

    def test_check_without_directory_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["check"]) == 2
        assert "usage" in capsys.readouterr().out

    def test_check_missing_directory_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["check", str(tmp_path / "nope")]) == 1

    def test_check_clean_directory_passes(self, tmp_path, capsys):
        from repro.cli import main

        target = self._saved_dir(tmp_path)
        assert main(["check", str(target)]) == 0

    def test_check_corruption_fails(self, tmp_path, capsys):
        from repro.cli import main

        target = self._saved_dir(tmp_path)
        self._corrupt_manifest(target)
        assert main(["check", str(target)]) == 1

    def test_open_corrupt_directory_fails(self, tmp_path, capsys):
        from repro.cli import main

        target = self._saved_dir(tmp_path)
        self._corrupt_manifest(target)
        assert main([str(target)]) == 1

    def test_open_clean_directory_runs_shell(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        target = self._saved_dir(tmp_path)

        def no_stdin(prompt=""):
            raise EOFError

        monkeypatch.setattr("builtins.input", no_stdin)
        assert main([str(target)]) == 0

    def test_durability_flag_without_value_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["--durability"]) == 2

    def test_check_reports_orphan_blobs_without_failing(self, tmp_path, capsys):
        from repro.cli import main

        target = self._saved_dir(tmp_path)
        orphan = target / "segments" / "t" / "rowgroups" / "g9.a.0badf00d.seg"
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"left by an interrupted save")
        assert main(["check", str(target)]) == 0
        out = capsys.readouterr().out
        assert "segments/t/rowgroups/g9.a.0badf00d.seg: orphan" in out
        assert "result: ok" in out

    def test_stats_shows_what_saves_wrote_and_reused(self, tmp_path):
        from repro import Database, StoreConfig
        from repro.cli import Shell
        from repro.observability import MetricsRegistry
        from repro.observability.registry import set_registry

        previous = set_registry(MetricsRegistry())
        try:
            db = Database(StoreConfig(rowgroup_size=16, bulk_load_threshold=8))
            db.sql("CREATE TABLE t (a INT)")
            db.bulk_load("t", [(i,) for i in range(32)])
            shell = Shell(db)
            shell.run_meta(f"\\save {tmp_path / 'db'}")
            db.sql("INSERT INTO t VALUES (-1)")
            shell.run_meta(f"\\save {tmp_path / 'db'}")
            out = shell.run_meta("\\stats")
        finally:
            set_registry(previous)
        line = next(line for line in out if line.startswith("snapshots:"))
        assert " 2 segment blobs reused" in line and "bytes checksummed" in line

    def test_stats_shows_statement_shapes(self):
        from repro.cli import Shell
        from repro.observability import MetricsRegistry
        from repro.observability.registry import STABLE_COUNTERS, set_registry

        previous = set_registry(MetricsRegistry())
        try:
            shell = Shell()
            feed(shell, "CREATE TABLE t (a INT, b VARCHAR);")
            for key in range(1, 11):
                feed(shell, f"INSERT INTO t VALUES ({key}, 'x');")
            out = shell.run_meta("\\stats")
        finally:
            set_registry(previous)
        line = next(line for line in out if line.startswith("statement shapes:"))
        assert line == ("statement shapes: 9 hits, 1 misses, 0 evicted; "
                        "not kept: 0 join, 0 subquery, 1 statement")
        for name in ("hits", "misses", "evicted", "not_kept.join", "not_kept.subquery",
                     "not_kept.statement"):
            assert f"sql.shapes.{name}" in STABLE_COUNTERS
