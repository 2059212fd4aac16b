"""The settings table (``repro.settings``): one declaration behind ``SET``,
``SHOW``, ``SHOW ALL`` and the statement keywords, at every front door."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro import ConcurrentDatabase, Database, StoreConfig
from repro.bench.harness import ARMS, EXCLUDED, REFERENCE
from repro.errors import BindingError, SqlSyntaxError
from repro.observability import MetricsRegistry
from repro.observability.registry import set_registry
from repro.server import ReproServer, ServerClient
from repro.settings import DEFAULTS, SETTINGS, render, resolve

# name -> (what SET writes, what SHOW returns)
ROUND_TRIPS = {
    "mode": ("row", "row"),
    "batch_size": ("1024", 1024),
    "enable_bitmaps": ("OFF", False),
    "enable_segment_elimination": ("FALSE", False),
    "enable_encoded_eval": ("0", False),
    "enable_encoded_agg": ("off", False),
    "statement_timeout": ("5000", 5000),
    "query_memory_budget": ("4096", 4096),
    "query_memory_limit": ("1048576", 1048576),
}

EXPLAIN = "EXPLAIN SELECT a FROM t"


@pytest.fixture
def db():
    database = Database()
    database.sql("CREATE TABLE t (a INT, b INT)")
    database.sql("INSERT INTO t VALUES (1, 10), (2, 20)")
    return database


@pytest.fixture
def session(db):
    cdb = ConcurrentDatabase(db)
    with cdb.session("s") as s:
        yield s
    cdb.close()


def show(door, name):
    return door.sql(f"SHOW {name}").scalar()


def engine(door, **overrides):
    """The execution mode EXPLAIN reports for a columnstore scan."""
    text = "\n".join(row[0] for row in door.sql(EXPLAIN, **overrides).rows)
    return re.search(r"\((\w+) mode\)", text).group(1)


def test_the_round_trips_cover_the_table():
    assert list(ROUND_TRIPS) == list(SETTINGS)


def test_every_setting_is_a_differential_arm_or_excluded_by_name():
    """A new setting joins every differential by existing in the table,
    unless it is a limit that fails statements instead of running them
    another way."""
    armed = {name for arm in ARMS for name in arm.settings} | set(REFERENCE)
    assert armed.isdisjoint(EXCLUDED)
    assert sorted(armed | set(EXCLUDED)) == sorted(SETTINGS)
    assert all(SETTINGS[name].kind == "limit" for name in EXCLUDED)


@pytest.mark.parametrize("name", list(ROUND_TRIPS))
def test_every_name_round_trips_through_set_and_show(session, name):
    written, shown = ROUND_TRIPS[name]
    session.sql(f"SET {name} = {written}")
    assert show(session, name) == shown
    session.sql(f"SET {name} TO DEFAULT")
    default = SETTINGS[name].default
    assert show(session, name) == (0 if SETTINGS[name].kind == "limit" else default)


@pytest.mark.parametrize("word, value", [
    ("ON", True), ("OFF", False), ("TRUE", True), ("FALSE", False),
    ("1", True), ("0", False), ("'on'", True),
])
def test_a_boolean_reads_every_spelling(db, word, value):
    db.sql(f"SET enable_bitmaps = {word}")
    assert db.settings["enable_bitmaps"] is value
    assert show(db, "enable_bitmaps") is value


@pytest.mark.parametrize("word", ["OFF", "0"])
def test_a_limits_off_or_zero_is_no_limit_and_overrides_the_database(db, session, word):
    db.sql("SET statement_timeout = 60000")
    session.sql(f"SET statement_timeout = {word}")
    assert show(session, "statement_timeout") == 0
    assert session.settings["statement_timeout"] is None
    assert show(db, "statement_timeout") == 60000
    assert db.new_query_context(settings=resolve(db.settings, session.settings)).timeout_ms is None


@pytest.mark.parametrize("name, value", [
    ("enable_bitmaps", "2"),
    ("enable_bitmaps", "'maybe'"),
    ("batch_size", "0"),
    ("batch_size", "1.5"),
    ("mode", "'fast'"),
    ("statement_timeout", "ON"),
    ("query_memory_limit", "'big'"),
])
def test_a_value_of_the_wrong_kind_is_a_syntax_error(db, name, value):
    with pytest.raises(SqlSyntaxError, match=name):
        db.sql(f"SET {name} = {value}")
    assert name not in db.settings


@pytest.mark.parametrize("statement", ["SET wibble = 1", "SHOW wibble"])
def test_an_unknown_name_is_a_binding_error_listing_the_table(db, statement):
    with pytest.raises(BindingError) as err:
        db.sql(statement)
    assert all(name in str(err.value) for name in SETTINGS)


def test_an_unknown_statement_keyword_is_a_type_error(db):
    with pytest.raises(TypeError, match="enable_bitmap "):
        db.sql("SELECT a FROM t", enable_bitmap=False)


def test_precedence_is_database_then_session_then_statement(db, session):
    assert engine(session) == "batch"
    db.sql("SET mode = row")  # the facade's SET writes the database scope
    assert engine(session) == "row" and engine(db) == "row"
    session.sql("SET mode = batch")
    assert engine(session) == "batch" and engine(db) == "row"
    assert engine(session, mode="row") == "row"
    assert engine(session) == "batch"  # a statement's keywords last one statement
    assert resolve({"batch_size": 1}, {"batch_size": 2}, {"batch_size": 3})["batch_size"] == 3
    assert resolve({"batch_size": 1}, {"batch_size": 2})["batch_size"] == 2
    assert resolve({"batch_size": 1})["batch_size"] == 1
    assert resolve({}) == DEFAULTS


def test_show_all_returns_exactly_the_table(db, session):
    rows = session.sql("SHOW ALL").rows
    assert rows == [(n, render(s, s.default), "default") for n, s in SETTINGS.items()]
    db.sql("SET statement_timeout = 5000")
    session.sql("SET enable_encoded_agg = OFF")
    session.sql("SET mode = row")
    scopes = {name: (value, scope) for name, value, scope in session.sql("SHOW ALL").rows}
    assert scopes["statement_timeout"] == ("5000", "database")
    assert scopes["enable_encoded_agg"] == ("off", "session")
    assert scopes["mode"] == ("row", "session")
    assert scopes["batch_size"] == (str(DEFAULTS["batch_size"]), "default")
    facade = {name: scope for name, _, scope in db.sql("SHOW ALL").rows}
    assert facade["statement_timeout"] == "database" and facade["mode"] == "default"


def test_the_readme_settings_table_matches_the_registered_names():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("### Settings", 1)[1].split("\n\n| setting |", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| (\w+) \| `([^`]*)` \| .* \|$", table, re.M)
    assert rows == [(name, s.kind, render(s, s.default)) for name, s in SETTINGS.items()]


# ---------------------------------------------------------------------- #
# A session-scope SET reaches the physical builder over `repro serve`
# ---------------------------------------------------------------------- #
GROUP_SQL = "SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM kv GROUP BY grp ORDER BY grp"


@pytest.fixture
def served_kv():
    """The suite's htap table, small: rows reordered per row group, so
    ``grp`` is one run per value in every group."""
    db = Database(StoreConfig(rowgroup_size=1024, bulk_load_threshold=1))
    db.sql("CREATE TABLE kv (k INT NOT NULL, grp INT NOT NULL, v INT NOT NULL)")
    rng = np.random.default_rng(5)
    n = 2 * 1024
    db.bulk_load("kv", list(zip(
        range(n), rng.integers(0, 10, n).tolist(), rng.integers(0, 1000, n).tolist()
    )))
    cdb = ConcurrentDatabase(db)
    server = ReproServer(cdb)
    port = server.start()
    yield port
    server.shutdown()
    cdb.close()


def test_set_on_a_served_connection_reaches_the_physical_builder(served_kv):
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        with ServerClient("127.0.0.1", served_kv) as client:
            def grouped():
                before = registry.snapshot()
                rows = client.sql(GROUP_SQL)["rows"]
                after = registry.snapshot()
                return rows, {name: after.get(name, 0) - before.get(name, 0) for name in (
                    "storage.scan.morph.output", "storage.scan.agg_runs_processed")}

            encoded, encoded_counts = grouped()
            assert client.sql("SET enable_encoded_agg = 0")["columns"] is None
            assert client.sql("SHOW enable_encoded_agg")["rows"] == [[False]]
            decoded, decoded_counts = grouped()
    finally:
        set_registry(previous)
    assert decoded == encoded and len(encoded) == 10
    assert encoded_counts["storage.scan.agg_runs_processed"] > 0
    assert decoded_counts["storage.scan.agg_runs_processed"] == 0
    assert decoded_counts["storage.scan.morph.output"] > encoded_counts["storage.scan.morph.output"]
