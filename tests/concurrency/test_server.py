"""Embedded server: protocol, per-connection sessions, graceful shutdown."""

import json
import socket
import threading
import time

import pytest

from repro.concurrency import ConcurrentDatabase
from repro.server import ReproServer, ServerClient


@pytest.fixture
def served():
    cdb = ConcurrentDatabase()
    with cdb.session("setup") as s:
        s.sql("CREATE TABLE t (a INT NOT NULL, b VARCHAR(10))")
        s.sql("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
    server = ReproServer(cdb)
    port = server.start()
    yield server, port
    server.shutdown()
    cdb.close()


def connect(port):
    return ServerClient("127.0.0.1", port)


class TestProtocol:
    def test_query_roundtrip(self, served):
        _server, port = served
        with connect(port) as client:
            response = client.sql("SELECT a, b FROM t ORDER BY a")
            assert response["columns"] == ["a", "b"]
            assert response["rows"] == [[1, "x"], [2, "y"]]
            assert response["rowcount"] == 2

    def test_dml_and_ddl(self, served):
        _server, port = served
        with connect(port) as client:
            assert client.sql("INSERT INTO t VALUES (3, 'z')")["rows"] == [[1]]
            assert client.sql("CREATE TABLE u (x INT)")["columns"] is None

    def test_sql_error_reported_not_fatal(self, served):
        _server, port = served
        with connect(port) as client:
            response = client.request("SELEC 1")
            assert response["ok"] is False
            assert response["kind"] == "SqlSyntaxError"
            # Connection still usable afterwards.
            assert client.sql("SELECT COUNT(*) AS c FROM t")["rows"] == [[2]]

    @pytest.mark.parametrize(
        "sql",
        ["SELECT 1.2.3 FROM t", "SELECT a FROM t WHERE a = 1e",
         "SELECT a FROM t WHERE a = 1e+", "SELECT a FROM t WHERE a = 9223372036854775808"],
    )
    def test_malformed_number_is_a_syntax_error(self, served, sql):
        _server, port = served
        with connect(port) as client:
            response = client.request(sql)
            assert response["ok"] is False
            assert response["kind"] == "SqlSyntaxError"
            assert response["retryable"] is False

    def test_malformed_request_reported(self, served):
        _server, port = served
        with connect(port) as client:
            client._sock.sendall(b"this is not json\n")
            response = json.loads(client._reader.readline())
            assert response["ok"] is False and response["kind"] == "Protocol"

    def test_non_json_values_stringified(self, served):
        _server, port = served
        with connect(port) as client:
            client.sql("CREATE TABLE d (day DATE)")
            client.sql("INSERT INTO d VALUES ('2013-06-22')")
            response = client.sql("SELECT day FROM d")
            assert response["rows"] == [["2013-06-22"]]


class TestSessions:
    def test_one_session_per_connection_txn_isolation(self, served):
        _server, port = served
        with connect(port) as a, connect(port) as b:
            a.sql("BEGIN")
            a.sql("INSERT INTO t VALUES (3, 'z')")
            response = b.request("COMMIT")
            assert response["ok"] is False and "owned by" in response["error"]
            a.sql("COMMIT")
            assert b.sql("SELECT COUNT(*) AS c FROM t")["rows"] == [[3]]

    def test_dropped_connection_rolls_back(self, served):
        server, port = served
        client = connect(port)
        client.sql("BEGIN")
        client.sql("INSERT INTO t VALUES (99, 'q')")
        client.close()
        deadline = time.monotonic() + 5.0
        while server.connection_count and time.monotonic() < deadline:
            time.sleep(0.01)
        with connect(port) as fresh:
            assert fresh.sql("SELECT COUNT(*) AS c FROM t")["rows"] == [[2]]

    def test_many_concurrent_clients(self, served):
        _server, port = served
        errors = []

        def worker(i):
            try:
                with connect(port) as client:
                    client.sql(f"INSERT INTO t VALUES ({10 + i}, 'w')")
                    rows = client.sql("SELECT COUNT(*) AS c FROM t")["rows"]
                    assert rows[0][0] >= 3
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        with connect(port) as client:
            assert client.sql("SELECT COUNT(*) AS c FROM t")["rows"] == [[10]]


class TestShutdown:
    def test_shutdown_disconnects_idle_clients(self, served):
        server, port = served
        client = connect(port)
        client.sql("SELECT a FROM t")
        server.shutdown()
        with pytest.raises((ConnectionError, OSError)):
            client.request("SELECT a FROM t")
        client.close()

    def test_shutdown_refuses_new_connections(self, served):
        server, port = served
        server.shutdown()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1.0)

    def test_shutdown_leaves_no_threads(self, served):
        server, port = served
        clients = [connect(port) for _ in range(3)]
        for i, client in enumerate(clients):
            client.sql(f"INSERT INTO t VALUES ({10 + i}, 'w')")
        server.shutdown()
        for client in clients:
            client.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(
            t.name.startswith("repro-server") for t in threading.enumerate()
        ):
            time.sleep(0.01)
        leaked = [
            t.name for t in threading.enumerate() if t.name.startswith("repro-server")
        ]
        assert leaked == []

    def test_shutdown_twice_is_safe(self, served):
        server, _port = served
        server.shutdown()
        server.shutdown()


class TestWireEncoding:
    """Rows leave as the result's own tuples through one encoder built
    once: the bytes are those of the per-call json.dumps of copied lists."""

    @staticmethod
    def _before(result) -> bytes:
        if result is None:
            payload = {"ok": True, "columns": None, "rows": None, "rowcount": 0}
        else:
            rows = [list(row) for row in result.rows]
            payload = {"ok": True, "columns": list(result.columns), "rows": rows,
                       "rowcount": len(rows)}
        return (json.dumps(payload, default=str) + "\n").encode("utf-8")

    def test_bytes_unchanged(self):
        from repro import Database
        from repro.server.server import _encode, _result_payload

        db = Database()
        db.sql("CREATE TABLE w (i INT, d DATE, m DECIMAL(8, 2), f FLOAT, s VARCHAR)")
        db.sql("INSERT INTO w VALUES (1, '2024-02-29', 12.5, 0.1, 'it''s \"q\"'), "
               "(NULL, NULL, NULL, NULL, NULL), (3, '1970-01-01', -0.05, -1e300, 'ñandú 日本 \\')")
        for sql in ("SELECT * FROM w", "SELECT * FROM w WHERE i = 99",
                    "SELECT COUNT(*) AS n, SUM(m) AS s FROM w", "INSERT INTO w (i) VALUES (4)",
                    "CREATE TABLE z (a INT)"):
            result = db.sql(sql)
            assert _encode(_result_payload(result)) == self._before(result), sql
