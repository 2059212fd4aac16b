"""Server hardening: admission control, sheds, retries, drain accounting."""

import json
import socket
import threading
import time

import pytest

from repro.concurrency import ConcurrentDatabase
from repro.governance import get_query_registry
from repro.observability import registry as metrics
from repro.server import ReproServer, ServerClient, ServerError

SLOW_QUERY = "SELECT t1.a FROM t t1 JOIN t t2 ON t1.b = t2.b ORDER BY t1.a"


@pytest.fixture
def cdb():
    database = ConcurrentDatabase()
    with database.session("setup") as session:
        session.sql("CREATE TABLE t (a INT, b INT)")
        session.sql(
            "INSERT INTO t VALUES "
            + ", ".join(f"({i}, {i % 5})" for i in range(1500))
        )
    yield database
    database.close()


class TestStatementAdmission:
    def test_concurrent_statement_shed_is_retryable(self, cdb):
        server = ReproServer(cdb, max_statements=1)
        port = server.start()
        try:
            first = ServerClient("127.0.0.1", port)
            second = ServerClient("127.0.0.1", port, retries=0)
            result = {}

            def run_slow():
                result["slow"] = first.request(SLOW_QUERY)

            thread = threading.Thread(target=run_slow)
            thread.start()
            # Poll only once the slow statement holds the one slot: a
            # poll in flight when it *arrives* would get the slow
            # statement shed instead, and nothing after that ever is.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and len(get_query_registry()) == 0:
                time.sleep(0.005)
            assert len(get_query_registry()) == 1, "slow statement never started"
            shed = second.request("SELECT 1 FROM t WHERE a = 0")
            thread.join(timeout=30.0)
            assert not shed.get("ok"), "not shed despite max_statements=1"
            assert shed["kind"] == "AdmissionError"
            assert shed["retryable"] is True
            assert result["slow"]["ok"]
            first.close()
            second.close()
        finally:
            server.shutdown()

    def test_client_retry_rides_out_shed(self, cdb):
        server = ReproServer(cdb, max_statements=1)
        port = server.start()
        try:
            first = ServerClient("127.0.0.1", port)
            second = ServerClient("127.0.0.1", port, retries=8, backoff=0.1)
            result = {}

            def run_slow():
                result["slow"] = first.request(SLOW_QUERY)

            thread = threading.Thread(target=run_slow)
            thread.start()
            time.sleep(0.05)
            response = second.sql("SELECT count(*) FROM t")
            assert response["rows"] == [[1500]]
            thread.join(timeout=30.0)
            first.close()
            second.close()
        finally:
            server.shutdown()

    def test_shed_raises_server_error_when_retries_exhausted(self, cdb):
        server = ReproServer(cdb, max_statements=1)
        port = server.start()
        try:
            first = ServerClient("127.0.0.1", port)
            second = ServerClient("127.0.0.1", port, retries=1, backoff=0.001)
            done = threading.Event()

            def hold_slot():
                while not done.is_set():
                    first.request(SLOW_QUERY)

            thread = threading.Thread(target=hold_slot)
            thread.start()
            time.sleep(0.05)
            try:
                with pytest.raises(ServerError) as err:
                    # Bounded by time, not by a count: a fast enough point
                    # read finishes any fixed number of tries inside one
                    # gap between the slow queries.
                    deadline = time.monotonic() + 20.0
                    while time.monotonic() < deadline:
                        second.sql("SELECT 1 FROM t WHERE a = 0")
                assert err.value.kind == "AdmissionError"
                assert err.value.retryable is True
                assert isinstance(err.value, RuntimeError)  # old catchers
            finally:
                done.set()
                thread.join(timeout=30.0)
            first.close()
            second.close()
        finally:
            server.shutdown()


class TestConnectionAdmission:
    def test_connection_beyond_cap_gets_shed_payload(self, cdb):
        server = ReproServer(cdb, max_connections=1)
        port = server.start()
        try:
            keeper = ServerClient("127.0.0.1", port)
            keeper.sql("SELECT 1 FROM t WHERE a = 0")  # ensure registered
            extra = socket.create_connection(("127.0.0.1", port), timeout=5)
            line = extra.makefile("rb").readline()
            payload = json.loads(line)
            assert payload["ok"] is False
            assert payload["kind"] == "AdmissionError"
            assert payload["retryable"] is True
            extra.close()
            keeper.close()
        finally:
            server.shutdown()

    def test_slot_frees_when_connection_closes(self, cdb):
        server = ReproServer(cdb, max_connections=1)
        port = server.start()
        try:
            first = ServerClient("127.0.0.1", port)
            first.sql("SELECT 1 FROM t WHERE a = 0")
            first.close()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and server.connection_count:
                time.sleep(0.01)
            second = ServerClient("127.0.0.1", port)
            assert second.sql("SELECT count(*) FROM t")["rows"] == [[1500]]
            second.close()
        finally:
            server.shutdown()


class TestIdleTimeout:
    def test_idle_connection_is_dropped(self, cdb):
        server = ReproServer(cdb, idle_timeout=0.2)
        port = server.start()
        try:
            client = ServerClient("127.0.0.1", port)
            client.sql("SELECT 1 FROM t WHERE a = 0")
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and server.connection_count:
                time.sleep(0.05)
            assert server.connection_count == 0  # reaped, session closed
            client.close()
        finally:
            server.shutdown()


class TestDrainAccounting:
    def test_drain_expiry_counts_killed_connection(self, cdb):
        before = metrics.get_registry().counter("server.drain_killed")
        server = ReproServer(cdb)
        port = server.start()
        client = ServerClient("127.0.0.1", port)
        # A write waiting for the lock side a transaction holds is
        # mid-statement for as long as the test wants, whatever the speed
        # of the host (a slow SELECT no longer outlasts the drain).
        holder = cdb.session("holder")
        holder.sql("BEGIN")
        result = {}

        def run_blocked():
            try:
                result["blocked"] = client.request("INSERT INTO t VALUES (-1, 0)")
            except (ConnectionError, OSError):
                result["blocked"] = {"kind": "disconnected"}

        thread = threading.Thread(target=run_blocked)
        thread.start()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and len(get_query_registry()) == 0:
            time.sleep(0.005)
        assert len(get_query_registry()) == 1, "blocked write never started"
        server.shutdown(drain_seconds=0.1)
        thread.join(timeout=30.0)
        holder.sql("ROLLBACK")
        holder.close()
        assert not thread.is_alive()
        assert server.drain_killed == 1
        after = metrics.get_registry().counter("server.drain_killed")
        assert after >= before + 1
        client.close()

    def test_clean_drain_counts_nothing(self, cdb):
        server = ReproServer(cdb)
        port = server.start()
        client = ServerClient("127.0.0.1", port)
        client.sql("SELECT count(*) FROM t")
        server.shutdown()
        assert server.drain_killed == 0
        client.close()


class TestClientTimeouts:
    def test_connect_and_read_timeouts_are_separate(self, cdb):
        server = ReproServer(cdb)
        port = server.start()
        try:
            client = ServerClient(
                "127.0.0.1", port, timeout=30.0, connect_timeout=1.0
            )
            # Read timeout (not the 1s connect budget) governs the query:
            # a statement slower than connect_timeout still succeeds.
            assert client._sock.gettimeout() == 30.0
            response = client.sql(SLOW_QUERY)
            assert response["ok"]
            client.close()
        finally:
            server.shutdown()

    def test_short_read_timeout_fires_on_slow_statement(self, cdb):
        # The converse split: a generous connect budget must not extend
        # the read deadline — a statement slower than ``timeout`` raises.
        server = ReproServer(cdb)
        port = server.start()
        try:
            client = ServerClient(
                "127.0.0.1", port, timeout=0.05, connect_timeout=30.0
            )
            with pytest.raises(OSError):
                client.request(SLOW_QUERY)
            client.close()
        finally:
            server.shutdown()
