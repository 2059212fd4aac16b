"""Embedded SQL server: one session per connection over TCP.

``repro serve <dir>`` hosts a durable database on a local socket. Each
request is one JSON line; so is every answer but a result set, which is
a JSON header line followed by its columns as binary frames
(:mod:`repro.server.wire`):

    → {"sql": "SELECT a, s FROM t"}
    ← {"ok": true, "columns": ["a", "s"], "rowcount": 2, "frames": ["q", ["x", "y"]]}
    ← <a: NULL bitmap, 2 x int64>
    → {"sql": "CREATE TABLE u (a INT)"}
    ← {"ok": true, "columns": null, "rows": null, "rowcount": 0}
    → {"op": "metrics"}
    ← {"ok": true, "metrics": {"storage.scan.rows_scanned": 200000, ...}}
    → {"sql": "SELEC"}
    ← {"ok": false, "error": "...", "kind": "SqlSyntaxError", "retryable": false}

The frames are there because the text was the cost: a 1,000-row,
4-column fetch spent 59 % of its time writing every value as JSON and
parsing it back (EXPERIMENTS.md, E18 addendum). :class:`ServerClient`
reads frames back into the payload a JSON-lines answer gave — ``rows``
as lists, dates and decimals as ``json.dumps(..., default=str)`` writes
them. ``{"op": "metrics"}`` answers with the server process's metrics
registry (a client's own registry cannot see it). Each connection owns
one :class:`Session`, so BEGIN / COMMIT / ROLLBACK have per-connection
semantics and a dropped connection rolls its open transaction back.

Shutdown is graceful: the listener closes immediately, idle
connections are disconnected, and connections mid-statement finish and
send their response before closing (drain, bounded by a timeout). A
connection still running when the drain budget expires is severed and
counted in the ``server.drain_killed`` metric.

The server also applies **admission control**: beyond
``max_connections`` concurrent clients (plus a bounded listen backlog)
new connections are turned away with a retryable ``AdmissionError``
payload, and beyond ``max_statements`` concurrently-executing
statements (a metrics request counts as one) a request is shed the same
way instead of queueing without bound. Every error payload carries
``retryable`` so clients know whether backing off and retrying can
succeed — :class:`ServerClient.sql` does exactly that with jittered
exponential backoff.
"""

from __future__ import annotations

import json
import logging
import random
import socket
import threading
import time
from typing import Any

from ..errors import ConcurrencyError, ReproError
from .. import __version__ as _version
from ..concurrency import ConcurrentDatabase
from ..observability import registry as metrics
from .wire import encode_line, encode_result, read_response

logger = logging.getLogger("repro.server")

DEFAULT_HOST = "127.0.0.1"
SHUTDOWN_DRAIN_SECONDS = 30.0
DEFAULT_MAX_CONNECTIONS = 64
DEFAULT_MAX_STATEMENTS = 16
DEFAULT_LISTEN_BACKLOG = 16


def _result_message(result) -> bytes:
    if result is None:  # DDL / txn control
        return encode_line({"ok": True, "columns": None, "rows": None, "rowcount": 0})
    return encode_result(result.columns, result.dtypes, result.rows)


def _error_line(error: str, kind: str, retryable: bool) -> bytes:
    """An error response; ``retryable`` tells the client a backoff-and-
    retry can succeed (shed, lock timeout, cancelled — not syntax errors)."""
    return encode_line({"ok": False, "error": error, "kind": kind, "retryable": retryable})


class _Connection:
    """One client connection: a socket, a session, a handler thread."""

    def __init__(self, server: "ReproServer", sock: socket.socket, session) -> None:
        self.server = server
        self.sock = sock
        self.session = session
        self.busy = threading.Event()  # set while a statement executes
        self.thread: threading.Thread | None = None

    def serve(self) -> None:
        reader = self.sock.makefile("rb")
        try:
            for raw in reader:
                line = raw.strip()
                if not line:
                    continue
                response = self._handle_line(line)
                try:
                    self.sock.sendall(response)
                except OSError:
                    break  # client went away mid-response
                if self.server.stopping:
                    break
        except OSError:
            pass  # connection reset / closed under us — normal teardown
        finally:
            self.busy.clear()
            try:
                reader.close()
            except OSError:
                pass
            self.close()
            self.server._forget(self)

    def _handle_line(self, line: bytes) -> bytes:
        """Answer one request: a statement (``{"sql": ...}``) or the
        metrics registry's snapshot (``{"op": "metrics"}``)."""
        try:
            request = json.loads(line)
            sql = request["sql"] if "op" not in request else None
            if sql is None and request["op"] != "metrics":
                raise ValueError(f"unknown op {request['op']!r}")
        except (ValueError, KeyError, TypeError) as exc:
            return _error_line(f"bad request: {exc}", "Protocol", retryable=False)
        if not self.server._statement_slots.acquire(blocking=False):
            # Statement-level admission: at max_statements concurrent
            # executions, shed instead of queueing without bound.
            metrics.increment("governance.statements_shed")
            return _error_line(
                f"server at max_statements={self.server.max_statements} "
                "concurrent statements — retry with backoff",
                "AdmissionError",
                retryable=True,
            )
        self.busy.set()
        try:
            if sql is None:
                return encode_line({"ok": True, "metrics": metrics.get_registry().snapshot()})
            return _result_message(self.session.sql(sql))
        except ReproError as exc:
            return _error_line(str(exc), type(exc).__name__, retryable=bool(exc.retryable))
        except Exception as exc:  # engine bug — report, keep serving
            return _error_line(str(exc), type(exc).__name__, retryable=False)
        finally:
            self.busy.clear()
            self.server._statement_slots.release()

    def close(self) -> None:
        try:
            self.session.close()
        finally:
            try:
                self.sock.close()
            except OSError:
                pass


class ReproServer:
    """Serve a :class:`ConcurrentDatabase` on a local TCP socket."""

    def __init__(
        self,
        cdb: ConcurrentDatabase,
        host: str = DEFAULT_HOST,
        port: int = 0,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        max_statements: int = DEFAULT_MAX_STATEMENTS,
        idle_timeout: float | None = None,
        listen_backlog: int = DEFAULT_LISTEN_BACKLOG,
    ) -> None:
        self.cdb = cdb
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self.stopping = False
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[_Connection] = set()
        self._conn_lock = threading.Lock()
        # Admission control: connection cap, statement cap, and a bounded
        # accept backlog so overload turns into fast sheds, not queues.
        self.max_connections = max(1, int(max_connections))
        self.max_statements = max(1, int(max_statements))
        self.idle_timeout = idle_timeout
        self._listen_backlog = max(1, int(listen_backlog))
        self._statement_slots = threading.Semaphore(self.max_statements)
        self.drain_killed = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> int:
        """Bind and start accepting; returns the bound port."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(self._listen_backlog)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self.port

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self.stopping:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                break  # listener closed: shutdown
            if self.connection_count >= self.max_connections:
                # Connection-level admission: answer with a retryable
                # shed instead of letting the client hang in the backlog.
                metrics.increment("governance.statements_shed")
                try:
                    sock.sendall(
                        _error_line(
                            f"server at max_connections={self.max_connections}"
                            " — retry with backoff",
                            "AdmissionError",
                            retryable=True,
                        )
                    )
                except OSError:
                    pass
                sock.close()
                continue
            try:
                session = self.cdb.session()
            except ConcurrencyError:
                sock.close()  # database closing underneath us
                break
            if self.idle_timeout is not None:
                # Bounds both idle reads and stuck writes: a connection
                # that neither sends nor drains for this long is dropped
                # (its session rolls back in close()).
                sock.settimeout(self.idle_timeout)
            connection = _Connection(self, sock, session)
            with self._conn_lock:
                if self.stopping:
                    connection.close()
                    continue
                self._connections.add(connection)
            thread = threading.Thread(
                target=connection.serve,
                name=f"repro-server-{session.name}",
                daemon=True,
            )
            connection.thread = thread
            thread.start()

    def _forget(self, connection: _Connection) -> None:
        with self._conn_lock:
            self._connections.discard(connection)

    @property
    def connection_count(self) -> int:
        with self._conn_lock:
            return len(self._connections)

    def shutdown(self, drain_seconds: float = SHUTDOWN_DRAIN_SECONDS) -> None:
        """Stop accepting, drain in-flight statements, close everything.

        Idle connections are disconnected immediately; a connection in
        the middle of a statement gets to finish it and send the
        response. Safe to call twice.
        """
        if self.stopping:
            return
        self.stopping = True
        if self._listener is not None:
            # shutdown() before close(): on Linux, close() alone does
            # not wake a thread blocked in accept().
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conn_lock:
            connections = list(self._connections)
        for connection in connections:
            if not connection.busy.is_set():
                # Not executing: unblock its readline so the handler
                # exits. A statement that starts between the check and
                # the shutdown still completes — sendall fails only
                # after the response attempt, and the session rollback
                # in close() keeps the engine consistent either way.
                try:
                    connection.sock.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
        deadline = drain_seconds
        for connection in connections:
            thread = connection.thread
            if thread is None:
                continue
            step = min(0.1, max(deadline, 0.0)) or 0.1
            while thread.is_alive() and deadline > 0:
                thread.join(timeout=step)
                deadline -= step
            if thread.is_alive():
                # Drain budget exhausted: cancel the in-flight statement
                # (it unwinds at its next governance checkpoint) and
                # sever the socket; the handler dies on its next I/O and
                # the session rolls back. Count it — a nonzero
                # server.drain_killed after shutdown means clients lost
                # in-flight work.
                self.drain_killed += 1
                metrics.increment("server.drain_killed")
                logger.warning(
                    "drain expired: killing connection %s mid-statement",
                    connection.session.name,
                )
                try:
                    connection.session.cancel_running()
                except Exception:
                    pass
                try:
                    connection.sock.close()
                except OSError:
                    pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)


def serve(
    path: str,
    host: str = DEFAULT_HOST,
    port: int = 0,
    max_connections: int = DEFAULT_MAX_CONNECTIONS,
    max_statements: int = DEFAULT_MAX_STATEMENTS,
    idle_timeout: float | None = None,
    **open_kwargs: Any,
):
    """Open the database at ``path`` and serve it until interrupted.

    The CLI entry point (``repro serve <dir>``). Blocks; Ctrl-C drains
    and closes. Returns the exit code.
    """
    cdb = ConcurrentDatabase.open(path, **open_kwargs)
    server = ReproServer(
        cdb,
        host=host,
        port=port,
        max_connections=max_connections,
        max_statements=max_statements,
        idle_timeout=idle_timeout,
    )
    bound = server.start()
    print(f"repro {_version} serving {path!r} on {host}:{bound} (Ctrl-C to stop)")
    try:
        while True:
            threading.Event().wait(3600)
    except KeyboardInterrupt:
        print("shutting down: draining in-flight statements ...")
    finally:
        server.shutdown()
        cdb.close()
    return 0


class ServerError(RuntimeError):
    """An error response from the server, with its kind and retryability."""

    def __init__(self, kind: str, message: str, retryable: bool = False) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.retryable = retryable


class ServerClient:
    """Tiny test/tooling client for the server's protocol.

    ``connect_timeout`` bounds only the TCP connect; ``timeout`` bounds
    each response read (they used to be one knob, which made a slow
    query indistinguishable from an unreachable server). ``retries``
    makes :meth:`sql` retry *retryable* error responses (admission
    sheds, lock timeouts) with jittered exponential backoff.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        connect_timeout: float = 5.0,
        retries: int = 3,
        backoff: float = 0.05,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        # From here on the socket timeout governs reads/writes, not the
        # (usually much shorter) connect budget.
        self._sock.settimeout(timeout)
        self._reader = self._sock.makefile("rb")
        self._retries = max(0, int(retries))
        self._backoff = backoff

    def request(self, sql: str) -> dict[str, Any]:
        """Send one statement; return the response payload (a result
        set's frames read back into ``rows``)."""
        return self._exchange({"sql": sql})

    def sql(self, sql: str) -> dict[str, Any]:
        """Send one statement; raise :class:`ServerError` on failure.

        Retryable failures (shed by admission control, lock timeouts)
        are retried up to ``retries`` times with jittered exponential
        backoff before the error surfaces.
        """
        return self._answer({"sql": sql})

    def metrics(self) -> dict[str, float]:
        """The server's metrics registry as a snapshot; admitted, and
        retried when shed, like a statement."""
        return self._answer({"op": "metrics"})["metrics"]

    def _exchange(self, request: dict[str, Any]) -> dict[str, Any]:
        self._sock.sendall(encode_line(request))
        return read_response(self._reader)

    def _answer(self, request: dict[str, Any]) -> dict[str, Any]:
        attempt = 0
        while True:
            response = self._exchange(request)
            if response.get("ok"):
                return response
            retryable = bool(response.get("retryable"))
            if not retryable or attempt >= self._retries:
                raise ServerError(
                    response.get("kind", "Error"),
                    str(response.get("error")),
                    retryable=retryable,
                )
            # Full jitter: sleep uniformly within the doubled window so
            # shed clients don't retry in lockstep.
            time.sleep(random.uniform(0, self._backoff * (2**attempt)))
            attempt += 1

    def close(self) -> None:
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
