"""Result sets cross the wire as column frames and read back as the payload
the JSON-lines protocol gave: ``json.dumps(rows, default=str)`` parsed."""

from __future__ import annotations

import datetime
import itertools
import json
import random
import socket
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.concurrency import ConcurrentDatabase
from repro.server import ReproServer, ServerClient
from repro.server.wire import encode_line
from tests import examples

_SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf")]
# Per kind: a strategy for its non-NULL values, and a generator for many.
KINDS = {
    "INT": st.integers(-(2**31), 2**31 - 1),
    "BIGINT": st.integers(-(2**63), 2**63 - 1),
    "FLOAT": st.sampled_from(_SPECIAL_FLOATS) | st.floats(allow_nan=True, allow_infinity=True),
    "DECIMAL(18, 2)": st.integers(-(10**15), 10**15).map(lambda cents: cents / 100),
    "VARCHAR": st.sampled_from(["", "ñandú 日本", "two\nlines", "\r\n", '"q"\\']) | st.text(
        st.characters(blacklist_categories=("Cs",))
    ),
    "DATE": st.dates(),
    "BOOL": st.booleans(),
}
_MANY = {
    "INT": lambda rng: rng.randrange(-(2**31), 2**31),
    "BIGINT": lambda rng: rng.randrange(-(2**63), 2**63),
    "FLOAT": lambda rng: rng.choice(_SPECIAL_FLOATS + [rng.uniform(-1e300, 1e300)]),
    "DECIMAL(18, 2)": lambda rng: rng.randrange(-(10**15), 10**15) / 100,
    "VARCHAR": lambda rng: rng.choice(["", "ñ", "a\nb", str(rng.random())]),
    "DATE": lambda rng: datetime.date(1970, 1, 1) + datetime.timedelta(rng.randrange(-9999, 9999)),
    "BOOL": lambda rng: rng.random() < 0.5,
}
_TABLES = itertools.count()


@pytest.fixture(scope="module")
def served():
    cdb = ConcurrentDatabase()
    server = ReproServer(cdb)
    port = server.start()
    client = ServerClient("127.0.0.1", port)
    yield cdb, client
    client.close()
    server.shutdown()
    cdb.close()


def _same(got, want) -> bool:
    """Equal and of one type; floats by ``repr``, so NaN is NaN and -0.0
    is not 0.0."""
    if type(got) is not type(want):
        return False
    return repr(got) == repr(want) if isinstance(got, float) else got == want


def _check_kind(served, kind: str, values: list) -> None:
    cdb, client = served
    table = f"w{next(_TABLES)}"
    cdb.sql(f"CREATE TABLE {table} (i BIGINT NOT NULL, v {kind}, n {kind})")
    try:
        # n is NULL in every row: a frame whose bitmap is all ones.
        rows = [(index, value, None) for index, value in enumerate(values)]
        if rows:
            cdb.db.bulk_load(table, rows)
        sql = f"SELECT i, v, n FROM {table} ORDER BY i"
        in_process = cdb.sql(sql).rows
        want = json.loads(json.dumps([list(row) for row in in_process], default=str))
        response = client.sql(sql)
        assert response["columns"] == ["i", "v", "n"]
        assert response["rowcount"] == len(want) == len(values)
        got = response["rows"]
        assert len(got) == len(want)
        for got_row, want_row in zip(got, want):
            assert type(got_row) is list
            assert len(got_row) == len(want_row)
            assert all(_same(g, w) for g, w in zip(got_row, want_row)), (got_row, want_row)
    finally:
        cdb.sql(f"DROP TABLE {table}")


@pytest.mark.parametrize("kind", list(KINDS))
@settings(max_examples=examples(25), deadline=None)
@given(data=st.data())
@example(data=None)
def test_rows_equal_the_json_lines_payload(served, kind, data):
    if data is None:  # 0 rows
        values = []
    else:
        values = data.draw(st.lists(st.none() | KINDS[kind], max_size=40), label="values")
    _check_kind(served, kind, values)


@pytest.mark.parametrize("kind", list(KINDS))
def test_one_row_and_twenty_thousand(served, kind):
    """v is NULL in about a third of the rows, n in all of them, and the
    BIGINT key in none."""
    rng = random.Random(kind)
    many = [None if rng.random() < 0.3 else _MANY[kind](rng) for _ in range(20_000)]
    _check_kind(served, kind, many[:1])
    _check_kind(served, kind, many)


def _one_response_server(response: bytes) -> tuple[socket.socket, threading.Thread]:
    """A listener that answers one request with ``response`` and closes."""
    listener = socket.create_server(("127.0.0.1", 0))

    def answer():
        connection, _ = listener.accept()
        with connection:
            connection.makefile("rb").readline()
            connection.sendall(response)

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    return listener, thread


@pytest.mark.parametrize("cut", ["mid_frame", "mid_header", "after_header"])
def test_a_close_mid_response_raises(cut):
    header = encode_line({"ok": True, "columns": ["a", "b"], "rowcount": 3,
                          "frames": ["q", ["x", "y", "z"]]})
    frame = b"\x00" + bytes(24)  # bitmap, then 3 x int64
    response = {"mid_frame": header + frame[:10], "mid_header": header[:-5],
                "after_header": header}[cut]
    listener, thread = _one_response_server(response)
    try:
        with ServerClient("127.0.0.1", listener.getsockname()[1]) as client:
            with pytest.raises(ConnectionError):
                client.request("SELECT a, b FROM t")
    finally:
        thread.join(timeout=5)
        listener.close()
