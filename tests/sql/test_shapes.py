"""Statement shapes, bound once per catalog version, and the few-row take.

A statement whose shape (its tokens with each literal replaced by its
class) and catalog version have been bound before runs from the kept
template with its own literals; the answers must be those of a fresh
bind. ``fresh`` databases below have their shape dict emptied before
every statement, which makes each statement a miss — what a new database
per statement would do, without building one per statement.

(a) every battery statement, then each of its literals moved within its
class; (b) what is part of the key; (c) invalidation by DDL; (d) sessions
and writers at once; (e) DML writes the same log bytes either way;
(f) ``ColumnSegment.take`` of a few positions against the array path.
"""

from __future__ import annotations

import contextlib
import datetime
import math
import os
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, types
from repro.bench.tpch_tiny import build_tpch_tiny
from repro.concurrency import ConcurrentDatabase
from repro.errors import BindingError, EncodingError
from repro.observability import MetricsRegistry
from repro.observability.registry import set_registry
from repro.sql.lexer import BIGINT, FLOAT, INT, lex
from repro.storage import bitpack
from repro.storage import segment as segment_module
from repro.storage.dictionary import LocalDictionary
from repro.storage.encodings import BitpackBlock, Scheme, encode_stream, pack_null_mask
from repro.storage.rle import RleBlock
from repro.storage.rle import encode as rle_encode
from repro.storage.segment import ColumnSegment, encode_segment
from repro.storage.value_encoding import ValueEncoding

from ..sql_battery.battery_lib import load_statements

# Hypothesis examples per property; the encoded-space CI job runs more.
EXAMPLES = int(os.environ.get("REPRO_SHAPES_EXAMPLES", "60"))


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    previous = set_registry(reg)
    yield reg
    set_registry(previous)


def outcome(db, sql: str, fresh: bool = False):
    """Columns, types and rows in order — or the error's type and message."""
    if fresh:
        db.shapes.clear()
    try:
        result = db.sql(sql)
    except Exception as exc:  # the hit must fail exactly as the miss does
        return type(exc), str(exc)
    return None if result is None else (result.columns, result.dtypes, result.rows)


# --------------------------------------------------------------------- #
# (a) the battery, each literal moved within its class
# --------------------------------------------------------------------- #
_STRING_TOKEN = re.compile(r"'[^']*(?:''[^']*)*'")


def _moved(token, cls: str) -> str | None:
    """Another literal of the same class, as SQL text (None: leave it)."""
    value = token.value
    if cls == INT:
        return str(value + 1 if value + 1 < 2**31 else value - 1)
    if cls == BIGINT:
        return str(value + 1 if value < 2**63 - 1 else value - 1)
    if cls == FLOAT:
        return repr(value * 1.5 + 0.25) if math.isfinite(value * 1.5) else None
    try:  # a date moves by a day and stays a date
        moved = (datetime.date.fromisoformat(value) + datetime.timedelta(days=1)).isoformat()
    except ValueError:
        moved = value + "x"
    return "'" + moved.replace("'", "''") + "'"


def perturbed(sql: str) -> list[str]:
    """``sql`` once per literal, that literal moved within its class."""
    lexed = lex(sql)
    classes = [part for part in lexed.shape if part.startswith("#")]
    variants = []
    for token, cls in zip(lexed.literals, classes):
        text = _moved(token, cls)
        if text is None:
            continue
        start = token.position
        end = (
            _STRING_TOKEN.match(sql, start).end()
            if token.kind == "string"
            else start + len(token.text)
        )
        variants.append(sql[:start] + text + sql[end:])
    return variants


BATTERY = load_statements()


@pytest.fixture(scope="module")
def battery_pair():
    return build_tpch_tiny(), build_tpch_tiny()


@pytest.mark.parametrize("statement", BATTERY, ids=[s.source for s in BATTERY])
def test_battery_literal_moved_within_class_answers_as_fresh_bind(statement, battery_pair):
    cached, fresh = battery_pair
    for sql in (statement.sql, *perturbed(statement.sql)):
        assert outcome(cached, sql) == outcome(fresh, sql, fresh=True), sql


def test_battery_replay_is_served_from_templates(registry):
    db = build_tpch_tiny()

    def replay() -> dict[str, float]:
        for statement in BATTERY:
            db.sql(statement.sql)
        return {k: v for k, v in registry.snapshot().items() if k.startswith("sql.shapes.")}

    first, second = replay(), replay()
    kept = first["sql.shapes.misses"]
    assert kept > len(BATTERY) // 2 and "sql.shapes.hits" not in first
    assert first["sql.shapes.not_kept.join"] > 0 and first["sql.shapes.not_kept.subquery"] > 0
    assert second["sql.shapes.hits"] == kept and second["sql.shapes.misses"] == kept
    for reason in ("join", "subquery"):
        key = f"sql.shapes.not_kept.{reason}"
        assert second[key] == 2 * first[key]


# --------------------------------------------------------------------- #
# (b) what is part of the key
# --------------------------------------------------------------------- #
_ROWS = [
    "(1, 5000000000, 1.5, 'apple', TRUE, '2024-01-01', 1.25)",
    "(2, 6000000000, 2.5, 'banana', FALSE, '2024-01-02', 2.50)",
    "(3, 7000000000, 3.5, NULL, TRUE, '2024-01-03', 3.75)",
    "(-1, 8000000000, -0.5, 'avocado', NULL, NULL, NULL)",
]


def _small():
    db = Database()
    db.sql("CREATE TABLE t (x INT, y BIGINT, f FLOAT, s VARCHAR, flag BOOL, d DATE, "
           "m DECIMAL(10, 2))")
    db.sql("INSERT INTO t VALUES " + ", ".join(_ROWS))
    return db


@pytest.fixture
def pair():
    return _small(), _small()


def same(pair, *sqls: str) -> None:
    cached, fresh = pair
    for sql in sqls:
        assert outcome(cached, sql) == outcome(fresh, sql, fresh=True), sql


def test_int_bigint_float_literals_are_different_shapes(pair, registry):
    sqls = (
        "SELECT x FROM t WHERE y > 7",
        "SELECT x FROM t WHERE y > 5000000001",
        "SELECT x FROM t WHERE y > 2.5",
    )
    assert len({lex(sql).shape for sql in sqls}) == 3
    same(pair, *sqls)
    assert registry.counter("sql.shapes.hits") == 0


def test_order_by_ordinal_is_key(pair):
    same(pair, "SELECT x, s FROM t ORDER BY 1", "SELECT x, s FROM t ORDER BY 2",
         "SELECT x, s FROM t ORDER BY 1 DESC", "SELECT x, s FROM t ORDER BY 3")


def test_group_by_literal_matched_as_text_is_key(pair):
    cached, _ = pair
    same(pair, "SELECT x + 1 AS k, COUNT(*) AS n FROM t GROUP BY x + 1 ORDER BY k")
    with pytest.raises(BindingError):
        cached.sql("SELECT x + 2 AS k, COUNT(*) AS n FROM t GROUP BY x + 1 ORDER BY k")
    same(pair,
         "SELECT x + 2 AS k, COUNT(*) AS n FROM t GROUP BY x + 1 ORDER BY k",
         "SELECT x + 2 AS k, COUNT(*) AS n FROM t GROUP BY x + 2 ORDER BY k",
         "SELECT x, SUM(f) * 2 AS s FROM t GROUP BY x ORDER BY x",
         "SELECT x, SUM(f) * 3 AS s FROM t GROUP BY x ORDER BY x")


def test_in_like_limit_negative_literals_are_key(pair):
    same(pair,
         "SELECT x FROM t WHERE x IN (1, 2) ORDER BY x",
         "SELECT x FROM t WHERE x IN (3, 4) ORDER BY x",
         "SELECT x FROM t WHERE s LIKE 'a%' ORDER BY x",
         "SELECT x FROM t WHERE s LIKE 'b%' ORDER BY x",
         "SELECT x FROM t ORDER BY x LIMIT 1",
         "SELECT x FROM t ORDER BY x LIMIT 3",
         "SELECT x FROM t WHERE x = -1",
         "SELECT x FROM t WHERE x = -2",
         "SELECT x FROM t WHERE x BETWEEN -1 AND 1 ORDER BY x",
         "SELECT x FROM t WHERE x BETWEEN -2 AND 2 ORDER BY x",
         "INSERT INTO t (x, f) VALUES (-7, -1.5)",
         "INSERT INTO t (x, f) VALUES (-8, -2.5)",
         "SELECT x, f FROM t WHERE x < -5 ORDER BY x")


def test_null_true_false_are_key(pair):
    same(pair,
         "SELECT x FROM t WHERE flag = TRUE ORDER BY x",
         "SELECT x FROM t WHERE flag = FALSE ORDER BY x",
         "SELECT x FROM t WHERE s IS NULL ORDER BY x",
         "SELECT x FROM t WHERE s IS NOT NULL ORDER BY x",
         "SELECT x, NULL AS n FROM t ORDER BY x",
         "SELECT x, 7 AS n FROM t ORDER BY x")


def test_date_and_decimal_coercion_replayed_on_a_hit(pair, registry):
    same(pair,
         "SELECT x FROM t WHERE d = '2024-01-01'",
         "SELECT x FROM t WHERE d = '2024-01-02'",
         "SELECT x FROM t WHERE d = '2024-13-45'",  # the hit fails as the miss does
         "SELECT x FROM t WHERE d BETWEEN '2024-01-02' AND '2024-01-03' ORDER BY x",
         "SELECT x FROM t WHERE d BETWEEN '2024-01-01' AND 'soon' ORDER BY x",
         "SELECT x FROM t WHERE m > 1.5 ORDER BY x",
         "SELECT x FROM t WHERE m > 2.625 ORDER BY x",
         "SELECT x FROM t WHERE m > 2 ORDER BY x",
         "UPDATE t SET d = '2024-02-01', m = 9.5 WHERE x = 1",
         "UPDATE t SET d = '2024-02-30', m = 9.5 WHERE x = 2",
         "UPDATE t SET d = '2024-02-03', m = 1.125 WHERE x = 3",
         "SELECT x, d, m FROM t ORDER BY x")
    assert registry.counter("sql.shapes.hits") >= 6


def test_least_recently_used_shapes_and_oldest_templates_are_evicted(
    pair, registry, monkeypatch
):
    from repro.sql import runner

    monkeypatch.setattr(runner, "_SHAPES_KEPT", 3)
    monkeypatch.setattr(runner, "_TEMPLATES_PER_SHAPE", 2)
    cached, _ = pair
    cached.shapes.clear()  # the fixture's INSERT
    for limit in (1, 2, 3):  # LIMIT is key: three templates of one shape
        same(pair, f"SELECT x FROM t ORDER BY x LIMIT {limit}")
    assert registry.counter("sql.shapes.evicted") == 1
    same(pair, *(f"SELECT x FROM t WHERE x = {v} ORDER BY x" for v in (1, 2)),
         "SELECT x FROM t ORDER BY x LIMIT 3")  # a hit: its key is the most recent
    for column in ("y", "f", "s"):
        same(pair, f"SELECT x, {column} FROM t ORDER BY x")
    assert len(cached.shapes) == 3
    assert registry.counter("sql.shapes.evicted") == 1 + 1 + 2
    assert registry.counter("sql.shapes.hits") == 2


# --------------------------------------------------------------------- #
# (c) invalidation
# --------------------------------------------------------------------- #
def test_drop_and_create_between_two_statements_of_one_shape(registry):
    db = Database()
    db.sql("CREATE TABLE u (a INT, b DATE)")
    db.sql("INSERT INTO u (b, a) VALUES ('2024-05-01', 1)")
    assert db.sql("SELECT b FROM u WHERE a = 1").rows == [(datetime.date(2024, 5, 1),)]
    db.sql("DROP TABLE u")
    db.sql("CREATE TABLE u (b VARCHAR, a BIGINT)")
    db.sql("INSERT INTO u (b, a) VALUES ('one', 1)")  # the columns swapped places
    result = db.sql("SELECT b FROM u WHERE a = 1")
    assert result.rows == [("one",)] and result.dtypes == [types.VARCHAR]
    assert db.sql("SELECT a, b FROM u").rows == [(1, "one")]
    assert registry.counter("sql.shapes.hits") == 0


def test_drop_and_create_inside_a_rolled_back_transaction(registry):
    db = Database()
    db.sql("CREATE TABLE u (a INT, b DATE)")
    db.sql("INSERT INTO u VALUES (1, '2024-05-01')")
    before = db.sql("SELECT b FROM u WHERE a = 1")
    db.sql("BEGIN")
    db.sql("DROP TABLE u")
    db.sql("CREATE TABLE u (a INT, b VARCHAR)")
    db.sql("INSERT INTO u VALUES (1, 'one')")
    assert db.sql("SELECT b FROM u WHERE a = 1").rows == [("one",)]
    db.sql("ROLLBACK")
    after = db.sql("SELECT b FROM u WHERE a = 1")
    assert (after.rows, after.dtypes) == (before.rows, before.dtypes)
    db.sql("INSERT INTO u VALUES (2, '2024-05-02')")
    assert db.sql("SELECT b FROM u WHERE a = 2").rows == [(datetime.date(2024, 5, 2),)]
    assert registry.counter("sql.shapes.hits") == 1  # only the last SELECT


# --------------------------------------------------------------------- #
# (d) four readers and two writers at once
# --------------------------------------------------------------------- #
_READ_KEYS = 400  # readers read keys 0..399; writers write 1000.. and their own rows


def _kv(db) -> None:
    db.sql("CREATE TABLE kv (k INT NOT NULL, grp INT, v INT, price FLOAT, tag VARCHAR)")
    db.sql("INSERT INTO kv VALUES " + ", ".join(
        f"({k}, {k % 7}, {k * 3 % 101}, {k / 4!r}, 'tag{k % 13:02d}')" for k in range(_READ_KEYS)
    ))


def _reads(seed: int) -> list[tuple[str, str]]:
    """(statement, the predicate its scan must show)."""
    rng = np.random.default_rng(seed)
    reads = []
    for key in rng.integers(0, _READ_KEYS - 50, 60).tolist():
        reads.append((f"SELECT k, grp, v, price, tag FROM kv WHERE k = {key}",
                       f"predicate=(k = {key})"))
        reads.append((f"SELECT COUNT(*) AS n, SUM(v) AS s FROM kv "
                       f"WHERE k BETWEEN {key} AND {key + 40}",
                       f"predicate=(k BETWEEN {key} AND {key + 40})"))
    return reads


def _writes(writer: int) -> list[str]:
    base = 1000 + 1000 * writer
    sqls = []
    for i in range(30):
        sqls.append(f"INSERT INTO kv VALUES ({base + i}, {i % 7}, {i}, {i + 0.5!r}, 'w{writer}')")
        if i % 3 == 2:
            sqls.append(f"UPDATE kv SET v = {i * 10} WHERE k = {base + i - 1}")
            sqls.append(f"DELETE FROM kv WHERE k = {base + i - 2}")
    return sqls


def test_sessions_and_writers_at_once_answer_as_a_serial_replay():
    cdb = ConcurrentDatabase()
    _kv(cdb.db)
    answers: dict[int, list] = {}
    errors: list[BaseException] = []

    def reader(index: int) -> None:
        with cdb.session(f"reader{index}") as session:
            got = []
            for sql, predicate in _reads(index % 2):  # two sessions per list
                result = session.sql(sql, stats=True)
                # The plan it ran carries its own literals, not another's.
                assert predicate in result.stats.render()
                got.append(result.rows)
            answers[index] = got

    def writer(index: int) -> None:
        with cdb.session(f"writer{index}") as session:
            for sql in _writes(index):
                session.sql(sql)
            # A rolled-back UPDATE of this writer's own row is undone to
            # this writer's value, whatever the other writer ran meanwhile.
            key = 1000 + 1000 * index + 29
            session.sql("BEGIN")
            session.sql(f"UPDATE kv SET v = {777 + index} WHERE k = {key}")
            session.sql("ROLLBACK")
            assert session.sql(f"SELECT v FROM kv WHERE k = {key}").rows == [(29,)]

    def guarded(fn, index):
        try:
            fn(index)
        except BaseException as exc:  # surfaced below, on the test thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(reader, i)) for i in range(4)]
    threads += [threading.Thread(target=guarded, args=(writer, i)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave inside the shape dict's updates
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors

    serial = Database()
    _kv(serial)
    for index in range(4):
        serial.shapes.clear()
        assert answers[index] == [serial.sql(sql).rows for sql, _ in _reads(index % 2)]
    for index in range(2):
        for sql in _writes(index):
            serial.sql(sql)
    table = "SELECT k, grp, v, price, tag FROM kv ORDER BY k"
    assert cdb.sql(table).rows == serial.sql(table).rows
    cdb.close()


# --------------------------------------------------------------------- #
# (e) DML: a hit writes the log bytes a miss writes
# --------------------------------------------------------------------- #
_DML = (
    "CREATE TABLE w (k INT NOT NULL, v INT, d DATE, tag VARCHAR)",
    "INSERT INTO w VALUES (1, 10, '2024-01-01', 'a')",
    "INSERT INTO w VALUES (2, 20, '2024-01-02', 'b')",
    "INSERT INTO w VALUES (3, 30, '2024-01-03', 'c')",
    "UPDATE w SET v = 11, d = '2024-02-01' WHERE k = 1",
    "UPDATE w SET v = 21, d = '2024-02-02' WHERE k = 2",
    "DELETE FROM w WHERE k = 1",
    "DELETE FROM w WHERE k = 3",
)


def test_hit_dml_writes_the_wal_bytes_a_miss_writes(tmp_path, registry):
    logs = {}
    for arm in ("cached", "fresh"):
        db = Database.open(str(tmp_path / arm))
        for sql in _DML:
            if arm == "fresh":
                db.shapes.clear()
            db.sql(sql)
        db.close()
        wal = tmp_path / arm / "wal"
        logs[arm] = {path.name: path.read_bytes() for path in sorted(wal.iterdir())}
        if arm == "cached":
            assert registry.counter("sql.shapes.hits") == 4
    assert logs["cached"] == logs["fresh"]
    recovered = Database.open(str(tmp_path / "cached"))
    assert recovered.sql("SELECT k, v, d, tag FROM w").rows == [
        (2, 21, datetime.date(2024, 2, 2), "b")
    ]
    recovered.close()


# --------------------------------------------------------------------- #
# (f) the few-row take against the array path
# --------------------------------------------------------------------- #
@contextlib.contextmanager
def _array_path():
    few, segment_module._FEW = segment_module._FEW, -1
    try:
        yield
    finally:
        segment_module._FEW = few


def _taken(segment: ColumnSegment, positions: list[int]):
    """(values, mask) or the error, from both paths."""
    results = []
    for path in (contextlib.nullcontext, _array_path):
        with path():
            try:
                results.append(segment.take(np.array(positions, dtype=np.int64)))
            except EncodingError as exc:
                results.append(("error", str(exc)))
    return results


def _assert_same(few, array) -> None:
    if isinstance(array[0], str):
        assert few == array
        return
    (values, mask), (want, want_mask) = few, array
    assert values.dtype == want.dtype
    if values.dtype == object:
        assert values.tolist() == want.tolist()
    else:
        assert values.tobytes() == want.tobytes()  # bits: -0.0, NaN, wraps
    assert (mask is None) == (want_mask is None)
    if mask is not None:
        assert mask.dtype == want_mask.dtype and mask.tolist() == want_mask.tolist()


def _positions(count: int):
    return st.lists(st.integers(0, count - 1), min_size=1, max_size=segment_module._FEW)


def _nulls(draw, count: int):
    mask = np.array(draw(st.lists(st.booleans(), min_size=count, max_size=count)))
    return (pack_null_mask(mask), int(mask.sum())) if mask.any() else (None, 0)


@st.composite
def value_segments(draw):
    """Value-encoded segments, bit-packed or run-length, any width."""
    width = draw(st.integers(0, 64))
    count = draw(st.integers(1, 48))
    offsets = np.array(
        draw(st.lists(st.integers(0, 2**width - 1), min_size=count, max_size=count)),
        dtype=np.uint64,
    )
    if draw(st.booleans()):  # runs: each offset repeated
        offsets = np.repeat(offsets, draw(st.integers(1, 6)))[:count]
        stream = rle_encode(offsets)
    else:
        stream = BitpackBlock(count, width, bitpack.pack(offsets, width))
    exponent = draw(st.sampled_from([-3, -1, 0, 0, 1, 2, 4]))
    dtype = (
        types.FLOAT
        if exponent > 0 and draw(st.integers(0, 5))
        else draw(st.sampled_from([types.INT, types.BIGINT, types.DATE, types.decimal(2)]))
    )
    base = draw(st.integers(-(2**63), 2**63 - 1))
    null_payload, null_count = _nulls(draw, count)
    segment = ColumnSegment(
        dtype, count, Scheme.VALUE, stream, None, ValueEncoding(exponent, base),
        null_payload, null_count, None, None, 0,
    )
    return segment, draw(_positions(count))


@st.composite
def dictionary_segments(draw):
    """Dictionary segments of numbers or strings, empty dictionaries too."""
    count = draw(st.integers(1, 48))
    kind = draw(st.sampled_from([types.INT, types.BIGINT, types.FLOAT, types.VARCHAR]))
    if kind is types.VARCHAR:
        entries = draw(st.lists(st.text(max_size=4), max_size=12, unique=True))
    elif kind is types.FLOAT:
        entries = draw(st.lists(st.floats(allow_nan=False), max_size=12, unique=True))
    else:
        entries = draw(st.lists(st.integers(-(2**31), 2**31 - 1), max_size=12, unique=True))
    if entries:
        codes = np.array(draw(st.lists(
            st.integers(0, len(entries) - 1), min_size=count, max_size=count
        )), dtype=np.int64)
        if draw(st.booleans()):
            codes = np.sort(codes)  # runs
        null_payload, null_count = _nulls(draw, count)
    else:  # every row NULL, filler codes
        codes = np.zeros(count, dtype=np.int64)
        null_payload, null_count = pack_null_mask(np.ones(count, dtype=bool)), count
    segment = ColumnSegment(
        kind, count, Scheme.DICT, encode_stream(codes), LocalDictionary(sorted(entries)),
        None, null_payload, null_count, None, None, 0,
    )
    return segment, draw(_positions(count))


_COLUMNS = {
    types.INT: st.integers(-(2**31), 2**31 - 1),
    types.BIGINT: st.integers(-(2**62), 2**62),
    types.FLOAT: st.floats(-1e6, 1e6, allow_nan=False).map(lambda f: round(f, 2)),
    types.VARCHAR: st.sampled_from(["", "ash", "birch", "cedar", "ünïcode"]),
    types.DATE: st.integers(0, 30000),
}


@st.composite
def encoded_segments(draw):
    """What ``encode_segment`` makes of a column, NULLs and runs included."""
    dtype = draw(st.sampled_from(list(_COLUMNS)))
    raw = draw(st.lists(st.one_of(st.none(), _COLUMNS[dtype]), min_size=1, max_size=300))
    if draw(st.booleans()):
        raw.sort(key=lambda v: (v is None, v))
    nulls = np.array([v is None for v in raw])
    filler = "" if dtype is types.VARCHAR else 0
    values = np.empty(len(raw), dtype=dtype.numpy_dtype)
    values[:] = [filler if v is None else v for v in raw]
    segment = encode_segment(dtype, values, nulls if nulls.any() else None)
    return segment, draw(_positions(len(raw)))


_SETTINGS = settings(
    max_examples=EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_SETTINGS
@given(value_segments())
def test_few_take_of_value_segments_is_the_array_take(case):
    segment, positions = case
    _assert_same(*_taken(segment, positions))


@_SETTINGS
@given(dictionary_segments())
def test_few_take_of_dictionary_segments_is_the_array_take(case):
    segment, positions = case
    _assert_same(*_taken(segment, positions))


@_SETTINGS
@given(encoded_segments())
def test_few_take_of_encoded_columns_is_the_array_take(case):
    segment, positions = case
    _assert_same(*_taken(segment, positions))
    values, mask = segment.decode()
    few_values, few_mask = segment.take(np.array(positions))
    assert few_values.tolist() == values[positions].tolist()


@_SETTINGS
@given(value_segments(), st.sampled_from(["truncated", "width", "runs", "low", "high"]))
def test_few_take_rejects_what_the_array_take_rejects(case, damage):
    segment, _ = case
    stream = segment.stream
    positions = [0]
    if damage == "low":
        positions = [-1]
    elif damage == "high":
        positions = [0, segment.row_count]
    elif isinstance(stream, RleBlock):
        if damage == "truncated" and stream.value_payload:
            stream = RleBlock(stream.count, stream.n_runs, stream.value_width,
                              stream.length_width, stream.value_payload[:-1], stream.length_payload)
        elif damage == "runs":  # run lengths that do not add up to the row count
            stream = RleBlock(stream.count + 1, stream.n_runs, stream.value_width,
                              stream.length_width, stream.value_payload, stream.length_payload)
        else:
            stream = RleBlock(stream.count, stream.n_runs, 65, stream.length_width,
                              stream.value_payload, stream.length_payload)
    elif damage == "truncated" and stream.payload:
        stream = BitpackBlock(stream.count, stream.width, stream.payload[:-1])
    else:
        stream = BitpackBlock(stream.count, 65, stream.payload)
    segment = ColumnSegment(
        segment.dtype, stream.count, segment.scheme, stream, None, segment.value_enc,
        None, 0, None, None, 0,
    )
    few, array = _taken(segment, positions)
    assert few == array and few[0] == "error"


def test_few_positions_take_no_array_path():
    # The point read's one-row takes stay off the numpy kernel.
    values = np.arange(1000, dtype=np.int64) * 7
    segment = encode_segment(types.BIGINT, values)
    calls = []
    original = bitpack.take

    def counting(*args):
        calls.append(args)
        return original(*args)

    bitpack.take = counting
    try:
        few, _ = segment.take(np.array([3, 999]))
        many, _ = segment.take(np.arange(segment_module._FEW + 1))
    finally:
        bitpack.take = original
    assert few.tolist() == [21, 6993] and len(many) == segment_module._FEW + 1
    assert len(calls) == 1
