"""The aggregate's cell → group tables, held to a per-row reference.

Batches carry group keys the ways they reach the aggregate: a join's
build column (one code space for every batch), a segment's dictionary (a
new space each row group), a plain integer column coded by subtraction
(a space per [min, max], which moves between batches and comes back to
where it was, after the state has met other spaces) or ranked (no
space), NULLs (the radix + 1 slot), spaces of more cells than the batch
has rows, one to three keys; under the default grant and under a one-byte
one, which spills after the first batch. The groups, their order of first
appearance, ``groups``, ``directory_misses`` and, without a spill,
``cells_from_table`` must equal the reference's. The tables are a cache:
a grant or a governed query that will not hold them drops them, and the
aggregate answers as it would without them.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, StoreConfig
from repro.bench.harness import same_rows
from repro.exec.batch import Batch
from repro.exec.memory import MemoryGrant
from repro.exec.operators.base import BatchOperator
from repro.exec.operators.hash_aggregate import (
    _BYTES_PER_GROUP,
    _TABLES_KEPT,
    BatchHashAggregate,
    agg,
    count_star,
)
from repro.governance import MemoryGovernor, QueryContext
from repro.observability import registry as metrics
from repro.observability.registry import STABLE_COUNTERS
from repro.storage.segment import DENSE_DOMAIN_PER_ROW, CodeSpace, DictionaryVector, encode_segment
from repro.types import VARCHAR

from .. import examples

_WORDS = ["", "a", "b", "ab", "é", "ba", "bb"]


class BatchSource(BatchOperator):
    def __init__(self, names, batches):
        self._names, self._batches = names, batches

    @property
    def output_names(self):
        return self._names

    def batches(self):
        yield from self._batches


def _mask(draw, n: int) -> np.ndarray | None:
    if draw(st.integers(0, 2)):
        return None
    return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)


@st.composite
def keyed_batches(draw):
    """Key names, and per batch the batch and, per key, the value of every
    row (None for NULL)."""
    kinds = draw(st.lists(st.sampled_from(["join", "join", "int", "segment", "wide"]),
                          min_size=1, max_size=draw(st.sampled_from([1, 2, 3]))))
    names = [f"k{i}" for i in range(len(kinds))]
    joins = {}
    for name, kind in zip(names, kinds):
        if kind == "join":  # a build column: one distinct array, one space
            size = draw(st.sampled_from([1, 2, 3, 4, 40]))  # 40: more cells than rows
            joins[name] = (np.array([f"d{i}" for i in range(size)], dtype=object), CodeSpace())
    cases = []
    shift = 0
    for _ in range(draw(st.integers(2, 7))):
        n = draw(st.integers(0, 40))
        columns, null_masks, encoded, values = {}, {}, {}, {}
        for name, kind in zip(names, kinds):
            mask = _mask(draw, n)
            if kind == "join":
                distinct, space = joins[name]
                codes = np.array(draw(st.lists(st.integers(0, distinct.size - 1),
                                               min_size=n, max_size=n)), dtype=np.int64)
                encoded[name] = DictionaryVector.of(codes, distinct, mask, "join", space)
                column = distinct[codes].tolist()
            elif kind == "segment":  # a row group's own dictionary
                column = draw(st.lists(st.sampled_from(_WORDS), min_size=n, max_size=n))
                array = np.array(column, dtype=object)
                encoded[name] = encode_segment(VARCHAR, array, mask).vector()
            else:  # plain integers whose range moves: coded here
                scale = 1 if kind == "int" else 1_000
                column = [scale * (shift + v) for v in draw(
                    st.lists(st.integers(0, 3), min_size=n, max_size=n))]
                columns[name] = np.array(column, dtype=np.int64)
                null_masks[name] = mask
            if mask is not None:
                column = [None if null else v for v, null in zip(column, mask.tolist())]
            values[name] = column
        columns["v"] = np.array(draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)),
                                dtype=np.int64)
        batch = Batch(columns=columns, null_masks=null_masks, encoded=encoded)
        if n and draw(st.booleans()):
            batch = batch.narrow(np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))))
        cases.append((batch, values))
        shift = draw(st.sampled_from([shift, shift, 0, 1, 3]))  # moves, and comes back
    return names, cases


def _space(batch: Batch, name: str, active: np.ndarray):
    """The (space, NULL slot, radix) the key's codes arrive in over the
    active rows, as ``DictionaryVector`` names them: a plain integer
    column is coded by subtraction when its
    [min, max] (NULL fillers included) is dense, ranked otherwise."""
    vector = batch.encoded.get(name)
    if vector is not None:
        nulls = vector.null_mask is not None
        return vector.space, nulls, vector.n_distinct + nulls
    values, mask = batch.column(name)[active], batch.null_mask(name)
    nulls = mask is not None
    low, high = int(values.min()), int(values.max())
    if high - low + 1 > DENSE_DOMAIN_PER_ROW * values.size:
        return None, nulls, 0
    return (values.dtype, low, high - low + 1), nulls, high - low + 1 + nulls


def reference(names, cases, spill: bool) -> dict:
    """Groups in order of first appearance with COUNT(*) and SUM(v); the
    directory misses; and the rows whose cell a table held at the start of
    their batch (a table is made for a space first met in a batch with no
    fewer rows than cells, and kept while its space is one of the
    ``_TABLES_KEPT`` the state met last)."""
    groups: dict[tuple, list[int]] = {}
    misses = from_table = 0
    tables: dict[tuple, set] = {}
    for batch, values in cases:
        active = batch.active_indices()
        if active.size == 0:
            continue
        keys = [tuple(values[name][i] for name in names) for i in active.tolist()]
        v = batch.column("v")[active].tolist()
        for key, value in zip(keys, v):
            group = groups.setdefault(key, [0, 0])
            group[0] += 1
            group[1] += value
        if spill:  # every batch a state of its own, from the first on
            misses += len(set(keys))
            continue
        spaces = [_space(batch, name, active) for name in names]
        space = tuple((s, nulls) for s, nulls, _ in spaces)
        if space in tables:
            seen = tables[space] = tables.pop(space)  # now the one met last
            from_table += sum(key in seen for key in keys)
            seen.update(keys)
        elif all(s is not None for s, _, _ in spaces) and math.prod(
            radix for _, _, radix in spaces
        ) <= active.size:
            tables[space] = set(keys)
            if len(tables) > _TABLES_KEPT:
                del tables[next(iter(tables))]
    if spill:
        misses += len(groups)  # each partition merged through its own directory
    else:
        misses = len(groups)
    rows = [(*key, count, total) for key, (count, total) in groups.items()]
    return {"rows": rows, "misses": misses, "from_table": from_table}


@settings(max_examples=examples(150), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(keyed_batches(), st.booleans())
def test_group_tables_equal_the_per_row_reference(case, spill):
    names, cases = case
    specs = [count_star("n"), agg("sum", "v", "sv")]
    grant = MemoryGrant(1) if spill else MemoryGrant()
    op = BatchHashAggregate(
        BatchSource([*names, "v"], [batch for batch, _ in cases]), names, specs, grant
    )
    got = [row for batch in op.batches() for row in batch.to_rows()]
    want = reference(names, cases, spill)
    assert op.stats.spilled == (spill and bool(want["rows"]))
    same_rows(got, want["rows"], ordered=not spill)
    assert op.stats.groups == len(want["rows"])
    assert op.stats.directory_misses == want["misses"]
    if not spill:
        assert op.stats.cells_from_table == want["from_table"]
    assert grant.reserved_bytes == 0


def _join_keyed(n_batches: int = 3) -> BatchSource:
    """Batches of 1,000 rows keyed by a build column of 1,000 values, of
    which the rows use 4: 4 groups of 96 bytes, a table of 8,000."""
    distinct, space = np.arange(1000, dtype=np.int64), CodeSpace()
    return BatchSource(["k", "v"], [
        Batch(columns={"v": np.ones(1000, dtype=np.int64)},
              encoded={"k": DictionaryVector.of(np.arange(1000) % 4, distinct, None,
                                                "join", space)})
        for _ in range(n_batches)
    ])


def _grouped(grant: MemoryGrant) -> BatchHashAggregate:
    op = BatchHashAggregate(_join_keyed(), ["k"], [count_star("n")], grant)
    assert [row for batch in op.batches() for row in batch.to_rows()] == [
        (k, 750) for k in range(4)
    ]
    return op


def test_tables_give_way_to_groups_under_a_tight_grant():
    """A grant the groups fit and the tables do not: the tables are
    dropped, the aggregate does not spill."""
    grant = MemoryGrant(1000)
    op = _grouped(grant)
    assert not op.stats.spilled and op.stats.cells_from_table == 0
    assert grant.reserved_bytes == 0


def test_tables_are_reserved_beside_the_groups_and_returned():
    grant = MemoryGrant()
    op = _grouped(grant)
    assert op.stats.cells_from_table == 2000
    assert grant.peak_bytes == 4 * _BYTES_PER_GROUP + 8000
    assert grant.reserved_bytes == 0


def test_a_governed_query_whose_tables_do_not_fit_still_answers():
    """Under a hard per-query limit, a process cap or a soft budget that
    the groups fit and the groups and tables do not, the query neither
    fails nor spills: its tables are dropped and their bytes returned,
    and no rejection or forced spill is counted."""
    groups = 4 * _BYTES_PER_GROUP
    before = {name: metrics.get_registry().counter(name)
              for name in ("governance.budget_rejections", "governance.spills_forced")}
    for limits in (
        {"memory_limit_bytes": groups + 100},
        {"governor": MemoryGovernor(limit_bytes=groups + 100)},
        {"memory_budget_bytes": groups + 100},
    ):
        ctx = QueryContext(1, **limits)
        grant = MemoryGrant(context=ctx)
        op = _grouped(grant)
        assert not op.stats.spilled and op.stats.cells_from_table == 0, limits
        assert grant.peak_bytes == groups
        assert grant.reserved_bytes == ctx.reserved_bytes == 0
        ctx.release_all()
    assert {name: metrics.get_registry().counter(name) for name in before} == before


def test_spaces_met_once_leave_at_most_the_kept_tables():
    """A key read from a new row group's dictionary every batch: the
    grant never holds more than the tables of the spaces met last."""
    words = np.array(_WORDS * 4, dtype=object)
    batches = [
        Batch(columns={"v": np.ones(words.size, dtype=np.int64)},
              encoded={"k": encode_segment(VARCHAR, words, None).vector()})
        for _ in range(10)
    ]
    grant = MemoryGrant()
    op = BatchHashAggregate(BatchSource(["k", "v"], batches), ["k"], [count_star("n")], grant)
    rows = [row for batch in op.batches() for row in batch.to_rows()]
    assert rows == [(word, 40) for word in _WORDS]
    assert op.stats.cells_from_table == 0
    table = len(_WORDS) * 8
    assert grant.peak_bytes == len(_WORDS) * _BYTES_PER_GROUP + _TABLES_KEPT * table


def test_explain_analyze_shows_the_rows_that_came_from_a_table():
    """A join-emitted key over four row groups: the first batch meets all
    three regions, the other three batches' 1,488 rows are one gather."""
    db = Database(StoreConfig(rowgroup_size=512, bulk_load_threshold=1))
    db.sql("CREATE TABLE sales (cust INT NOT NULL, paid FLOAT NOT NULL)")
    db.sql("CREATE TABLE customer (c_id INT NOT NULL, c_region VARCHAR NOT NULL)")
    db.bulk_load("customer", [(i, ("east", "west", "north")[i % 3]) for i in range(90)])
    db.bulk_load("sales", [(i * 7 % 90, (i % 50) * 0.5) for i in range(2000)])
    sql = ("SELECT c.c_region, SUM(s.paid) AS revenue FROM sales s "
           "JOIN customer c ON s.cust = c.c_id GROUP BY c.c_region")
    stats = db.sql(sql, stats=True).stats
    assert "exec.hash_aggregate.cells_from_table" in STABLE_COUNTERS
    assert stats.counter("exec.hash_aggregate.cells_from_table") == 2000 - 512
    assert stats.counter("exec.hash_aggregate.directory_misses") == 3
    text = db.explain_analyze(sql)
    assert "directory_misses=3, cells_from_table=1488" in text
    decoded = db.sql(sql, stats=True, enable_encoded_agg=False).stats
    assert decoded.counter("exec.hash_aggregate.cells_from_table") == 0  # coded here: no space


def test_a_space_met_again_keeps_its_table_only_while_among_the_last_met():
    """An integer key coded by subtraction over ranges starting at 0, 1,
    0, 3, 5, 0: the third batch finds the first one's table; by the sixth
    the two ranges met since have pushed it out."""
    lows = [0, 1, 0, 3, 5, 0]
    batches = [
        Batch(columns={"k": np.arange(low, low + 4).repeat(2), "v": np.ones(8, dtype=np.int64)})
        for low in lows
    ]
    op = BatchHashAggregate(BatchSource(["k", "v"], batches), ["k"], [count_star("n")])
    rows = [row for batch in op.batches() for row in batch.to_rows()]
    assert dict(rows) == {k: 2 * sum(low <= k < low + 4 for low in lows) for k in range(9)}
    assert op.stats.cells_from_table == 8
