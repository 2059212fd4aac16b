"""Encoded-space aggregation: code-space GROUP BY, run-granular scalars,
run-length group keys folded per run.

Every test compares the encoded fast path against the decoded path with
exact equality (no rounding): the fast path must be bit-identical, not
merely close. The Hypothesis properties sweep dict/RLE/bitpack segments
with NULLs, deletes, and trickle-inserted delta rows; CI runs the
run-key one under the long hypothesis profile.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Database, types
from repro.bench.harness import same_rows
from repro.exec.expressions import Between, Comparison, col, lit
from repro.exec.operators.hash_aggregate import BatchHashAggregate, agg, count_star
from repro.errors import QueryKilledError
from repro.exec.operators.scan import ColumnStoreScan
from repro.governance.context import QueryContext, activate
from repro.mvcc import PENDING_EPOCH
from repro.observability.registry import get_registry
from repro.schema import schema
from repro.storage.columnstore import GROUP, ColumnStoreIndex, RowLocator
from repro.storage.config import StoreConfig
from repro.storage.encodings import Scheme
from repro.storage.rle import RleBlock
from repro.storage.segment import DictionaryVector, RunVector
from repro.txn import autocommit

from .. import examples
from ..storage.test_columnstore import bulk_load, insert


def run_agg(store, columns, group_keys, aggs, predicate=None, encoded=True):
    scan = ColumnStoreScan(store, columns, predicate=predicate)
    op = BatchHashAggregate(scan, group_keys, aggs)
    if encoded:
        scan.takes_encoded = op.takes_encoded()
        assert scan.takes_encoded is not None
    rows = []
    for batch in op.batches():
        rows.extend(batch.to_rows())
    return rows, scan


@pytest.fixture
def rle_store():
    """run: value-encoded RLE; payload: bit-packed (defeats runs/dicts)."""
    sch = schema(("run", types.INT, False), ("payload", types.INT, False))
    store = ColumnStoreIndex(
        sch, StoreConfig(rowgroup_size=5000, bulk_load_threshold=10, reorder_rows=False)
    )
    runs = np.repeat(np.arange(50, dtype=np.int64), 100)
    payload = np.arange(5000, dtype=np.int64) * 997
    with autocommit(store.mvcc) as txn:
        store.bulk_load_columns({"run": runs, "payload": payload}, txn)
    segment = next(store.directory.row_groups()).segment("run")
    assert segment.scheme is Scheme.VALUE
    assert isinstance(segment.stream, RleBlock)
    return store


@pytest.fixture
def dict_store():
    """k: VARCHAR dictionary with NULLs; g: small-int dictionary; v nullable."""
    sch = schema(("k", types.VARCHAR), ("g", types.INT, False), ("v", types.INT))
    store = ColumnStoreIndex(
        sch, StoreConfig(rowgroup_size=400, bulk_load_threshold=1, reorder_rows=False)
    )
    # Wide-range, low-cardinality ints with no common scale so dictionary
    # encoding beats value (bit-pack) encoding for the g segment.
    primes = (3, 7919, 104729, 1299709, 15485863)
    rows = [
        (("a", "b", "c", None)[i % 4], primes[i % 5], i * 3 if i % 7 else None)
        for i in range(1000)
    ]
    bulk_load(store, [sch.coerce_row(r) for r in rows])
    group = next(store.directory.row_groups())
    assert group.segment("k").scheme is Scheme.DICT
    assert group.segment("g").scheme is Scheme.DICT
    return store


SCALAR_AGGS = [
    count_star("n"),
    agg("count", "run", "c"),
    agg("sum", "run", "s"),
    agg("min", "run", "lo"),
    agg("max", "run", "hi"),
    agg("avg", "run", "mean"),
]


class TestRunGranularScalars:
    def test_scalar_aggregates_without_decoding(self, rle_store):
        fast, fast_scan = run_agg(rle_store, ["run"], [], SCALAR_AGGS)
        slow, slow_scan = run_agg(rle_store, ["run"], [], SCALAR_AGGS, encoded=False)
        assert fast == slow
        # One run processed per RLE run, far fewer than rows aggregated.
        assert 0 < fast_scan.stats.agg_runs_processed < 5000 / 10
        assert fast_scan.stats.agg_fallbacks == 0
        assert fast_scan.stats.columns_decoded == 0
        assert slow_scan.stats.columns_decoded > 0

    def test_predicate_folds_into_run_weights(self, rle_store):
        predicate = Comparison(">=", col("run"), lit(40))
        fast, fast_scan = run_agg(rle_store, ["run"], [], SCALAR_AGGS, predicate)
        slow, _ = run_agg(rle_store, ["run"], [], SCALAR_AGGS, predicate, encoded=False)
        assert fast == slow
        assert fast[0][0] == 1000  # 10 runs of 100 survive
        assert fast_scan.stats.columns_decoded == 0

    def test_deletes_fold_into_run_weights(self, rle_store):
        group = next(rle_store.directory.row_groups())
        with autocommit(rle_store.mvcc) as txn:
            for position in range(0, 5000, 3):
                rle_store.delete(RowLocator(GROUP, group.group_id, position), txn)
        fast, _ = run_agg(rle_store, ["run"], [], SCALAR_AGGS)
        slow, _ = run_agg(rle_store, ["run"], [], SCALAR_AGGS, encoded=False)
        assert fast == slow

    def test_delta_rows_merge_via_fallback(self, rle_store):
        sch = rle_store.schema
        insert(rle_store, [sch.coerce_row((1000 + i, i)) for i in range(25)])
        fast, fast_scan = run_agg(rle_store, ["run"], [], SCALAR_AGGS)
        slow, _ = run_agg(rle_store, ["run"], [], SCALAR_AGGS, encoded=False)
        assert fast == slow
        assert fast_scan.stats.agg_fallbacks >= 1  # the delta unit

    def test_bitpacked_arg_falls_back_to_decode(self, rle_store):
        aggs = [agg("sum", "payload", "s"), agg("min", "payload", "lo")]
        fast, fast_scan = run_agg(rle_store, ["payload"], [], aggs)
        slow, _ = run_agg(rle_store, ["payload"], [], aggs, encoded=False)
        assert fast == slow
        # The bit-packed argument is decoded, but inside the encoded unit
        # (no whole-unit fallback) and runs aren't claimed for it.
        assert fast_scan.stats.agg_fallbacks == 0
        assert fast_scan.stats.agg_runs_processed == 0
        assert fast_scan.stats.columns_decoded == 1


class TestCodeSpaceGroupBy:
    GROUP_AGGS = [count_star("n"), agg("sum", "v", "s"), agg("max", "v", "hi")]

    def test_group_by_dict_codes(self, dict_store):
        before = get_registry().counter("storage.scan.agg_code_space_groups")
        fast, fast_scan = run_agg(dict_store, ["k", "v"], ["k"], self.GROUP_AGGS)
        slow, _ = run_agg(dict_store, ["k", "v"], ["k"], self.GROUP_AGGS, encoded=False)
        same_rows(fast, slow)
        assert {row[0] for row in fast} == {"a", "b", "c", None}
        assert fast_scan.stats.agg_fallbacks == 0
        assert get_registry().counter("storage.scan.agg_code_space_groups") > before

    def test_multi_key_group_by(self, dict_store):
        columns = ["k", "g", "v"]
        fast, scan = run_agg(dict_store, columns, ["k", "g"], self.GROUP_AGGS)
        slow, _ = run_agg(dict_store, columns, ["k", "g"], self.GROUP_AGGS, encoded=False)
        same_rows(fast, slow)
        assert len(fast) == 20  # 4 k-values x 5 g-values
        assert scan.stats.agg_fallbacks == 0

    def test_group_by_with_predicate_and_deletes(self, dict_store):
        with autocommit(dict_store.mvcc) as txn:
            for group in dict_store.directory.row_groups():
                for position in range(0, group.row_count, 5):
                    dict_store.delete(RowLocator(GROUP, group.group_id, position), txn)
        predicate = Comparison("!=", col("k"), lit("b"))
        columns = ["k", "v"]
        fast, _ = run_agg(dict_store, columns, ["k"], self.GROUP_AGGS, predicate)
        slow, _ = run_agg(dict_store, columns, ["k"], self.GROUP_AGGS, predicate, encoded=False)
        same_rows(fast, slow)
        assert all(row[0] != "b" for row in fast)

    def test_archived_group_falls_back(self, dict_store):
        with autocommit(dict_store.mvcc) as txn:
            dict_store.install_row_groups(dict_store.plan_archival(True), txn)
        fast, scan = run_agg(dict_store, ["k", "v"], ["k"], self.GROUP_AGGS)
        slow, _ = run_agg(dict_store, ["k", "v"], ["k"], self.GROUP_AGGS, encoded=False)
        same_rows(fast, slow)
        assert scan.stats.agg_fallbacks == scan.stats.units_seen


class TestMixedUnits:
    """Each column of a unit is encoded or plain on its own, and every
    column that had to be decoded says why."""

    @pytest.fixture
    def mixed_store(self):
        """k: dictionary; run: value/RLE ints; f: value/RLE floats;
        payload: bit-packed."""
        sch = schema(
            ("k", types.VARCHAR, False),
            ("run", types.INT, False),
            ("f", types.FLOAT, False),
            ("payload", types.INT, False),
        )
        store = ColumnStoreIndex(
            sch, StoreConfig(rowgroup_size=5000, bulk_load_threshold=10, reorder_rows=False)
        )
        n = 5000
        with autocommit(store.mvcc) as txn:
            store.bulk_load_columns(
                {
                    "k": np.array(["a", "b", "c", "d"], dtype=object)[np.arange(n) % 4],
                    "run": np.repeat(np.arange(50, dtype=np.int64), 100),
                    "f": np.repeat(np.arange(25) * 0.25, 200),
                    "payload": (np.arange(n, dtype=np.int64) * 997) % 1009,
                },
                txn,
            )
        group = next(store.directory.row_groups())
        assert isinstance(group.segment("k").vector(), DictionaryVector)
        assert isinstance(group.segment("run").vector(), RunVector)
        assert isinstance(group.segment("f").vector(), RunVector)
        assert group.segment("payload").vector() is None
        return store

    @pytest.mark.parametrize(
        "keys, aggs, morphs, fallbacks, runs",
        [
            pytest.param(
                [],
                [agg("sum", "run", "s"), agg("count", "run", "c"),
                 agg("sum", "f", "fs"), agg("min", "payload", "lo")],
                {"inexact_float_sum": 1, "no_vector": 1},
                0,
                50,
                id="rle argument + float SUM + bit-packed MIN",
            ),
            pytest.param(
                [],
                [agg("min", "f", "flo"), agg("max", "run", "hi")],
                {},
                0,
                50 + 25,
                id="float MIN is weight-safe",
            ),
            pytest.param(
                ["k", "payload"],
                [count_star("n"), agg("sum", "run", "s")],
                {"key_not_dictionary": 2, "output": 1},
                1,
                0,
                id="dictionary key next to a bit-packed key",
            ),
            pytest.param(
                ["k"],
                [count_star("n"), agg("sum", "f", "fs"), agg("max", "payload", "hi")],
                {"output": 2},
                0,
                0,
                id="dictionary key, grouped arguments as rows",
            ),
            pytest.param(
                ["run"],
                [count_star("n"), agg("sum", "payload", "s"), agg("max", "f", "hi"),
                 agg("count", "f", "c")],
                {"output": 2},
                0,
                50,
                id="run key folded per run",
            ),
            pytest.param(
                ["f"],
                [count_star("n"), agg("sum", "payload", "s"), agg("avg", "run", "m")],
                {"output": 2},
                0,
                25,
                id="float run key folded per run",
            ),
            pytest.param(
                ["run", "k"],
                [count_star("n"), agg("sum", "f", "fs")],
                {"output": 1},
                0,
                50,
                id="run key next to a dictionary key, per row",
            ),
            pytest.param(
                ["run", "payload"],
                [count_star("n")],
                {"key_not_dictionary": 2},
                1,
                0,
                id="run key next to a bit-packed key",
            ),
        ],
    )
    def test_mixed_unit_matches_decoded(self, mixed_store, keys, aggs, morphs, fallbacks, runs):
        columns = ["k", "run", "f", "payload"]
        before = get_registry().snapshot()
        fast, scan = run_agg(mixed_store, columns, keys, aggs)
        grown = get_registry().snapshot()
        slow, _ = run_agg(mixed_store, columns, keys, aggs, encoded=False)
        same_rows(fast, slow)
        assert scan.stats.morph == morphs
        assert scan.stats.columns_decoded == sum(morphs.values())
        assert scan.stats.agg_fallbacks == fallbacks
        for reason, count in morphs.items():
            name = f"storage.scan.morph.{reason}"
            assert grown.get(name, 0) - before.get(name, 0) == count
        decodes = "storage.segments.decode_requests"
        assert grown.get(decodes, 0) - before.get(decodes, 0) == sum(morphs.values())
        # An RLE argument or key was handed over by its runs ("run" has
        # 50, "f" 25), never decoded.
        assert scan.stats.agg_runs_processed == runs


class TestGovernedEncodedAggregate:
    def test_kill_lands_between_units(self, dict_store, monkeypatch):
        """The encoded stream is the ordinary ``batches()``: its per-unit
        checkpoint stops a blocking aggregate mid-scan, and what the scan
        did until then still reaches the registry."""
        ctx = QueryContext(query_id=1)
        units = dict_store.pin_scan_units(PENDING_EPOCH)
        assert len(units) == 3

        def killed_after_first_unit(epoch, eliminated=None):
            yield units[0]
            ctx.cancel("killed")
            yield from units[1:]

        monkeypatch.setattr(dict_store, "pin_scan_units", killed_after_first_unit)
        scan = ColumnStoreScan(dict_store, ["k", "v"])
        op = BatchHashAggregate(scan, ["k"], [count_star("n"), agg("sum", "v", "s")])
        scan.takes_encoded = op.takes_encoded()
        before = get_registry().counter("storage.scan.units_seen")
        with activate(ctx), pytest.raises(QueryKilledError):
            list(op.batches())
        assert scan.stats.units_seen == 1
        assert get_registry().counter("storage.scan.units_seen") - before == 1


class TestRangePruning:
    def test_contained_conjunct_skips_decode(self, rle_store):
        # payload spans [0, 4999*997]; the conjunct is true for every row,
        # so the bit-packed segment's min/max alone settles it — no decode.
        predicate = Between(col("payload"), lit(-1), lit(5000 * 997))
        aggs = [count_star("n"), agg("sum", "run", "s")]
        fast, fast_scan = run_agg(rle_store, ["run"], [], aggs, predicate)
        slow, _ = run_agg(rle_store, ["run"], [], aggs, predicate, encoded=False)
        assert fast == slow
        assert fast[0][0] == 5000
        assert fast_scan.stats.conjuncts_pruned_by_range == 1
        assert fast_scan.stats.columns_decoded == 0

    def test_partial_overlap_still_decodes(self, rle_store):
        predicate = Comparison("<", col("payload"), lit(997 * 1000))
        aggs = [count_star("n")]
        fast, fast_scan = run_agg(rle_store, ["run"], [], aggs, predicate)
        slow, _ = run_agg(rle_store, ["run"], [], aggs, predicate, encoded=False)
        assert fast == slow == [(1000,)]
        assert fast_scan.stats.conjuncts_pruned_by_range == 0
        assert fast_scan.stats.columns_decoded == 1

    def test_strict_bound_at_max_is_not_pruned(self):
        sch = schema(("a", types.INT, False),)
        store = ColumnStoreIndex(
            sch, StoreConfig(rowgroup_size=100, bulk_load_threshold=1)
        )
        bulk_load(store, [(i % 10,) for i in range(100)])
        scan = ColumnStoreScan(
            store, ["a"], predicate=Comparison("<", col("a"), lit(9))
        )
        rows = []
        for batch in scan.batches():
            rows.extend(batch.to_rows())
        assert len(rows) == 90  # max == 9 must NOT satisfy a < 9 for all


class TestFloatExactness:
    def test_float_sum_stays_bit_identical(self):
        sch = schema(("grp", types.VARCHAR, False), ("f", types.FLOAT, False))
        store = ColumnStoreIndex(
            sch, StoreConfig(rowgroup_size=300, bulk_load_threshold=1, reorder_rows=False)
        )
        rng = np.random.default_rng(11)
        rows = [
            (("x", "y")[i % 2], float(v))
            for i, v in enumerate(rng.standard_normal(900))
        ]
        bulk_load(store, [sch.coerce_row(r) for r in rows])
        aggs = [agg("sum", "f", "s"), agg("avg", "f", "m"), agg("min", "f", "lo")]
        fast, _ = run_agg(store, ["grp", "f"], ["grp"], aggs)
        slow, _ = run_agg(store, ["grp", "f"], ["grp"], aggs, encoded=False)
        # Exact ==, not approx: float accumulation order must match.
        same_rows(fast, slow)

        scalar = [agg("sum", "f", "s"), agg("avg", "f", "m")]
        fast, scan = run_agg(store, ["f"], [], scalar)
        slow, _ = run_agg(store, ["f"], [], scalar, encoded=False)
        assert fast == slow
        # Float SUM is order-sensitive: it must not have been weighted.
        assert scan.stats.agg_runs_processed == 0


# --------------------------------------------------------------------- #
# Property: encoded == decoded over random segments
# --------------------------------------------------------------------- #
SETTINGS = settings(
    max_examples=examples(30),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

opt_key = st.one_of(st.none(), st.sampled_from(["red", "green", "blue", ""]))
run_val = st.integers(min_value=0, max_value=3)  # few values -> RLE-friendly
opt_int = st.one_of(st.none(), st.integers(min_value=-1000, max_value=1000))
flt = st.floats(min_value=-50, max_value=50, allow_nan=False, width=32)

rows_strategy = st.lists(
    st.tuples(opt_key, run_val, opt_int, flt), min_size=0, max_size=120
)


def build_store(rows, delete_step, trickle):
    sch = schema(
        ("k", types.VARCHAR),
        ("r", types.INT, False),
        ("v", types.INT),
        ("f", types.FLOAT, False),
    )
    store = ColumnStoreIndex(
        sch, StoreConfig(rowgroup_size=40, bulk_load_threshold=1, reorder_rows=False)
    )
    if rows:
        bulk_load(store, [sch.coerce_row(r) for r in rows])
    with autocommit(store.mvcc) as txn:
        if delete_step:
            for group in store.directory.row_groups():
                for position in range(0, group.row_count, delete_step):
                    store.delete(RowLocator(GROUP, group.group_id, position), txn)
        for row in trickle:
            store.insert(sch.coerce_row(row), txn)
    return store


@given(
    rows=rows_strategy,
    delete_step=st.sampled_from([0, 2, 3]),
    trickle=st.lists(st.tuples(opt_key, run_val, opt_int, flt), max_size=10),
)
@SETTINGS
def test_encoded_agg_equals_decoded(rows, delete_step, trickle):
    store = build_store(rows, delete_step, trickle)
    aggs = [
        count_star("n"),
        agg("count", "v", "c"),
        agg("sum", "v", "s"),
        agg("min", "v", "lo"),
        agg("max", "v", "hi"),
        agg("avg", "f", "m"),
        agg("sum", "r", "rs"),
    ]
    columns = ["k", "r", "v", "f"]
    for keys in ([], ["k"], ["k", "r"], ["r"]):
        fast, _ = run_agg(store, columns, keys, aggs)
        slow, _ = run_agg(store, columns, keys, aggs, encoded=False)
        same_rows(fast, slow)


@given(rows=rows_strategy)
@SETTINGS
def test_encoded_agg_with_predicate_equals_decoded(rows):
    store = build_store(rows, 0, [])
    aggs = [count_star("n"), agg("sum", "v", "s"), agg("min", "f", "lo")]
    predicate = Comparison(">=", col("r"), lit(1))
    columns = ["k", "r", "v", "f"]
    for keys in ([], ["k"]):
        fast, _ = run_agg(store, columns, keys, aggs, predicate)
        slow, _ = run_agg(store, columns, keys, aggs, predicate, encoded=False)
        same_rows(fast, slow)


# --------------------------------------------------------------------- #
# Run-length group keys: coded by value, folded per run
# --------------------------------------------------------------------- #
class TestRunKeys:
    GROUP_SQL = "SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM kv GROUP BY grp"

    @pytest.fixture
    def kv(self):
        """The suite's htap table, small: key-sorted rows reordered per
        row group (``grp`` becomes one run per value), some deleted, and
        trickle inserts in a delta store."""
        db = Database(StoreConfig(rowgroup_size=1024, bulk_load_threshold=1))
        db.sql(
            "CREATE TABLE kv (k INT NOT NULL, grp INT NOT NULL, v INT NOT NULL, "
            "price FLOAT NOT NULL, tag VARCHAR NOT NULL)"
        )
        rng = np.random.default_rng(23)
        n = 3 * 1024
        db.bulk_load("kv", list(zip(
            range(n),
            rng.integers(0, 10, n).tolist(),
            rng.integers(0, 1000, n).tolist(),
            np.round(rng.uniform(1.0, 500.0, n), 2).tolist(),
            [f"tag{t:02d}" for t in rng.integers(0, 97, n).tolist()],
        )))
        for key in range(5, n, 97):
            db.sql(f"DELETE FROM kv WHERE k = {key}")
        for key in range(n, n + 7):
            db.sql(f"INSERT INTO kv VALUES ({key}, {key % 10}, {key % 1000}, 1.5, 'tag00')")
        return db

    def test_the_htap_group_by_takes_its_key_as_runs(self, kv):
        index = kv.catalog.table("kv").columnstore
        groups = list(index.directory.row_groups())
        deltas = len(index.delta_stores())
        assert len(groups) == 3 and deltas == 1
        assert all(isinstance(g.segment("grp").vector(), RunVector) for g in groups)
        runs = sum(g.segment("grp").stream.n_runs for g in groups)

        encoded = kv.sql(self.GROUP_SQL, stats=True)
        decoded = kv.sql(self.GROUP_SQL, stats=True, enable_encoded_agg=False)
        same_rows(encoded.rows, decoded.rows)
        assert len(encoded.rows) == 10
        stats = encoded.stats
        assert stats.counter("storage.scan.morph.key_not_dictionary") == 0
        assert stats.counter("storage.scan.agg_fallbacks") == deltas
        assert stats.counter("storage.scan.agg_runs_processed") == runs == 3 * 10
        # The key is no longer decoded: one column fewer per compressed unit.
        decodes = "storage.scan.columns_decoded"
        assert decoded.stats.counter(decodes) - stats.counter(decodes) == len(groups)
        assert "keys: grp=codes:scan" in kv.explain_analyze(self.GROUP_SQL)

    def test_a_store_key_in_many_runs_folds_each_run(self):
        """``ss_store_id`` in date-ordered facts: every value in many runs.
        Groups are values, not runs, and every run is folded."""
        sch = schema(("store", types.INT, False), ("qty", types.INT), ("paid", types.FLOAT, False))
        store = ColumnStoreIndex(
            sch, StoreConfig(rowgroup_size=4000, bulk_load_threshold=10, reorder_rows=False)
        )
        n = 8000
        stores = (np.arange(n) // 10) % 20  # 20 stores, each in 20 runs of 10 rows
        with autocommit(store.mvcc) as txn:
            store.bulk_load_columns({
                "store": stores.astype(np.int64),
                "qty": (np.arange(n, dtype=np.int64) * 7919) % 1009,
                "paid": np.round(np.sin(np.arange(n)) * 100, 2),
            }, txn)
            for group in store.directory.row_groups():
                for position in range(0, group.row_count, 9):
                    store.delete(RowLocator(GROUP, group.group_id, position), txn)
        columns = ["store", "qty", "paid"]
        for aggs in (
            [count_star("n"), agg("sum", "qty", "s"), agg("min", "paid", "lo"),
             agg("max", "qty", "hi")],
            [count_star("n"), agg("sum", "paid", "s"), agg("avg", "paid", "m")],
        ):
            scan = ColumnStoreScan(store, columns)
            op = BatchHashAggregate(scan, ["store"], aggs)
            scan.takes_encoded = op.takes_encoded()
            fast = [row for batch in op.batches() for row in batch.to_rows()]
            slow, _ = run_agg(store, columns, ["store"], aggs, encoded=False)
            same_rows(fast, slow)
            assert len(fast) == 20
            assert scan.stats.agg_runs_processed == 2 * 400
            arguments = {s.expr.name for s in aggs if s.expr is not None}
            assert scan.stats.columns_decoded == 2 * len(arguments)  # never the key
            assert scan.stats.agg_fallbacks == 0
            # One directory miss per store: codes stand for values, not runs.
            assert op.stats.directory_misses == 20
            assert op.stats.keys == {"store": "codes:scan"}


RUN_KEY_SETTINGS = settings(
    max_examples=examples(12),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def run_key_tables(draw):
    """A store whose key ``g`` is run-length encoded: sorted (one run per
    value), in blocks cycling through the values (many runs per value, as
    a store key in date-ordered facts), or random and left to the store's
    row reordering — with NULL keys, deleted rows and a delta store. The
    values are dense (a dictionary would not pay), the runs long enough
    for RLE to beat bit packing in most row groups."""
    n = draw(st.integers(min_value=1, max_value=300))
    n_values = draw(st.integers(min_value=1, max_value=8))
    layout = draw(st.sampled_from(["sorted", "blocks", "reordered"]))
    if layout == "blocks":
        block = draw(st.integers(min_value=6, max_value=40))
        g = [(i // block) % n_values for i in range(n)]
    else:
        g = draw(st.lists(st.integers(0, n_values - 1), min_size=n, max_size=n))
        if layout == "sorted":
            g.sort()
    if draw(st.booleans()):  # a block of NULL keys, so runs survive
        start = draw(st.integers(min_value=0, max_value=n - 1))
        g[start : start + draw(st.integers(min_value=1, max_value=40))] = [None] * 40
        g = g[:n]
    v = draw(st.lists(st.one_of(st.none(), st.integers(-1000, 1000)), min_size=n, max_size=n))
    f = draw(st.lists(st.floats(-50, 50, allow_nan=False, width=32), min_size=n, max_size=n))
    d = draw(st.lists(st.sampled_from(["w", "x", "y", "z", None]), min_size=n, max_size=n))
    rows = [
        (g[i], None if g[i] is None else g[i] * 0.5, d[i], (i * 7919) % 100_003, v[i], f[i])
        for i in range(n)
    ]
    trickle = draw(st.lists(st.sampled_from(rows), max_size=4))
    return rows, layout, draw(st.sampled_from([0, 2, 5])), trickle


EXACT_AGGS = [
    count_star("n"), agg("count", "v", "c"), agg("sum", "v", "s"), agg("avg", "v", "m"),
    agg("min", "v", "lo"), agg("max", "v", "hi"), agg("min", "f", "flo"),
    agg("max", "f", "fhi"), agg("count", "f", "fc"),
]
FLOAT_SUMS = [count_star("n"), agg("sum", "f", "fs"), agg("avg", "f", "fm")]

# A run of ``g`` holding 0.0 and -0.0 in an order where a vectorised
# np.minimum.reduce (SIMD lanes) and the per-row fold disagree on the sign.
SIGNED_ZEROS = [-0.0] * 3 + [0.0, -0.0] + [0.0] * 6 + [-0.0, 0.0] + [-0.0] * 5 + [
    0.0, -0.0, 0.0, 0.0, -0.0, -0.0, -0.0]
SIGNED_ZERO_ROWS = [
    (i // 32, i // 32 * 0.5, "w", i, 1, f)
    for i, f in enumerate(SIGNED_ZEROS + [1 + i / 7 for i in range(103)])
]


@given(table=run_key_tables())
@example(table=(SIGNED_ZERO_ROWS, "sorted", 0, []))
@RUN_KEY_SETTINGS
def test_run_keys_group_as_the_decoded_arm(table):
    rows, layout, delete_step, trickle = table
    sch = schema(
        ("g", types.INT), ("h", types.FLOAT), ("d", types.VARCHAR), ("b", types.INT, False),
        ("v", types.INT), ("f", types.FLOAT, False),
    )
    store = ColumnStoreIndex(sch, StoreConfig(
        rowgroup_size=128, bulk_load_threshold=1, reorder_rows=layout == "reordered"
    ))
    bulk_load(store, [sch.coerce_row(r) for r in rows])
    with autocommit(store.mvcc) as txn:
        if delete_step:
            for group in store.directory.row_groups():
                for position in range(0, group.row_count, delete_step):
                    store.delete(RowLocator(GROUP, group.group_id, position), txn)
        for row in trickle:
            store.insert(sch.coerce_row(row), txn)
    columns = ["g", "h", "d", "b", "v", "f"]
    for keys in (["g"], ["h"], ["g", "d"], ["g", "b"]):
        for aggs in (EXACT_AGGS, FLOAT_SUMS):
            fast, _ = run_agg(store, columns, keys, aggs)
            slow, _ = run_agg(store, columns, keys, aggs, encoded=False)
            same_rows(fast, slow)
