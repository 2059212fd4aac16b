"""E23 — Encoded-space aggregation: aggregate without decoding.

Scalar aggregates over an RLE column are folded run-by-run (one update
per run, weighted by surviving run length), GROUP BY on a dictionary
column accumulates into a codes-sized table, decoding only the surviving
group keys, and GROUP BY on the RLE column folds each run into its group
(the runs coded by value) without decoding the key. We run each query with the encoded path on and off and
compare wall time plus the storage counters that prove *why* it is
faster: ``storage.segments.decode_requests`` drops, and
``storage.scan.agg_runs_processed`` is a tiny fraction of the rows
aggregated.

Expected shape: encoded-on does near-zero decodes for the RLE scalar
query, processes ~runs (not ~rows), decodes no key for either GROUP BY,
and produces bit-identical results.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import save_report, scaled

from repro import types
from repro.bench.harness import ReportTable, same_rows, time_call
from repro.exec.operators.hash_aggregate import BatchHashAggregate, agg, count_star
from repro.exec.operators.scan import ColumnStoreScan
from repro.observability import get_registry, snapshot_delta
from repro.schema import schema
from repro.storage.columnstore import ColumnStoreIndex
from repro.storage.config import StoreConfig
from repro.txn import autocommit

KEYS = np.array(
    ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"],
    dtype=object,
)


@pytest.fixture(scope="module")
def store():
    """Sorted fact table: ``run`` RLE-compresses, ``k`` dictionary-encodes."""
    rows = scaled(400_000)
    sch = schema(
        ("run", types.INT, False),
        ("k", types.VARCHAR, False),
        ("v", types.INT, False),
    )
    index = ColumnStoreIndex(
        sch,
        StoreConfig(
            rowgroup_size=max(4096, rows // 8),
            bulk_load_threshold=1000,
            reorder_rows=False,
        ),
    )
    rng = np.random.default_rng(23)
    run = np.sort(rng.integers(0, max(2, rows // 2000), size=rows)).astype(np.int64)
    k = KEYS[rng.integers(0, len(KEYS), size=rows)]
    v = rng.integers(0, 10_000, size=rows).astype(np.int64)
    with autocommit(index.mvcc) as txn:
        index.bulk_load_columns({"run": run, "k": k, "v": v}, txn)
    return index


QUERIES = [
    (
        "scalar over RLE",
        ["run"],
        [],
        [count_star("n"), agg("sum", "run", "s"), agg("min", "run", "lo"),
         agg("max", "run", "hi")],
    ),
    (
        "GROUP BY dict key",
        ["k", "v"],
        ["k"],
        [count_star("n"), agg("sum", "v", "s"), agg("max", "v", "hi")],
    ),
    (
        "GROUP BY RLE key",
        ["run", "v"],
        ["run"],
        [count_star("n"), agg("sum", "v", "s"), agg("max", "v", "hi")],
    ),
]


def run_query(store, columns, keys, aggs, encoded):
    scan = ColumnStoreScan(store, columns)
    op = BatchHashAggregate(scan, keys, aggs)
    if encoded:
        scan.takes_encoded = op.takes_encoded()
        assert scan.takes_encoded is not None
    rows = []
    for batch in op.batches():
        rows.extend(batch.to_rows())
    return rows


def run_arms(store):
    registry = get_registry()
    results = []
    for label, columns, keys, aggs in QUERIES:
        arms = {}
        for encoded in (True, False):
            before = registry.snapshot()
            rows = run_query(store, columns, keys, aggs, encoded)
            counters = snapshot_delta(before, registry.snapshot())
            timing = time_call(
                lambda e=encoded: run_query(store, columns, keys, aggs, e), repeat=3
            )
            arms[encoded] = {
                "rows": rows,
                "ms": timing.seconds * 1000,
                "decodes": counters.get("storage.segments.decode_requests", 0),
                "runs": counters.get("storage.scan.agg_runs_processed", 0),
                "groups": counters.get("storage.scan.agg_code_space_groups", 0),
                "fallbacks": counters.get("storage.scan.agg_fallbacks", 0),
            }
        results.append({"label": label, "on": arms[True], "off": arms[False]})
    return results


def test_e23_encoded_aggregation(benchmark, report_dir, store):
    results = benchmark.pedantic(run_arms, args=(store,), rounds=1, iterations=1)
    rows_total = sum(g.row_count for g in store.directory.row_groups())
    report = ReportTable(
        f"E23: encoded-space aggregation ({rows_total:,} rows)",
        ["query", "ms (encoded)", "ms (decoded)", "win", "decodes on/off",
         "runs processed", "code-space groups"],
    )

    for r in results:
        on, off = r["on"], r["off"]
        # The whole point: identical answers, bit for bit.
        same_rows(on["rows"], off["rows"])
        win = off["ms"] / max(on["ms"], 1e-9)
        report.add_row(
            r["label"],
            round(on["ms"], 2),
            round(off["ms"], 2),
            f"{win:.1f}x",
            f"{on['decodes']}/{off['decodes']}",
            on["runs"],
            on["groups"],
        )
    report.add_note(
        "run-granular folding + code-space GROUP BY (dictionary codes, RLE runs coded by "
        "value); results verified equal"
    )
    save_report(report_dir, "e23_encoded_agg.txt", report.render())

    scalar, grouped, by_runs = results
    n_groups = len(store.directory)
    n_runs = sum(g.segment("run").stream.n_runs for g in store.directory.row_groups())
    # Exact counts, not times: a change that silently decodes fails here.
    # The RLE scalar decodes nothing and touches runs, not rows.
    assert (scalar["on"]["decodes"], scalar["off"]["decodes"]) == (0, n_groups)
    assert 0 < scalar["on"]["runs"] < rows_total / 10
    assert scalar["on"]["fallbacks"] == 0
    # GROUP BY stays in code space (every group holds all 8 keys) and
    # decodes only the argument: half the decoded arm's requests.
    assert grouped["on"]["groups"] == len(KEYS) * n_groups
    assert (grouped["on"]["decodes"], grouped["off"]["decodes"]) == (n_groups, 2 * n_groups)
    assert grouped["on"]["fallbacks"] == 0
    # GROUP BY the RLE key decodes no key either — only the argument — and
    # folds every run of it into its group.
    assert (by_runs["on"]["decodes"], by_runs["off"]["decodes"]) == (n_groups, 2 * n_groups)
    assert by_runs["on"]["runs"] == n_runs and by_runs["on"]["fallbacks"] == 0
    assert scalar["off"]["runs"] == 0 and grouped["off"]["groups"] == 0
    assert by_runs["off"]["runs"] == 0
