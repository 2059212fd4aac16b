"""The metric catalogue: every name the suite prints, with unit and direction.

``BENCHMARK.json`` lists the same names (``test_suite_smoke.py`` checks
that the two agree). End-to-end metrics come from the untraced run and
carry a regression bound; per-layer metrics come from the traced run and
carry none. A per-layer metric whose layer is not on a workload's path is
printed as 0 there (``wal.fsyncs`` on ``star_scan`` is a measured zero;
``server.*`` off ``served_short`` is "no such layer").
"""

from __future__ import annotations

WORKLOADS: dict[str, str] = {
    "star_scan": (
        "22 star-schema queries x6 passes, in-process, 200k-row fact table in 7 "
        "compressed row groups, no delta rows: exec+storage decode do the work; "
        "a plan-cache or WAL change must show nothing here"
    ),
    "served_short": (
        "1 connection, 6 passes of 300 Zipf(1.1) reads (70% point, 20% range, 10% "
        "1000-row fetch) on `repro serve` over 100k rows: fixed per-statement "
        "costs (parse..compile, session, JSON, socket) weigh most"
    ),
    "trickle_write": (
        "6 passes of 24 units of 20 INSERT+1 UPDATE+1 DELETE on a durable 100k-row "
        "table, half autocommit, half BEGIN..COMMIT of 16, tuple mover per closed "
        "delta (256 rows), checkpoint per 250: the write path"
    ),
    "htap_mix": (
        "6 passes of 6 rounds of 64 writes then a whole-table GROUP BY and a range "
        "aggregate on one durable 100k-row table (delta closes at 256 rows): read "
        "cost, write cost and space trade against each other"
    ),
}

# name, unit, better, bound. Timings are calibrated against a kernel timed
# alongside them (common.py, "Calibration"); ten runs of one commit then
# spread by a few percent where uncalibrated ones spread by 10-25 %. The
# bounds stay at the contract's cap all the same: a run that lands in a
# bad spell of the host still moves by more than a tenth. See README.md,
# "Repeatability".
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("stmt_per_s", "1/s", "higher", 0.25),
    ("stmt_ms_p50", "ms", "lower", 0.25),
    ("stmt_ms_p95", "ms", "lower", 0.25),
    ("kind_geomean_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("stored_bytes_per_user_byte", "ratio", "lower", 0.01),
    ("recovery_s", "s", "lower", 0.25),
]

# name, unit, better
PER_LAYER: list[tuple[str, str, str]] = [
    ("sql.parse_ms_p50", "ms", "lower"),
    ("sql.bind_ms_p50", "ms", "lower"),
    ("planner.optimize_ms_p50", "ms", "lower"),
    ("planner.compile_ms_p50", "ms", "lower"),
    ("planner.plan_share", "ratio", "lower"),
    ("exec.run_ms_p50", "ms", "lower"),
    ("exec.run_share", "ratio", "higher"),
    ("exec.scan.self_ms", "ms", "lower"),
    ("exec.hash_join.self_ms", "ms", "lower"),
    ("exec.hash_aggregate.self_ms", "ms", "lower"),
    ("exec.sort_topn.self_ms", "ms", "lower"),
    ("exec.other.self_ms", "ms", "lower"),
    ("exec.rows_scanned_per_result_row", "ratio", "lower"),
    ("exec.spill.bytes_written", "bytes", "lower"),
    ("exec.batch_vs_row_speedup", "ratio", "higher"),
    ("storage.scan.units_seen", "count", "lower"),
    ("storage.scan.units_eliminated", "count", "higher"),
    ("storage.scan.elimination_ratio", "ratio", "higher"),
    ("storage.scan.rows_scanned", "count", "lower"),
    ("storage.scan.rows_emitted", "count", "lower"),
    ("storage.scan.delta_rows_scanned", "count", "lower"),
    ("storage.scan.rows_rejected_deleted", "count", "lower"),
    ("storage.scan.columns_decoded", "count", "lower"),
    ("storage.segments.decode_requests", "count", "lower"),
    ("storage.scan.encoded_space_conjuncts", "count", "higher"),
    ("storage.scan.agg_runs_processed", "count", "higher"),
    ("storage.scan.agg_fallbacks", "count", "lower"),
    ("storage.cache.hit_rate", "ratio", "higher"),
    ("storage.decode.dict_ns_per_value", "ns", "lower"),
    ("storage.decode.rle_ns_per_value", "ns", "lower"),
    ("storage.decode.bitpack_ns_per_value", "ns", "lower"),
    ("storage.delta_share_at_read", "ratio", "lower"),
    ("storage.delta.rows_inserted", "count", "lower"),
    ("storage.tuple_mover.busy_s", "s", "lower"),
    ("storage.tuple_mover.runs", "count", "lower"),
    ("storage.tuple_mover.rows_moved", "count", "lower"),
    ("storage.bulk_load_rows_per_s", "1/s", "higher"),
    ("storage.compressed_bytes_per_user_byte", "ratio", "lower"),
    ("db.insert_ms_p50", "ms", "lower"),
    ("db.delete_ms_p50", "ms", "lower"),
    ("db.update_ms_p50", "ms", "lower"),
    ("db.overhead_ms_p50", "ms", "lower"),
    ("db.checkpoint.busy_s", "s", "lower"),
    ("db.checkpoint.count", "count", "lower"),
    ("wal.append_ms_p50", "ms", "lower"),
    ("wal.commit_ms_p50", "ms", "lower"),
    ("wal.records_appended", "count", "lower"),
    ("wal.fsyncs", "count", "lower"),
    ("wal.fsyncs_per_commit", "ratio", "lower"),
    ("wal.bytes_appended", "bytes", "lower"),
    ("wal.bytes_per_user_byte", "ratio", "lower"),
    ("wal.replay_records_per_s", "1/s", "higher"),
    ("txn.commits", "count", "lower"),
    ("txn.block_overhead_ms_p50", "ms", "lower"),
    ("txn.statement_rollbacks", "count", "lower"),
    ("mvcc.epoch_commit_ms_p50", "ms", "lower"),
    ("mvcc.pin_ms_p50", "ms", "lower"),
    ("mvcc.versions_installed", "count", "lower"),
    ("mvcc.versions_gced", "count", "higher"),
    ("concurrency.session_overhead_ms_p50", "ms", "lower"),
    ("concurrency.read_waits", "count", "lower"),
    ("concurrency.write_waits", "count", "lower"),
    ("concurrency.latch_waits", "count", "lower"),
    ("concurrency.pinned_statements", "count", "higher"),
    ("concurrency.read_ms_p50_under_writer", "ms", "lower"),
    ("concurrency.write_ms_p50_under_reader", "ms", "lower"),
    ("governance.context_ms_p50", "ms", "lower"),
    ("server.roundtrip_overhead_ms_p50", "ms", "lower"),
    ("server.encode_us_per_row", "us", "lower"),
    ("server.connect_ms_p50", "ms", "lower"),
    ("server.statements_shed", "count", "lower"),
    ("server.two_connection_stmt_per_s", "1/s", "higher"),
    ("bench.statements", "count", "higher"),
    ("bench.kernel_ms", "ms", "lower"),
    ("bench.cpu_ms_per_stmt", "ms", "lower"),
    ("bench.distinct_statement_share", "ratio", "lower"),
    ("bench.read_ms_p50", "ms", "lower"),
    ("bench.read_ms_p95", "ms", "lower"),
    ("bench.read_ms_ptail", "ms", "lower"),
    ("bench.write_ms_p50", "ms", "lower"),
    ("bench.write_ms_p95", "ms", "lower"),
    ("bench.write_ms_ptail", "ms", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
]

def empty_per_layer() -> dict[str, float]:
    """Every per-layer metric at 0: the starting point of a traced run."""
    return {name: 0.0 for name, _unit, _better in PER_LAYER}


def with_units(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer values as ``name -> (value, unit)``, the shape run.py prints."""
    return {name: (values[name], unit) for name, unit, _better in PER_LAYER}

# Registry counters copied verbatim into per-layer metrics (metric name ->
# counter name). They are exact for a given seed.
COUNTERS: dict[str, str] = {
    "exec.spill.bytes_written": "exec.spill.bytes_written",
    "storage.scan.units_seen": "storage.scan.units_seen",
    "storage.scan.units_eliminated": "storage.scan.units_eliminated",
    "storage.scan.rows_scanned": "storage.scan.rows_scanned",
    "storage.scan.rows_emitted": "storage.scan.rows_emitted",
    "storage.scan.delta_rows_scanned": "storage.scan.delta_rows_scanned",
    "storage.scan.rows_rejected_deleted": "storage.scan.rows_rejected_deleted",
    "storage.scan.columns_decoded": "storage.scan.columns_decoded",
    "storage.segments.decode_requests": "storage.segments.decode_requests",
    "storage.scan.encoded_space_conjuncts": "storage.scan.encoded_space_conjuncts",
    "storage.scan.agg_runs_processed": "storage.scan.agg_runs_processed",
    "storage.scan.agg_fallbacks": "storage.scan.agg_fallbacks",
    "storage.delta.rows_inserted": "storage.delta.rows_inserted",
    "storage.tuple_mover.runs": "storage.tuple_mover.runs",
    "storage.tuple_mover.rows_moved": "storage.tuple_mover.rows_moved",
    "db.checkpoint.count": "storage.wal.checkpoints",
    "wal.records_appended": "storage.wal.records_appended",
    "wal.fsyncs": "storage.wal.fsyncs",
    "wal.bytes_appended": "storage.wal.bytes_appended",
    "txn.commits": "txn.commits",
    "txn.statement_rollbacks": "txn.statement_rollbacks",
    "mvcc.versions_installed": "mvcc.versions_installed",
    "mvcc.versions_gced": "mvcc.versions_gced",
    "concurrency.read_waits": "concurrency.read_waits",
    "concurrency.write_waits": "concurrency.write_waits",
    "concurrency.latch_waits": "concurrency.latch_waits",
    "concurrency.pinned_statements": "concurrency.pinned_statements",
    "server.statements_shed": "governance.statements_shed",
}


def counter_metrics(delta: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics that are plain registry counters, from a snapshot delta."""
    values = {metric: float(delta.get(counter, 0)) for metric, counter in COUNTERS.items()}
    seen = values["storage.scan.units_seen"]
    values["storage.scan.elimination_ratio"] = (
        values["storage.scan.units_eliminated"] / seen if seen else 0.0
    )
    lookups = delta.get("storage.cache.hits", 0) + delta.get("storage.cache.misses", 0)
    values["storage.cache.hit_rate"] = (
        delta.get("storage.cache.hits", 0) / lookups if lookups else 0.0
    )
    commits = delta.get("storage.wal.commits", 0)
    values["wal.fsyncs_per_commit"] = values["wal.fsyncs"] / commits if commits else 0.0
    return values
