"""star_scan: the 22 star-schema queries, in-process, on compressed row groups.

The paper's headline path. ``exec`` and ``storage`` decode do nearly all
the work; ``sql``, ``planner``, ``wal`` and ``server`` do none to speak
of, so kernel, encoded-execution and parallelism work shows here and a
plan cache or a WAL change must show nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict

import catalog
import common
import inputs
import oracle
import stages
import stats
import tracer
from common import Scale, Window
from inputs import STAR_QUERIES, StarQuery
from tracer import Tracer

FACT = "store_sales"
PROBE_SQL = "SELECT COUNT(*) AS n, SUM(ss_quantity) AS units FROM store_sales"
_OPERATOR_CLASSES = {
    "ColumnStoreScan": "exec.scan.self_ms",
    "BatchHashJoin": "exec.hash_join.self_ms",
    "BatchHashAggregate": "exec.hash_aggregate.self_ms",
    "BatchSort": "exec.sort_topn.self_ms",
    "BatchTop": "exec.sort_topn.self_ms",
}


def _load(data: dict[str, list[tuple]], config, storage: str = "columnstore"):
    """A fresh in-memory database holding ``data``; returns it with the
    seconds the fact table's bulk load took."""
    from repro import Database

    db = Database(config)
    fact_s = 0.0
    for table, columns in inputs.STAR_TABLES.items():
        db.sql(f"{inputs.create_table_sql(table, columns)} USING {storage}")
        seconds, _ = common.timed(lambda: db.bulk_load(table, data[table]))
        if table == FACT:
            fact_s = seconds
    return db, fact_s


def _correct(query: StarQuery, rows: list, expected: dict[str, list]) -> bool:
    full = expected[query.qid]
    if query.order:
        return oracle.check_ordered(rows, full, query.order, query.limit)
    return oracle.same_rows(rows, full)


def _replay(db, passes: int, window: Window, expected,
            on_statement=None, first_pass: int = 0) -> list:
    """``passes`` passes over the 22 queries through ``Database.sql``; answers
    are checked after the clock stops. Returns the results of the last pass.
    ``on_statement`` gets each statement's index, counted from ``first_pass``."""
    answers: list[tuple[StarQuery, list]] = []
    results = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for index in range(passes):
        results = []
        for position, query in enumerate(STAR_QUERIES):
            if on_statement is not None:
                on_statement((first_pass + index) * len(STAR_QUERIES) + position)
            begin = time.perf_counter()
            try:
                result = db.sql(query.sql)
            except Exception as exc:
                common.log(f"  {query.qid} failed: {type(exc).__name__}: {exc}")
                window.attempted += 1
                window.failed += 1
                continue
            window.record(query.qid, (time.perf_counter() - begin) * 1000.0)
            answers.append((query, result.rows))
            results.append(result)
    window.elapsed_s += time.perf_counter() - start
    window.cpu_s += time.process_time() - cpu0
    for query, rows in answers:
        if not _correct(query, rows, expected):
            window.failed += 1
            common.log(f"  wrong answer for {query.qid}")
    return results


def _build(data: dict[str, list[tuple]], config, snapshot):
    """Load the five tables and checkpoint them into ``snapshot``. Returns
    the database, the ``(calibrated, measured)`` seconds it all took (the
    kernel sampled before, between load and checkpoint, and after) and the
    fact table's measured load seconds."""
    calibrator = common.Calibrator()
    calibrator.take(8)
    load_s, (db, fact_load_s) = common.timed(lambda: _load(data, config))
    calibrator.take(8)
    save_s, _ = common.timed(lambda: db.save(str(snapshot)))
    calibrator.take(8)
    seconds = load_s + save_s
    return db, (seconds * calibrator.factor(), seconds), fact_load_s


def run(seed: int, seconds: float, trace: bool, scale: Scale):
    from repro import StoreConfig

    with common.scratch("star_scan") as work:
        # bulk_load_threshold=1: even the 100-row store dimension compresses
        # straight into a row group, so no query touches a delta store.
        config = StoreConfig(rowgroup_size=scale.star_rowgroup, bulk_load_threshold=1)
        generate_s, _measured_s, data = common.calibrated(
            lambda: inputs.star_rows(scale.star_fact_rows, seed))
        snapshot = work / "db"
        db, build_s, fact_load_s = _build(data, config, snapshot)
        builds_s = [build_s]
        sizes = {table: len(rows) for table, rows in data.items()}
        groups = len(db.table(FACT).columnstore.directory)
        common.log(f"tables: {sizes}; {FACT} in {groups} row groups; {common.describe(config)}")

        reference = oracle.SqliteOracle()
        for table, columns in inputs.STAR_TABLES.items():
            reference.load(table, columns, data[table], key=columns[0][0] if table != FACT else None)
        expected = {query.qid: reference.query(query.sql) for query in STAR_QUERIES}
        reference.close()
        user = sum(inputs.user_bytes(inputs.STAR_TABLES[t], rows) for t, rows in data.items())
        passes = common.pass_count(seconds, scale.star_passes_per_s)

        if trace:
            return _traced(db, data, config, expected, passes, fact_load_s, user, scale)

        _replay(db, 1, Window(), expected)  # warm-up: lazy statistics, caches
        deadline = time.perf_counter() + seconds * common.DEADLINE_FACTOR
        total = Window()
        timed: list[common.Pass] = []
        recovery: list[tuple[float, float]] = []
        want_probe = db.sql(PROBE_SQL).rows
        made = 0
        while made < passes and (made < 2 or time.perf_counter() < deadline):
            window = Window(calibrator=common.Calibrator())
            _replay(db, 1, window, expected)
            if window.statements() == len(STAR_QUERIES):  # a pass with an error is not timed
                timed.append(common.Pass(window.sequence, [], window.calibrator.factor()))
            calibrated_s, measured_s, rows = common.open_seconds(snapshot, work, PROBE_SQL)
            recovery.append((calibrated_s, measured_s))
            window.attempted += 1
            if not oracle.same_rows(rows, want_probe):
                window.failed += 1
                common.log(f"  reopened snapshot answers {rows}, the live database {want_probe}")
            if made == passes // 2:  # a second build, half a run after the first
                builds_s.append(_build(data, config, work / "again")[1])
            total.attempted += window.attempted
            total.failed += window.failed
            made += 1
        if not timed:
            common.die("no pass completed without an error")
        stored = common.dir_bytes(snapshot)
        common.log(
            f"window: {made} passes of {len(STAR_QUERIES)} statements after 1 warm-up"
            f"{' (fewer than planned: deadline)' if made < passes else ''}; "
            f"snapshot {stored} B for {user} B of user data"
        )
        common.log(common.seconds_line("recovery", recovery))
        common.log(common.seconds_line("build", builds_s))
        metrics = common.end_to_end([query.qid for query in STAR_QUERIES], timed,
                                    generate_s + common.median_calibrated(builds_s),
                                    common.peak_rss_mb(), stored / user,
                                    common.median_calibrated(recovery))
        return total, metrics


# --------------------------------------------------------------------- #
# Traced run
# --------------------------------------------------------------------- #
def _traced(db, data, config, expected, passes, fact_load_s, user, scale):
    """One fifth of the passes, each replayed three ways back to back —
    untraced (the only replay whose counters are kept), with the tracer
    wrapped around the engine, and staged by the bench — rotating which
    goes first, so the three see the same machine."""
    passes = max(2, passes // 5)
    values = catalog.empty_per_layer()
    _replay(db, 1, Window(), expected)  # warm-up
    plain, traced = Window(), Window()
    staged, wrapped = Tracer(), Tracer()
    counters: dict[str, float] = {}
    last_results: list = []

    def mark(index: int) -> None:
        wrapped.statement = index

    with common.fresh_registry() as registry:
        for index in range(passes):
            def untraced_pass():
                with common.counting(registry, counters):
                    last_results[:] = _replay(db, 1, plain, expected)

            def wrapped_pass():
                with wrapped.installed():
                    _replay(db, 1, traced, expected, on_statement=mark, first_pass=index)

            def staged_pass():
                for position, query in enumerate(STAR_QUERIES):
                    staged.statement = index * len(STAR_QUERIES) + position
                    rows = stages.run_select(db, query.sql, staged)
                    plain.attempted += 1
                    if not _correct(query, rows, expected):
                        plain.failed += 1
                        common.log(f"  staged replay: wrong answer for {query.qid}")

            for replay in common.rotated([untraced_pass, wrapped_pass, staged_pass], index):
                replay()
    tracer.write_jsonl(common.OUT_DIR / "trace_star_scan.jsonl",
                       {"staged": staged, "wrapped": wrapped})

    values.update(catalog.counter_metrics(counters))
    values["bench.statements"] = float(plain.statements())
    values["bench.kernel_ms"] = common.kernel_ms()
    values["bench.cpu_ms_per_stmt"] = plain.cpu_s * 1000.0 / plain.statements()
    values["bench.distinct_statement_share"] = len(STAR_QUERIES) / plain.statements()
    values["bench.trace_overhead_share"] = sum(traced.sequence) / sum(plain.sequence) - 1.0
    common.latency_rows(values, "read", plain.sequence)
    result_rows = sum(len(result.rows) for result in last_results) * passes
    values["exec.rows_scanned_per_result_row"] = (
        counters.get("storage.scan.rows_scanned", 0) / result_rows
    )
    values["storage.delta_share_at_read"] = max(
        db.table(table).columnstore.fraction_in_delta for table in inputs.STAR_TABLES
    )
    values["storage.bulk_load_rows_per_s"] = len(data[FACT]) / fact_load_s
    compressed = sum(db.table(t).columnstore.size_bytes for t in inputs.STAR_TABLES)
    values["storage.compressed_bytes_per_user_byte"] = compressed / user
    stages.stage_metrics(values, staged)
    staged_ms = stages.statement_totals(staged)
    values["db.overhead_ms_p50"] = stats.median(
        [whole - staged_ms[index] for index, whole in enumerate(plain.sequence)]
    )
    # Operator self times from the engine's own per-operator actuals.
    values.update(_operator_self_ms(db, plain))
    # Decode cost per value, by encoding, over every segment of the star tables.
    values.update(_decode_cost(db))
    # The paper's headline ratio on a prefix copy (informational).
    values["exec.batch_vs_row_speedup"] = _batch_vs_row(data, config, scale, plain)

    plain.attempted += traced.attempted
    plain.failed += traced.failed
    return plain, catalog.with_units(values)


def _operator_self_ms(db, window: Window) -> dict[str, float]:
    """One pass with ``stats=True``: inclusive operator times turned into
    self times (minus the children) and summed per operator class."""
    totals: dict[str, float] = defaultdict(float)
    for query in STAR_QUERIES:
        result = db.sql(query.sql, stats=True)
        window.attempted += 1
        nodes = result.stats.operators
        for at, node in enumerate(nodes):
            children = 0.0
            for later in nodes[at + 1:]:
                if later.depth <= node.depth:
                    break
                if later.depth == node.depth + 1:
                    children += later.runtime.wall_seconds
            label = node.label.split("(")[0]
            metric = _OPERATOR_CLASSES.get(label, "exec.other.self_ms")
            totals[metric] += (node.runtime.wall_seconds - children) * 1000.0
    return dict(totals)


def _decode_cost(db) -> dict[str, float]:
    """ns per value of ``ColumnSegment.decode`` over every segment of the
    five tables (the fact table has no dictionary-encoded column).

    ``dict`` covers dictionary-encoded segments whatever their code
    stream; ``rle`` and ``bitpack`` split *all* segments by the stream's
    compression, so the three overlap by design.
    """
    from repro.storage.encodings import BitpackBlock, Scheme
    from repro.storage.rle import RleBlock

    seconds: dict[str, float] = defaultdict(float)
    decoded: dict[str, int] = defaultdict(int)
    segments = [
        group.segment(column)
        for table, columns in inputs.STAR_TABLES.items()
        for group in db.table(table).columnstore.directory.row_groups()
        for column, _sql_type in columns
    ]
    for segment in segments:
        elapsed, _ = common.timed(segment.decode)
        classes = []
        if segment.scheme is Scheme.DICT:
            classes.append("dict")
        if isinstance(segment.stream, RleBlock):
            classes.append("rle")
        elif isinstance(segment.stream, BitpackBlock):
            classes.append("bitpack")
        for name in classes:
            seconds[name] += elapsed
            decoded[name] += segment.row_count
    return {
        f"storage.decode.{name}_ns_per_value": seconds[name] * 1e9 / decoded[name]
        for name in seconds
    }


def _batch_vs_row(data, config, scale: Scale, window: Window) -> float:
    """Row mode on a row-store copy against batch mode on a columnstore
    copy, six queries, one pass each, on the first ``row_mode_rows`` facts
    (a 200k-row row store takes longer to load than the whole run may)."""
    prefix = dict(data)
    prefix[FACT] = data[FACT][: scale.row_mode_rows]
    batch_db, _ = _load(prefix, config)
    row_db, _ = _load(prefix, config, storage="rowstore")
    batch_s = row_s = 0.0
    for query in STAR_QUERIES:
        if query.qid not in inputs.BATCH_VS_ROW_QIDS:
            continue
        batch_db.sql(query.sql)  # warm-up: statistics
        elapsed, batch = common.timed(lambda: batch_db.sql(query.sql, mode="batch"))
        batch_s += elapsed
        elapsed, row = common.timed(lambda: row_db.sql(query.sql, mode="row"))
        row_s += elapsed
        window.attempted += 1
        if not oracle.same_rows(batch.rows, row.rows):
            window.failed += 1
            common.log(f"  batch and row mode disagree on {query.qid}")
    return row_s / batch_s
