"""trickle_write and htap_mix: one deterministic client on a durable table.

Both replay a fixed, seeded operation list through one in-process
``Session`` on ``Database.open(dir)`` (durability ``group``), run the
tuple mover each time a delta store closes and checkpoint every
``checkpoint_every`` statements. ``trickle_write`` is writes only;
``htap_mix`` ends each round of 64 writes with two reads over the
compressed groups, the growing delta store and the delete bitmap.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import catalog
import common
import inputs
import kvstore
import oracle
import stats
import tracer
from common import Scale, Window
from inputs import Op
from tracer import Tracer

_WRITE_KINDS = ("insert", "update", "delete", "begin", "commit")
_READ_KINDS = ("group_read", "range_read")
_PLAN_SPANS = ("sql.parse", "sql.bind", "planner.optimize", "planner.compile")
_DISPATCH_SPANS = ("db.sql", "sql.run_parsed", "db.query_context")


@dataclass(frozen=True)
class Spec:
    name: str
    make_ops: Callable[[int, int, int], list[Op]]
    units: Callable[[Scale], int]  # units (trickle) or rounds (htap) per pass
    passes_per_s: Callable[[Scale], float]
    durability_check: bool
    two_session_arm: bool


TRICKLE = Spec(
    "trickle_write", inputs.trickle_ops,
    lambda scale: scale.trickle_units, lambda scale: scale.trickle_passes_per_s,
    durability_check=True, two_session_arm=False,
)
HTAP = Spec(
    "htap_mix", inputs.htap_ops,
    lambda scale: scale.htap_rounds, lambda scale: scale.htap_passes_per_s,
    durability_check=False, two_session_arm=True,
)


REOPENS_PER_PASS = 2


def run(spec: Spec, seed: int, seconds: float, trace: bool, scale: Scale):
    with common.scratch(spec.name) as work:
        config = kvstore.store_config(scale.write_rowgroup, scale.delta_close)
        common.log(f"table kv: {scale.kv_rows} rows preloaded, {common.describe(config)}")
        base = work / "db"
        setup = kvstore.build(base, scale.kv_rows, seed, config)
        ops = spec.make_ops(scale.kv_rows, seed, spec.units(scale))
        common.log(
            f"list: {len(ops)} statements ({spec.units(scale)} units); checkpoint every "
            f"{scale.checkpoint_every}; tuple mover on every closed delta store"
        )
        if trace:
            return _traced(spec, setup, ops, base, work, scale, seconds)
        return _untraced(spec, setup, ops, base, work, config, scale, seconds)


# --------------------------------------------------------------------- #
# Untraced: the end-to-end numbers
# --------------------------------------------------------------------- #
def _untraced(spec, setup, ops, base, work, config, scale, seconds):
    """Every pass replays the whole list on a fresh copy of the preloaded
    directory, closes it and reopens it: the reopen replays what the list
    wrote after its last checkpoint and is the pass's ``recovery_s`` sample."""
    _reference, expected = kvstore.replay_reference(ops, setup.rows)
    model = oracle.TableModel(setup.rows)
    for op in ops:
        model.apply(op)
    passes = common.pass_count(seconds, spec.passes_per_s(scale))
    deadline = time.perf_counter() + seconds * common.DEADLINE_FACTOR
    total = Window()  # attempted and failed over all passes
    timed: list[common.Pass] = []
    recovery: list[tuple[float, float]] = []
    live = work / "live"
    made = 0
    last = False
    while not last:
        last = made == passes - 1 or (made >= 1 and time.perf_counter() > deadline)
        kvstore.clone(base, live)
        cdb, session = kvstore.open_session(live)
        replay = kvstore.WriteReplay(cdb, live, session.sql, scale.checkpoint_every)
        window = Window(calibrator=common.Calibrator())
        replay.run(ops, window)
        _check_reads(replay, expected, window)
        if last:
            kvstore.check_final_state("live", session.sql, model, window)
        session.close()
        cdb.close()  # flushes the log; does not checkpoint

        for _ in range(REOPENS_PER_PASS):  # closing again leaves the tail in the log
            calibrated_s, measured_s, reopened = common.calibrated(lambda: kvstore.reopen(live))
            recovery.append((calibrated_s, measured_s))
            kvstore.check_probe(reopened.sql, model, window)
            reopened.close()
        if last:
            reopened = kvstore.reopen(live)
            kvstore.check_final_state("reopened", reopened.sql, model, window)
            reopened.save(str(live))
            stored = common.dir_bytes(live)
            reopened.close()
        if made == passes // 2:  # a second build, half a run after the first
            setup.builds_s.append(kvstore.build_seconds(work / "again", setup.rows, config))
        if window.statements() == len(ops):  # a pass with an error is not timed
            timed.append(common.Pass(window.sequence, replay.maintenance.ms(),
                                     window.calibrator.factor()))
        total.attempted += window.attempted
        total.failed += window.failed
        made += 1
    if spec.durability_check:
        for mode in ("per-commit", "group"):
            kvstore.durability_check(work, mode, scale.durability_statements, total)
    if not timed:
        common.die("no pass completed without an error")

    user = inputs.user_bytes(inputs.KV_TABLE, list(model.rows.values()))
    common.log(
        f"window: {made} passes of {len(ops)} statements"
        f"{' (fewer than planned: deadline)' if made < passes else ''}; per pass "
        f"{replay.maintenance.mover_runs} tuple-mover runs and "
        f"{replay.maintenance.checkpoints} checkpoints; "
        f"disk {stored} B for {user} B of user data after the last checkpoint"
    )
    common.log(common.seconds_line("recovery", recovery))
    common.log(common.seconds_line("build", setup.builds_s))
    metrics = common.end_to_end([op.kind for op in ops], timed, setup.setup_s,
                                common.peak_rss_mb(), stored / user,
                                common.median_calibrated(recovery))
    return total, metrics


def _check_reads(replay: kvstore.WriteReplay, expected: dict[int, list], window: Window) -> None:
    for index, result in replay.read_results:
        if not oracle.same_rows(result.rows, expected[index]):
            window.failed += 1
            common.log(f"  wrong answer for statement {index}")


# --------------------------------------------------------------------- #
# Traced: the per-layer numbers
# --------------------------------------------------------------------- #
BLOCK_STATEMENTS = 110


def _traced(spec, setup, ops, base, work, scale, seconds):
    """One pass over the list on two identical copies of the database in
    lockstep: a block of statements through an untraced ``Session`` (the
    replay whose counters are kept), then the same block through a
    ``Session`` with the tracer installed — alternating which goes first,
    so both see the same machine."""
    statements = len(ops)
    block = BLOCK_STATEMENTS
    values = catalog.empty_per_layer()
    wrapped = Tracer()
    counters: dict[str, float] = {}
    plain_window, traced_window = Window(), Window()

    def mark(index: int) -> None:
        wrapped.statement = index

    with common.fresh_registry() as registry:
        plain_dir = kvstore.clone(base, work / "plain")
        cdb, session = kvstore.open_session(plain_dir)
        plain = kvstore.WriteReplay(cdb, plain_dir, session.sql, scale.checkpoint_every)
        traced_dir = kvstore.clone(base, work / "traced")
        traced_cdb, traced_session = kvstore.open_session(traced_dir)
        # ``.sql`` is looked up per call, so it resolves to the tracer's
        # wrapper while that is installed.
        traced = kvstore.WriteReplay(traced_cdb, traced_dir,
                                     lambda sql: traced_session.sql(sql), scale.checkpoint_every)

        def untraced_block():
            with common.counting(registry, counters):
                plain.run(ops, plain_window, stop_after=block)

        def traced_block():
            with wrapped.installed():
                traced.run(ops, traced_window, stop_after=block, on_statement=mark)

        turn = 0
        while plain.executed < statements:
            for replay in common.rotated([untraced_block, traced_block], turn):
                replay()
            turn += 1
        traced_session.close()
        traced_cdb.close()
        tracer.write_jsonl(common.OUT_DIR / f"trace_{spec.name}.jsonl", {"wrapped": wrapped})

        model = oracle.TableModel(setup.rows)
        written = 0
        for op in ops[:plain.executed]:
            model.apply(op)
            if op.kind in ("insert", "update"):
                written += inputs.user_bytes(inputs.KV_TABLE, [model.rows[op.key]])
        _reference, expected = kvstore.replay_reference(ops[:plain.executed], setup.rows)
        _check_reads(plain, expected, plain_window)
        kvstore.check_final_state("untraced replay", session.sql, model, plain_window)
        values["storage.compressed_bytes_per_user_byte"] = (
            cdb.db.table(kvstore.TABLE).columnstore.size_bytes
            / inputs.user_bytes(inputs.KV_TABLE, list(model.rows.values()))
        )
        cdb.db.wal.flush()
        values["wal.replay_records_per_s"] = _wal_replay_rate(
            kvstore.clone(plain_dir, work / "replay"))
        # The remaining arms write rows of their own, so they come last.
        values["txn.block_overhead_ms_p50"] = _txn_block_overhead(session, scale.kv_rows)
        if spec.two_session_arm:
            read_ms, write_ms = _two_session_arm(cdb, seconds)
            values["concurrency.read_ms_p50_under_writer"] = read_ms
            values["concurrency.write_ms_p50_under_reader"] = write_ms
        session.close()
        cdb.close()

    values.update(catalog.counter_metrics(counters))
    values["wal.bytes_per_user_byte"] = (
        counters.get("storage.wal.bytes_appended", 0) / written if written else 0.0
    )
    values["storage.tuple_mover.busy_s"] = plain.maintenance.mover_s
    values["db.checkpoint.busy_s"] = plain.maintenance.checkpoint_s
    values["db.checkpoint.count"] = float(plain.maintenance.checkpoints)
    if plain.delta_share_at_read:
        shares = plain.delta_share_at_read
        values["storage.delta_share_at_read"] = sum(shares) / len(shares)
        common.log("delta share at each whole-table read: "
                   + " ".join(f"{share:.4f}" for share in shares))
    values["bench.statements"] = float(plain_window.statements())
    values["bench.kernel_ms"] = common.kernel_ms()
    values["bench.cpu_ms_per_stmt"] = plain_window.cpu_s * 1000.0 / plain_window.statements()
    values["bench.distinct_statement_share"] = (
        len({op.sql for op in ops[:plain.executed]}) / plain.executed
    )
    values["bench.trace_overhead_share"] = (
        sum(traced_window.sequence) / sum(plain_window.sequence) - 1.0
    )
    common.latency_rows(values, "read", plain_window.ms_of(_READ_KINDS))
    common.latency_rows(values, "write", plain_window.ms_of(_WRITE_KINDS))
    result_rows = sum(len(result.rows) for _i, result in plain.read_results)
    if result_rows:
        values["exec.rows_scanned_per_result_row"] = (
            counters.get("storage.scan.rows_scanned", 0) / result_rows
        )
    _span_metrics(values, wrapped, root="concurrency.session_sql")
    plain_window.attempted += traced_window.attempted
    plain_window.failed += traced_window.failed
    return plain_window, catalog.with_units(values)


def _span_metrics(values: dict[str, float], spans: Tracer, root: str) -> None:
    """Per-layer timings read off the spans of a traced replay."""
    roots = spans.durations(root)
    total = sum(roots)
    values["sql.parse_ms_p50"] = stats.median(spans.durations("sql.parse"))
    values["sql.bind_ms_p50"] = stats.median(spans.durations("sql.bind"))
    values["planner.optimize_ms_p50"] = stats.median(spans.durations("planner.optimize"))
    values["planner.compile_ms_p50"] = stats.median(spans.self_durations("planner.compile"))
    planning = sum(spans.per_statement(_PLAN_SPANS).values())
    executing = spans.durations("exec.rows")
    values["planner.plan_share"] = planning / total if total else 0.0
    values["exec.run_ms_p50"] = stats.median(executing)
    values["exec.run_share"] = sum(executing) / total if total else 0.0
    values["db.insert_ms_p50"] = stats.median(spans.durations("db.insert"))
    values["db.update_ms_p50"] = stats.median(spans.durations("db.update"))
    values["db.delete_ms_p50"] = stats.median(spans.durations("db.delete"))
    values["db.overhead_ms_p50"] = stats.median(
        list(spans.per_statement(_DISPATCH_SPANS).values())
    )
    # What the Session adds: Session.sql's own time, its children (parse,
    # context, run_parsed, ...) being what Database.sql would run too.
    values["concurrency.session_overhead_ms_p50"] = stats.median(spans.self_durations(root))
    values["governance.context_ms_p50"] = stats.median(spans.durations("db.query_context"))
    values["wal.append_ms_p50"] = stats.median(spans.durations("wal.append"))
    values["wal.commit_ms_p50"] = stats.median(spans.durations("wal.commit"))
    values["mvcc.epoch_commit_ms_p50"] = stats.median(spans.durations("mvcc.epoch_commit"))
    values["mvcc.pin_ms_p50"] = (
        stats.median(spans.durations("mvcc.pin")) + stats.median(spans.durations("mvcc.release"))
    )


def _wal_replay_rate(directory: Path) -> float:
    """Records replayed per second when the flushed directory is reopened."""
    from repro import Database

    with common.fresh_registry() as registry:
        seconds, db = common.timed(lambda: Database.open(str(directory)))
        records = registry.snapshot().get("storage.wal.replay.records", 0)
        db.close()
    return records / seconds if seconds else 0.0


def _txn_block_overhead(session, first_key: int, blocks: int = 24) -> float:
    """Median time of BEGIN + 16 INSERT + COMMIT minus 16 autocommit INSERTs."""
    key = first_key + 10_000_000
    grouped: dict[bool, list[float]] = {True: [], False: []}
    for block in range(blocks * 2):
        in_txn = bool(block % 2)
        start = time.perf_counter()
        if in_txn:
            session.sql("BEGIN")
        for _ in range(inputs.TXN_BLOCK):
            session.sql(f"INSERT INTO kv VALUES ({key}, 1, 1, 1.5, 'tag00')")
            key += 1
        if in_txn:
            session.sql("COMMIT")
        grouped[in_txn].append((time.perf_counter() - start) * 1000.0)
    return stats.median(grouped[True]) - stats.median(grouped[False])


def _two_session_arm(cdb, seconds: float, rounds: int = 3) -> tuple[float, float]:
    """One reader thread and one writer thread on the same table.

    Trace-only and ungated: two Python threads share the interpreter
    lock, so this arm mostly measures its scheduler (a probe varied by
    ~20 % from run to run). Printed with its spread for that reason.
    """
    duration = max(0.5, seconds / 7.0)
    key = [50_000_000]
    read_medians, write_medians = [], []
    for _ in range(rounds):
        stop = threading.Event()
        read_ms: list[float] = []
        write_ms: list[float] = []

        def reader() -> None:
            with cdb.session() as session:
                while not stop.is_set():
                    start = time.perf_counter()
                    session.sql(inputs.GROUP_SQL)
                    read_ms.append((time.perf_counter() - start) * 1000.0)

        def writer() -> None:
            with cdb.session() as session:
                while not stop.is_set():
                    start = time.perf_counter()
                    session.sql(f"INSERT INTO kv VALUES ({key[0]}, 2, 2, 2.5, 'tag01')")
                    write_ms.append((time.perf_counter() - start) * 1000.0)
                    key[0] += 1

        threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        time.sleep(duration)
        stop.set()
        for thread in threads:
            thread.join()
        read_medians.append(stats.median(read_ms))
        write_medians.append(stats.median(write_ms))
    common.log(
        f"two-session arm ({rounds} x {duration:.1f} s): read p50 per round "
        f"{[round(v, 3) for v in read_medians]} (spread {stats.spread(read_medians):.1%}), "
        f"write p50 per round {[round(v, 4) for v in write_medians]} "
        f"(spread {stats.spread(write_medians):.1%})"
    )
    return stats.median(read_medians), stats.median(write_medians)
