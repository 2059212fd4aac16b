"""served_short: short read-only statements through ``python -m repro serve``.

A child process serves a durable, key-sorted 100k-row table; one
``ServerClient`` connection replays a fixed list of point lookups,
500-key range aggregates and 1,000-row fetches, keys Zipf(1.1). Execution
is a few milliseconds, so the fixed per-statement costs — lex/parse, bind,
optimize, compile, pin, session, governance context, JSON, socket — are a
larger share here than on any other workload.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import catalog
import common
import inputs
import kvstore
import oracle
import stages
import stats
import tracer
from common import Scale, Window
from inputs import Op
from tracer import Tracer

WARMUP_STATEMENTS = 25
_LISTENING = re.compile(r" on ([\d.]+):(\d+) ")


class ServerProcess:
    """``python -m repro serve <dir>`` as a child; stopped with SIGINT so it
    drains and closes the database the way an operator's Ctrl-C would."""

    def __init__(self, directory: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(common.REPO_ROOT / "src"))
        # -u: the "serving on host:port" line must not sit in a pipe buffer.
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", str(directory)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=str(directory.parent),
        )
        line = self.process.stdout.readline()
        match = _LISTENING.search(line)
        if match is None:
            rest = self.stop()
            raise RuntimeError(f"server did not start: {line!r} {rest!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> str:
        """Interrupt, wait for the drain, kill if it hangs; returns its output."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            output, _ = self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            output, _ = self.process.communicate()
        return output


def _check(answers: list[tuple[Op, list]], reference: oracle.SqliteOracle, window: Window) -> None:
    for op, rows in answers:
        if not oracle.same_rows(rows, reference.cached(op.sql)):
            window.failed += 1
            common.log(f"  wrong answer for {op.sql!r}")


def run(seed: int, seconds: float, trace: bool, scale: Scale):
    with common.scratch("served_short") as work:
        config = kvstore.store_config(scale.served_rowgroup)
        common.log(f"table kv: {scale.kv_rows} rows, key-sorted, {common.describe(config)}")
        directory = work / "db"
        setup = kvstore.build(directory, scale.kv_rows, seed, config)
        calibrated_s, measured_s, server = common.calibrated(lambda: ServerProcess(directory))
        try:
            reference = oracle.SqliteOracle()
            reference.load(kvstore.TABLE, inputs.KV_TABLE, setup.rows, key="k")
            if trace:
                return _traced(server, directory, work, reference, seed, scale)
            return _untraced(server, setup, [(calibrated_s, measured_s)], directory, work, config,
                             reference, seed, seconds, scale)
        finally:
            server.stop()


def _untraced(server, setup, starts_s, directory, work, config, reference, seed, seconds, scale):
    """One connection replays the list once per pass, every pass with its
    keys moved up by one: each list position does the same work in every
    pass, but a pass repeats next to none of another's statement texts."""
    from repro.server.server import ServerClient

    passes = common.pass_count(seconds, scale.served_passes_per_s)
    deadline = time.perf_counter() + seconds * common.DEADLINE_FACTOR
    total = Window()
    timed: list[common.Pass] = []
    recovery: list[tuple[float, float]] = []
    want_probe = reference.query(kvstore.PROBE_SQL)
    with ServerClient(server.host, server.port) as client:
        for op in inputs.served_ops(scale.kv_rows, seed, 100, WARMUP_STATEMENTS):
            client.sql(op.sql)
        made = 0
        while made < passes and (made < 2 or time.perf_counter() < deadline):
            ops = inputs.served_ops(scale.kv_rows, seed, 0, scale.served_statements, shift=made)
            window = Window(calibrator=common.Calibrator())
            answers = []
            for op in ops:
                begin = time.perf_counter()
                try:
                    response = client.sql(op.sql)
                except Exception as exc:  # an error or a shed statement is a failed one
                    common.log(f"  statement failed: {op.sql!r}: {exc}")
                    window.attempted += 1
                    window.failed += 1
                    continue
                window.record(op.kind, (time.perf_counter() - begin) * 1000.0)
                answers.append((op, response["rows"]))
            _check(answers, reference, window)
            if window.statements() == len(ops):  # a pass with an error is not timed
                timed.append(common.Pass(window.sequence, [], window.calibrator.factor()))
            # The server is idle and the workload read-only: copy and open its directory.
            calibrated_s, measured_s, rows = common.open_seconds(directory, work, kvstore.PROBE_SQL)
            recovery.append((calibrated_s, measured_s))
            window.attempted += 1
            if not oracle.same_rows(rows, want_probe):
                window.failed += 1
                common.log(f"  reopened directory answers {rows}, sqlite3 {want_probe}")
            if made == passes // 2:  # a second build and server start, half a run after the first
                setup.builds_s.append(kvstore.build_seconds(work / "again", setup.rows, config))
                calibrated_s, measured_s, second = common.calibrated(
                    lambda: ServerProcess(work / "again"))
                second.stop()
                starts_s.append((calibrated_s, measured_s))
            total.attempted += window.attempted
            total.failed += window.failed
            made += 1
    if not timed:
        common.die("no pass completed without an error")
    rss_mb = common.peak_rss_mb(server.process.pid)
    stored = common.dir_bytes(directory)
    distinct = len({op.sql for op in ops}) / len(ops)
    common.log(
        f"window: {made} passes of {len(ops)} statements over 1 connection"
        f"{' (fewer than planned: deadline)' if made < passes else ''}; "
        f"{distinct:.1%} distinct texts within a pass, next to none shared between passes; "
        f"disk {stored} B for {setup.user_bytes} B of user data; peak_rss_mb is the server "
        f"process's"
    )
    common.log(common.seconds_line("recovery", recovery))
    common.log(common.seconds_line("build", setup.builds_s))
    common.log(common.seconds_line("server start", starts_s))
    metrics = common.end_to_end([op.kind for op in ops], timed,
                                setup.setup_s + common.median_calibrated(starts_s), rss_mb,
                                stored / setup.user_bytes, common.median_calibrated(recovery))
    return total, metrics


# --------------------------------------------------------------------- #
# Traced run: the same list five ways, so wire, session and pipeline costs
# separate by subtraction
# --------------------------------------------------------------------- #
BLOCK_STATEMENTS = 60


def _traced(server, directory, work, reference, seed, scale):
    """One pass over the list, cut into blocks; each block is replayed back
    to back over the wire, through an in-process ``Session`` (the replay
    whose counters are kept), through ``Database.sql``, staged by the
    bench (``Database.sql``'s pipeline, one span per stage) and through the
    ``Session`` with the tracer installed — rotating which goes first, so a
    statement's five timings see the same machine.

    The in-process replays run on a copy of the directory: the child's
    registry is not reachable from outside.
    """
    from repro.server.server import ServerClient

    ops = inputs.served_ops(scale.kv_rows, seed, 0, scale.served_statements)
    warmup = inputs.served_ops(scale.kv_rows, seed, 100, WARMUP_STATEMENTS)
    values = catalog.empty_per_layer()
    values["bench.statements"] = float(len(ops))
    values["bench.kernel_ms"] = common.kernel_ms()
    values["bench.distinct_statement_share"] = len({op.sql for op in ops}) / len(ops)

    cdb, session = kvstore.open_session(kvstore.clone(directory, work / "inproc"))
    db = cdb.db
    client = ServerClient(server.host, server.port)
    wire, plain, direct, traced = Window(), Window(), Window(), Window()
    staged, wrapped = Tracer(), Tracer()
    counters: dict[str, float] = {}
    _replay(lambda sql: client.sql(sql)["rows"], warmup, Window(), reference)
    _replay(lambda sql: session.sql(sql).rows, warmup, Window(), reference)

    def mark(index: int) -> None:
        wrapped.statement = index

    with common.fresh_registry() as registry:
        for block, first in enumerate(range(0, len(ops), BLOCK_STATEMENTS)):
            chunk = ops[first:first + BLOCK_STATEMENTS]

            def over_the_wire():
                _replay(lambda sql: client.sql(sql)["rows"], chunk, wire, reference)

            def through_session():
                with common.counting(registry, counters):
                    cpu0 = time.process_time()
                    _replay(lambda sql: session.sql(sql).rows, chunk, plain, reference)
                    plain.cpu_s += time.process_time() - cpu0

            def through_database():
                _replay(lambda sql: db.sql(sql).rows, chunk, direct, reference)

            def staged_by_the_bench():
                for index, op in enumerate(chunk, start=first):
                    staged.statement = index
                    rows = stages.run_select(db, op.sql, staged)
                    plain.attempted += 1
                    if not oracle.same_rows(rows, reference.cached(op.sql)):
                        plain.failed += 1
                        common.log(f"  staged replay: wrong answer for {op.sql!r}")

            def with_the_tracer():
                with wrapped.installed():
                    _replay(lambda sql: session.sql(sql).rows, chunk, traced, reference,
                            on_statement=mark, first_index=first)

            for replay in common.rotated([over_the_wire, through_session, through_database,
                                          staged_by_the_bench, with_the_tracer], block):
                replay()
    client.close()
    tracer.write_jsonl(common.OUT_DIR / "trace_served_short.jsonl",
                       {"staged": staged, "wrapped": wrapped})

    connects = []
    for _ in range(20):
        seconds, probe = common.timed(lambda: ServerClient(server.host, server.port))
        probe.close()
        connects.append(seconds * 1000.0)
    values["server.connect_ms_p50"] = stats.median(connects)
    values["server.two_connection_stmt_per_s"] = _two_connection_arm(
        server, reference, seed, scale, wire)
    values.update(catalog.counter_metrics(counters))
    values["bench.cpu_ms_per_stmt"] = plain.cpu_s * 1000.0 / len(ops)  # in process
    values["bench.trace_overhead_share"] = sum(traced.sequence) / sum(plain.sequence) - 1.0
    common.latency_rows(values, "read", plain.sequence)
    result_rows = {"point": 1, "range": 1, "wide": 1000}
    values["exec.rows_scanned_per_result_row"] = (
        counters.get("storage.scan.rows_scanned", 0) / sum(result_rows[op.kind] for op in ops)
    )
    values["storage.compressed_bytes_per_user_byte"] = (
        db.table(kvstore.TABLE).columnstore.size_bytes
        / inputs.user_bytes(inputs.KV_TABLE, reference.query("SELECT * FROM kv"))
    )
    overhead = [a - b for a, b in zip(wire.sequence, plain.sequence)]
    values["server.roundtrip_overhead_ms_p50"] = stats.median(overhead)
    values["server.encode_us_per_row"] = stats.median(
        [ms for ms, op in zip(overhead, ops) if op.kind == "wide"]
    )  # ms per 1000 rows == us per row
    values["concurrency.session_overhead_ms_p50"] = stats.median(
        [a - b for a, b in zip(plain.sequence, direct.sequence)]
    )
    stages.stage_metrics(values, staged)
    staged_ms = stages.statement_totals(staged)
    values["db.overhead_ms_p50"] = stats.median(
        [whole - staged_ms[index] for index, whole in enumerate(direct.sequence)]
    )
    values["mvcc.pin_ms_p50"] = (
        stats.median(wrapped.durations("mvcc.pin")) + stats.median(wrapped.durations("mvcc.release"))
    )
    session.close()
    cdb.close()

    fixed = (values["planner.plan_share"] * stats.median(list(staged_ms.values()))
             + values["concurrency.session_overhead_ms_p50"]
             + values["server.roundtrip_overhead_ms_p50"])
    common.log(
        f"fixed per-statement cost (plan stages + session + wire) is about "
        f"{fixed / stats.median(wire.sequence):.1%} of a served statement's median time"
    )
    for window in (wire, direct, traced):
        plain.attempted += window.attempted
        plain.failed += window.failed
    return plain, catalog.with_units(values)


def _two_connection_arm(server, reference, seed, scale: Scale, window: Window) -> float:
    """Statements per second when two connections replay a list each at the
    same time. Trace-only and ungated: the server's two handler threads
    share one interpreter lock, so this arm mostly measures its scheduler."""
    from repro.server.server import ServerClient

    barrier = threading.Barrier(3)
    answers: list[list] = [[], []]

    def client(index: int) -> None:
        ops = inputs.served_ops(scale.kv_rows, seed, 200 + index, scale.served_statements)
        with ServerClient(server.host, server.port) as connection:
            barrier.wait()
            for op in ops:
                answers[index].append((op, connection.sql(op.sql)["rows"]))

    threads = [threading.Thread(target=client, args=(index,)) for index in range(2)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    for answered in answers:
        window.attempted += len(answered)
        _check(answered, reference, window)
    return sum(len(answered) for answered in answers) / elapsed


def _replay(execute, ops: list[Op], window: Window, reference, on_statement=None,
            first_index: int = 0) -> None:
    """Run ``ops`` through ``execute`` (sql -> rows) on this thread; answers
    are checked after the clock stops."""
    answers = []
    for index, op in enumerate(ops, start=first_index):
        if on_statement is not None:
            on_statement(index)
        begin = time.perf_counter()
        rows = execute(op.sql)
        window.record(op.kind, (time.perf_counter() - begin) * 1000.0)
        answers.append((op, rows))
    _check(answers, reference, window)
