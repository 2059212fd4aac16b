"""E20 — Query governance: cancellation latency and checkpoint overhead.

Two questions about the governance layer (DESIGN.md "Query governance"):

1. **How fast does a KILL land?** Cooperative cancellation is only
   useful if the checkpoints are dense enough — the time from setting a
   context's cancel flag to the statement fully unwinding (locks and
   pins released, registry deregistered) must be well under a human
   "did it stop?" threshold. The PR's acceptance bar is 250 ms.

2. **What do the checkpoints cost when nothing fires?** Every batch
   boundary, scan unit and row-engine stride calls ``ctx.check()``. The
   benchmark runs the same scan-heavy query with and without an active
   context and reports the ratio, plus the number of checks actually
   executed (from the context's own counter) so the overhead has a
   denominator.
"""

from __future__ import annotations

import threading
import time

import pytest

from conftest import save_report, scaled
from repro.bench.harness import ReportTable
from repro.db.database import Database
from repro.errors import QueryCancelledError
from repro.governance import get_query_registry, governed

CANCEL_ROUNDS = 5
CANCEL_BUDGET_SECONDS = 0.25  # the PR's acceptance bar
OVERHEAD_RUNS = 5

# Scan-heavy with a fan-out join: long enough to kill mid-flight.
SLOW_QUERY = (
    "SELECT t1.a FROM t t1 JOIN t t2 ON t1.b = t2.b ORDER BY t1.a"
)
SCAN_QUERY = "SELECT a, b FROM t WHERE a % 3 = 0"


def _build(rows: int) -> Database:
    db = Database()
    db.sql("CREATE TABLE t (a INT NOT NULL, b INT NOT NULL)")
    db.insert("t", [(i, i % 11) for i in range(rows)])
    db.run_tuple_mover("t", include_open=True)
    return db


def run_cancellation_latency(db: Database) -> list[float]:
    """KILL a running statement; time flag-set → full unwind."""
    latencies = []
    for _ in range(CANCEL_ROUNDS):
        started = threading.Event()
        unwound = []

        def victim():
            try:
                db.sql(SLOW_QUERY)
                unwound.append(("finished", time.perf_counter()))
            except QueryCancelledError:
                unwound.append(("cancelled", time.perf_counter()))

        thread = threading.Thread(target=victim)
        thread.start()
        registry = get_query_registry()
        deadline = time.monotonic() + 10.0
        running = []
        while time.monotonic() < deadline and not running:
            running = registry.list_running()
        assert running, "victim never registered"
        kill_at = time.perf_counter()
        db.sql(f"KILL {running[0].query_id}")
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "victim did not unwind"
        state, done_at = unwound[0]
        if state == "cancelled":  # a too-fast finish carries no signal
            latencies.append(done_at - kill_at)
    assert latencies, "every round finished before the KILL landed"
    return latencies


def run_checkpoint_overhead(db: Database) -> dict:
    """The same plan with and without an active governance context."""
    from repro.sql.runner import plan_query, prepare, run_physical

    plan = plan_query(db, SCAN_QUERY)

    def timed_run() -> float:
        physical, lock_free = prepare(db, plan)
        start = time.perf_counter()
        run_physical(db.isolation, physical, lock_free)
        return time.perf_counter() - start

    timed_ungoverned = timed_run

    def timed_governed() -> tuple[float, int]:
        ctx = db.new_query_context(sql=SCAN_QUERY)
        with governed(ctx):
            elapsed = timed_run()
        return elapsed, ctx.checks

    # Warm both paths once, then take the best of several runs each —
    # min is the right statistic for "what does the code cost" timing.
    timed_ungoverned(), timed_governed()
    off = min(timed_ungoverned() for _ in range(OVERHEAD_RUNS))
    governed_runs = [timed_governed() for _ in range(OVERHEAD_RUNS)]
    on = min(t for t, _ in governed_runs)
    checks = max(c for _, c in governed_runs)
    return {"off_s": off, "on_s": on, "ratio": on / off if off else 1.0, "checks": checks}


@pytest.fixture(scope="module")
def db() -> Database:
    return _build(scaled(30_000))


def test_e20_governance(benchmark, report_dir, db):
    def run():
        return run_cancellation_latency(db), run_checkpoint_overhead(db)

    latencies, overhead = benchmark.pedantic(run, rounds=1, iterations=1)

    latency_report = ReportTable(
        f"E20: cancellation latency (KILL → full unwind), "
        f"{len(latencies)} measured rounds",
        ["min (ms)", "median (ms)", "max (ms)", "budget (ms)"],
    )
    ordered = sorted(latencies)
    latency_report.add_row(
        f"{ordered[0] * 1000:.1f}",
        f"{ordered[len(ordered) // 2] * 1000:.1f}",
        f"{ordered[-1] * 1000:.1f}",
        f"{CANCEL_BUDGET_SECONDS * 1000:.0f}",
    )
    latency_report.add_note(
        "cooperative checkpoints: per batch, per scan unit, per 256 scanned rows"
    )

    overhead_report = ReportTable(
        "E20: checkpoint overhead on a scan-heavy query (best of "
        f"{OVERHEAD_RUNS})",
        ["governance off (ms)", "governance on (ms)", "ratio", "checks/query"],
    )
    overhead_report.add_row(
        f"{overhead['off_s'] * 1000:.2f}",
        f"{overhead['on_s'] * 1000:.2f}",
        f"{overhead['ratio']:.3f}x",
        int(overhead["checks"]),
    )
    overhead_report.add_note(
        "off = same compiled plan run without an active QueryContext"
    )
    save_report(
        report_dir,
        "e20_governance.txt",
        latency_report.render() + "\n\n" + overhead_report.render(),
    )

    # The acceptance bar: every measured cancellation landed inside the
    # budget, and the governed run actually exercised checkpoints.
    assert max(latencies) < CANCEL_BUDGET_SECONDS, (
        f"cancellation took {max(latencies) * 1000:.0f}ms "
        f"(budget {CANCEL_BUDGET_SECONDS * 1000:.0f}ms)"
    )
    assert overhead["checks"] > 0
    # Checkpoints are cheap: allow generous slack for timer noise, but a
    # 2x regression would mean checking far too often.
    assert overhead["ratio"] < 2.0, f"checkpoint overhead {overhead['ratio']:.2f}x"
    assert len(get_query_registry()) == 0
