"""Multi-session stress: N readers + 1 writer, snapshot-consistency checks.

The writer appends *fingerprinted batches*: every committed unit of work
inserts exactly ``BATCH_ROWS`` rows sharing one ``batch`` id, with
values whose COUNT/SUM/MIN/MAX per batch are known in closed form. Half
the batches go through single-statement auto-commit, half through a
BEGIN / two INSERTs / COMMIT transaction — the half-way point of which
must never be visible. A maintenance thread runs the tuple mover and
REBUILD while everything else is in flight.

Readers continuously aggregate per batch and assert every batch they
see is complete and internally consistent. A torn row group, a pin that
caught a half-applied statement, or a snapshot spanning an uncommitted
transaction all show up as a fingerprint mismatch.
"""

import os
import threading

from repro import ConcurrentDatabase

READERS = 4
BATCH_ROWS = 10
# Scaled so the suite stays fast by default; CI can raise it.
WRITER_BATCHES = int(os.environ.get("REPRO_STRESS_BATCHES", "150"))
MIN_TOTAL_STATEMENTS = 1000


def batch_fingerprint(batch_id):
    """Expected (count, sum, min, max) of column v for one batch."""
    values = [batch_id * 1000 + i for i in range(BATCH_ROWS)]
    return (BATCH_ROWS, sum(values), values[0], values[-1])


def test_readers_see_only_committed_consistent_snapshots():
    cdb = ConcurrentDatabase()
    setup = cdb.session("setup")
    setup.sql("CREATE TABLE s (batch INT NOT NULL, v INT NOT NULL)")
    setup.close()

    stop_readers = threading.Event()
    failures = []
    statements = {"count": 0}
    statements_lock = threading.Lock()

    def count_statements(n):
        with statements_lock:
            statements["count"] += n

    def writer():
        with cdb.session("writer") as session:
            try:
                for b in range(WRITER_BATCHES):
                    rows = ", ".join(
                        f"({b}, {b * 1000 + i})" for i in range(BATCH_ROWS)
                    )
                    if b % 2 == 0:
                        session.sql(f"INSERT INTO s VALUES {rows}")
                        count_statements(1)
                    else:
                        half = BATCH_ROWS // 2
                        first = ", ".join(
                            f"({b}, {b * 1000 + i})" for i in range(half)
                        )
                        second = ", ".join(
                            f"({b}, {b * 1000 + i})" for i in range(half, BATCH_ROWS)
                        )
                        session.sql("BEGIN")
                        session.sql(f"INSERT INTO s VALUES {first}")
                        session.sql(f"INSERT INTO s VALUES {second}")
                        session.sql("COMMIT")
                        count_statements(4)
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(("writer", exc))

    def maintenance():
        with cdb.session("maintenance") as session:
            b = 0
            while not stop_readers.is_set():
                try:
                    cdb.run_tuple_mover("s", include_open=True)
                    if b % 5 == 2:
                        cdb.rebuild("s")
                    count_statements(1)
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append(("maintenance", exc))
                    return
                b += 1
                stop_readers.wait(0.02)

    def reader(name):
        with cdb.session(name) as session:
            ran = 0
            while not stop_readers.is_set() or ran < MIN_TOTAL_STATEMENTS // READERS:
                try:
                    result = session.sql(
                        "SELECT batch, COUNT(*) AS c, SUM(v) AS s, "
                        "MIN(v) AS lo, MAX(v) AS hi FROM s GROUP BY batch"
                    )
                    ran += 1
                    for batch_id, c, sm, lo, hi in result.rows:
                        expected = batch_fingerprint(batch_id)
                        if (c, sm, lo, hi) != expected:
                            failures.append(
                                (
                                    name,
                                    f"batch {batch_id}: saw {(c, sm, lo, hi)}, "
                                    f"expected {expected}",
                                )
                            )
                            stop_readers.set()
                            return
                except Exception as exc:  # pragma: no cover - failure path
                    failures.append((name, exc))
                    stop_readers.set()
                    return
            count_statements(ran)

    writer_thread = threading.Thread(target=writer)
    maintenance_thread = threading.Thread(target=maintenance)
    reader_threads = [
        threading.Thread(target=reader, args=(f"reader-{i}",)) for i in range(READERS)
    ]
    for t in reader_threads:
        t.start()
    maintenance_thread.start()
    writer_thread.start()
    writer_thread.join(timeout=120)
    assert not writer_thread.is_alive(), "writer did not finish"
    stop_readers.set()
    for t in reader_threads:
        t.join(timeout=60)
        assert not t.is_alive(), "reader wedged"
    maintenance_thread.join(timeout=60)
    assert not maintenance_thread.is_alive(), "maintenance wedged"

    assert failures == []
    assert statements["count"] >= MIN_TOTAL_STATEMENTS

    # Final state: every batch complete.
    with cdb.session("final") as session:
        result = session.sql(
            "SELECT batch, COUNT(*) AS c, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi "
            "FROM s GROUP BY batch ORDER BY batch"
        )
        assert len(result.rows) == WRITER_BATCHES
        for batch_id, c, sm, lo, hi in result.rows:
            assert (c, sm, lo, hi) == batch_fingerprint(batch_id)
    cdb.close()

    # Nothing left running: every reader and engine thread was reaped.
    leaked = [
        t for t in threading.enumerate() if t.name.startswith(("repro-", "reader-"))
    ]
    assert leaked == []
