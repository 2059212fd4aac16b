"""A session yields the interpreter between statements.

A thread that runs short statements back to back need never block, and
CPython hands the GIL to a thread returning from a disk write or a lock
wake-up only when the running thread drops it: once per switch interval
(5 ms) if it never blocks. A writer's commit returns from several
writes and wake-ups, so beside a reading loop it waited an interval for
each: two writers made 3 and 1 inserts in 14 seconds, and a hot backup
took a minute. ``Session.sql`` now yields after every statement while
the database has other sessions.
"""

from __future__ import annotations

import threading
import time

from repro.concurrency.database import ConcurrentDatabase


def test_writers_commit_beside_a_reading_loop(tmp_path):
    cdb = ConcurrentDatabase.open(str(tmp_path / "db"))
    cdb.sql("CREATE TABLE t (id INT NOT NULL, v INT)")
    cdb.sql("INSERT INTO t VALUES (0, 0)")
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            cdb.sql("SELECT COUNT(*) AS c, SUM(v) AS s FROM t")

    thread = threading.Thread(target=reader)
    thread.start()
    committed = 0
    try:
        # 200 durable commits take a fraction of a second; without the
        # yield each waited out a switch interval per wake-up, and a few
        # got through a second.
        deadline = time.monotonic() + 3
        while committed < 200 and time.monotonic() < deadline:
            committed += 1
            cdb.sql(f"INSERT INTO t VALUES ({committed}, {committed})")
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert committed == 200, f"{committed} of 200 commits in 3 s beside a reading loop"
    assert cdb.sql("SELECT COUNT(*) AS c FROM t").rows == [(201,)]
    cdb.close()
