"""The battery, re-run at a held MVCC epoch while a writer guts the data.

A session pins a snapshot (``hold_snapshot``), baselines every read-only
battery statement, then a second session deletes **every row of every
table** — committing once per table. Re-running the battery through the
pinned session must reproduce the baseline *exactly*: the held epoch is
a complete, immutable view of the database, statement by statement,
across joins, aggregates, CTEs, subqueries, windows and the adapted
TPC-H queries. Releasing the snapshot makes the destruction visible.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import same_rows
from repro.bench.tpch_tiny import SCHEMAS, build_tpch_tiny
from repro.concurrency import ConcurrentDatabase

from .battery_lib import load_statements

STATEMENTS = load_statements()


@pytest.fixture(scope="module")
def snapshot_world():
    """(reader session, per-statement baselines) after the writer's purge."""
    cdb = ConcurrentDatabase(build_tpch_tiny())
    reader = cdb.session("battery-reader")
    reader.hold_snapshot()
    baselines = {s.source: reader.sql(s.sql).rows for s in STATEMENTS}
    with cdb.session("battery-writer") as writer:
        for table in SCHEMAS:
            writer.sql(f"DELETE FROM {table}")
        for table in SCHEMAS:
            assert writer.sql(f"SELECT COUNT(*) AS n FROM {table}").scalar() == 0
    yield reader, baselines
    cdb.close()


@pytest.mark.parametrize("statement", STATEMENTS, ids=[s.source for s in STATEMENTS])
def test_statement_at_held_epoch(statement, snapshot_world):
    reader, baselines = snapshot_world
    # To 6 digits: the writer's deletes change the order float sums add in.
    same_rows(reader.sql(statement.sql).rows, baselines[statement.source], 6,
              label=f"{statement.source}: held-epoch result drifted after writer commits")


def test_release_makes_the_purge_visible(snapshot_world):
    reader, _ = snapshot_world
    reader.release_snapshot()
    for table in SCHEMAS:
        assert reader.sql(f"SELECT COUNT(*) AS n FROM {table}").scalar() == 0
