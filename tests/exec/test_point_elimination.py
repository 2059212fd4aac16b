"""A point predicate builds nothing for a row group [min, max] eliminates.

``pin_scan_units`` asks the scan's elimination test of each group before
it builds its unit, so an eliminated group costs no
delete mask (``DeleteBitmap.mask_for``) and no ``_scan_group`` trip —
live, pinned, or retired and held by a snapshot — while
``units_seen`` / ``units_eliminated`` count what they always counted.
"""

from __future__ import annotations

import pytest

from repro import Database, StoreConfig, schema, types
from repro.bench.queries import QUERY_SUITE
from repro.bench.star_schema import build_star_schema
from repro.concurrency import ConcurrentDatabase
from repro.observability.registry import get_registry
from repro.storage.delete_bitmap import DeleteBitmap

GROUP_ROWS = 64
GROUPS = 8


@pytest.fixture
def table():
    """Ascending keys in eight row groups, one row deleted in each."""
    db = Database(StoreConfig(rowgroup_size=GROUP_ROWS, bulk_load_threshold=10))
    db.create_table("t", schema(("a", types.INT, False), ("g", types.INT)))
    db.bulk_load("t", [(i, i % 5) for i in range(GROUPS * GROUP_ROWS)])
    for base in range(0, GROUPS * GROUP_ROWS, GROUP_ROWS):
        db.sql(f"DELETE FROM t WHERE a = {base + 7}")
    return db


@pytest.fixture
def masks(monkeypatch):
    """The group ids ``DeleteBitmap.mask_for`` is asked about, in order."""
    asked: list[int] = []
    original = DeleteBitmap.mask_for

    def spy(self, group_id, *args, **kwargs):
        asked.append(group_id)
        return original(self, group_id, *args, **kwargs)

    monkeypatch.setattr(DeleteBitmap, "mask_for", spy)
    return asked


def _group_of(db: Database, key: int) -> int:
    groups = list(db.catalog.table("t").columnstore.directory.row_groups())
    return groups[key // GROUP_ROWS].group_id


def _scan_counts(run, names=("units_seen", "units_eliminated")) -> tuple[int, ...]:
    """How much each ``storage.scan.<name>`` counter grew during ``run()``."""
    registry = get_registry()
    before = [registry.counter(f"storage.scan.{name}") for name in names]
    run()
    return tuple(
        int(registry.counter(f"storage.scan.{name}") - b) for name, b in zip(names, before)
    )


def test_a_point_delete_masks_only_the_surviving_group(table, masks):
    counts = _scan_counts(lambda: table.sql("DELETE FROM t WHERE a = 200"))
    assert masks == [_group_of(table, 200)]
    assert counts == (GROUPS, GROUPS - 1)
    assert table.sql("SELECT COUNT(*) FROM t WHERE a = 200").rows[0][0] == 0


def test_a_pinned_point_select_masks_only_the_surviving_group(table, masks):
    session = ConcurrentDatabase(table).session()
    counts = _scan_counts(lambda: session.sql("SELECT a FROM t WHERE a = 300"))
    assert masks == [_group_of(table, 300)]
    assert counts == (GROUPS, GROUPS - 1)
    # A range over three groups masks those three.
    masks.clear()
    rows = session.sql("SELECT a FROM t WHERE a BETWEEN 100 AND 250").rows
    assert len(rows) == 151 - 2  # a = 135 and 199 were deleted
    assert masks == [_group_of(table, k) for k in (100, 150, 250)]


def test_a_retired_group_held_by_a_snapshot_is_masked_only_if_it_survives(table, masks):
    session = ConcurrentDatabase(table).session()
    session.hold_snapshot()
    table.set_archival("t", True)  # retires every group the snapshot holds
    table.sql("DELETE FROM t WHERE a = 301")  # after the snapshot: not seen
    retired, _ = table.catalog.table("t").columnstore.retired_counts
    assert retired == GROUPS
    masks.clear()
    point = "SELECT a FROM t WHERE a >= 300 AND a <= 302"
    counts = _scan_counts(lambda: session.sql(point))
    assert masks == [_group_of(table, 300)]
    assert counts == (GROUPS, GROUPS - 1)
    assert sorted(row[0] for row in session.sql(point).rows) == [300, 301, 302]
    session.release_snapshot()


# What the 22 star queries' scans counted, live and pinned, on a star
# schema with fact rows deleted in every row group, when every unit was
# built before its group was eliminated: (units_seen, units_eliminated,
# rows_scanned, rows_rejected_deleted, columns_decoded).
PARENT_SCAN_COUNTS = {
    "Q01": ((12, 0, 3000, 158, 12), (12, 0, 3000, 158, 12)),
    "Q02": ((12, 10, 512, 31, 4), (12, 10, 512, 31, 4)),
    "Q03": ((12, 0, 3000, 158, 24), (12, 0, 3000, 158, 24)),
    "Q04": ((12, 0, 3000, 158, 12), (12, 0, 3000, 158, 12)),
    "Q05": ((12, 9, 768, 37, 6), (12, 9, 768, 37, 6)),
    "Q06": ((13, 0, 3060, 158, 24), (13, 0, 3060, 158, 24)),
    "Q07": ((13, 0, 3060, 158, 24), (13, 0, 3060, 158, 24)),
    "Q08": ((13, 0, 3030, 158, 24), (13, 0, 3030, 158, 24)),
    "Q09": ((13, 0, 3030, 158, 24), (13, 0, 3030, 158, 24)),
    "Q10": ((13, 0, 3005, 158, 12), (13, 0, 3005, 158, 12)),
    "Q11": ((15, 7, 2048, 67, 18), (15, 7, 2048, 67, 18)),
    "Q12": ((14, 0, 3090, 158, 36), (14, 0, 3090, 158, 36)),
    "Q13": ((17, 7, 2113, 67, 30), (17, 7, 2113, 67, 30)),
    "Q14": ((16, 0, 3790, 158, 42), (16, 0, 3790, 158, 42)),
    "Q15": ((13, 9, 798, 32, 9), (13, 9, 798, 32, 9)),
    "Q16": ((15, 0, 3730, 158, 30), (15, 0, 3730, 158, 30)),
    "Q17": ((13, 0, 3060, 158, 24), (13, 0, 3060, 158, 24)),
    "Q18": ((13, 0, 3030, 158, 12), (13, 0, 3030, 158, 12)),
    "Q19": ((13, 9, 828, 40, 9), (13, 9, 828, 40, 9)),
    "Q20": ((12, 0, 3000, 158, 24), (12, 0, 3000, 158, 24)),
    "Q21": ((12, 0, 3000, 158, 24), (12, 0, 3000, 158, 24)),
    "Q22": ((12, 0, 3000, 158, 12), (12, 0, 3000, 158, 12)),
}


@pytest.fixture(scope="module")
def star_with_deletes():
    star = build_star_schema(
        3000, config=StoreConfig(rowgroup_size=256, bulk_load_threshold=100)
    )
    star.db.sql("DELETE FROM store_sales WHERE ss_quantity = 3")
    return star.db


STAR_COUNTERS = (
    "units_seen", "units_eliminated", "rows_scanned", "rows_rejected_deleted", "columns_decoded"
)


@pytest.mark.parametrize("query", QUERY_SUITE, ids=lambda q: q.qid)
def test_star_query_scan_counts_are_unchanged(star_with_deletes, query):
    db = star_with_deletes
    session = ConcurrentDatabase(db).session()
    live = _scan_counts(lambda: db.sql(query.sql), STAR_COUNTERS)
    pinned = _scan_counts(lambda: session.sql(query.sql), STAR_COUNTERS)
    assert (live, pinned) == PARENT_SCAN_COUNTS[query.qid]
