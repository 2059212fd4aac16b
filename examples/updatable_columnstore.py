"""Updatable columnstore lifecycle: delta stores, tuple mover, REBUILD,
archival compression.

Walks the full life of a columnstore index under a mixed workload: a bulk
history load, a stream of trickle inserts landing in delta stores, a
tuple-mover pass compressing them, deletes accumulating in the delete
bitmap, a REBUILD reclaiming the space, and finally switching the cold
index to archival compression.

Run with:  python examples/updatable_columnstore.py
"""

import datetime

from repro import Database, StoreConfig


def describe(db: Database, label: str) -> None:
    index = db.table("events").columnstore
    print(
        f"  [{label}] live={index.live_rows:,}  compressed={index.compressed_rows:,}  "
        f"delta={index.delta_rows:,}  deleted-marks={index.delete_bitmap.total_deleted:,}  "
        f"row-groups={len(index.directory)}  size={index.size_bytes / 1024:,.0f} KiB"
    )


def main() -> None:
    # Small row groups so the lifecycle is visible at example scale.
    db = Database(StoreConfig(rowgroup_size=4096, bulk_load_threshold=2000,
                              delta_close_rows=4096))
    db.sql(
        "CREATE TABLE events ("
        "  event_id INT NOT NULL,"
        "  device VARCHAR NOT NULL,"
        "  level VARCHAR,"
        "  happened DATE,"
        "  value FLOAT)"
    )

    print("1. Bulk-load 20,000 historical events (direct-compress path):")
    base = datetime.date(2024, 1, 1)
    history = [
        (
            i,
            f"device-{i % 40}",
            ["info", "warn", "error"][i % 3],
            base + datetime.timedelta(days=i % 120),
            float(i % 1000) / 10,
        )
        for i in range(20_000)
    ]
    db.bulk_load("events", history)
    describe(db, "after bulk load")

    print("\n2. Trickle-insert 6,000 live events (they land in delta stores):")
    live = [
        (100_000 + i, f"device-{i % 40}", "info",
         base + datetime.timedelta(days=120), float(i))
        for i in range(6_000)
    ]
    db.insert("events", live)
    describe(db, "after trickle inserts")
    index = db.table("events").columnstore
    print(f"  fraction of rows in delta stores: {index.fraction_in_delta:.1%}")

    print("\n3. Run the tuple mover (compresses closed delta stores):")
    report = db.run_tuple_mover("events", include_open=True)
    print(
        f"  moved {report.rows_moved:,} rows from "
        f"{report.delta_stores_compressed} delta stores into "
        f"{report.row_groups_created} new row groups"
    )
    describe(db, "after tuple mover")

    print("\n4. Delete old 'error' events (marks the delete bitmap):")
    deleted = db.sql("DELETE FROM events WHERE level = 'error'").scalar()
    print(f"  deleted {deleted:,} rows (still physically present)")
    describe(db, "after delete")

    print("\n5. REBUILD physically removes deleted rows:")
    db.rebuild("events")
    describe(db, "after rebuild")

    print("\n6. Archive the now-cold index (extra zlib DEFLATE compression):")
    before = db.table("events").columnstore.size_bytes
    db.set_archival("events", True)
    after = db.table("events").columnstore.size_bytes
    print(f"  {before / 1024:,.0f} KiB -> {after / 1024:,.0f} KiB "
          f"({before / after:.2f}x extra)")
    describe(db, "archived")

    print("\n7. Queries keep working throughout:")
    result = db.sql(
        "SELECT level, COUNT(*) AS n, AVG(value) AS mean "
        "FROM events GROUP BY level ORDER BY level"
    )
    for row in result:
        print("  ", row)


if __name__ == "__main__":
    main()
