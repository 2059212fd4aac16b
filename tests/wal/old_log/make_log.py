"""Write the log in this directory: ``python make_log.py <out dir>``, with
``PYTHONPATH`` at the ``src/`` of a build from before row groups were
logged (commit dfa57eb or older). Leaves ``<out dir>/wal/`` (the fixture's
``seg_*.wal``) and prints the expected table as ``expected.json``'s body.

The log holds a bulk load logged as its columns (BULK_LOAD), trickle
inserts, deletes and updates, and the maintenance markers of that build:
the tuple mover (closed delta stores, then the open one too), REBUILD and
archival on and off, which replay by compressing again.
"""

import datetime
import json
import sys

from repro import Database, StoreConfig

CREATE = (
    "CREATE TABLE t (id INT NOT NULL, a INT, f FLOAT, s VARCHAR, d DATE, "
    "m DECIMAL(10, 3), b BOOL, big BIGINT NOT NULL)"
)
CONFIG = StoreConfig(rowgroup_size=256, bulk_load_threshold=100, delta_close_rows=48)


def row(i: int) -> tuple:
    """Every type, NULLs in each nullable column, NaN and infinities."""
    floats = [float("nan"), float("inf"), float("-inf"), 2.5, 1e300]
    return (
        i,
        None if i % 7 == 0 else i * 3 - 500,
        None if i % 5 == 0 else (floats[i % 5] if i % 11 == 0 else i * 0.37),
        None if i % 11 == 0 else f"s{i % 13}é",
        None if i % 3 == 0 else datetime.date(2020, 1, 1) + datetime.timedelta(days=i % 400),
        None if i % 4 == 0 else i / 8,
        None if i % 9 == 0 else i % 2 == 0,
        2**40 + i,
    )


def write(out: str) -> None:
    db = Database.open(out, default_config=CONFIG)
    db.sql(CREATE)
    db.bulk_load("t", [row(i) for i in range(600)])
    db.insert("t", [row(i) for i in range(600, 750)])
    db.run_tuple_mover("t")
    db.sql("DELETE FROM t WHERE id % 17 = 0")
    db.sql("UPDATE t SET a = a + 1 WHERE id % 23 = 0")
    db.insert("t", [row(i) for i in range(750, 770)])
    db.run_tuple_mover("t", include_open=True)
    db.set_archival("t", True)
    db.sql("DELETE FROM t WHERE id % 19 = 0")
    db.rebuild("t")
    db.set_archival("t", False)
    db.insert("t", [row(i) for i in range(770, 775)])
    db.close()


def expected(out: str) -> dict:
    db = Database.open(out)
    columnstore = db.table("t").columnstore
    body = {
        "rows": repr(db.sql("SELECT * FROM t ORDER BY id").rows),
        "groups": [
            [group.group_id, group.row_count, group.archived]
            for group in columnstore.directory.row_groups()
        ],
        "delta_rows": columnstore.delta_rows,
    }
    db.close()
    return body


if __name__ == "__main__":
    write(sys.argv[1])
    print(json.dumps(expected(sys.argv[1]), indent=1))
