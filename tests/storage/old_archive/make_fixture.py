"""Write the directory in this folder: ``python make_fixture.py old_archive``
from the folder above it, with ``PYTHONPATH`` at the ``src/`` of a build
whose archives are XPR1 (commit 3b1b971 or older; ``git worktree add
<dir> 3b1b971`` gives one). Leaves ``old_archive/db/`` (the database) and
prints the expected answers as ``expected.json``'s body.

The database is one columnstore table: three row groups archived, then
checkpointed (their XPR1 blobs in the segment pool), then a log tail past
the checkpoint: a DELETE, an INSERT, a bulk load of two more row groups
and an archival of every live group, logged as a ROW_GROUPS record that
names the XPR1 blobs it wrote.
"""

import json
import shutil
import sys
import tempfile

from repro import Database, StoreConfig

CREATE = "CREATE TABLE t (id INT NOT NULL, a INT, s VARCHAR, f FLOAT)"
CONFIG = StoreConfig(rowgroup_size=64, bulk_load_threshold=32, delta_close_rows=16)
QUERIES = [
    "SELECT * FROM t ORDER BY id",
    "SELECT s, COUNT(*), SUM(a), MIN(f) FROM t GROUP BY s ORDER BY s",
    "SELECT COUNT(*), SUM(id) FROM t WHERE a BETWEEN 100 AND 300",
]


def row(i: int) -> tuple:
    return (
        i,
        None if i % 7 == 0 else i * 3 - 100,
        None if i % 11 == 0 else f"name-{i % 13}",
        None if i % 5 == 0 else i * 0.25,
    )


def write(out: str) -> None:
    root = f"{out}/db"
    db = Database.open(root, default_config=CONFIG)
    db.sql(CREATE)
    db.bulk_load("t", [row(i) for i in range(192)])
    db.set_archival("t", True)
    db.save(root)
    db.sql("DELETE FROM t WHERE id % 17 = 0")
    db.sql("INSERT INTO t VALUES (1000, 7, 'late', 0.5)")
    db.bulk_load("t", [row(i) for i in range(192, 320)])
    db.set_archival("t", True)
    db.close()


def expected(out: str) -> dict:
    """The answers this build reads back, from a copy (an open replays
    the tail and collects garbage)."""
    copy = tempfile.mkdtemp() + "/db"
    shutil.copytree(f"{out}/db", copy)
    db = Database.open(copy)
    columnstore = db.table("t").columnstore
    body = {
        "answers": [repr(db.sql(query).rows) for query in QUERIES],
        "groups": [
            [group.group_id, group.row_count, group.archived]
            for group in columnstore.directory.row_groups()
        ],
        "delta_rows": columnstore.delta_rows,
    }
    db.close()
    shutil.rmtree(copy)
    return body


if __name__ == "__main__":
    write(sys.argv[1])
    print(json.dumps(expected(sys.argv[1]), indent=1))
