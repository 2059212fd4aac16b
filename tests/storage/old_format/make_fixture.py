"""Write the directory in this folder: ``python make_fixture.py old_format``
from the folder above it, with ``PYTHONPATH`` at the ``src/`` of a build
whose checksums are CRC-32C (commit 797a027 or older; ``git worktree add
<dir> 797a027`` gives one). Leaves ``old_format/db/`` (the database) and
``old_format/backup/`` (a hot backup of it; the database's archive
records it by that relative path) and prints the expected table as
``expected.json``'s body.

The database is one columnstore table checkpointed with its compressed
row groups (a ``format_version`` 2 manifest and its segment pool), then
a log tail past the checkpoint: an INSERT, a DELETE, an UPDATE, a
tuple-mover run (a ROW_GROUPS record naming the CRC-32C blobs it wrote)
and a committed transaction. The backup is taken after the tail.
"""

import json
import shutil
import sys
import tempfile

from repro import Database, StoreConfig

CREATE = "CREATE TABLE t (id INT NOT NULL, a INT, s VARCHAR)"
CONFIG = StoreConfig(rowgroup_size=64, bulk_load_threshold=32, delta_close_rows=16)


def row(i: int) -> tuple:
    return (i, None if i % 7 == 0 else i * 3 - 100, None if i % 11 == 0 else f"s{i % 13}")


def write(out: str) -> None:
    root = f"{out}/db"
    db = Database.open(root, default_config=CONFIG)
    db.sql(CREATE)
    db.bulk_load("t", [row(i) for i in range(192)])
    db.save(root)
    db.sql("INSERT INTO t VALUES (192, 1, 'x'), (193, NULL, 'y')")
    db.sql("DELETE FROM t WHERE id % 17 = 0")
    db.sql("UPDATE t SET a = a + 1 WHERE id % 23 = 0")
    db.insert("t", [row(i) for i in range(194, 230)])
    db.run_tuple_mover("t")
    db.sql("BEGIN")
    db.sql("INSERT INTO t VALUES (230, 5, 'txn')")
    db.sql("UPDATE t SET s = 'upd' WHERE id = 3")
    db.sql("COMMIT")
    db.backup(f"{out}/backup")
    db.close()


def expected(out: str) -> dict:
    """The table as this build reads it back, from a copy (an open
    replays the tail and collects garbage)."""
    copy = tempfile.mkdtemp() + "/db"
    shutil.copytree(f"{out}/db", copy)
    db = Database.open(copy)
    columnstore = db.table("t").columnstore
    body = {
        "rows": repr(db.sql("SELECT * FROM t ORDER BY id").rows),
        "groups": [[group.group_id, group.row_count] for group in columnstore.directory.row_groups()],
        "delta_rows": columnstore.delta_rows,
    }
    db.close()
    shutil.rmtree(copy)
    return body


if __name__ == "__main__":
    write(sys.argv[1])
    print(json.dumps(expected(sys.argv[1]), indent=1))
