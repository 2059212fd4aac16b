"""Redo records: one payload codec and one apply per kind of change.

A logged change is one thing. For every record kind that carries a
change, :data:`CHANGES` holds the payload's encoder beside its decoder
and the one *apply* that takes the decoded physical body. A statement
validates and coerces, then :meth:`Database._apply_change
<repro.db.database.Database._apply_change>` runs the apply inside the
statement's atomic scope and logs the encoded body — apply, then log,
for every kind, so a change that fails to apply is rolled back and never
reaches the log. Recovery (:func:`apply_records`) decodes each record and
runs the same ``_apply_change`` before the WAL is attached, so nothing is
logged twice and replay shares every line of apply code, checks
included, with the live statements. A replayed change commits at a fresh
epoch of its own, as an autocommit statement does.

Payloads are *physical enough to be deterministic*:

* row payloads (INSERT / the insert half of UPDATE, and a BULK_LOAD that
  lands in a delta store or a row-store heap) carry already-coerced
  physical rows in the same column-wise format the snapshot layer uses
  (:func:`repro.storage.persist.serialize_rows`), so replay never re-runs
  type coercion (which is not idempotent — e.g. DECIMAL coercion scales
  ints);
* DELETE / UPDATE payloads carry the row *addresses* the statement's
  plans found (row-store rids and columnstore (group/delta, position)
  locators), not the predicate — predicates are not serializable, and
  addresses make replay independent of scan order;
* a change that creates compressed row groups — a bulk load that
  compresses, the tuple mover, REBUILD, an archival switch — is planned
  first (:class:`~repro.storage.columnstore.RowGroupChange`: the groups,
  compressed, and what they replace), its segment blobs are written into
  the pool, and its ROW_GROUPS payload names them
  (:meth:`~repro.db.durability.Durability.write_row_groups`). Replay
  reads the blobs back and installs them: it runs neither coercion nor
  the compressor, so a log replays the same whatever the compressor of
  the reading build does.

Logs written before row groups were logged still replay: a BULK_LOAD
that compressed carried its columns as rows
(:func:`~repro.storage.persist.deserialize_columns` reads them), and the
tuple mover, REBUILD and archival were markers carrying only their
argument. Those replay by planning again — through the compressor, so
they rebuild the groups the logging build built only while the
compressor writes the same segments.

Any divergence — an address that deletes no row, a duplicate row id or
group id, a delta store the tuple mover did not find closed, a missing
or damaged blob, an unknown table — raises
:class:`~repro.errors.ReplayError` naming the record's LSN.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from ..db.catalog import StorageKind, Table
from ..errors import ReplayError, ReproError
from ..observability import registry as metrics
from ..rowstore.table import RowId
from ..storage import persist, serde
from ..storage.columnstore import RowLocator
from .record import AUTO_COMMIT_TXN, TXN_MARKER_TYPES, WalRecord, WalRecordType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.database import Database


class Change(NamedTuple):
    """One kind of logged change. ``apply(db, table, body, txn)`` makes
    it under the statement's transaction context and returns the
    statement's result; ``encode(db, table, body)`` is its payload and
    ``decode(db, table, payload)`` the body again."""

    apply: Callable[..., Any]
    encode: Callable[["Database", str, Any], bytes]
    decode: Callable[["Database", str, bytes], Any]


def _json(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True).encode("utf-8")


def _unjson(payload: bytes) -> dict:
    return json.loads(payload.decode("utf-8"))


def _schema(db: "Database", table: str):
    return db.catalog.table(table).schema


# ---------------------------------------------------------------------- #
# DDL
# ---------------------------------------------------------------------- #
def _create_table(db: "Database", name: str, body, txn):
    schema, storage, config = body
    table = db.catalog.create_table(name, schema, storage, config)
    if table.columnstore is not None:
        table.columnstore.attach_mvcc(db.mvcc)
    txn.record(f"un-create table {name}", lambda: db.catalog.drop_table(name))
    db._bump_epoch(txn)
    return table


def _encode_create_table(_db, _name, body) -> bytes:
    schema, storage, config = body
    return _json(
        {
            "schema": persist.schema_to_json(schema),
            "storage": storage.value,
            "config": persist.config_to_json(config),
        }
    )


def _decode_create_table(_db, _name, payload: bytes):
    body = _unjson(payload)
    return (
        persist.schema_from_json(body["schema"]),
        StorageKind(body["storage"]),
        persist.config_from_json(body["config"]),
    )


def _drop_table(db: "Database", name: str, _body, txn) -> None:
    dropped = db.catalog.table(name)
    db.catalog.drop_table(name)
    txn.record(f"restore dropped table {name}", lambda: db.catalog.restore_table(dropped))
    db._bump_epoch(txn)


def _create_index(db: "Database", name: str, body, txn):
    index_name, columns = body
    target = db.catalog.table(name)
    index = target.create_index(index_name, columns)
    txn.record(f"un-create index {index_name}", lambda: target.indexes.pop(index_name, None))
    db._bump_epoch(txn)
    return index


def _encode_index(_db, _name, body) -> bytes:
    index_name, columns = body
    return _json({"name": index_name, "columns": list(columns)})


def _decode_index(_db, _name, payload: bytes):
    body = _unjson(payload)
    return body["name"], body["columns"]


# ---------------------------------------------------------------------- #
# DML
# ---------------------------------------------------------------------- #
def _addresses(rids: list[RowId], locators: list[RowLocator]) -> dict:
    return {
        "rowstore": [[rid.page, rid.slot] for rid in rids],
        "columnstore": [[loc.kind, loc.container_id, loc.position] for loc in locators],
    }


def _decode_addresses(body: dict) -> tuple[list[RowId], list[RowLocator]]:
    rids = [RowId(page, slot) for page, slot in body["rowstore"]]
    locators = [RowLocator(*fields) for fields in body["columnstore"]]
    return rids, locators


def _update(db: "Database", name: str, body, txn) -> int:
    """UPDATE is DELETE + INSERT, and losing one half of that to a crash
    would corrupt, so both travel in one record (the unit of atomicity)."""
    rids, locators, rows = body
    table = db.catalog.table(name)
    table.delete_rows(rids, locators, txn)
    return table.insert_physical_rows(rows, txn)


def _encode_update(db: "Database", name: str, body) -> bytes:
    """A varint-framed JSON address header, then the binary row blob."""
    rids, locators, rows = body
    header = _json(_addresses(rids, locators))
    out = bytearray()
    serde.write_varint(out, len(header))
    out += header
    out += persist.serialize_rows(_schema(db, name), rows)
    return bytes(out)


def _decode_update(db: "Database", name: str, payload: bytes):
    header_len, pos = serde.read_varint(payload, 0)
    rids, locators = _decode_addresses(_unjson(payload[pos : pos + header_len]))
    return rids, locators, persist.deserialize_rows(_schema(db, name), payload[pos + header_len :])


def _table_change(
    apply: Callable[..., int],
    encode: Callable[[Any, Any], bytes],
    decode: Callable[[Any, bytes], Any],
) -> Change:
    """INSERT and BULK_LOAD: a body of physical values, applied by
    ``apply`` and coded against the table's schema by ``encode`` /
    ``decode``."""
    return Change(
        lambda db, name, body, txn: apply(db.catalog.table(name), body, txn),
        lambda db, name, body: encode(_schema(db, name), body),
        lambda db, name, payload: decode(_schema(db, name), payload),
    )


# ---------------------------------------------------------------------- #
# Compressed row groups
# ---------------------------------------------------------------------- #
def _replanned(plan: Callable[[Table, Any], Any], key: str | None = None) -> Change:
    """An old maintenance marker (the tuple mover, archival: one boolean
    argument ``{key: bool}``; REBUILD: none), replayed by planning the
    change again. Nothing logs these any more."""

    def apply(db: "Database", name: str, arg, txn):
        table = db.catalog.table(name)
        return table.install_row_groups(plan(table, arg), txn)

    return Change(
        apply,
        lambda _db, _name, arg: _json({key: bool(arg)}) if key else b"",
        lambda _db, _name, payload: _unjson(payload)[key] if key else None,
    )


def _no_body(apply: Callable[..., Any]) -> Change:
    return Change(apply, lambda _db, _name, _body: b"", lambda _db, _name, _payload: None)


CHANGES: dict[WalRecordType, Change] = {
    WalRecordType.CREATE_TABLE: Change(_create_table, _encode_create_table, _decode_create_table),
    WalRecordType.DROP_TABLE: _no_body(_drop_table),
    WalRecordType.CREATE_INDEX: Change(_create_index, _encode_index, _decode_index),
    WalRecordType.INSERT: _table_change(
        Table.insert_physical_rows, persist.serialize_rows, persist.deserialize_rows
    ),
    # A bulk load applied as rows: its body is its columns (PhysicalColumns)
    # and its payload their rows. Older logs carry compressed loads so too.
    WalRecordType.BULK_LOAD: _table_change(
        Table.bulk_load_physical,
        lambda schema, physical: persist.serialize_rows(schema, list(physical.rows())),
        persist.deserialize_columns,
    ),
    WalRecordType.DELETE: Change(
        lambda db, name, body, txn: db.catalog.table(name).delete_rows(*body, txn),
        lambda _db, _name, body: _json(_addresses(*body)),
        lambda _db, _name, payload: _decode_addresses(_unjson(payload)),
    ),
    WalRecordType.UPDATE: Change(_update, _encode_update, _decode_update),
    WalRecordType.ROW_GROUPS: Change(
        lambda db, name, change, txn: db.catalog.table(name).install_row_groups(change, txn),
        lambda db, name, change: db.durability.write_row_groups(name, change),
        lambda db, name, payload: db.durability.read_row_groups(name, payload),
    ),
    WalRecordType.TUPLE_MOVER: _replanned(Table.plan_tuple_mover, "include_open"),
    WalRecordType.REBUILD: _replanned(lambda table, _arg: table.plan_rebuild()),
    WalRecordType.ARCHIVAL: _replanned(Table.plan_archival, "enabled"),
}


# ---------------------------------------------------------------------- #
# Transaction markers
# ---------------------------------------------------------------------- #
def encode_commit(epoch: int | None) -> bytes:
    """TXN_COMMIT's payload: the epoch its transaction installed (empty
    for a transaction that touched no versioned storage)."""
    return _json({"epoch": epoch}) if epoch is not None else b""


def decode_commit(payload: bytes) -> int:
    """The epoch a TXN_COMMIT payload carries, 0 when none."""
    return int(_unjson(payload).get("epoch") or 0) if payload else 0


def committed_txn_ids(records: list[WalRecord]) -> set[int]:
    """Transaction ids whose TXN_COMMIT marker reached the log."""
    return {
        record.txn_id
        for record in records
        if record.rtype is WalRecordType.TXN_COMMIT
        and record.txn_id != AUTO_COMMIT_TXN
    }


# ---------------------------------------------------------------------- #
# Replay
# ---------------------------------------------------------------------- #
def apply_records(db: "Database", records: list[WalRecord]) -> int:
    """Apply recovered redo records to a freshly loaded database.

    The caller attaches the WAL to ``db`` only *after* this returns, so
    nothing applied here is logged again.

    Transactional filtering: a record stamped with a nonzero txn id only
    takes effect if that transaction's TXN_COMMIT reached the log — a
    crash (or explicit ROLLBACK) mid-transaction leaves its DML records
    on disk, and replay must land on the last *committed* state, never a
    transaction prefix. Commit markers are collected in a first pass;
    records are still applied strictly in LSN order. This is sound
    because checkpoints refuse to run inside a transaction, so a
    snapshot never captures half of one and the skipped records never
    have effects baked into the base image. Returns the number of
    records applied to storage.
    """
    committed = committed_txn_ids(records)
    applied = 0
    max_epoch = 0
    for record in records:
        if record.rtype in TXN_MARKER_TYPES:
            # Delimiters only — nothing to apply, but commit markers
            # carry the MVCC epoch the transaction installed, and the
            # clock must land past every logged epoch so post-recovery
            # commits never reuse one.
            if record.rtype is WalRecordType.TXN_COMMIT:
                max_epoch = max(max_epoch, decode_commit(record.payload))
            continue
        if record.txn_id != AUTO_COMMIT_TXN and record.txn_id not in committed:
            metrics.increment("storage.wal.replay.uncommitted_skipped")
            continue
        try:
            body = CHANGES[record.rtype].decode(db, record.table, record.payload)
            db._apply_change(record.rtype, record.table, body)
        except ReproError as exc:
            raise ReplayError(
                f"replaying LSN {record.lsn} ({record.rtype.name} on "
                f"{record.table or '<db>'}): {exc}"
            ) from exc
        applied += 1
        metrics.increment("storage.wal.replay.records")
    if max_epoch:
        db.mvcc.advance_to(max_epoch)
    return applied
