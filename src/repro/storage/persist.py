"""Database persistence: save/load a whole database to a directory.

Models the on-disk reality of the paper's design: compressed segments are
immutable blobs (one file per segment, written by
:mod:`repro.storage.blob`), the directory/catalog is small metadata, and
the mutable side (delta stores, delete bitmap, row-store heaps) is
serialized row-wise.

All file access goes through the snapshot layer
(:mod:`repro.storage.snapshot`): a *writer* with ``write(relpath, data)``
and ``write_segment(relpath, segment)`` that records sizes and checksums
into the manifest, and a *reader* with ``read(relpath)`` /
``read_segment(relpath)`` / ``exists(relpath)`` whose bytes were already
checksum-verified. The names this module files things under::

    catalog.json                    tables, schemas, configs
    <table>/meta.json               id counters, delta states
    <table>/rowgroups/g<id>.<col>.seg
    <table>/delta_<id>.rows
    <table>/rowstore.rows
    <table>/rowstore_deleted.json   only when the heap holds tombstones
    <table>/delete_bitmap.json

Where they live is the snapshot layer's business: segments go to the
root's write-once pool (and are written only if the root lacks them),
everything else into the snapshot's own directory.

Decode paths are bounds-checked: truncated or bit-flipped blobs raise
:class:`~repro.errors.CorruptBlobError` (never ``IndexError``), and
structurally broken metadata raises :class:`~repro.errors.RecoveryError`.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np

from ..errors import CorruptBlobError, EncodingError, RecoveryError
from ..mvcc import PENDING_EPOCH
from ..rowstore.table import RowStoreTable
from ..schema import ColumnDef, PhysicalColumns, TableSchema
from ..txn import TxnContext
from ..types import DataType, TypeKind
from . import serde
from .columnstore import ColumnStoreIndex
from .config import StoreConfig
from .deltastore import DeltaStore
from .rowgroup import RowGroup


# ---------------------------------------------------------------------- #
# Row serialization (delta stores, row-store heaps)
# ---------------------------------------------------------------------- #
def serialize_rows(schema: TableSchema, rows: list[tuple[Any, ...]]) -> bytes:
    """Column-wise serialization of physical rows with NULL flags."""
    out = bytearray()
    serde.write_varint(out, len(rows))
    for position, col in enumerate(schema):
        values = [row[position] for row in rows]
        null_flags = bytearray()
        non_null = []
        for value in values:
            if value is None:
                null_flags.append(1)
            else:
                null_flags.append(0)
                non_null.append(value)
        out += bytes(null_flags)
        payload = serde.serialize_values(non_null, col.dtype)
        serde.write_varint(out, len(payload))
        out += payload
    return bytes(out)


def deserialize_rows(schema: TableSchema, blob: bytes) -> list[tuple[Any, ...]]:
    """Inverse of :func:`serialize_rows`, bounds-checked throughout."""
    count, pos = serde.read_varint(blob, 0)
    columns: list[list[Any]] = []
    for col in schema:
        flags = blob[pos : pos + count]
        if len(flags) != count:
            raise CorruptBlobError(
                f"row blob truncated in null flags of column {col.name!r}: "
                f"need {count} bytes, have {len(flags)}"
            )
        pos += count
        length, pos = serde.read_varint(blob, pos)
        if pos + length > len(blob):
            raise CorruptBlobError(
                f"row blob truncated in payload of column {col.name!r}: "
                f"need {length} bytes at offset {pos}, have {len(blob) - pos}"
            )
        non_null = serde.deserialize_values(blob[pos : pos + length], col.dtype)
        pos += length
        expected = count - sum(flags)
        if len(non_null) != expected:
            raise CorruptBlobError(
                f"row blob column {col.name!r} carries {len(non_null)} "
                f"values but null flags promise {expected}"
            )
        if col.dtype.kind is TypeKind.BOOL:
            non_null = [bool(v) for v in non_null]
        it = iter(non_null)
        columns.append([None if flag else next(it) for flag in flags])
    if pos != len(blob):
        raise CorruptBlobError(
            f"row blob has {len(blob) - pos} trailing bytes after offset {pos}"
        )
    return list(zip(*columns)) if columns else []


def deserialize_columns(schema: TableSchema, blob: bytes) -> PhysicalColumns:
    """:func:`deserialize_rows` as columns (a BULK_LOAD payload, which
    older builds wrote column by column in the same bytes),
    bounds-checked throughout."""
    count, pos = serde.read_varint(blob, 0)
    values: dict[str, np.ndarray] = {}
    nulls: dict[str, np.ndarray | None] = {}
    for col in schema:
        flags = np.frombuffer(blob, np.uint8, min(count, len(blob) - pos), pos)
        if len(flags) != count or (count and flags.max() > 1):
            raise CorruptBlobError(
                f"row blob has bad null flags in column {col.name!r}: "
                f"need {count} flags of 0 or 1 at offset {pos}"
            )
        pos += count
        length, pos = serde.read_varint(blob, pos)
        if pos + length > len(blob):
            raise CorruptBlobError(
                f"row blob truncated in payload of column {col.name!r}: "
                f"need {length} bytes at offset {pos}, have {len(blob) - pos}"
            )
        present = serde.deserialize_array(blob[pos : pos + length], col.dtype)
        pos += length
        mask = flags.astype(bool) if flags.any() else None
        expected = count if mask is None else count - int(mask.sum())
        if len(present) != expected:
            raise CorruptBlobError(
                f"row blob column {col.name!r} carries {len(present)} "
                f"values but null flags promise {expected}"
            )
        values[col.name] = col.dtype.spread(present, mask)
        nulls[col.name] = mask
    if pos != len(blob):
        raise CorruptBlobError(
            f"row blob has {len(blob) - pos} trailing bytes after offset {pos}"
        )
    return PhysicalColumns(values, nulls)


# ---------------------------------------------------------------------- #
# Schema / config <-> JSON
# ---------------------------------------------------------------------- #
def schema_to_json(schema: TableSchema) -> list[dict]:
    out = []
    for col in schema:
        out.append(
            {
                "name": col.name,
                "kind": col.dtype.kind.value,
                "scale": col.dtype.scale,
                "length": col.dtype.length,
                "nullable": col.nullable,
            }
        )
    return out


def schema_from_json(data: list[dict]) -> TableSchema:
    columns = []
    for entry in data:
        dtype = DataType(
            TypeKind(entry["kind"]), scale=entry["scale"], length=entry["length"]
        )
        columns.append(ColumnDef(entry["name"], dtype, entry["nullable"]))
    return TableSchema(columns)


def config_to_json(config: StoreConfig) -> dict:
    """Every field: replay must split row groups as the live table did."""
    return {field.name: getattr(config, field.name) for field in dataclasses.fields(config)}


def config_from_json(data: dict) -> StoreConfig:
    return StoreConfig(**data)


def _read_json(reader, relpath: str) -> Any:
    """Parse a JSON metadata file; structural failure is a recovery error."""
    try:
        return json.loads(reader.read(relpath).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise RecoveryError(f"unreadable metadata file {relpath}: {exc}") from exc


# ---------------------------------------------------------------------- #
# Row-store heap save/load
# ---------------------------------------------------------------------- #
def save_rowstore(heap: RowStoreTable, writer, prefix: str) -> None:
    """Every slot of the heap in row-id order, and which are tombstoned
    (a file of their positions, written only when there are any): the
    reloaded heap gives each row the row id it has now, which WAL records
    after the checkpoint address it by."""
    slots = list(heap.slots())
    writer.write(
        f"{prefix}/rowstore.rows", serialize_rows(heap.schema, [row for row, _ in slots])
    )
    deleted = [position for position, (_, dead) in enumerate(slots) if dead]
    if deleted:
        writer.write(f"{prefix}/rowstore_deleted.json", json.dumps(deleted).encode("utf-8"))


def load_rowstore(heap: RowStoreTable, reader, prefix: str) -> None:
    # A restore, not a change: the context's undo log is never used.
    txn = TxnContext()
    rows = deserialize_rows(heap.schema, reader.read(f"{prefix}/rowstore.rows"))
    rids = [heap.insert(row, txn) for row in rows]
    relpath = f"{prefix}/rowstore_deleted.json"
    if reader.exists(relpath):
        for position in _read_json(reader, relpath):
            if not (isinstance(position, int) and 0 <= position < len(rids)):
                raise RecoveryError(f"{relpath}: no slot {position!r} in the heap")
            heap.delete(rids[position])


# ---------------------------------------------------------------------- #
# Columnstore index save/load
# ---------------------------------------------------------------------- #
def save_columnstore(index: ColumnStoreIndex, writer, prefix: str) -> None:
    """Write one columnstore's files under ``<prefix>/`` via ``writer``."""
    group_ids = []
    for group in index.directory.row_groups():
        group_ids.append(group.group_id)
        for column, segment in group.segments.items():
            writer.write_segment(
                f"{prefix}/rowgroups/g{group.group_id}.{column}.seg", segment
            )

    delta_meta = []
    for delta in index.delta_stores():
        # One capture: ids and rows come from the same slots, so they can
        # never pair up rows from different states of the store.
        pairs = delta.capture(PENDING_EPOCH).scan()
        payload = bytearray()
        serde.write_varint(payload, len(pairs))
        for row_id, _ in pairs:
            serde.write_varint(payload, row_id)
        payload += serialize_rows(index.schema, [row for _, row in pairs])
        writer.write(f"{prefix}/delta_{delta.delta_id}.rows", bytes(payload))
        delta_meta.append({"id": delta.delta_id, "open": delta.is_open})

    bitmap = {
        str(gid): index.delete_bitmap.marks_for(gid)
        for gid in index.delete_bitmap.groups_with_deletes()
    }
    writer.write(f"{prefix}/delete_bitmap.json", json.dumps(bitmap).encode("utf-8"))

    meta = {
        "group_ids": group_ids,
        "next_group_id": index.directory._next_group_id,
        "deltas": delta_meta,
        "next_delta_id": index._next_delta_id,
        "next_row_id": index._next_row_id,
        "open_delta_id": index._open_delta_id,
    }
    writer.write(f"{prefix}/meta.json", json.dumps(meta).encode("utf-8"))


def load_columnstore(
    schema: TableSchema, config: StoreConfig, reader, prefix: str
) -> ColumnStoreIndex:
    """Rebuild a columnstore from ``<prefix>/`` files of ``reader``."""
    index = ColumnStoreIndex(schema, config)
    meta = _read_json(reader, f"{prefix}/meta.json")

    try:
        group_ids = meta["group_ids"]
        delta_entries = meta["deltas"]
    except (KeyError, TypeError) as exc:
        raise RecoveryError(f"malformed {prefix}/meta.json: {exc!r}") from exc

    groups = []
    for group_id in group_ids:
        segments = {}
        for col in schema:
            relpath = f"{prefix}/rowgroups/g{group_id}.{col.name}.seg"
            try:
                segments[col.name] = reader.read_segment(relpath)
            except EncodingError as exc:
                raise CorruptBlobError(str(exc), path=relpath) from exc
        groups.append(RowGroup(group_id=group_id, schema=schema, segments=segments))
    # Installing re-interns the dictionaries, so global dictionaries match
    # a freshly-built index (an archived segment's dictionary was restored
    # from its archive when its blob was read).
    index.directory.install(groups)
    index.directory._next_group_id = meta["next_group_id"]

    for entry in delta_entries:
        relpath = f"{prefix}/delta_{entry['id']}.rows"
        delta = DeltaStore(entry["id"], schema)
        blob = reader.read(relpath)
        try:
            n, pos = serde.read_varint(blob, 0)
            row_ids = []
            for _ in range(n):
                row_id, pos = serde.read_varint(blob, pos)
                row_ids.append(row_id)
            rows = deserialize_rows(schema, blob[pos:])
        except EncodingError as exc:
            raise CorruptBlobError(str(exc), path=relpath) from exc
        if len(rows) != n:
            raise CorruptBlobError(
                f"delta blob promises {n} rows but carries {len(rows)}",
                path=relpath,
            )
        for row_id, row in zip(row_ids, rows):
            delta.insert(row_id, row)
        if not entry["open"]:
            delta.close()
        index._delta_stores[entry["id"]] = delta
    index._next_delta_id = meta["next_delta_id"]
    index._next_row_id = meta["next_row_id"]
    index._open_delta_id = meta["open_delta_id"]

    bitmap = _read_json(reader, f"{prefix}/delete_bitmap.json")
    for gid, positions in bitmap.items():
        index.delete_bitmap.mark_many(int(gid), positions)
    return index
