"""Shared fixtures for the transaction tests.

The load-bearing helper is :func:`fingerprint_db`: a deep, *physical*
capture of every mutable structure in the engine — heap pages (including
tombstones and byte accounting), B+tree index entries, delta stores
(rows, open/closed state, id allocators), row-group directories, global
dictionaries, delete bitmaps, and catalog epochs. Statement atomicity
promises the pre-statement state back **exactly**, so the tests compare
fingerprints, not query results — a leaked allocator bump or a stale
index entry must fail the comparison even when no query can see it.
"""

import pytest

from repro.mvcc import PENDING_EPOCH
from repro.observability import MetricsRegistry
from repro.observability.registry import set_registry


@pytest.fixture
def registry():
    """A fresh metrics registry installed for the duration of one test."""
    reg = MetricsRegistry()
    previous = set_registry(reg)
    yield reg
    set_registry(previous)


def fingerprint_rowstore(rowstore) -> tuple:
    return (
        rowstore._live,
        tuple(
            (
                page.page_id,
                tuple(page.rows),
                tuple(sorted(page.deleted)),
                page.used_bytes,
            )
            for page in rowstore._pages
        ),
    )


def fingerprint_columnstore(cs) -> tuple:
    deltas = tuple(
        (
            delta_id,
            delta.state.value,
            tuple(delta.capture(PENDING_EPOCH).scan()),
        )
        for delta_id, delta in sorted(cs._delta_stores.items())
    )
    groups = tuple(
        (
            info.group_id,
            info.column,
            info.row_count,
            info.scheme,
            info.encoded_size_bytes,
            info.min_value,
            info.max_value,
            info.archived,
        )
        for info in cs.directory.segment_infos()
    )
    dicts = tuple(
        (col.name, tuple(cs.directory.global_dictionary(col.name)._values))
        for col in cs.schema
    )
    marks = tuple(
        (gid, tuple(cs.delete_bitmap.marks_for(gid)))
        for gid in cs.delete_bitmap.groups_with_deletes()
    )
    return (
        cs._next_row_id,
        cs._next_delta_id,
        cs._open_delta_id,
        cs.directory.next_group_id,
        deltas,
        groups,
        dicts,
        marks,
    )


def fingerprint_table(table) -> tuple:
    parts = [table.name, table.storage_kind.value, table._data_version]
    if table.rowstore is not None:
        parts.append(fingerprint_rowstore(table.rowstore))
        parts.append(
            tuple(
                (name, tuple(index._tree.items()))
                for name, index in sorted(table.indexes.items())
            )
        )
    if table.columnstore is not None:
        parts.append(fingerprint_columnstore(table.columnstore))
    return tuple(parts)


def fingerprint_db(db) -> tuple:
    return (
        db._catalog_epoch,
        tuple(
            fingerprint_table(db.catalog.table(name))
            for name in db.catalog.table_names()
        ),
    )
