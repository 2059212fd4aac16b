"""A delta store against a dict model, over random operation sequences.

Every operation of the store's interface runs against both the store and
a plain ``{row_id: (values, insert epoch, delete epoch)}`` model: inserts
at GENESIS or PENDING (in and out of row-id order), commit stamps over a
span of row ids (one transaction's rows in the store), tombstones and
their undo, insert undo (a rollback), restores, garbage collection,
closing and reopening, and a round trip through the persisted row format.
After every step the current state — ``capture(PENDING_EPOCH)``, which is
what every reader alone or inside its own transaction reads, ``get`` and
the row counts — and ``capture(e)`` at several epochs must equal the
model, and every capture taken earlier must still return what it
returned when it was taken — across growth, compaction and restores.

Columns cover every type with NULLs, FLOAT -0.0 / NaN / infinities and
strings; floats are compared by bits. ``scan()`` must yield Python values
(so persisted ``delta_<id>.rows`` blobs and WAL payloads are the bytes
the same rows always made), and every array handed out must be a copy:
scribbling over it changes nothing.

Tier-1 runs 25 examples; CI's crash-consistency job runs the long
hypothesis profile (``HYPOTHESIS_PROFILE=long``).
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import types
from repro.errors import StorageError
from repro.mvcc import GENESIS_EPOCH, PENDING_EPOCH
from repro.schema import schema
from repro.storage import serde
from repro.storage.deltastore import DeltaStore
from repro.storage.persist import deserialize_rows, serialize_rows

from .. import examples

LIVE = PENDING_EPOCH + 1

SCHEMA = schema(
    ("i", types.INT),
    ("b", types.BIGINT),
    ("f", types.FLOAT),
    ("d", types.decimal(2)),
    ("s", types.VARCHAR),
    ("t", types.DATE),
    ("o", types.BOOL),
)
# The Python type each column's non-NULL cells must come back as.
PY_TYPES = (int, int, float, int, str, int, bool)

_CELLS = (
    st.integers(-(2**31), 2**31 - 1),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, math.nan, math.inf]),
    st.integers(-(2**63), 2**63 - 1),
    st.text(max_size=6) | st.sampled_from(["", "a", "é☃"]),
    st.integers(-(2**31), 2**31 - 1),
    st.booleans(),
)
ROWS = st.tuples(*(st.none() | cell for cell in _CELLS))
ROW_IDS = st.integers(0, 24)
EPOCHS = st.integers(0, 9)
STAMPS = st.sampled_from([GENESIS_EPOCH, PENDING_EPOCH]) | st.integers(1, 9)
READ_EPOCHS = (0, 1, 4, 9, PENDING_EPOCH - 1)


def _cell_key(value):
    """Equality by bits for floats (NaN == NaN, -0.0 != 0.0)."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def _rows_key(pairs):
    return [(row_id, tuple(_cell_key(v) for v in row)) for row_id, row in pairs]


def _columns_as_rows(columns, null_masks, row_ids):
    """Columns handed out by to_columns, back to (row_id, row) pairs."""
    assert list(columns) == SCHEMA.names
    cells = []
    for col in SCHEMA:
        values, mask = columns[col.name], null_masks[col.name]
        assert values.dtype == col.dtype.numpy_dtype
        assert values.shape == row_ids.shape
        assert mask is None or (mask.dtype == np.bool_ and mask.any())
        cells.append(
            [None if mask is not None and mask[k] else v for k, v in enumerate(values.tolist())]
        )
    return list(zip(row_ids.tolist(), zip(*cells)))


def _scribble(columns, null_masks, row_ids):
    """Overwrite every handed-out array that can be written."""
    for array in [*columns.values(), *null_masks.values(), row_ids]:
        if array is not None and array.flags.writeable:
            array[...] = "#" if array.dtype == object else 1


class DeltaModel(RuleBasedStateMachine):
    # Row ids inserted so far: later operations mostly aim at rows that exist.
    inserted = Bundle("inserted")
    ids = st.one_of(inserted, ROW_IDS)

    @initialize()
    def start(self):
        self.store = DeltaStore(7, SCHEMA)
        self.model: dict[int, list] = {}  # row id -> [values, ins, del]
        self.open = True
        self.captures: list = []  # (view, what it returned when taken)

    # -- what the model says --------------------------------------------
    def _visible(self, keep):
        return [(rid, self.model[rid][0]) for rid in sorted(self.model) if keep(*self.model[rid][1:])]

    def _live(self):
        return self._visible(lambda ins, dele: dele == LIVE)

    def _at(self, epoch):
        return self._visible(lambda ins, dele: ins <= epoch < dele)

    # -- operations ------------------------------------------------------
    @rule(target=inserted, row_id=st.none() | ROW_IDS, row=ROWS, pending=st.booleans())
    def insert(self, row_id, row, pending):
        if row_id is None:  # the next id, as the columnstore allocates them
            row_id = max(self.model, default=-1) + 1
        epoch = PENDING_EPOCH if pending else GENESIS_EPOCH
        if not self.open or row_id in self.model:
            with pytest.raises(StorageError):
                self.store.insert(row_id, row, epoch)
            return row_id
        self.store.insert(row_id, row, epoch)
        self.model[row_id] = [row, epoch, LIVE]
        return row_id

    @rule(count=st.integers(1, 4), row=ROWS)
    def insert_pending_run(self, count, row):
        # One transaction's statement: PENDING rows at the next ids.
        if not self.open:
            return
        first = max(self.model, default=-1) + 1
        for row_id in range(first, first + count):
            self.store.insert(row_id, row, PENDING_EPOCH)
            self.model[row_id] = [row, PENDING_EPOCH, LIVE]

    @rule(first=ids, width=st.sampled_from([0, 0, 1, 2, 5]), epoch=STAMPS)
    def stamp_inserts(self, first, width, epoch):
        # One transaction's commit stamp: its PENDING rows among the row
        # ids first..last, and no others. An id a rollback took away may
        # be either end, and a row outside the span stays PENDING.
        last = first + width
        self.store.stamp_inserts(first, last, epoch)
        for row_id, entry in self.model.items():
            if first <= row_id <= last and entry[1] == PENDING_EPOCH:
                entry[1] = epoch

    @rule(row_id=ids, epoch=STAMPS)
    def tombstone(self, row_id, epoch):
        entry = self.model.get(row_id)
        expected = entry is not None and entry[2] == LIVE
        assert self.store.tombstone(row_id, epoch) is expected
        if expected:
            entry[2] = epoch

    @rule(row_id=ids, epoch=STAMPS)
    def stamp_tombstone(self, row_id, epoch):
        self.store.stamp_tombstone(row_id, epoch)
        entry = self.model.get(row_id)
        if entry is not None and entry[2] == PENDING_EPOCH:
            entry[2] = epoch

    @rule(row_id=ids)
    def clear_tombstone(self, row_id):
        entry = self.model.get(row_id)
        expected = entry is not None and entry[2] != LIVE
        assert self.store.clear_tombstone(row_id) is expected
        if expected:
            entry[2] = LIVE

    @rule(row_id=ids)
    def delete(self, row_id):
        assert self.store.delete(row_id) is (row_id in self.model)
        self.model.pop(row_id, None)

    @precondition(lambda self: self.model)
    @rule()
    def undo_latest_insert(self):
        # Insert undo takes the newest row first; a still-PENDING last
        # slot is released without new buffers.
        row_id = max(self.model)
        assert self.store.delete(row_id)
        del self.model[row_id]

    @rule(row_id=ids, row=ROWS)
    def restore(self, row_id, row):
        entry = self.model.get(row_id)
        if entry is not None and entry[2] == LIVE:
            with pytest.raises(StorageError):
                self.store.restore(row_id, row)
            return
        self.store.restore(row_id, row)
        if entry is None:
            self.model[row_id] = [row, GENESIS_EPOCH, LIVE]
        else:
            entry[2] = LIVE

    @rule(horizon=EPOCHS)
    def gc(self, horizon):
        dead = [rid for rid, (_, _, dele) in self.model.items() if dele <= horizon]
        assert self.store.gc(horizon) == len(dead)
        for rid in dead:
            del self.model[rid]

    @rule()
    def close_or_reopen(self):
        if self.open:
            self.store.close()
        else:
            self.store.reopen()
        self.open = not self.open
        assert self.store.is_open is self.open

    @rule()
    def persist_round_trip(self):
        """What save + load do: live rows through the row blob format,
        back in as GENESIS rows of a fresh store."""
        pairs = self.store.capture(PENDING_EPOCH).scan()
        payload = bytearray()
        serde.write_varint(payload, len(pairs))
        for row_id, _ in pairs:
            serde.write_varint(payload, row_id)
        blob = bytes(payload) + serialize_rows(SCHEMA, [row for _, row in pairs])
        live = self._live()
        assert blob[len(payload):] == serialize_rows(SCHEMA, [row for _, row in live])
        store = DeltaStore(7, SCHEMA)
        for row_id, row in zip([r for r, _ in live], deserialize_rows(SCHEMA, blob[len(payload):])):
            store.insert(row_id, row)
        if not self.open:
            store.close()
        self.store = store
        self.model = {rid: [row, GENESIS_EPOCH, LIVE] for rid, row in live}

    @rule(epoch=st.sampled_from(READ_EPOCHS))
    def take_capture(self, epoch):
        view = self.store.capture(epoch)
        self.captures = self.captures[-7:] + [(view, _rows_key(self._at(epoch)))]

    # -- checks ----------------------------------------------------------
    @invariant()
    def current_state_matches(self):
        store, live = self.store, self._live()
        assert store.row_count == len(live) == len(store)
        assert store.physical_row_count == len(self.model)
        current = store.capture(PENDING_EPOCH)
        assert current.row_count == len(live)
        scanned = current.scan()
        assert _rows_key(scanned) == _rows_key(live)
        for _, row in scanned:
            for value, py in zip(row, PY_TYPES):
                assert value is None or type(value) is py
        handed = current.to_columns()
        assert _rows_key(_columns_as_rows(*handed)) == _rows_key(live)
        _scribble(*handed)
        assert _rows_key(store.capture(PENDING_EPOCH).scan()) == _rows_key(live)
        subset, masks, row_ids = current.to_columns(["s", "f"])
        assert list(subset) == ["s", "f"] and row_ids.tolist() == [r for r, _ in live]
        by_id = dict(store.capture(PENDING_EPOCH).scan())
        for rid in list(self.model) + [25]:
            got = by_id.get(rid)
            entry = self.model.get(rid)
            if entry is None or entry[2] != LIVE:
                assert got is None
            else:
                assert _rows_key([(rid, got)]) == _rows_key([(rid, entry[0])])

    @invariant()
    def captures_match(self):
        for epoch in READ_EPOCHS:
            view = self.store.capture(epoch)
            expected = _rows_key(self._at(epoch))
            assert view.row_count == len(expected)
            assert _rows_key(view.scan()) == expected
        for view, expected in self.captures:
            handed = view.to_columns()
            assert _rows_key(_columns_as_rows(*handed)) == expected
            _scribble(*handed)
            assert _rows_key(view.scan()) == expected


DeltaModel.TestCase.settings = settings(
    max_examples=examples(25), stateful_step_count=40, deadline=None
)
TestDeltaStoreModel = DeltaModel.TestCase


def _pending_store(ids, pending=True):
    store = DeltaStore(0, SCHEMA)
    for row_id in ids:
        store.insert(row_id, (row_id,) + (None,) * 6, PENDING_EPOCH if pending else GENESIS_EPOCH)
    return store


def _stamps(store):
    n = store.physical_row_count
    return dict(zip(store._buffers.row_ids[:n].tolist(), store._buffers.inserted[:n].tolist()))


def test_a_span_stamps_its_pending_rows_and_none_past_it():
    store = _pending_store(range(6))
    store.stamp_inserts(1, 3, 7)
    assert _stamps(store) == {0: PENDING_EPOCH, 1: 7, 2: 7, 3: 7, 4: PENDING_EPOCH, 5: PENDING_EPOCH}
    store.stamp_inserts(5, 5, 8)
    assert _stamps(store)[4] == PENDING_EPOCH and _stamps(store)[5] == 8


def test_a_rolled_back_row_is_not_stamped():
    # Row 2 was rolled back and row 3 came after it: stamping row 2
    # alone must stamp nothing, not the slot row 2 would have had.
    store = _pending_store([0, 1, 2])
    assert store.delete(2)
    store.insert(3, (3,) + (None,) * 6, PENDING_EPOCH)
    store.stamp_inserts(2, 2, 5)
    assert set(_stamps(store).values()) == {PENDING_EPOCH}
    # Rows gone from the middle of a span (garbage collection) leave
    # the rest of the span to stamp.
    store = _pending_store(range(5), pending=False)
    for row_id in (1, 3):
        store.tombstone(row_id, 1)
    store.gc(1)
    store.insert(5, (5,) + (None,) * 6, PENDING_EPOCH)
    store.stamp_inserts(1, 1, 6)
    store.stamp_inserts(3, 3, 6)
    assert _stamps(store) == {0: 0, 2: 0, 4: 0, 5: PENDING_EPOCH}
    store.stamp_inserts(0, 5, 6)
    assert _stamps(store) == {0: 0, 2: 0, 4: 0, 5: 6}


def test_capture_survives_growth_compaction_and_restore():
    store = DeltaStore(0, SCHEMA)
    row = (1, 2, -0.0, 3, "x", 4, True)
    for row_id in range(0, 40, 2):
        store.insert(row_id, row, epoch=1)
    before = store.capture(1)
    for row_id in range(40, 200):  # growth: the buffers are replaced
        store.insert(row_id, (row_id, None, math.nan, None, "y", None, False))
    for row_id in range(0, 40, 4):
        store.tombstone(row_id, 2)
    assert store.gc(5) == 10  # compaction
    store.restore(1, row)  # out of order: the later slots move up one
    assert [rid for rid, _ in store.capture(PENDING_EPOCH).scan()][:3] == [1, 2, 6]
    assert [rid for rid, _ in before.scan()] == list(range(0, 40, 2))
    assert all(_rows_key([(0, r)]) == _rows_key([(0, row)]) for _, r in before.scan())
    assert store.capture(0).row_count == 161
