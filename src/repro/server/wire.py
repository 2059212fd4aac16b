"""The server's wire format: JSON lines, and result sets as column frames.

Every message is one JSON object on one line — requests, error payloads,
admission sheds, DDL and transaction acknowledgements — except a result
set, which is a JSON header line followed by binary column frames:

    {"ok": true, "columns": ["k", "price", "tag"], "rowcount": 2,
     "frames": ["q", "d", ["a", "b"]]}\\n
    <frame k: NULL bitmap, 2 x int64><frame price: NULL bitmap, 2 x float64>

``frames`` has one entry per column. A string is the :mod:`struct` code
of a binary frame that follows the line, in column order: ``q`` (INT,
BIGINT), ``d`` (FLOAT) or ``?`` (BOOL). A frame is the column's NULL
bitmap — ``ceil(rowcount / 8)`` bytes, bit ``i % 8`` of byte ``i // 8``
set where row ``i`` is NULL — then ``rowcount`` little-endian values, a
NULL's slot holding 0. Any other entry is a JSON array holding the
column's presented values (dates and decimals as ``json.dumps(...,
default=str)`` writes them), so the header carries every column of a
kind with no fixed width.

:func:`read_response` turns either form back into the payload the
JSON-lines protocol gave — ``{"ok", "columns", "rows", "rowcount"}``
with ``rows`` a list of lists — so a caller cannot tell them apart.
Frames are packed from the result's rows a column at a time — one
``struct.pack`` each — and read back with one ``struct.unpack`` for all
of them; only a NULL is handled a cell at a time.
"""

from __future__ import annotations

import json
import struct
from typing import Any, BinaryIO

from ..types import TypeKind

# What json.dumps(payload, default=str) builds on every call, built once.
_ENCODER = json.JSONEncoder(default=str)

# The kinds that travel as binary frames, by their struct code.
_FRAME_CODES = {TypeKind.INT: "q", TypeKind.BIGINT: "q", TypeKind.FLOAT: "d", TypeKind.BOOL: "?"}
# What a frame is packed with: a BOOL as the byte 0 or 1 ("?" would pack a
# NULL as False, and "B" refuses it), and the value a NULL's slot holds.
_PACK = {"q": "q", "d": "d", "?": "B"}
_FILL = {"q": 0, "d": 0.0, "?": False}


def encode_line(payload: dict[str, Any]) -> bytes:
    """One JSON message: a request, an error or an acknowledgement."""
    return (_ENCODER.encode(payload) + "\n").encode("utf-8")


def encode_result(columns: list[str], dtypes, rows: list[tuple]) -> bytes:
    """A result set: the header line, then its columns' frames."""
    count = len(rows)
    vectors = zip(*rows) if rows else [()] * len(columns)
    specs: list[Any] = []
    frames: list[bytes] = []
    for dtype, values in zip(dtypes, vectors):
        code = _FRAME_CODES.get(dtype.kind)
        if code is None:
            specs.append(values)
        else:
            specs.append(code)
            frames += _frame(code, values)
    header = {"ok": True, "columns": columns, "rowcount": count, "frames": specs}
    frames.insert(0, encode_line(header))
    return b"".join(frames)


def _frame(code: str, values: tuple) -> tuple[bytes, bytes]:
    """One column's frame: its NULL bitmap and its packed values."""
    count = len(values)
    pack = f"<{count}{_PACK[code]}"
    mask = bytearray((count + 7) >> 3)
    try:
        return mask, struct.pack(pack, *values)
    except struct.error:  # a NULL
        for index, value in enumerate(values):
            if value is None:
                mask[index >> 3] |= 1 << (index & 7)
        fill = _FILL[code]
        return mask, struct.pack(pack, *(fill if value is None else value for value in values))


def read_response(reader: BinaryIO) -> dict[str, Any]:
    """Read one response from ``reader``; a result set's frames are read
    in full or not at all (``ConnectionError`` when the stream ends)."""
    line = reader.readline()
    if not line.endswith(b"\n"):
        raise ConnectionError("server closed the connection")
    payload = json.loads(line)
    specs = payload.pop("frames", None)
    if specs is None:
        return payload
    count = payload.pop("rowcount")
    mask_bytes = (count + 7) >> 3
    # Every frame at once: per framed column its bitmap, then its values.
    frame = f"{mask_bytes}s{count}"
    layout = "<" + "".join([frame + spec for spec in specs if spec.__class__ is str])
    size = struct.calcsize(layout)
    data = reader.read(size)
    if len(data) < size:
        raise ConnectionError("server closed the connection mid-frame")
    flat = struct.unpack(layout, data)
    vectors = []
    at = 0
    for spec in specs:
        if spec.__class__ is not str:
            vectors.append(spec)
            continue
        mask = flat[at]
        values = flat[at + 1:at + 1 + count]
        at += 1 + count
        if mask.count(0) != mask_bytes:
            values = list(values)
            for index in range(count):
                if mask[index >> 3] >> (index & 7) & 1:
                    values[index] = None
        vectors.append(values)
    payload["rows"] = list(map(list, zip(*vectors))) if vectors else [[] for _ in range(count)]
    payload["rowcount"] = count
    return payload
