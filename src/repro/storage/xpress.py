"""Reader of XPR1, the archival codec of earlier builds.

Earlier builds ran an archived segment's payloads through a hand-written
LZ77 codec (a stand-in for SQL Server's XPRESS) with a greedy single-probe
hash match finder over a 64 KiB window. This build archives through zlib
(:func:`repro.storage.segment.read_archive`); this module only reads the
archives an earlier build wrote, so their directories still open.

Format (little-endian):
    header:  magic ``b"XPR1"`` + uint32 uncompressed length
    body:    sequences of
             [token: 4 bits literal-len | 4 bits match-len-4]
             [literal-len extension bytes of 255, then remainder]
             [literals]
             [offset: uint16 >= 1]          (absent in the final sequence)
             [match-len extension bytes]    (absent in the final sequence)
The final sequence carries only literals (match fields omitted), as in LZ4.
"""

from __future__ import annotations

from ..errors import EncodingError

MAGIC = b"XPR1"
_MIN_MATCH = 4


def decompress(payload: bytes) -> bytes:
    """The bytes an XPR1 payload holds."""
    if len(payload) < 8 or payload[:4] != MAGIC:
        raise EncodingError("not an XPR1 archive payload")
    expected = int.from_bytes(payload[4:8], "little")
    out = bytearray()
    pos = 8
    n = len(payload)
    while pos < n:
        token = payload[pos]
        pos += 1
        lit_len = token >> 4
        if lit_len == 15:
            lit_len, pos = _read_length(payload, pos, 15)
        out += payload[pos : pos + lit_len]
        pos += lit_len
        if pos >= n:
            break  # final, literal-only sequence
        offset = int.from_bytes(payload[pos : pos + 2], "little")
        pos += 2
        if offset == 0 or offset > len(out):
            raise EncodingError(f"corrupt archive payload: offset {offset}")
        match_len = token & 0x0F
        if match_len == 15:
            match_len, pos = _read_length(payload, pos, 15)
        match_len += _MIN_MATCH
        start = len(out) - offset
        if offset >= match_len:
            out += out[start : start + match_len]
        else:
            # Overlapping match: copy in offset-sized chunks.
            for i in range(match_len):
                out.append(out[start + i])
    if len(out) != expected:
        raise EncodingError(
            f"archive payload decompressed to {len(out)} bytes, expected {expected}"
        )
    return bytes(out)


def _read_length(payload: bytes, pos: int, base: int) -> tuple[int, int]:
    length = base
    while True:
        if pos >= len(payload):
            raise EncodingError("truncated archive payload")
        byte = payload[pos]
        pos += 1
        length += byte
        if byte != 255:
            return length, pos
