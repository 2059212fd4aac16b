"""Bit packing of non-negative integer arrays.

Column segments store dictionary codes and rebased numeric offsets with the
minimum number of bits needed for the segment's value range, exactly as the
paper's bit-pack compression does. Bit order is little-endian, so value
``i`` occupies bits ``[i*width, (i+1)*width)`` of the payload; that makes
every value addressable on its own, and :func:`take` — the one decode
kernel — reads any subset of them without touching the rest, and all of
them without addressing any.
"""

from __future__ import annotations

import numpy as np

from ..errors import EncodingError

# What unpacking emits, so what a code stream hands its value stage.
CODES = np.dtype(np.uint64)


def bits_needed(max_value: int) -> int:
    """Number of bits required to represent values in ``[0, max_value]``.

    ``max_value == 0`` needs zero bits: the whole segment is the single
    value 0 and the packed payload is empty.
    """
    if max_value < 0:
        raise EncodingError(f"bit packing requires non-negative values, got max {max_value}")
    return int(max_value).bit_length()


def pack(values: np.ndarray, width: int) -> bytes:
    """Pack ``values`` (non-negative ints) into ``width`` bits each.

    Returns the packed byte payload. ``width`` may be zero when every value
    is zero.
    """
    values = np.asarray(values)
    if values.ndim != 1:
        raise EncodingError("pack expects a 1-D array")
    if width == 0:
        if values.size and int(values.max()) != 0:
            raise EncodingError("width 0 requires all values to be zero")
        return b""
    if width > 64:
        raise EncodingError(f"bit width {width} exceeds 64")
    if values.size == 0:
        return b""
    vals = values.astype(np.uint64, copy=False)
    if int(vals.max()) >= (1 << width):
        raise EncodingError(
            f"value {int(vals.max())} does not fit in {width} bits"
        )
    shifts = np.arange(width, dtype=np.uint64)
    # (n, width) matrix of bits, little-endian within each value.
    bits = ((vals[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


# A full unpack addresses the payload densely from this many values on:
# the dense phase's score of numpy calls cost what gathering 1,000-1,500
# values does (EXPERIMENTS.md E27); shorter streams — an RLE block's
# handful of run values — are gathered.
_DENSE_FROM = 1024


def take(
    payload: bytes, width: int, count: int, positions: np.ndarray | None
) -> np.ndarray:
    """The values at ``positions`` (``None``: every position, in order) of
    a stream of ``count`` packed values.

    The one decode kernel, two ways to address the payload. *Gather*:
    value ``i`` starts at bit ``i * width``, so it lies inside the
    little-endian 8-byte window at byte ``i * width // 8`` shifted down
    by ``i * width % 8`` — one gather, one shift, one mask, whatever
    ``width`` is. *Dense*, when every position is wanted: eight
    consecutive values occupy exactly ``width`` bytes, so value ``j`` of
    every group of eight sits at the same place in its group — one
    strided window view per ``j``, at byte ``j * width // 8`` with stride
    ``width``, shifted by ``j * width % 8`` — and nothing is gathered at
    all. Two exceptions: byte-sized widths are a plain typed view, and
    from 58 bits on a shifted value can reach into a ninth byte, which is
    gathered separately (such streams are never addressed densely).
    Payloads are stored unpadded: a gathered window that would run past
    the end is anchored at the last 8 bytes instead and shifted further,
    and the dense windows of the last group read zeros appended to a copy.
    ``payload``, ``width`` and ``positions`` may come from disk and are
    checked here.
    """
    _check(payload, width, count)
    if positions is None:
        taken = count
    else:
        positions = np.asarray(positions, dtype=np.int64)
        taken = positions.size
        if taken:
            _check_positions(int(positions.min()), int(positions.max()), count)
    if width == 0 or taken == 0:
        return np.zeros(taken, dtype=np.uint64)
    if width in (8, 16, 32, 64):
        typed = np.frombuffer(payload, dtype=f"<u{width // 8}", count=count)
        return (typed if positions is None else typed[positions]).astype(np.uint64)

    # Full-length temporaries are kept to two, here and below: at 16,384
    # rows each is exactly glibc's 128 KiB mmap threshold, and a server
    # thread pays for every one in page faults (EXPERIMENTS.md E24).
    if positions is None and width <= 57 and count >= _DENSE_FROM:
        # A shifted value needs 7 + width bits of its window.
        window = 4 if width <= 25 else 8
        groups = -(-count // 8)
        reach = (groups - 1) * width + 7 * width // 8 + window  # the last window's end
        if len(payload) < reach:
            payload = payload + bytes(reach - len(payload))
        # Each phase lands in a row of its own (contiguous writes, 1.4x
        # faster than into out[j::8]); the mask transposes them into place.
        phases = np.empty((8, groups), dtype=f"<u{window}")
        for j in range(8):
            bit = j * width
            windows = np.ndarray(
                (groups,), dtype=phases.dtype, buffer=payload, offset=bit >> 3, strides=(width,)
            )
            np.right_shift(windows, bit & 7, out=phases[j])
        out = np.empty((groups, 8), dtype=np.uint64)
        np.bitwise_and(phases.T, (1 << width) - 1, out=out)
        return out.reshape(-1)[:count]

    data = np.frombuffer(payload, dtype=np.uint8)
    if data.size < 8:
        data = np.concatenate((data, np.zeros(8 - data.size, dtype=np.uint8)))
    last = data.size - 8  # where the last whole window starts
    windows = np.ndarray((last + 1,), dtype="<u8", buffer=data, strides=(1,))
    # Bit offsets that become window starts, and the windows that become
    # the values (a third only from 58 bits on), worked on in place.
    if positions is None:
        start = np.arange(0, count * width, width, dtype=np.int64)
    else:
        start = positions * width
    shift = np.empty(taken, dtype=np.uint8)
    np.bitwise_and(start, 7, out=shift, casting="unsafe")
    start >>= 3
    tail = np.flatnonzero(start > last)  # windows that would run past the end
    shift[tail] += ((start[tail] - last) << 3).astype(np.uint8)
    start[tail] = last
    words = windows[start]
    words >>= shift
    if width > 57:
        # Up to 7 more bits sit in the byte after the window; where they
        # do not (or the index was clamped) they land above ``width``
        # and the mask drops them. (63 - s) then 1: a shift by 64 is
        # undefined, and s may be 0.
        start += 8
        np.minimum(start, data.size - 1, out=start)
        high = data[start].astype(np.uint64)
        high <<= np.uint8(63) - shift
        high <<= np.uint8(1)
        words |= high
    words &= np.uint64((1 << width) - 1)
    return words


def take_few(payload: bytes, width: int, count: int, positions: list[int]) -> list[int]:
    """:func:`take` of a handful of positions in Python integers, with the
    same checks; no array is made. Value ``i``'s bits lie in the 9 bytes
    from byte ``i * width // 8`` (7 bits of shift + 64 of value), read
    with ``int.from_bytes``, shifted and masked."""
    _check(payload, width, count)
    mask = (1 << width) - 1
    if positions:
        _check_positions(min(positions), max(positions), count)
    out = []
    for position in positions:
        bit = position * width
        window = int.from_bytes(payload[bit >> 3 : (bit >> 3) + 9], "little")
        out.append(window >> (bit & 7) & mask)
    return out


def _check(payload: bytes, width: int, count: int) -> None:
    if not 0 <= width <= 64:
        raise EncodingError(f"bit width {width} outside 0..64")
    if count < 0:
        raise EncodingError(f"negative count {count}")
    if len(payload) < packed_size_bytes(count, width):
        raise EncodingError(
            f"payload has {len(payload) * 8} bits, need {count * width}"
        )


def _check_positions(low: int, high: int, count: int) -> None:
    if not 0 <= low <= high < count:
        raise EncodingError(f"position outside a stream of {count} values")


def unpack(payload: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack`: recover ``count`` values of ``width`` bits."""
    return take(payload, width, count, None)


def packed_size_bytes(count: int, width: int) -> int:
    """Exact payload size :func:`pack` produces, for encoding selection."""
    return (count * width + 7) // 8
