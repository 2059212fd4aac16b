"""Value-based encoding for numeric segments.

The paper rebases numeric values so they fit in fewer bits before bit
packing: pick a power-of-ten *exponent* that turns the values into small
integers (divide ints by a common power of ten; scale decimals/floats up to
integers), then subtract the minimum (*base*). The stored stream is
``value * 10**exponent - base``, always non-negative.

Decoding applies the inverse affine transform, which is exact for integer
and decimal columns and exact-by-construction for floats that admit a small
scale (others are stored raw — see :mod:`repro.storage.encodings`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EncodingError

# Scales we try when looking for an integer representation of floats.
_MAX_FLOAT_SCALE = 4
# Largest power of ten we try to divide integer columns by.
_MAX_INT_DOWNSCALE = 6


@dataclass(frozen=True)
class ValueEncoding:
    """Parameters of an affine value encoding.

    ``exponent`` is the power-of-ten multiplier applied to raw values
    (negative = divide, used for integers sharing trailing zeros; positive =
    multiply, used for floats with few fractional digits). ``base`` is the
    minimum of the transformed values.
    """

    exponent: int
    base: int

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Transform raw numeric values into non-negative offsets."""
        transformed = _scale(values, self.exponent)
        if transformed.size and int(transformed.min()) < self.base:
            raise EncodingError("value encoding produced negative offsets")
        # Subtracted modulo 2**64: a BIGINT range wider than int64 holds
        # (-2**62 .. 2**62) still has offsets below 2**64, and invert's
        # wrapping int64 addition brings the values back.
        return transformed.astype(np.uint64) - np.uint64(self.base % 2**64)

    def invert(self, offsets: np.ndarray, target_dtype: np.dtype) -> np.ndarray:
        """Recover raw values from stored offsets — in place: ``offsets``
        is consumed (a uint64 array fresh from a stream's ``decode`` or
        ``take``, which the caller must not read again) and is, for the
        integer types, the array returned."""
        ints = offsets.view(np.int64)
        ints += self.base
        if self.exponent > 0:
            if np.issubdtype(target_dtype, np.floating):
                # Divided, never multiplied by a reciprocal: bit-identical
                # to the value that was encoded.
                floats = ints.astype(np.float64)
                floats /= float(10**self.exponent)
                return floats
            raise EncodingError("positive exponent is only used for float columns")
        if self.exponent < 0:
            ints *= 10 ** (-self.exponent)
        return ints.astype(target_dtype, copy=False)

    def invert_few(self, offsets: list[int], target_dtype: np.dtype) -> np.ndarray:
        """:meth:`invert` on Python integers (uint64 offsets), bit for bit
        the same array: the same wrapping int64 arithmetic, each float
        ``float(i) / float(10**exponent)``."""
        ints = [_wrap(offset + self.base) for offset in offsets]
        if self.exponent > 0:
            if np.issubdtype(target_dtype, np.floating):
                scale = float(10**self.exponent)
                return np.array([float(i) / scale for i in ints], dtype=np.float64)
            raise EncodingError("positive exponent is only used for float columns")
        if self.exponent < 0:
            factor = 10 ** (-self.exponent)
            ints = [_wrap(i * factor) for i in ints]
        return np.array(ints, dtype=np.int64).astype(target_dtype, copy=False)


def _wrap(value: int) -> int:
    """``value`` as int64 arithmetic leaves it (two's complement wrap)."""
    return ((value + 2**63) & (2**64 - 1)) - 2**63


def _scale(values: np.ndarray, exponent: int) -> np.ndarray:
    if exponent == 0:
        return values.astype(np.int64)
    if exponent > 0:
        return np.round(values.astype(np.float64) * 10**exponent).astype(np.int64)
    divisor = 10 ** (-exponent)
    return (values.astype(np.int64) // divisor).astype(np.int64)


def _common_power_of_ten(values: np.ndarray) -> int:
    """Largest ``k <= _MAX_INT_DOWNSCALE`` with all values divisible by 10**k."""
    ints = values.astype(np.int64)
    k = 0
    while k < _MAX_INT_DOWNSCALE:
        divisor = 10 ** (k + 1)
        if not bool(np.all(ints % divisor == 0)):
            break
        k += 1
    return k


def choose_integer_encoding(values: np.ndarray) -> ValueEncoding:
    """Pick the encoding for an int/bigint/decimal(physical int) segment."""
    if values.size == 0:
        return ValueEncoding(exponent=0, base=0)
    ints = values.astype(np.int64)
    k = _common_power_of_ten(ints)
    scaled = ints // 10**k if k else ints
    return ValueEncoding(exponent=-k, base=int(scaled.min()))


def choose_float_encoding(values: np.ndarray) -> ValueEncoding | None:
    """Pick an exact affine encoding for a float segment, or ``None``.

    Floats qualify when some scale ``10**k`` (k ≤ 4) turns every value into
    an integer that round-trips exactly and fits comfortably in int64.
    """
    if values.size == 0:
        return ValueEncoding(exponent=0, base=0)
    floats = values.astype(np.float64)
    if not np.all(np.isfinite(floats)):
        return None
    if values.size and float(np.abs(floats).max()) > 2**52:
        return None
    for k in range(0, _MAX_FLOAT_SCALE + 1):
        scaled = floats * 10**k
        rounded = np.round(scaled)
        if float(np.abs(rounded).max()) > 2**62:
            return None
        if np.all(rounded / 10**k == floats):
            return ValueEncoding(exponent=k, base=int(rounded.min()))
    return None
