"""Segment-blob fuzzing: round-trip every encoding scheme, then truncate
at each byte offset and flip bytes, asserting only structured errors
(never ``IndexError``/``struct.error``/``KeyError``) escape
``deserialize_segment`` or a read of what it returned. Seeded by
``REPRO_FAULT_SEED`` (CI matrix)."""

import os
import random

import numpy as np
import pytest

from repro import types
from repro.errors import EncodingError
from repro.storage.blob import deserialize_segment, serialize_segment
from repro.storage.encodings import Scheme
from repro.storage.segment import encode_segment

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


def _build_segments():
    rng = np.random.default_rng(7)
    segments = {
        "int_bitpack": encode_segment(types.INT, np.arange(200, dtype=np.int32)),
        "int_rle": encode_segment(
            types.INT, np.repeat(np.arange(5), 40).astype(np.int32)
        ),
        "string_dict": encode_segment(
            types.VARCHAR, np.array(["aa", "bb", "cc"] * 40, dtype=object)
        ),
        "float_raw": encode_segment(types.FLOAT, rng.standard_normal(64)),
        "decimal_value_enc": encode_segment(
            types.decimal(2), (np.arange(100) * 1000 - 50_000).astype(np.int64)
        ),
        "bool_rle": encode_segment(types.BOOL, np.array([True, False] * 30)),
        "nullable_int": encode_segment(
            types.INT,
            np.arange(50, dtype=np.int32),
            np.arange(50) % 7 == 0,
        ),
        "archived_string": encode_segment(
            types.VARCHAR, np.array(["alpha", "beta"] * 100, dtype=object)
        ).to_archived(),
    }
    return segments


SEGMENTS = _build_segments()


def test_every_scheme_covered():
    schemes = {segment.scheme for segment in SEGMENTS.values()}
    assert schemes == set(Scheme)


@pytest.mark.parametrize("name", sorted(SEGMENTS))
def test_roundtrip(name):
    segment = SEGMENTS[name]
    restored = deserialize_segment(serialize_segment(segment))
    values, nulls = restored.decode()
    original_values, original_nulls = segment.decode()
    assert values.tolist() == original_values.tolist()
    if original_nulls is None:
        assert nulls is None
    else:
        assert nulls.tolist() == original_nulls.tolist()


@pytest.mark.parametrize("name", sorted(SEGMENTS))
def test_truncation_at_every_byte_offset(name):
    """Every proper prefix of a segment blob must raise a structured
    error — a truncated blob can never silently half-parse."""
    blob = serialize_segment(SEGMENTS[name])
    for cut in range(len(blob)):
        with pytest.raises(EncodingError):
            deserialize_segment(blob[:cut])


def _read_corrupted(blob: bytes) -> None:
    """Deserialize ``blob``, then read whatever came out every way a scan
    does: decode it, take a few rows, take many and build its vector.
    Each step succeeds or raises EncodingError."""
    try:
        segment = deserialize_segment(blob)
        segment.decode()
        last = max(segment.row_count - 1, 0)
        for positions in ([0, last], range(0, segment.row_count, 3)):
            if segment.row_count:
                segment.take(np.array(positions, dtype=np.int64))
        vector = segment.vector()
        if vector is not None:
            vector.decode()
    except EncodingError:
        pass


@pytest.mark.parametrize("name", sorted(SEGMENTS))
def test_single_byte_flips_raise_only_structured_errors(name):
    """Flip every byte (with a seeded mask): decode either succeeds or
    raises EncodingError — raw IndexError/struct.error/KeyError never
    escape. (Semantic detection of arbitrary flips is the manifest
    checksum's job, one layer up.)"""
    rng = random.Random(SEED)
    blob = bytearray(serialize_segment(SEGMENTS[name]))
    for index in range(len(blob)):
        mask = rng.randrange(1, 256)
        blob[index] ^= mask
        try:
            _read_corrupted(bytes(blob))
        finally:
            blob[index] ^= mask


@pytest.mark.parametrize("name", sorted(SEGMENTS))
def test_random_multi_byte_corruption(name):
    rng = random.Random(SEED + 1)
    pristine = serialize_segment(SEGMENTS[name])
    for _ in range(150):
        blob = bytearray(pristine)
        for _ in range(rng.randrange(1, 4)):
            blob[rng.randrange(len(blob))] ^= rng.randrange(1, 256)
        _read_corrupted(bytes(blob))


def test_garbage_blobs():
    rng = random.Random(SEED + 2)
    with pytest.raises(EncodingError):
        deserialize_segment(b"")
    with pytest.raises(EncodingError):
        deserialize_segment(b"CSEG")
    for _ in range(100):
        noise = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
        try:
            deserialize_segment(b"CSEG\x01" + noise)
        except EncodingError:
            pass
