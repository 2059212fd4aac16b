"""Segment-blob fuzzing: round-trip every encoding scheme, then truncate
at each byte offset and flip bytes, asserting only structured errors
(never ``IndexError``/``struct.error``/``KeyError``) escape
``deserialize_segment`` or a read of what it returned. Archived segments
come in both codecs: a zlib archive, and an XPR1 one an earlier build
wrote, read through ``repro.storage.compat``. Seeded by
``REPRO_FAULT_SEED`` (CI matrix)."""

import os
import random
from pathlib import Path

import numpy as np
import pytest

from repro import types
from repro.errors import EncodingError
from repro.storage import compat, serde
from repro.storage.blob import deserialize_segment, serialize_segment, split_archive
from repro.storage.encodings import Scheme
from repro.storage.segment import encode_segment, read_archive

XPR1_GOLDEN = Path(__file__).parent / "xpr1_golden"
SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


def _build_blobs():
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
    blobs = {name: serialize_segment(segment) for name, segment in segments.items()}
    blobs["archived_string_xpr1"] = (XPR1_GOLDEN / "dict-bitpack_nulls_archived.seg").read_bytes()
    return blobs


BLOBS = _build_blobs()
#: How each blob is read: an XPR1 one only through compat.
READ = {name: deserialize_segment for name in BLOBS} | {
    "archived_string_xpr1": compat.deserialize_segment
}


def test_every_scheme_covered():
    schemes = {READ[name](blob).scheme for name, blob in BLOBS.items()}
    assert schemes == set(Scheme)
    assert split_archive(BLOBS["archived_string"])[1][:1] == b"\x78"
    assert split_archive(BLOBS["archived_string_xpr1"])[1][:4] == b"XPR1"


@pytest.mark.parametrize("name", sorted(BLOBS))
def test_roundtrip(name):
    segment = READ[name](BLOBS[name])
    restored = deserialize_segment(serialize_segment(segment))
    values, nulls = restored.decode()
    original_values, original_nulls = segment.decode()
    assert values.tolist() == original_values.tolist()
    if original_nulls is None:
        assert nulls is None
    else:
        assert nulls.tolist() == original_nulls.tolist()


@pytest.mark.parametrize("name", sorted(BLOBS))
def test_truncation_at_every_byte_offset(name):
    """Every proper prefix of a segment blob must raise a structured
    error — a truncated blob can never silently half-parse."""
    blob = BLOBS[name]
    for cut in range(len(blob)):
        with pytest.raises(EncodingError):
            READ[name](blob[:cut])


@pytest.mark.parametrize("name", ["archived_string", "archived_string_xpr1"])
def test_a_byte_appended_inside_the_archive_is_refused(name):
    """One more byte inside the archive's length prefix: the blob parses,
    the archive does not."""
    head, archive = split_archive(BLOBS[name])
    for extra in (0, 1, 0x78, 255):
        longer = bytearray(head)
        serde.write_bytes(longer, archive + bytes((extra,)))
        with pytest.raises(EncodingError):
            READ[name](bytes(longer)).decode()


def test_a_zlib_archive_with_a_bad_check_or_cut_short_is_refused():
    archive = split_archive(BLOBS["archived_string"])[1]
    read_archive(archive)
    for index in range(len(archive) - 4, len(archive)):  # the Adler-32 check
        flipped = bytearray(archive)
        flipped[index] ^= 0x01
        with pytest.raises(EncodingError, match="corrupt archive"):
            read_archive(bytes(flipped))
    for cut in range(len(archive)):
        with pytest.raises(EncodingError):
            read_archive(archive[:cut])


def _read_corrupted(blob: bytes, read=deserialize_segment) -> None:
    """Deserialize ``blob``, then read whatever came out every way a scan
    does: decode it, take a few rows, take many and build its vector.
    Each step succeeds or raises EncodingError."""
    try:
        segment = read(blob)
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


@pytest.mark.parametrize("name", sorted(BLOBS))
def test_single_byte_flips_raise_only_structured_errors(name):
    """Flip every byte (with a seeded mask): decode either succeeds or
    raises EncodingError — raw IndexError/struct.error/KeyError never
    escape. (Semantic detection of arbitrary flips is the manifest
    checksum's job, one layer up.)"""
    rng = random.Random(SEED)
    blob = bytearray(BLOBS[name])
    for index in range(len(blob)):
        mask = rng.randrange(1, 256)
        blob[index] ^= mask
        try:
            _read_corrupted(bytes(blob), READ[name])
        finally:
            blob[index] ^= mask


@pytest.mark.parametrize("name", sorted(BLOBS))
def test_random_multi_byte_corruption(name):
    rng = random.Random(SEED + 1)
    pristine = BLOBS[name]
    for _ in range(150):
        blob = bytearray(pristine)
        for _ in range(rng.randrange(1, 4)):
            blob[rng.randrange(len(blob))] ^= rng.randrange(1, 256)
        _read_corrupted(bytes(blob), READ[name])


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
