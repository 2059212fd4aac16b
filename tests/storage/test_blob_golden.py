"""The segment blob format, pinned: a golden corpus of deterministic
segments, one per (value stage, stream stage) pair, with and without
NULLs, plain and archived, each serialized blob checked against its
recorded sha256. Round-trip tests only show the code agrees with itself;
these show it still writes the bytes it wrote before.

A blob in the earlier archived layout (the dictionary stored plainly and
again inside the archive) is kept as hex and must still read.
"""

import hashlib

import numpy as np
import pytest

from repro import Database, StoreConfig, schema, types
from repro.storage.blob import deserialize_segment, serialize_segment
from repro.storage.encodings import BitpackBlock, RawBlock, Scheme
from repro.storage.rle import RleBlock
from repro.storage.segment import encode_segment

_ROWS = 200
_NULLS = (np.arange(_ROWS) // 25) % 4 == 1  # blocks of NULLs: runs survive

# name -> (dtype, values, scheme, stream class)
_PAIRS = {
    "dict/bitpack": (
        types.VARCHAR,
        np.array([f"name{(i * 7) % 13:02d}" for i in range(_ROWS)], dtype=object),
        Scheme.DICT,
        BitpackBlock,
    ),
    "dict/rle": (
        types.VARCHAR,
        np.array(["ash"] * 50 + ["birch"] * 50 + ["cedar"] * 100, dtype=object),
        Scheme.DICT,
        RleBlock,
    ),
    "value/bitpack": (
        types.INT, (np.arange(_ROWS) * 37 % 1009).astype(np.int32), Scheme.VALUE, BitpackBlock
    ),
    "value/rle": (
        types.BIGINT, np.repeat(np.arange(4, dtype=np.int64), 50) * 10, Scheme.VALUE, RleBlock
    ),
    "raw/raw": (types.FLOAT, np.arange(_ROWS) * 0.1 + 1 / 3, Scheme.RAW, RawBlock),
    # -0.0 keeps its sign: an entry of its own beside 0.0 in a dictionary,
    # and no value encoding for a column that holds one.
    "dict-signed-zero/bitpack": (
        types.FLOAT,
        np.array([(-0.0, 0.0, 1.5, -2.25)[(i * 7) % 4] for i in range(_ROWS)]),
        Scheme.DICT,
        BitpackBlock,
    ),
    "raw-signed-zero/raw": (
        types.FLOAT,
        np.where(np.arange(_ROWS) % 9 == 0, -0.0, np.arange(_ROWS) * 0.25),
        Scheme.RAW,
        RawBlock,
    ),
}


def corpus() -> dict:
    """Every golden segment by name: ``<pair> <nulls> <plain|archived>``."""
    segments = {}
    for pair, (dtype, values, _, _) in _PAIRS.items():
        for nulls in ("no nulls", "nulls"):
            segment = encode_segment(dtype, values, _NULLS if nulls == "nulls" else None)
            segments[f"{pair} {nulls} plain"] = segment
            segments[f"{pair} {nulls} archived"] = segment.to_archived()
    return segments


# sha256 of each blob. Every one is the earlier code's (the signed-zero
# cases aside, see below), but for the
# archived dictionary segments, which lost their plain dictionary section
# (and that flag bit): their archive is byte for byte the earlier one.
GOLDEN = {
    "dict/bitpack no nulls archived": "d86cf8c6cfb6d9a4df788e92e76786e97afd6871b73aafe4514a787594545558",
    "dict/bitpack no nulls plain": "2cc334ec0b9e6fd09650788e3915ef8f43ec6e92de9b3ac3228e53ac99cbcf6d",
    "dict/bitpack nulls archived": "715e1aee0e0156539301e5a8a986701929cb7ec03fa77ae4bcf91dccb27b14a4",
    "dict/bitpack nulls plain": "98005a2a1c6ebc87d0dcd75cf417bfbd9aa988ceb5eb4612a24a09591f95eaee",
    "dict/rle no nulls archived": "843e03d1a05b63a4b6335e3dcffe08c5c7eff679c1f262721941c4e3f104118b",
    "dict/rle no nulls plain": "084e658e6a6abe205ad30eade3e8b6d90ede3144f00551ca7b578b0945e46703",
    "dict/rle nulls archived": "4f6db8301584d164173da85bae34aeb2460e8a8cf9ab74fc9aef55a7fa8225e8",
    "dict/rle nulls plain": "1466cf28540dbc52ff31ca41409e070d2679ec91f6d206c95d096350b07c56a8",
    "raw/raw no nulls archived": "66b34c32240ae2a6f7e2f9b81c1949c6960a23727b98a0a248190d3a6830cf1d",
    "raw/raw no nulls plain": "73b4614ec8333154095abc4fb07617af325b61895add456500ff7eef80cdc0e6",
    "raw/raw nulls archived": "6c4a987da7f6cb1bd83711e8d83a668f3a8d74bab15225e66cd73afe5b75a555",
    "raw/raw nulls plain": "d712e3da2908e4381ec6a988d6303ac9a22e947857610b0cbc336ec9e91056d2",
    "value/bitpack no nulls archived": "24ee9e842f2035413cf773b8548f738c572b7fe0742ff8b736c4e115e98a65ed",
    "value/bitpack no nulls plain": "0bf682cf1a6dc1f5675ff2ce89842e027ce4126a3298efe8c904bbdac369e1e2",
    "value/bitpack nulls archived": "a5fefe5010b101b81093728e4401d238c1c303d6cfcfb47f08e19a4963cf2a17",
    "value/bitpack nulls plain": "26719cf1af69c360f755a2ec8ae3bd6753d0a25462433b249bea7da7eac8bd66",
    "value/rle no nulls archived": "3a33880274e4cbe87d477e17d95a6355338dc422888190a2f591fc609c7486aa",
    "value/rle no nulls plain": "ade1b26ec098ec7d00752265f9c005a3d4bf977b5ac53dc14888f04106be69aa",
    "value/rle nulls archived": "ac4dcaa4c4c3a9be819eebbd08d3959246ebcdd5d0e4c684b1ec2eb03efa2d43",
    "value/rle nulls plain": "731f5e202d52da94dd92d61561a9edfa715a209ad06d2df6335769bad0a23443",
    # The signed-zero cases are new with the rule that keeps the sign.
    "dict-signed-zero/bitpack no nulls archived": "605f967591d4b67c9b3a3e7497a68face26a2a643ae6a5be5e0b917e951e35dd",
    "dict-signed-zero/bitpack no nulls plain": "066ad8237acadcee910b758b1e9562bd3f43282d7d6a16654409caacd95dad3d",
    "dict-signed-zero/bitpack nulls archived": "ec84eddbb2f4ffda377822d29a3a8de1d1552436ca505ceb8bd19c7e6bd29a1b",
    "dict-signed-zero/bitpack nulls plain": "272ac0f53a7fb3e7891a2942099a35edbb953a519535afef526896183369b122",
    "raw-signed-zero/raw no nulls archived": "4e6260ba990fb70f36fe960b5809f0f762ebe8d6aed5cb7e456bb1d445a2e143",
    "raw-signed-zero/raw no nulls plain": "1bf5d854d387c20d42a69fa1798d99acb38c5e51713605dc9c026ccfa161bb57",
    "raw-signed-zero/raw nulls archived": "574ad3a3d164fe48c064ce4acaf16566d90d13ca9cda691967eca9193e78a940",
    "raw-signed-zero/raw nulls plain": "6d36dbee9ca56970598fab2405f0c94500086bbdf4f3067015191fce71fbca5a",
}

# A VARCHAR segment of 24 rows (three names, every fifth row NULL),
# archived, as the earlier layout wrote it: the dictionary both plainly
# and inside the archive.
OLD_ARCHIVED_LAYOUT = (
    "43534547011d04000018056900011802000d0303656c6d036f616b037965770384104209"
    "0203656c6d03796577215850523117000000f0080101064118866010860d0303656c6d03"
    "6f616b03796577"
)
OLD_ARCHIVED_VALUES = [None if i % 5 == 2 else ["oak", "elm", "yew"][i % 3] for i in range(24)]

SEGMENTS = corpus()


def test_corpus_covers_every_stage_pair():
    for name, segment in SEGMENTS.items():
        _, _, scheme, stream = _PAIRS[name.split()[0]]
        assert (segment.scheme, type(segment.stream)) == (scheme, stream), name
    assert sorted(SEGMENTS) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(SEGMENTS))
def test_blob_bytes_are_pinned(name):
    blob = serialize_segment(SEGMENTS[name])
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SEGMENTS))
def test_golden_blob_reads_back(name):
    segment = SEGMENTS[name]
    restored = deserialize_segment(serialize_segment(segment))
    (values, mask), (want, want_mask) = restored.decode(), segment.decode()
    assert values.dtype == want.dtype and values.tolist() == want.tolist()
    assert (mask is None) == (want_mask is None)
    assert mask is None or mask.tolist() == want_mask.tolist()


def test_the_earlier_archived_layout_still_reads():
    segment = deserialize_segment(bytes.fromhex(OLD_ARCHIVED_LAYOUT))
    assert segment.archived and segment.scheme is Scheme.DICT
    values, mask = segment.decode()
    assert [None if null else v for v, null in zip(values.tolist(), mask.tolist())] == (
        OLD_ARCHIVED_VALUES
    )
    assert segment.dictionary.values == ["elm", "oak", "yew"]


def test_an_archived_dictionary_is_stored_once(tmp_path):
    # 600 distinct names, each twice in a row: the dictionary is most of
    # the segment, and the archive is the only place it is stored.
    distinct = np.array([f"customer number {i:06d}" for i in range(600)], dtype=object)
    names = np.repeat(distinct, 2)
    segment = encode_segment(types.VARCHAR, names)
    archived = segment.to_archived()
    assert segment.dictionary.size_bytes > segment.stream.size_bytes * 10
    assert len(serialize_segment(archived)) < len(serialize_segment(segment))
    restored = deserialize_segment(serialize_segment(archived))
    assert restored.archived and restored.dictionary.values == segment.dictionary.values
    assert restored.decode()[0].tolist() == names.tolist()

    path = str(tmp_path / "db")
    config = StoreConfig(archival=True, rowgroup_size=400, bulk_load_threshold=10)
    db = Database.open(path, default_config=config)
    db.create_table("t", schema(("id", types.INT, False), ("name", types.VARCHAR)))
    db.bulk_load("t", [(i, name) for i, name in enumerate(names.tolist())])
    before = db.table("t").stats().columns["name"].ndv
    db.save(path)
    db.close()
    reopened = Database.open(path)
    groups = list(reopened.table("t").columnstore.directory.row_groups())
    assert len(groups) == 3 and all(group.segment("name").archived for group in groups)
    # The global dictionary is re-interned from the segments' dictionaries.
    assert reopened.table("t").stats().columns["name"].ndv == before == 600
    assert sorted(reopened.sql("SELECT name FROM t").rows) == sorted((n,) for n in names.tolist())
    reopened.close()
