"""The segment blob format, pinned: a golden corpus of deterministic
segments, one per (value stage, stream stage) pair, with and without
NULLs, plain and archived, each plain blob checked against its recorded
sha256. Round-trip tests only show the code agrees with itself; these
show it still writes the bytes it wrote before.

An archive is one zlib stream, and zlib builds (zlib-ng among them) may
write different streams for one input. So an archived segment pins its
blob outside the archive and the sha256 of the archive's plain form,
not the DEFLATE bytes.

Read-only goldens, which must still read, through ``repro.storage.compat``:
``xpr1_golden/`` holds the archived blobs of the corpus as an earlier
build wrote them, their archives in XPR1 (commit 3b1b971 or older:
``serialize_segment`` of each archived entry of :func:`corpus`). A blob
in the still earlier archived layout (the dictionary stored plainly and
again inside the archive, an XPR1 archive too) is kept as hex.
"""

import dataclasses
import hashlib
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro import Database, StoreConfig, schema, types
from repro.storage import compat
from repro.storage.blob import deserialize_segment, serialize_segment, split_archive
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


# sha256 of each plain blob, and of each XPR1 golden blob (an archived
# entry). Every one is the earlier code's (the signed-zero cases aside,
# see below), but for the archived dictionary segments, which lost their
# plain dictionary section (and that flag bit): their archive is byte for
# byte the earlier one.
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

# Each archived segment's (sha256 of its blob with the archive emptied,
# sha256 of the archive's plain form). Both equal those of the XPR1
# golden of that name.
ARCHIVED = {
    "dict-signed-zero/bitpack no nulls archived": (
        "932f8cb218eaf7bb6a69036e820c6c66ae66153fc4c92818e14c4ef447dc2be5",
        "355a035a43e74fb5da1a0a0ee369d5272b7d8d16c1909b23a777bc5279ea9e80",
    ),
    "dict-signed-zero/bitpack nulls archived": (
        "56da6d65fd9cb6d82f4c92927a77420418520ce194fb5b9392b54d8e88df1683",
        "5edf0385e10258bab3782b52dfe9af93385443c3b912b96af139486c23949bbb",
    ),
    "dict/bitpack no nulls archived": (
        "64665bc91c8c29a946173a31e3c5b70055eb1d920a4944d0878979bc8196c610",
        "d3491198edf2454b0e3acf38c522c28b3b9a973b7e7886fc458761ae06456ea6",
    ),
    "dict/bitpack nulls archived": (
        "2f94ee277626647b93d5d90b6cd7955039883e07e5c044874b68eba237546f3a",
        "9d6cdec69933af523d4f6930d9b3f0880abad9dc761cad805c0cdb06d7ec2385",
    ),
    "dict/rle no nulls archived": (
        "15fd1bc68949cd0388ea26982700d050cb10aa74c482cef627088dfe83ca1fbb",
        "da7e45e8e2a209f256e28f1fce1cdf5738ef0c16ddb5838e9478f9d9c2e6b6c4",
    ),
    "dict/rle nulls archived": (
        "7fe9033609600592241b2b0fd3089057d34c51630648f22535f9f43ecb824b0a",
        "5688fdb158c71fa6d70f4e818b411562924166498bbe916cadce46cb53f7a0db",
    ),
    "raw-signed-zero/raw no nulls archived": (
        "ce5fea6d6413e9f100f4d0955fa5003a10bfb9c71426b2139f32c51011a18254",
        "d1f28c2c71585def4aa7103b22b69e1c58d4127fcb13343fcce0870b7d397bb7",
    ),
    "raw-signed-zero/raw nulls archived": (
        "ccc16ec1080e8314ba8a769941b0b3c1c2987d1de7c65ffde1c0ebfbac6b1d51",
        "3e93056b021a59099666590ac234e2f20490478fa3e123881b55e8da65ca850f",
    ),
    "raw/raw no nulls archived": (
        "0b6047058f0e18b451fdca4d7a13919a9050649324ee4231688328317b82867e",
        "6089dda8d27f912338f386fac3578338c00818df5c8776a86db63d4cd6976160",
    ),
    "raw/raw nulls archived": (
        "c47fbd9ca2d5cff8d9c1247c858bdd4d69dfe20ef96f81cbb2df91f6d0f54fda",
        "b305780a916418761b07b52faa5cc626a08a3628e0e9f481d45203e5eead759c",
    ),
    "value/bitpack no nulls archived": (
        "0af97fbfd0050b7123322fbfdf6ab0d9a9382c6bce72c119c94b7499abb0b173",
        "fecefc3035897b0cfacfdacdf9dce88ae8fb767dda8ca886bcc8779829d0d7b9",
    ),
    "value/bitpack nulls archived": (
        "621ca1d7f296192df1eecd7530aea9cc7658a54e5097272bc26b7118bfdc11a8",
        "f8f707f785a5090a7f0d114b360f4951f45d42b3cfe3adaaf2eb0c81b7a094cb",
    ),
    "value/rle no nulls archived": (
        "95dbfad893f1beaf7565c56a34de79f2bafa3bb43f14d05db9c8c84c025d789a",
        "aeafb04903d9f32cc161449a3141bb2ef5fd1d4e09df50bf13d562ce0e2a47b1",
    ),
    "value/rle nulls archived": (
        "3b9caa95e38943b296715c20c1d53290c02314c9b777bf4660fe65a77e4e1c26",
        "8b14cea053a73d25111f080e7c881ff465259e0366a258023750101dabd46760",
    ),
}

XPR1_GOLDEN = Path(__file__).parent / "xpr1_golden"


def xpr1_blob(name: str) -> bytes:
    """The blob an earlier build wrote for the archived entry ``name``."""
    return (XPR1_GOLDEN / (name.replace("/", "-").replace(" ", "_") + ".seg")).read_bytes()


def outside_the_archive(segment) -> bytes:
    """``segment``'s blob with its archive emptied."""
    return serialize_segment(dataclasses.replace(segment, archive=b""))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    assert sorted(ARCHIVED) == sorted(name for name in SEGMENTS if name.endswith("archived"))


@pytest.mark.parametrize("name", sorted(SEGMENTS))
def test_blob_bytes_are_pinned(name):
    segment = SEGMENTS[name]
    if segment.archived:
        plain_form = zlib.decompress(segment.archive)
        assert (sha256(outside_the_archive(segment)), sha256(plain_form)) == ARCHIVED[name]
    else:
        assert sha256(serialize_segment(segment)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(ARCHIVED))
def test_an_xpr1_golden_reads_back_as_its_plain_twin(name):
    blob = xpr1_blob(name)
    assert sha256(blob) == GOLDEN[name]
    head, archive = split_archive(blob)
    assert archive.startswith(b"XPR1")
    old = compat.deserialize_segment(blob)
    twin = SEGMENTS[name.replace("archived", "plain")]
    assert serialize_segment(old.to_unarchived()) == serialize_segment(twin)
    # This build archives the same plain form, and writes the same bytes
    # around it: compat's deflated blob is the one this build writes.
    new = SEGMENTS[name]
    assert compat.decompress_xpr1(archive) == zlib.decompress(new.archive)
    assert outside_the_archive(old) == outside_the_archive(new)
    assert compat.current_blob(blob) == serialize_segment(new)


@pytest.mark.parametrize("name", sorted(SEGMENTS))
def test_golden_blob_reads_back(name):
    segment = SEGMENTS[name]
    restored = deserialize_segment(serialize_segment(segment))
    (values, mask), (want, want_mask) = restored.decode(), segment.decode()
    assert values.dtype == want.dtype and values.tolist() == want.tolist()
    assert (mask is None) == (want_mask is None)
    assert mask is None or mask.tolist() == want_mask.tolist()


def test_the_earlier_archived_layout_still_reads():
    segment = compat.deserialize_segment(bytes.fromhex(OLD_ARCHIVED_LAYOUT))
    assert segment.archived and segment.scheme is Scheme.DICT
    values, mask = segment.decode()
    assert [None if null else v for v, null in zip(values.tolist(), mask.tolist())] == (
        OLD_ARCHIVED_VALUES
    )
    assert segment.dictionary.values == ["elm", "oak", "yew"]
    nulls = np.array([v is None for v in OLD_ARCHIVED_VALUES])
    names = np.array([v or "" for v in OLD_ARCHIVED_VALUES], dtype=object)
    twin = encode_segment(types.VARCHAR, names, nulls)
    assert serialize_segment(segment.to_unarchived()) == serialize_segment(twin)


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
