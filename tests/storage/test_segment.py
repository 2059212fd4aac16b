"""Tests for column segment encoding, metadata and archival."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import types
from repro.errors import EncodingError
from repro.exec.predicates import ColumnRange
from repro.storage.dictionary import GlobalDictionary
from repro.storage.encodings import Scheme
from repro.storage.segment import DictionaryVector, RunVector, encode_segment

from .. import examples


def roundtrip(dtype, values, null_mask=None):
    segment = encode_segment(dtype, values, null_mask)
    decoded, mask = segment.decode()
    return segment, decoded, mask


class TestIntSegments:
    def test_roundtrip(self):
        values = np.array([5, 3, 5, 5, 100], dtype=np.int32)
        segment, decoded, mask = roundtrip(types.INT, values)
        assert decoded.tolist() == values.tolist()
        assert mask is None

    def test_min_max_metadata(self):
        segment, _, _ = roundtrip(types.INT, np.array([7, -2, 9], dtype=np.int32))
        assert segment.min_value == -2
        assert segment.max_value == 9

    def test_low_cardinality_wide_range_uses_dictionary(self):
        # Two distinct values a billion apart over many rows: dictionary wins.
        values = np.tile(np.array([0, 10**9], dtype=np.int64), 5000)
        segment, decoded, _ = roundtrip(types.BIGINT, values)
        assert segment.scheme is Scheme.DICT
        assert (decoded == values).all()

    def test_dense_range_uses_value_encoding(self):
        values = np.arange(1000, dtype=np.int32)
        segment, decoded, _ = roundtrip(types.INT, values)
        assert segment.scheme is Scheme.VALUE
        assert (decoded == values).all()

    def test_compresses_versus_raw(self):
        values = np.full(10_000, 42, dtype=np.int32)
        segment, _, _ = roundtrip(types.INT, values)
        assert segment.encoded_size_bytes < segment.raw_size_bytes / 50


class TestStringSegments:
    def test_roundtrip(self):
        values = np.array(["b", "a", "b", "c"], dtype=object)
        segment, decoded, _ = roundtrip(types.VARCHAR, values)
        assert segment.scheme is Scheme.DICT
        assert decoded.tolist() == ["b", "a", "b", "c"]

    def test_min_max_are_strings(self):
        segment, _, _ = roundtrip(
            types.VARCHAR, np.array(["pear", "apple", "fig"], dtype=object)
        )
        assert segment.min_value == "apple"
        assert segment.max_value == "pear"

    def test_global_dictionary_interning(self):
        gd = GlobalDictionary()
        encode_segment(types.VARCHAR, np.array(["x", "y"], dtype=object), global_dict=gd)
        encode_segment(types.VARCHAR, np.array(["y", "z"], dtype=object), global_dict=gd)
        assert len(gd) == 3
        gd.truncate(2)  # first-seen order preserved: x, y, then z
        assert "x" in gd and "y" in gd and "z" not in gd


class TestFloatSegments:
    def test_price_like_floats_value_encode(self):
        values = np.array([19.99, 5.25, 19.99] * 100)
        segment, decoded, _ = roundtrip(types.FLOAT, values)
        assert segment.scheme is Scheme.VALUE
        assert (decoded == values).all()

    def test_awkward_floats_stored_raw(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(100)
        segment, decoded, _ = roundtrip(types.FLOAT, values)
        assert segment.scheme is Scheme.RAW
        assert (decoded == values).all()
        assert segment.encoded_size_bytes > values.nbytes  # verbatim, plus its header

    def test_repeating_awkward_floats_use_dictionary(self):
        base = np.array([0.123456789, 9.87654321, 5.55555555])
        values = np.tile(base, 2000)
        segment, decoded, _ = roundtrip(types.FLOAT, values)
        assert segment.scheme is Scheme.DICT
        assert (decoded == values).all()


class TestNulls:
    def test_null_mask_roundtrip(self):
        values = np.array([1, 0, 3, 0], dtype=np.int32)
        nulls = np.array([False, True, False, True])
        segment, decoded, mask = roundtrip(types.INT, values, nulls)
        assert segment.null_count == 2
        assert mask.tolist() == [False, True, False, True]
        assert decoded[0] == 1
        assert decoded[2] == 3

    def test_nulls_excluded_from_min_max(self):
        values = np.array([100, -999, 50], dtype=np.int32)
        nulls = np.array([False, True, False])
        segment, _, _ = roundtrip(types.INT, values, nulls)
        assert segment.min_value == 50
        assert segment.max_value == 100

    def test_all_null_segment(self):
        values = np.zeros(5, dtype=np.int32)
        nulls = np.ones(5, dtype=bool)
        segment, _, mask = roundtrip(types.INT, values, nulls)
        assert segment.min_value is None
        assert mask.all()

    def test_all_false_mask_is_dropped(self):
        values = np.array([1, 2], dtype=np.int32)
        segment, _, mask = roundtrip(types.INT, values, np.zeros(2, dtype=bool))
        assert segment.null_payload is None
        assert mask is None


def excludes(segment, low, high) -> bool:
    return ColumnRange(low, high).excludes(segment.min_value, segment.max_value)


class TestSegmentElimination:
    def test_overlaps_range(self):
        segment, _, _ = roundtrip(types.INT, np.array([10, 20, 30], dtype=np.int32))
        assert not excludes(segment, 25, 35)
        assert not excludes(segment, None, 10)
        assert not excludes(segment, 30, None)
        assert excludes(segment, 31, 40)
        assert excludes(segment, None, 9)

    def test_all_null_segment_never_overlaps(self):
        segment, _, _ = roundtrip(
            types.INT, np.zeros(3, dtype=np.int32), np.ones(3, dtype=bool)
        )
        assert excludes(segment, None, None)


class TestArchival:
    def test_archive_roundtrip_ints(self):
        values = np.arange(5000, dtype=np.int32) % 17
        segment = encode_segment(types.INT, values)
        archived = segment.to_archived()
        assert archived.archived
        decoded, _ = archived.decode()
        assert (decoded == values).all()

    def test_archive_roundtrip_strings(self):
        values = np.array(["alpha", "beta", "alpha", "gamma"] * 500, dtype=object)
        archived = encode_segment(types.VARCHAR, values).to_archived()
        decoded, _ = archived.decode()
        assert decoded.tolist() == values.tolist()

    def test_archive_is_idempotent(self):
        segment = encode_segment(types.INT, np.array([1, 2, 3], dtype=np.int32))
        archived = segment.to_archived()
        assert archived.to_archived() is archived

    def test_unarchive_restores_plain_form(self):
        values = np.array([3, 1, 4, 1, 5] * 100, dtype=np.int32)
        segment = encode_segment(types.INT, values)
        restored = segment.to_archived().to_unarchived()
        assert not restored.archived
        decoded, _ = restored.decode()
        assert (decoded == values).all()

    def test_metadata_survives_archival(self):
        values = np.array([10, 99], dtype=np.int32)
        archived = encode_segment(types.INT, values).to_archived()
        assert archived.min_value == 10
        assert archived.max_value == 99
        assert not excludes(archived, 50, 120)


int_columns = st.lists(
    st.one_of(st.none(), st.integers(min_value=-(2**31), max_value=2**31 - 1)),
    min_size=1,
    max_size=300,
)


@settings(max_examples=examples(60), deadline=None)
@given(int_columns)
def test_int_segment_roundtrip_property(raw):
    values = np.array([0 if v is None else v for v in raw], dtype=np.int32)
    nulls = np.array([v is None for v in raw])
    segment = encode_segment(types.INT, values, nulls if nulls.any() else None)
    decoded, mask = segment.decode()
    for i, v in enumerate(raw):
        if v is None:
            assert mask is not None and mask[i]
        else:
            assert decoded[i] == v


@settings(max_examples=examples(40), deadline=None)
@given(
    st.lists(
        st.text(alphabet="abcdef", max_size=6),
        min_size=1,
        max_size=150,
    )
)
def test_string_segment_roundtrip_property(raw):
    values = np.empty(len(raw), dtype=object)
    values[:] = raw
    segment = encode_segment(types.VARCHAR, values)
    decoded, _ = segment.decode()
    assert decoded.tolist() == raw


class TestAllNullStringSegment:
    """Regression: all-NULL VARCHAR segments have an empty dictionary but a
    zero-filled code stream (found by the differential property tests)."""

    def test_decode(self):
        values = np.empty(4, dtype=object)
        values[:] = [""] * 4
        nulls = np.ones(4, dtype=bool)
        segment = encode_segment(types.VARCHAR, values, nulls)
        decoded, mask = segment.decode()
        assert mask.all()
        assert decoded.shape == (4,)

    def test_through_columnstore(self):
        from repro import Database

        db = Database()
        db.sql("CREATE TABLE t (k INT, s VARCHAR)")
        db.sql("INSERT INTO t VALUES (1, NULL), (2, NULL)")
        db.run_tuple_mover("t", include_open=True)
        assert db.sql("SELECT COUNT(*) AS n FROM t").scalar() == 2
        assert db.sql("SELECT COUNT(s) AS n FROM t").scalar() == 0


# --------------------------------------------------------------------- #
# Encoded vectors: decode == expand(distinct_values()), weights fold keep
# --------------------------------------------------------------------- #
_RNG = np.random.default_rng(15)
_WIDE = np.array([3, 7919, 104729, 1299709, 15485863], dtype=np.int64)
_N = 600

# name -> (dtype, values, scheme, stream class name)
VECTOR_SHAPES = {
    "dict/bitpack": (types.INT, _WIDE[_RNG.integers(0, 5, _N)], Scheme.DICT, "BitpackBlock"),
    "dict/rle": (types.INT, np.sort(_WIDE[_RNG.integers(0, 5, _N)]), Scheme.DICT, "RleBlock"),
    "dict/rle strings": (
        types.VARCHAR,
        np.array(sorted(["ash", "birch", "cedar"][i % 3] for i in range(_N)), dtype=object),
        Scheme.DICT,
        "RleBlock",
    ),
    "value/rle": (types.INT, np.repeat(np.arange(12, dtype=np.int64), 50), Scheme.VALUE, "RleBlock"),
    "value/bitpack": (types.INT, _RNG.permutation(_N).astype(np.int64), Scheme.VALUE, "BitpackBlock"),
    "value/rle floats": (types.FLOAT, np.repeat(np.arange(6) * 0.25, 100), Scheme.VALUE, "RleBlock"),
    "raw": (types.FLOAT, _RNG.standard_normal(_N), Scheme.RAW, "RawBlock"),
}


_POSITION_SETS = (
    [],
    [0],
    [_N - 1],
    sorted(_RNG.choice(_N, 7, replace=False).tolist()),
    [5, 5, 599, 5, 0, 0],
    list(range(_N - 1, -1, -3)),
    _RNG.integers(0, _N, _N // 2).tolist(),
    list(range(_N)),
)


def _same_decode(actual, expected):
    (values, mask), (want, want_mask) = actual, expected
    assert values.dtype == want.dtype
    assert values.tolist() == want.tolist()
    assert (mask is None) == (want_mask is None)
    if mask is not None:
        assert mask.tolist() == want_mask.tolist()


@pytest.mark.parametrize("dtype", [types.INT, types.VARCHAR, types.FLOAT], ids=str)
def test_take_of_an_empty_segment(dtype):
    segment = encode_segment(dtype, np.zeros(0, dtype=dtype.numpy_dtype))
    nothing = np.zeros(0, dtype=np.int64)
    for each in (segment, segment.to_archived()):
        _same_decode(each.take(nothing), each.decode())


@pytest.mark.parametrize("archived", [False, True], ids=["live", "archived"])
@pytest.mark.parametrize("nulls", [False, True], ids=["no nulls", "nulls"])
@pytest.mark.parametrize("shape", list(VECTOR_SHAPES))
def test_take_rejects_positions_outside_the_segment(shape, nulls, archived):
    # Every stream kind, not only the bit-packed one: a negative position
    # must not wrap to another row, in the values or in the NULL mask.
    dtype, values, _, _ = VECTOR_SHAPES[shape]
    segment = encode_segment(dtype, values, np.arange(_N) % 7 == 3 if nulls else None)
    if archived:
        segment = segment.to_archived()
    for bad in ([-1], [_N], [0, _N + 5, 1], [3, -_N]):
        with pytest.raises(EncodingError, match="position outside"):
            segment.take(np.array(bad))


@pytest.mark.parametrize("archived", [False, True], ids=["live", "archived"])
@pytest.mark.parametrize("nulls", ["none", "some", "all"])
@pytest.mark.parametrize("shape", list(VECTOR_SHAPES))
def test_vector_is_the_segment_still_encoded(shape, nulls, archived):
    dtype, values, scheme, stream = VECTOR_SHAPES[shape]
    null_mask = {
        "none": None,
        "some": (np.arange(values.size) // 40) % 5 == 2,  # blocks: runs survive
        "all": np.ones(values.size, dtype=bool),
    }[nulls]
    segment = encode_segment(dtype, values, null_mask)
    if nulls != "all":
        assert (segment.scheme, type(segment.stream).__name__) == (scheme, stream)
    if archived:
        segment = segment.to_archived()
    # take(p) is decode()[p] bit for bit, for few positions (an RLE
    # stream searches its run ends) and for many (it expands).
    full, full_mask = segment.decode()
    for positions in _POSITION_SETS:
        positions = np.array(positions, dtype=np.int64)
        want_mask = None if full_mask is None else full_mask[positions]
        _same_decode(segment.take(positions), (full[positions], want_mask))

    vector = segment.vector()
    if archived:
        assert vector is None  # it would decompress on every access
    elif nulls != "all":
        # Bit-packed and raw value streams have no distinct values to work on.
        assert (vector is None) == (scheme is not Scheme.DICT and stream != "RleBlock")
    if vector is None:
        _same_decode(segment.decode(), segment.to_unarchived().decode())
        return

    decoded = segment.decode()
    _same_decode(vector.decode(), decoded)
    _same_decode((vector.expand(vector.distinct_values()), vector.null_mask), decoded)
    assert vector.distinct_values().size == vector.n_distinct

    null = decoded[1] if decoded[1] is not None else np.zeros(values.size, dtype=bool)
    for keep in (
        np.ones(values.size, dtype=bool),
        np.zeros(values.size, dtype=bool),
        _RNG.random(values.size) < 0.3,
    ):
        weights = vector.weights(keep)
        assert weights.dtype == np.int64 and weights.size == vector.n_distinct
        assert weights.sum() == (keep & ~null).sum()
        covered = vector.expand(weights > 0)
        assert not (keep & ~null & ~covered).any()
        # The weighted distinct values are exactly the surviving values.
        survivors = decoded[0][keep & ~null].tolist()
        weighted = np.repeat(vector.distinct_values(), weights).tolist()
        assert sorted(weighted) == sorted(survivors)


# --------------------------------------------------------------------- #
# The same vector over plain arrays, and select (take that stays encoded)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("nulls", ["none", "some", "all"])
@pytest.mark.parametrize("shape", [s for s, v in VECTOR_SHAPES.items() if v[2] is Scheme.DICT])
def test_select_of_a_segment_vector_stays_encoded(shape, nulls):
    dtype, values, _, _ = VECTOR_SHAPES[shape]
    null_mask = {
        "none": None,
        "some": np.arange(_N) % 7 == 3,
        "all": np.ones(_N, dtype=bool),
    }[nulls]
    segment = encode_segment(dtype, values, null_mask)
    full, full_mask = segment.decode()
    if not isinstance(segment.vector(), DictionaryVector):
        return  # an all-NULL number column is not dictionary-encoded
    for warm in (False, True):
        vector = segment.vector()
        if warm:
            vector.codes  # select then indexes the codes it already holds
        for positions in _POSITION_SETS:
            positions = np.array(positions, dtype=np.int64)
            picked = vector.select(positions)
            assert isinstance(picked, DictionaryVector) and picked.source == "scan"
            assert picked.row_count == positions.size
            assert picked.n_distinct == vector.n_distinct
            assert picked.distinct_values() is vector.distinct_values()
            want_mask = None if full_mask is None else full_mask[positions]
            _same_decode(picked.decode(), (full[positions], want_mask))
            _same_decode(vector.take(positions), picked.decode())
            # A selection of a selection is the composed selection.
            again = picked.select(np.arange(positions.size)[::2])
            _same_decode(again.decode(), (full[positions[::2]],
                                          None if want_mask is None else want_mask[::2]))


# Value-encoded run-length columns (few values over a small range, or too
# many for a dictionary to pay): coded by subtraction, or by np.unique.
_RUN_KEYS = {
    "one run per value": (types.INT, np.repeat(np.arange(12, dtype=np.int64), 50)),
    "runs revisit values": (types.INT, np.tile(np.repeat(np.array([3, 0, 2, 1]), 25), 6)),
    "sparse values": (types.INT, np.tile(np.repeat(_RNG.choice(1000, 50, replace=False), 6), 2)),
    "floats": (types.FLOAT, np.tile(np.repeat(np.arange(3) * 0.25, 40), 5)),
}


@pytest.mark.parametrize("nulls", ["none", "some", "all"])
@pytest.mark.parametrize("shape", list(_RUN_KEYS))
def test_a_run_vector_is_a_group_key_coded_by_value(shape, nulls):
    dtype, values = _RUN_KEYS[shape]
    null_mask = {
        "none": None,
        "some": (np.arange(values.size) // 40) % 5 == 2,
        "all": np.ones(values.size, dtype=bool),
    }[nulls]
    segment = encode_segment(dtype, values, null_mask)
    vector = segment.vector()
    if not isinstance(vector, RunVector):
        return  # an all-NULL column is not run-length encoded
    full, full_mask = segment.decode()
    # The runs as a key: one row per run, holding the run's value.
    keys = vector.run_keys
    assert keys.row_count == vector.n_distinct
    _same_decode(keys.decode(), (vector.distinct_values(), None))
    # Rows as a key: every row, or those at positions, decoded bit for bit.
    every_row = vector.select(None)
    assert isinstance(every_row, DictionaryVector) and every_row.source == "scan"
    _same_decode(every_row.decode(), (full, full_mask))
    for positions in _POSITION_SETS:
        positions = np.array(positions, dtype=np.int64) % values.size
        want_mask = None if full_mask is None else full_mask[positions]
        _same_decode(vector.select(positions).decode(), (full[positions], want_mask))
    # A code stands for a value, not for a run: equal values, equal codes.
    stored = np.ones(values.size, dtype=bool) if full_mask is None else ~full_mask
    pairs = set(zip(every_row.codes[stored].tolist(), full[stored].tolist()))
    assert len(pairs) == len({c for c, _ in pairs}) == len({v for _, v in pairs})


def test_a_run_vector_hands_out_read_only_arrays():
    vector = encode_segment(types.INT, np.tile(np.repeat(np.arange(4), 25), 6)).vector()
    assert isinstance(vector, RunVector)
    for handed_out in (
        vector.run_keys.codes,  # each run's value rank
        vector.codes,  # each row's
        vector.select(None).codes,
        vector.run_bounds,  # where each run starts, and ends
    ):
        with pytest.raises(ValueError, match="read-only"):
            handed_out[0] = 1
    assert vector.run_bounds.tolist() == list(range(0, 601, 25))


@pytest.mark.parametrize(
    "values",
    [
        np.array(["pine", "ash", "pine", "", "oak", "ash"], dtype=object),
        np.array([5, -3, 5, 2**62, -(2**63), 5], dtype=np.int64),
        np.array([0.5, -0.25, 0.5, 1e300, 0.5, -0.25]),
        np.array([True, False, True, True, False, False]),
        np.zeros(0, dtype=object),
        np.zeros(0, dtype=np.int64),
    ],
    ids=["str", "int", "float", "bool", "no strings", "no ints"],
)
@pytest.mark.parametrize("nulls", [False, True], ids=["no nulls", "nulls"])
def test_vector_from_values_decodes_to_the_values(values, nulls):
    mask = (np.arange(values.size) % 3 == 1) if nulls else None
    vector = DictionaryVector.from_values(values, mask, source="join")
    assert vector.source == "join" and vector.row_count == values.size
    _same_decode(vector.decode(), (values, mask))
    assert vector.distinct_values().size == vector.n_distinct
    assert len(set(vector.distinct_values().tolist())) == vector.n_distinct
    keep = np.arange(values.size) % 2 == 0
    present = keep if mask is None else keep & ~mask
    weights = vector.weights(keep)
    assert weights.sum() == present.sum()
    assert sorted(np.repeat(vector.distinct_values(), weights).tolist()) == sorted(
        values[present].tolist()
    )


def test_vector_from_values_codes_strings_in_order_of_first_appearance():
    vector = DictionaryVector.from_values(np.array(["b", "a", "b", "c"], dtype=object))
    assert vector.codes.tolist() == [0, 1, 0, 2]
    assert vector.distinct_values().tolist() == ["b", "a", "c"]


def test_vector_over_an_empty_dictionary_is_all_null():
    vector = DictionaryVector.of(
        np.zeros(3, dtype=np.int64), np.zeros(0, dtype=object), np.ones(3, dtype=bool)
    )
    assert vector.n_distinct == 0
    values, mask = vector.select(np.array([2, 0])).decode()
    assert values.tolist() == ["", ""] and mask.tolist() == [True, True]
