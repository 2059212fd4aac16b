"""Tests for local and global dictionaries."""

import numpy as np
import pytest

from repro.errors import EncodingError
from repro.storage.dictionary import GlobalDictionary, LocalDictionary


class TestLocalDictionary:
    def test_build_from_strings(self):
        values = np.array(["b", "a", "b", "c", "a"], dtype=object)
        dictionary, codes = LocalDictionary.build(values)
        assert dictionary.values == ["a", "b", "c"]
        assert codes.tolist() == [1, 0, 1, 2, 0]

    def test_build_from_ints(self):
        values = np.array([30, 10, 30, 20])
        dictionary, codes = LocalDictionary.build(values)
        assert dictionary.values == [10, 20, 30]
        assert codes.tolist() == [2, 0, 2, 1]

    def test_codes_index_the_sorted_values(self):
        # Decoding is DictionaryVector's job (tests/storage/test_segment.py
        # checks values and dtype); the dictionary only promises this.
        values = np.array(["x", "y", "x"], dtype=object)
        dictionary, codes = LocalDictionary.build(values)
        assert [dictionary.values[code] for code in codes] == ["x", "y", "x"]

    def test_code_of(self):
        dictionary = LocalDictionary(["a", "b"])
        assert dictionary.code_of("b") == 1
        assert dictionary.code_of("zz") is None

    def test_codes_of_missing_raises(self):
        dictionary = LocalDictionary(["a"])
        with pytest.raises(EncodingError):
            dictionary.codes_of(["a", "missing"])

    def test_duplicates_rejected(self):
        with pytest.raises(EncodingError):
            LocalDictionary(["a", "a"])

    def test_size_bytes_counts_strings(self):
        small = LocalDictionary(["a"])
        big = LocalDictionary(["a" * 100])
        assert big.size_bytes > small.size_bytes


class TestRangeCodes:
    @pytest.fixture
    def dictionary(self):
        return LocalDictionary(["apple", "banana", "cherry", "damson"])

    def test_inclusive_range(self, dictionary):
        lo, hi = dictionary.range_codes("banana", "cherry", True, True)
        assert (lo, hi) == (1, 3)

    def test_exclusive_range(self, dictionary):
        lo, hi = dictionary.range_codes("banana", "cherry", False, False)
        assert (lo, hi) == (2, 2)  # empty

    def test_unbounded_low(self, dictionary):
        lo, hi = dictionary.range_codes(None, "banana", True, True)
        assert (lo, hi) == (0, 2)

    def test_unbounded_high(self, dictionary):
        lo, hi = dictionary.range_codes("cherry", None, True, True)
        assert (lo, hi) == (2, 4)

    def test_values_between_entries(self, dictionary):
        # "bx" sits between banana and cherry.
        lo, hi = dictionary.range_codes("bx", "cz", True, True)
        assert (lo, hi) == (2, 3)

    def test_empty_when_inverted(self, dictionary):
        lo, hi = dictionary.range_codes("damson", "apple", True, True)
        assert lo >= hi


class TestGlobalDictionary:
    def test_intern_assigns_stable_ids(self):
        gd = GlobalDictionary()
        assert gd.intern("a") == 0
        assert gd.intern("b") == 1
        assert gd.intern("a") == 0
        assert len(gd) == 2

    def test_lookup(self):
        gd = GlobalDictionary()
        gd.intern_all(["x", "y"])
        assert gd.id_of("y") == 1
        assert gd.value_of(0) == "x"
        assert "x" in gd
        assert gd.id_of("ghost") is None

    def test_size_grows(self):
        gd = GlobalDictionary()
        empty = gd.size_bytes
        gd.intern("some-string")
        assert gd.size_bytes > empty
