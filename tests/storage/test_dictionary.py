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

    def test_duplicates_rejected(self):
        with pytest.raises(EncodingError):
            LocalDictionary(["a", "a"])

    def test_size_bytes_counts_strings(self):
        small = LocalDictionary(["a"])
        big = LocalDictionary(["a" * 100])
        assert big.size_bytes > small.size_bytes


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
        assert gd.intern("y") == 1
        assert "x" in gd
        assert "ghost" not in gd
        gd.truncate(1)
        assert "x" in gd and "y" not in gd

    def test_size_grows(self):
        gd = GlobalDictionary()
        empty = gd.size_bytes
        gd.intern("some-string")
        assert gd.size_bytes > empty
