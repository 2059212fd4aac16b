"""Vertipaq-style row reordering.

Rows within a row group may be stored in any order, so the compressor is
free to permute them to lengthen runs and make RLE effective. The paper
(and the VertiPaq engine it inherits from) uses a greedy heuristic; we use
the standard practical one: lexicographic sort with columns ordered by
ascending distinct-value count, so the lowest-cardinality columns form the
longest runs and higher-cardinality columns form runs within them.

Each column's sort key is its factorization's ranks (see
:func:`repro.storage.dictionary.factorize`), read as a float64 proxy of
the column orders them: NULL lowest, tied with ``-inf``; integers beyond
2**53 tied where their floats are equal, and so are ``-0.0`` and ``0.0``
and every NaN (which a factorization keeps apart by their bits). The keys are folded into one
mixed-radix int64 key, and one stable ``argsort`` of it is the
lexicographic sort.

Reordering is applied per row group at bulk-load time (see
:mod:`repro.storage.loader`) and is benchmarked as ablation E11.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .dictionary import Factors, factorize

_KEY_CELLS = 2**63  # values an int64 key holds from 0 up


def _ties(distinct: np.ndarray) -> np.ndarray:
    """Where two neighbouring distinct numbers are one float64 proxy."""
    proxy = distinct.astype(np.float64)
    return (proxy[1:] == proxy[:-1]) | (np.isnan(proxy[1:]) & np.isnan(proxy[:-1]))


def _cardinality(factors: Factors) -> int:
    """Distinct values, a float's as equality counts them (``np.unique``)."""
    distinct = factors.distinct
    return distinct.size - (int(_ties(distinct).sum()) if distinct.dtype.kind == "f" else 0)


def _sort_key(factors: Factors, null_mask: np.ndarray | None) -> np.ndarray:
    """One column's ranks as its float64 proxy orders the rows."""
    distinct, ranks = factors
    if distinct.dtype.kind in "iuf":
        tied = _ties(distinct)
        if tied.any():
            ranks = np.concatenate(([0], np.cumsum(~tied)))[ranks]
    if null_mask is not None and null_mask.any():
        lowest_is_minus_inf = distinct.dtype.kind == "f" and distinct[0] == -np.inf
        ranks = ranks + (0 if lowest_is_minus_inf else 1)
        ranks[null_mask] = 0
    return ranks


def choose_row_order(
    factors: Mapping[str, Factors],
    null_masks: Mapping[str, np.ndarray | None] | None = None,
) -> np.ndarray:
    """Permutation of row positions that improves run lengths.

    ``factors`` holds each column's :func:`~repro.storage.dictionary.factorize`.
    Returns an index array ``perm`` such that ``col[perm]`` is the stored
    order. Deterministic: ties resolve by column name, then by position.
    """
    null_masks = null_masks or {}
    names = sorted(factors, key=lambda name: (_cardinality(factors[name]), name))
    if not names:
        return np.zeros(0, dtype=np.int64)
    key = np.zeros(factors[names[0]].ranks.size, dtype=np.int64)
    cells = 1  # the key is below this
    for name in names:
        digit = _sort_key(factors[name], null_masks.get(name))
        radix = int(digit.max()) + 1 if digit.size else 1
        if cells * radix > _KEY_CELLS:
            # The key so far would overflow: its ranks order rows alike.
            key = factorize(key).ranks
            cells = int(key.max()) + 1
        key = key * radix + digit
        cells *= radix
    return np.argsort(key, kind="stable")


def run_total(columns: Mapping[str, np.ndarray]) -> int:
    """Total number of RLE runs across columns (lower is better)."""
    from .rle import run_count

    return sum(
        run_count(factorize(values).ranks if values.dtype == object else values)
        for values in columns.values()
    )
