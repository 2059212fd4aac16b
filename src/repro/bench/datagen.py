"""Synthetic dataset generators with controlled statistics.

The paper's compression results (its Table 1) come from customer data
warehouses whose compressibility is driven by a few statistics: distinct
value counts, run lengths, skew, and string payload shapes. Each
:class:`DatasetSpec` here dials those knobs to stand in for one regime of
that customer population — see DESIGN.md's substitution table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import types
from ..schema import TableSchema, schema


@dataclass
class GeneratedDataset:
    """A generated table: schema plus per-column NumPy arrays."""

    name: str
    table_schema: TableSchema
    columns: dict[str, np.ndarray]

    @property
    def row_count(self) -> int:
        return next(iter(self.columns.values())).shape[0]

    def rows(self) -> list[tuple]:
        """Row tuples in physical form (for row-store loading)."""
        names = self.table_schema.names
        arrays = [self.columns[n] for n in names]
        return list(zip(*(a.tolist() for a in arrays)))


@dataclass
class DatasetSpec:
    """A named dataset recipe."""

    name: str
    description: str
    build: Callable[[int, np.random.Generator], GeneratedDataset] = field(repr=False)


def _ints(rng: np.random.Generator, n: int, ndv: int, sort: bool = False) -> np.ndarray:
    values = rng.integers(0, ndv, n).astype(np.int32)
    return np.sort(values) if sort else values


def _zipf_indices(rng: np.random.Generator, n: int, ndv: int, a: float = 1.3) -> np.ndarray:
    raw = rng.zipf(a, n)
    return ((raw - 1) % ndv).astype(np.int32)


def _make_low_ndv(n: int, rng: np.random.Generator) -> GeneratedDataset:
    """Telemetry-like: few distinct codes, runs from time ordering."""
    sch = schema(
        ("device_type", types.INT, False),
        ("status", types.INT, False),
        ("severity", types.INT, False),
        ("reading", types.INT, False),
    )
    return GeneratedDataset(
        "low_ndv_ints",
        sch,
        {
            "device_type": np.repeat(rng.integers(0, 5, math.ceil(n / 500)), 500)[:n].astype(np.int32),
            "status": _ints(rng, n, 3),
            "severity": _zipf_indices(rng, n, 8),
            "reading": (_ints(rng, n, 50) * 100).astype(np.int32),
        },
    )


def _make_high_ndv(n: int, rng: np.random.Generator) -> GeneratedDataset:
    """Transaction-like: near-unique keys and wide-range measures."""
    sch = schema(
        ("txn_id", types.BIGINT, False),
        ("account", types.INT, False),
        ("amount_cents", types.BIGINT, False),
    )
    return GeneratedDataset(
        "high_ndv_ints",
        sch,
        {
            "txn_id": (np.arange(n, dtype=np.int64) * 7919 + 13),
            "account": _ints(rng, n, max(2, n // 2)),
            "amount_cents": rng.integers(1, 10_000_000, n).astype(np.int64),
        },
    )


def _make_runs(n: int, rng: np.random.Generator) -> GeneratedDataset:
    """Log-like: clustered arrival gives long runs (RLE heaven)."""
    sch = schema(
        ("batch_id", types.INT, False),
        ("source", types.INT, False),
        ("flag", types.BOOL, False),
    )
    run = max(1, n // 100)
    batch_id = np.repeat(np.arange(max(1, n // run), dtype=np.int32), run)[:n]
    if batch_id.shape[0] < n:
        batch_id = np.pad(batch_id, (0, n - batch_id.shape[0]), constant_values=0)
    return GeneratedDataset(
        "long_runs",
        sch,
        {
            "batch_id": batch_id,
            "source": np.repeat(rng.integers(0, 10, math.ceil(n / 50)), 50)[:n].astype(np.int32),
            "flag": (rng.random(n) < 0.9),
        },
    )


def _make_skewed_strings(n: int, rng: np.random.Generator) -> GeneratedDataset:
    """Web-log-like: zipfian string columns (user agents, URLs)."""
    sch = schema(
        ("url", types.VARCHAR, False),
        ("agent", types.VARCHAR, False),
        ("country", types.VARCHAR, False),
    )
    url_pool = np.array(
        [f"/products/category-{i // 20}/item-{i}" for i in range(500)], dtype=object
    )
    agent_pool = np.array(
        [f"Browser/{i}.0 (Platform; rv:{i}.{i % 7})" for i in range(40)], dtype=object
    )
    country_pool = np.array(
        ["US", "DE", "IN", "BR", "JP", "GB", "FR", "CN"], dtype=object
    )
    return GeneratedDataset(
        "skewed_strings",
        sch,
        {
            "url": url_pool[_zipf_indices(rng, n, url_pool.size)],
            "agent": agent_pool[_zipf_indices(rng, n, agent_pool.size)],
            "country": country_pool[_zipf_indices(rng, n, country_pool.size, a=1.8)],
        },
    )


def _make_wide_mixed(n: int, rng: np.random.Generator) -> GeneratedDataset:
    """ERP-like: a wide mix of types and NULLs."""
    sch = schema(
        ("order_id", types.BIGINT, False),
        ("customer", types.INT, False),
        ("status", types.VARCHAR, False),
        ("price", types.FLOAT, False),
        ("ship_date", types.DATE, False),
        ("note", types.VARCHAR),
    )
    status_pool = np.array(["open", "shipped", "billed", "closed"], dtype=object)
    base_date = types.DATE.coerce("2023-01-01")
    notes = np.empty(n, dtype=object)
    notes[:] = [
        "" if rng.random() < 0.8 else f"escalation-{int(rng.integers(0, 50))}"
        for _ in range(n)
    ]
    return GeneratedDataset(
        "wide_mixed",
        sch,
        {
            "order_id": np.arange(n, dtype=np.int64) + 10**9,
            "customer": _zipf_indices(rng, n, max(2, n // 20)),
            "status": status_pool[_ints(rng, n, 4)],
            "price": np.round(rng.uniform(1, 500, n), 2),
            "ship_date": (base_date + np.sort(rng.integers(0, 365, n))).astype(np.int32),
            "note": notes,
        },
    )


def _make_sorted_dates(n: int, rng: np.random.Generator) -> GeneratedDataset:
    """Fact-table-like: date-ordered append stream."""
    sch = schema(
        ("event_date", types.DATE, False),
        ("metric", types.INT, False),
        ("region", types.INT, False),
    )
    base = types.DATE.coerce("2022-01-01")
    per_day = max(1, n // 730)
    dates = np.repeat(np.arange(max(1, n // per_day), dtype=np.int32), per_day)[:n]
    if dates.shape[0] < n:
        dates = np.pad(dates, (0, n - dates.shape[0]), constant_values=int(dates[-1]))
    return GeneratedDataset(
        "sorted_dates",
        sch,
        {
            "event_date": (dates + base).astype(np.int32),
            "metric": _ints(rng, n, 1000),
            "region": _ints(rng, n, 12),
        },
    )


#: The dataset family used by experiment E1 (the paper's compression table).
DATASET_SPECS: list[DatasetSpec] = [
    DatasetSpec("low_ndv_ints", "telemetry: few distinct codes, natural runs", _make_low_ndv),
    DatasetSpec("high_ndv_ints", "transactions: near-unique keys", _make_high_ndv),
    DatasetSpec("long_runs", "logs: clustered arrival, boolean flags", _make_runs),
    DatasetSpec("skewed_strings", "web logs: zipfian URL/agent strings", _make_skewed_strings),
    DatasetSpec("wide_mixed", "ERP: wide mixed types with NULLs", _make_wide_mixed),
    DatasetSpec("sorted_dates", "fact stream: date-ordered appends", _make_sorted_dates),
]


def make_dataset(name: str, n: int, seed: int = 0) -> GeneratedDataset:
    """Generate the named dataset with ``n`` rows (deterministic by seed)."""
    for spec in DATASET_SPECS:
        if spec.name == name:
            return spec.build(n, np.random.default_rng(seed))
    raise KeyError(f"unknown dataset {name!r}; have {[s.name for s in DATASET_SPECS]}")
