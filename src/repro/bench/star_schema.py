"""A star-schema data warehouse, the paper's workload shape.

One fact table (``store_sales``) with four dimensions (``date_dim``,
``customer``, ``item``, ``store``) — the TPC-DS-style layout the paper's
customer workloads and its predecessor's experiments use. The generator is
deterministic in the seed and scales with the fact row count.

``build_star_schema`` can load the same logical data into any storage
kind, so the benchmark harness can compare columnstore+batch against
rowstore+row on identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import types
from ..db.database import Database
from ..schema import schema
from ..storage.config import StoreConfig

_REGIONS = ["east", "west", "north", "south", "central"]
_SEGMENTS = ["consumer", "corporate", "home_office"]
_CATEGORIES = ["electronics", "clothing", "grocery", "sports", "books",
               "garden", "toys", "automotive"]
_STATES = ["WA", "CA", "TX", "NY", "FL", "IL", "OH", "GA", "NC", "MI"]
_BASE_DATE = types.DATE.coerce("2022-01-01")
_N_DAYS = 730


@dataclass
class StarSchema:
    """Handle to a loaded star schema: the database plus row counts."""

    db: Database
    fact_rows: int
    n_customers: int
    n_items: int
    n_stores: int
    seed: int


DATE_DIM_SCHEMA = schema(
    ("d_id", types.INT, False),
    ("d_date", types.DATE, False),
    ("d_year", types.INT, False),
    ("d_month", types.INT, False),
    ("d_quarter", types.INT, False),
    ("d_weekday", types.VARCHAR, False),
)

CUSTOMER_SCHEMA = schema(
    ("c_id", types.INT, False),
    ("c_name", types.VARCHAR, False),
    ("c_region", types.VARCHAR, False),
    ("c_segment", types.VARCHAR, False),
)

ITEM_SCHEMA = schema(
    ("i_id", types.INT, False),
    ("i_name", types.VARCHAR, False),
    ("i_category", types.VARCHAR, False),
    ("i_brand", types.VARCHAR, False),
    ("i_list_price", types.FLOAT, False),
)

STORE_SCHEMA = schema(
    ("s_id", types.INT, False),
    ("s_name", types.VARCHAR, False),
    ("s_state", types.VARCHAR, False),
)

STORE_SALES_SCHEMA = schema(
    ("ss_id", types.INT, False),
    ("ss_date_id", types.INT, False),
    ("ss_customer_id", types.INT, False),
    ("ss_item_id", types.INT, False),
    ("ss_store_id", types.INT, False),
    ("ss_quantity", types.INT, False),
    ("ss_sales_price", types.FLOAT, False),
    ("ss_discount", types.FLOAT, False),
    ("ss_net_paid", types.FLOAT, False),
)


def _date_dim_rows() -> list[tuple]:
    rows = []
    weekdays = ["mon", "tue", "wed", "thu", "fri", "sat", "sun"]
    for day in range(_N_DAYS):
        physical = _BASE_DATE + day
        date_value = types.DATE.present(physical)
        rows.append(
            (
                day,
                physical,
                date_value.year,
                date_value.month,
                (date_value.month - 1) // 3 + 1,
                weekdays[date_value.weekday()],
            )
        )
    return rows


def generate_star_data(
    fact_rows: int, seed: int = 0
) -> dict[str, list[tuple]]:
    """All five tables' physical rows, deterministically."""
    rng = np.random.default_rng(seed)
    n_customers = max(10, fact_rows // 50)
    n_items = max(10, fact_rows // 100)
    n_stores = max(5, fact_rows // 2000)

    customers = [
        (
            i,
            f"customer#{i:07d}",
            _REGIONS[int(rng.integers(0, len(_REGIONS)))],
            _SEGMENTS[int(rng.integers(0, len(_SEGMENTS)))],
        )
        for i in range(n_customers)
    ]
    items = [
        (
            i,
            f"item#{i:06d}",
            _CATEGORIES[i % len(_CATEGORIES)],
            f"brand#{i % max(2, n_items // 10)}",
            float(np.round(rng.uniform(0.5, 300.0), 2)),
        )
        for i in range(n_items)
    ]
    stores = [
        (i, f"store#{i:03d}", _STATES[i % len(_STATES)]) for i in range(n_stores)
    ]

    # Fact rows arrive in date order (append stream), which is what makes
    # segment elimination on date effective — as in real warehouses.
    date_ids = np.sort(rng.integers(0, _N_DAYS, fact_rows)).astype(np.int32)
    customer_ids = rng.integers(0, n_customers, fact_rows)
    item_ids = rng.integers(0, n_items, fact_rows)
    store_ids = rng.integers(0, n_stores, fact_rows)
    quantities = rng.integers(1, 20, fact_rows)
    prices = np.round(rng.uniform(0.5, 300.0, fact_rows), 2)
    discounts = np.round(prices * rng.uniform(0, 0.3, fact_rows), 2)
    nets = np.round((prices - discounts) * quantities, 2)

    facts = list(
        zip(
            range(fact_rows),
            date_ids.tolist(),
            customer_ids.tolist(),
            item_ids.tolist(),
            store_ids.tolist(),
            quantities.tolist(),
            prices.tolist(),
            discounts.tolist(),
            nets.tolist(),
        )
    )
    return {
        "date_dim": _date_dim_rows(),
        "customer": customers,
        "item": items,
        "store": stores,
        "store_sales": facts,
    }


def build_star_schema(
    fact_rows: int,
    storage: str = "columnstore",
    seed: int = 0,
    config: StoreConfig | None = None,
) -> StarSchema:
    """Create a database holding the star schema under the given storage."""
    db = Database(config or StoreConfig())
    schemas = {
        "date_dim": DATE_DIM_SCHEMA,
        "customer": CUSTOMER_SCHEMA,
        "item": ITEM_SCHEMA,
        "store": STORE_SCHEMA,
        "store_sales": STORE_SALES_SCHEMA,
    }
    data = generate_star_data(fact_rows, seed)
    for name, table_schema in schemas.items():
        db.create_table(name, table_schema, storage=storage)
        # Rows from the generator are already physical; present them back
        # to user form for the validated load path.
        presented = [
            tuple(
                col.dtype.present(value)
                for col, value in zip(table_schema.columns, row)
            )
            for row in data[name]
        ]
        db.bulk_load(name, presented)
    return StarSchema(
        db=db,
        fact_rows=fact_rows,
        n_customers=max(10, fact_rows // 50),
        n_items=max(10, fact_rows // 100),
        n_stores=max(5, fact_rows // 2000),
        seed=seed,
    )
