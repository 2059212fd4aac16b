"""Frozen benchmark inputs: data generators, query texts, statement lists.

Everything here is a private copy. The suite does not import
``repro.bench.star_schema`` or ``repro.bench.queries``: a performance
change may edit those, and a benchmark whose inputs move with the code
under test measures nothing. All randomness comes from the ``seed``
argument; the engine only ever sees the generated rows and SQL text.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# --------------------------------------------------------------------- #
# Star schema (store_sales + 4 dimensions)
# --------------------------------------------------------------------- #
_REGIONS = ["east", "west", "north", "south", "central"]
_SEGMENTS = ["consumer", "corporate", "home_office"]
_CATEGORIES = ["electronics", "clothing", "grocery", "sports", "books",
               "garden", "toys", "automotive"]
_STATES = ["WA", "CA", "TX", "NY", "FL", "IL", "OH", "GA", "NC", "MI"]
_WEEKDAYS = ["mon", "tue", "wed", "thu", "fri", "sat", "sun"]
_BASE_DATE = datetime.date(2022, 1, 1)
_N_DAYS = 730

# (column, SQL type) per table, in load order. The engine and the sqlite3
# oracle are both created from this one description.
STAR_TABLES: dict[str, list[tuple[str, str]]] = {
    "date_dim": [("d_id", "INT"), ("d_date", "DATE"), ("d_year", "INT"),
                 ("d_month", "INT"), ("d_quarter", "INT"), ("d_weekday", "VARCHAR")],
    "customer": [("c_id", "INT"), ("c_name", "VARCHAR"), ("c_region", "VARCHAR"),
                 ("c_segment", "VARCHAR")],
    "item": [("i_id", "INT"), ("i_name", "VARCHAR"), ("i_category", "VARCHAR"),
             ("i_brand", "VARCHAR"), ("i_list_price", "FLOAT")],
    "store": [("s_id", "INT"), ("s_name", "VARCHAR"), ("s_state", "VARCHAR")],
    "store_sales": [("ss_id", "INT"), ("ss_date_id", "INT"), ("ss_customer_id", "INT"),
                    ("ss_item_id", "INT"), ("ss_store_id", "INT"), ("ss_quantity", "INT"),
                    ("ss_sales_price", "FLOAT"), ("ss_discount", "FLOAT"),
                    ("ss_net_paid", "FLOAT")],
}

KV_TABLE: list[tuple[str, str]] = [
    ("k", "INT"), ("grp", "INT"), ("v", "INT"), ("price", "FLOAT"), ("tag", "VARCHAR"),
]

_TYPE_BYTES = {"INT": 4, "FLOAT": 8, "DATE": 4}


def create_table_sql(name: str, columns: list[tuple[str, str]]) -> str:
    body = ", ".join(f"{col} {sql_type} NOT NULL" for col, sql_type in columns)
    return f"CREATE TABLE {name} ({body})"


def user_bytes(columns: list[tuple[str, str]], rows: list[tuple]) -> int:
    """Raw size of the user's data: fixed-width numbers plus UTF-8 strings."""
    total = 0
    for position, (_name, sql_type) in enumerate(columns):
        width = _TYPE_BYTES.get(sql_type)
        if width is not None:
            total += width * len(rows)
        else:
            total += sum(len(row[position].encode("utf-8")) for row in rows)
    return total


def star_rows(fact_rows: int, seed: int) -> dict[str, list[tuple]]:
    """All five tables' rows in user form, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    n_customers = max(10, fact_rows // 50)
    n_items = max(10, fact_rows // 100)
    n_stores = max(5, fact_rows // 2000)

    dates = []
    for day in range(_N_DAYS):
        value = _BASE_DATE + datetime.timedelta(days=day)
        dates.append((day, value, value.year, value.month,
                      (value.month - 1) // 3 + 1, _WEEKDAYS[value.weekday()]))
    regions = rng.integers(0, len(_REGIONS), n_customers).tolist()
    segments = rng.integers(0, len(_SEGMENTS), n_customers).tolist()
    customers = [
        (i, f"customer#{i:07d}", _REGIONS[regions[i]], _SEGMENTS[segments[i]])
        for i in range(n_customers)
    ]
    list_prices = np.round(rng.uniform(0.5, 300.0, n_items), 2).tolist()
    items = [
        (i, f"item#{i:06d}", _CATEGORIES[i % len(_CATEGORIES)],
         f"brand#{i % max(2, n_items // 10)}", list_prices[i])
        for i in range(n_items)
    ]
    stores = [(i, f"store#{i:03d}", _STATES[i % len(_STATES)]) for i in range(n_stores)]

    # Facts arrive in date order (an append stream), which is what makes
    # segment elimination on the date key effective.
    date_ids = np.sort(rng.integers(0, _N_DAYS, fact_rows))
    quantities = rng.integers(1, 20, fact_rows)
    prices = np.round(rng.uniform(0.5, 300.0, fact_rows), 2)
    discounts = np.round(prices * rng.uniform(0, 0.3, fact_rows), 2)
    nets = np.round((prices - discounts) * quantities, 2)
    facts = list(zip(
        range(fact_rows),
        date_ids.tolist(),
        rng.integers(0, n_customers, fact_rows).tolist(),
        rng.integers(0, n_items, fact_rows).tolist(),
        rng.integers(0, n_stores, fact_rows).tolist(),
        quantities.tolist(),
        prices.tolist(),
        discounts.tolist(),
        nets.tolist(),
    ))
    return {"date_dim": dates, "customer": customers, "item": items,
            "store": stores, "store_sales": facts}


@dataclass(frozen=True)
class StarQuery:
    """One of the 22 analytic queries.

    ``order`` lists ``(result column index, descending)`` for the query's
    ORDER BY; ``limit`` is its LIMIT. The oracle runs ``sql`` without the
    LIMIT so that ties at the cut-off cannot fail a correct answer.
    """

    qid: str
    sql: str
    order: tuple[tuple[int, bool], ...] = ()
    limit: int | None = None


STAR_QUERIES: list[StarQuery] = [
    # fact-only scans and aggregations
    StarQuery("Q01", "SELECT COUNT(*) AS n, SUM(ss_net_paid) AS revenue FROM store_sales"),
    StarQuery("Q02", "SELECT COUNT(*) AS n, SUM(ss_net_paid) AS revenue FROM store_sales "
                     "WHERE ss_date_id BETWEEN 100 AND 130"),
    StarQuery("Q03", "SELECT COUNT(*) AS n FROM store_sales "
                     "WHERE ss_sales_price > 290 AND ss_quantity >= 15"),
    StarQuery("Q04", "SELECT ss_store_id, COUNT(*) AS n, SUM(ss_net_paid) AS revenue "
                     "FROM store_sales GROUP BY ss_store_id"),
    StarQuery("Q05", "SELECT ss_date_id, SUM(ss_quantity) AS units FROM store_sales "
                     "WHERE ss_date_id BETWEEN 180 AND 270 GROUP BY ss_date_id"),
    # single-dimension star joins
    StarQuery("Q06", "SELECT COUNT(*) AS n FROM store_sales s "
                     "JOIN customer c ON s.ss_customer_id = c.c_id "
                     "WHERE c.c_region = 'east' AND c.c_segment = 'corporate'"),
    StarQuery("Q07", "SELECT c.c_region, SUM(s.ss_net_paid) AS revenue FROM store_sales s "
                     "JOIN customer c ON s.ss_customer_id = c.c_id "
                     "GROUP BY c.c_region ORDER BY revenue DESC", order=((1, True),)),
    StarQuery("Q08", "SELECT i.i_category, SUM(s.ss_quantity) AS units FROM store_sales s "
                     "JOIN item i ON s.ss_item_id = i.i_id "
                     "GROUP BY i.i_category ORDER BY units DESC", order=((1, True),)),
    StarQuery("Q09", "SELECT COUNT(*) AS n, AVG(s.ss_sales_price) AS avg_price "
                     "FROM store_sales s JOIN item i ON s.ss_item_id = i.i_id "
                     "WHERE i.i_category = 'electronics' AND i.i_list_price > 250"),
    StarQuery("Q10", "SELECT st.s_state, COUNT(*) AS n FROM store_sales s "
                     "JOIN store st ON s.ss_store_id = st.s_id "
                     "GROUP BY st.s_state ORDER BY n DESC", order=((1, True),)),
    StarQuery("Q11", "SELECT d.d_month, SUM(s.ss_net_paid) AS revenue FROM store_sales s "
                     "JOIN date_dim d ON s.ss_date_id = d.d_id "
                     "WHERE d.d_year = 2022 GROUP BY d.d_month ORDER BY d.d_month",
              order=((0, False),)),
    # multi-dimension star joins
    StarQuery("Q12", "SELECT c.c_region, i.i_category, SUM(s.ss_net_paid) AS revenue "
                     "FROM store_sales s "
                     "JOIN customer c ON s.ss_customer_id = c.c_id "
                     "JOIN item i ON s.ss_item_id = i.i_id "
                     "GROUP BY c.c_region, i.i_category"),
    StarQuery("Q13", "SELECT d.d_quarter, SUM(s.ss_net_paid) AS revenue FROM store_sales s "
                     "JOIN date_dim d ON s.ss_date_id = d.d_id "
                     "JOIN customer c ON s.ss_customer_id = c.c_id "
                     "JOIN store st ON s.ss_store_id = st.s_id "
                     "WHERE c.c_region = 'west' AND st.s_state = 'WA' AND d.d_year = 2022 "
                     "GROUP BY d.d_quarter ORDER BY d.d_quarter", order=((0, False),)),
    StarQuery("Q14", "SELECT d.d_quarter, c.c_segment, SUM(s.ss_net_paid) AS revenue "
                     "FROM store_sales s "
                     "JOIN date_dim d ON s.ss_date_id = d.d_id "
                     "JOIN customer c ON s.ss_customer_id = c.c_id "
                     "GROUP BY d.d_quarter, c.c_segment"),
    StarQuery("Q15", "SELECT i.i_brand, SUM(s.ss_quantity) AS units FROM store_sales s "
                     "JOIN item i ON s.ss_item_id = i.i_id "
                     "WHERE s.ss_date_id BETWEEN 300 AND 400 AND i.i_category = 'grocery' "
                     "GROUP BY i.i_brand ORDER BY units DESC LIMIT 10",
              order=((1, True),), limit=10),
    StarQuery("Q16", "SELECT d.d_weekday, AVG(s.ss_net_paid) AS avg_basket FROM store_sales s "
                     "JOIN date_dim d ON s.ss_date_id = d.d_id "
                     "GROUP BY d.d_weekday ORDER BY avg_basket DESC", order=((1, True),)),
    # string predicates
    StarQuery("Q17", "SELECT COUNT(*) AS n FROM store_sales s "
                     "JOIN customer c ON s.ss_customer_id = c.c_id "
                     "WHERE c.c_name LIKE 'customer#00000%'"),
    StarQuery("Q18", "SELECT i.i_category, COUNT(*) AS n FROM store_sales s "
                     "JOIN item i ON s.ss_item_id = i.i_id "
                     "WHERE i.i_category IN ('books', 'toys', 'sports') "
                     "GROUP BY i.i_category ORDER BY n DESC", order=((1, True),)),
    StarQuery("Q19", "SELECT c.c_region, SUM(s.ss_net_paid) AS revenue FROM store_sales s "
                     "JOIN customer c ON s.ss_customer_id = c.c_id "
                     "WHERE c.c_region IN ('east', 'south') "
                     "AND s.ss_date_id BETWEEN 0 AND 180 "
                     "GROUP BY c.c_region"),
    # top-n / case / having
    StarQuery("Q20", "SELECT s.ss_customer_id, SUM(s.ss_net_paid) AS revenue "
                     "FROM store_sales s GROUP BY s.ss_customer_id "
                     "ORDER BY revenue DESC LIMIT 25", order=((1, True),), limit=25),
    StarQuery("Q21", "SELECT CASE WHEN ss_sales_price < 50 THEN 'budget' "
                     "WHEN ss_sales_price < 150 THEN 'mid' ELSE 'premium' END AS tier, "
                     "COUNT(*) AS n, SUM(ss_net_paid) AS revenue "
                     "FROM store_sales GROUP BY tier ORDER BY tier", order=((0, False),)),
    StarQuery("Q22", "SELECT ss_store_id, SUM(ss_net_paid) AS revenue FROM store_sales "
                     "GROUP BY ss_store_id HAVING SUM(ss_net_paid) > 0 "
                     "ORDER BY revenue DESC LIMIT 5", order=((1, True),), limit=5),
]

# The subset replayed in row mode for ``exec.batch_vs_row_speedup``: two
# fact-only scans, three star joins and one top-n.
BATCH_VS_ROW_QIDS = ("Q01", "Q04", "Q07", "Q12", "Q13", "Q20")


# --------------------------------------------------------------------- #
# Key-value table (served_short, trickle_write, htap_mix)
# --------------------------------------------------------------------- #
def _kv_values(rng: np.random.Generator, count: int) -> list[tuple]:
    """``count`` rows' non-key columns ``(grp, v, price, tag)``."""
    tags = rng.integers(0, 97, count).tolist()
    return list(zip(
        rng.integers(0, 50, count).tolist(),
        rng.integers(0, 1000, count).tolist(),
        np.round(rng.uniform(1.0, 500.0, count), 2).tolist(),
        [f"tag{t:02d}" for t in tags],
    ))


def kv_rows(n_rows: int, seed: int) -> list[tuple]:
    """The preloaded table: keys ``0..n_rows-1`` ascending (key-sorted)."""
    rng = np.random.default_rng(seed)
    return [(k, *rest) for k, rest in enumerate(_kv_values(rng, n_rows))]


class Op(NamedTuple):
    """One statement of a workload's operation list.

    ``kind`` names the statement class the latency is filed under; ``row``
    is the inserted row (inserts), ``value`` the new ``v`` (updates).
    """

    kind: str
    sql: str
    key: int = -1
    row: tuple | None = None
    value: int = 0


POINT_SQL = "SELECT k, grp, v, price, tag FROM kv WHERE k = {key}"
RANGE_SQL = "SELECT COUNT(*) AS n, SUM(v) AS s FROM kv WHERE k BETWEEN {low} AND {high}"
WIDE_SQL = "SELECT k, grp, v, price FROM kv WHERE k BETWEEN {low} AND {high}"
GROUP_SQL = "SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM kv GROUP BY grp"


def served_ops(n_rows: int, seed: int, client: int, count: int, shift: int = 0) -> list[Op]:
    """One connection's read-only list: 70 % point / 20 % range / 10 % wide.

    Keys follow Zipf(1.1) over a seeded permutation of the key space, so
    the hot keys are spread over every row group. ``shift`` moves every
    key up by that much: the same list position then does the same work
    on a neighbouring key (the table is key-sorted), under a statement
    text the server has not seen, and the texts repeat within the list
    exactly as they do unshifted.
    """
    rng = np.random.default_rng([seed, 101, client])
    hot_order = np.random.default_rng([seed, 100]).permutation(n_rows)
    ranks = (rng.zipf(1.1, count) - 1) % n_rows
    keys = ((hot_order[ranks] + shift) % n_rows).tolist()
    classes = rng.random(count).tolist()
    ops = []
    for key, draw in zip(keys, classes):
        if draw < 0.70:
            ops.append(Op("point", POINT_SQL.format(key=key), key))
        elif draw < 0.90:
            low = min(key, n_rows - 500)
            ops.append(Op("range", RANGE_SQL.format(low=low, high=low + 499), low))
        else:
            low = min(key, n_rows - 1000)
            ops.append(Op("wide", WIDE_SQL.format(low=low, high=low + 999), low))
    return ops


class _LiveKeys:
    """Keys currently in the table, with O(1) uniform draw and removal."""

    def __init__(self, n_rows: int) -> None:
        self.keys = list(range(n_rows))
        self.next_key = n_rows

    def add(self) -> int:
        key = self.next_key
        self.next_key += 1
        self.keys.append(key)
        return key

    def draw(self, rng: np.random.Generator, remove: bool) -> int:
        at = int(rng.integers(0, len(self.keys)))
        key = self.keys[at]
        if remove:
            self.keys[at] = self.keys[-1]
            self.keys.pop()
        return key


def _write_op(kind: str, live: _LiveKeys, rng: np.random.Generator) -> Op:
    if kind == "insert":
        key = live.add()
        grp, v, price, tag = _kv_values(rng, 1)[0]
        row = (key, grp, v, price, tag)
        return Op("insert", f"INSERT INTO kv VALUES ({key}, {grp}, {v}, {price!r}, '{tag}')",
                  key, row)
    if kind == "update":
        key = live.draw(rng, remove=False)
        value = int(rng.integers(0, 1000))
        return Op("update", f"UPDATE kv SET v = {value} WHERE k = {key}", key, None, value)
    key = live.draw(rng, remove=True)
    return Op("delete", f"DELETE FROM kv WHERE k = {key}", key)


def _write_kinds(rng: np.random.Generator, inserts: int, updates: int, deletes: int) -> list[str]:
    kinds = ["insert"] * inserts + ["update"] * updates + ["delete"] * deletes
    return [kinds[i] for i in rng.permutation(len(kinds))]


TRICKLE_UNIT = (20, 1, 1)  # inserts, updates, deletes per 22-statement unit
TXN_BLOCK = 16


def trickle_ops(n_rows: int, seed: int, units: int) -> list[Op]:
    """``units`` x (20 INSERT + 1 UPDATE + 1 DELETE), shuffled within a unit.

    The DML stream is cut into runs of 16: even runs go autocommit, odd
    runs are wrapped in BEGIN ... COMMIT, so half the statements pay the
    per-statement commit and half share one.
    """
    rng = np.random.default_rng([seed, 200])
    live = _LiveKeys(n_rows)
    dml = []
    for _ in range(units):
        dml.extend(_write_op(kind, live, rng) for kind in _write_kinds(rng, *TRICKLE_UNIT))
    ops: list[Op] = []
    for start in range(0, len(dml), TXN_BLOCK):
        run = dml[start:start + TXN_BLOCK]
        if (start // TXN_BLOCK) % 2:
            ops.append(Op("begin", "BEGIN"))
            ops.extend(run)
            ops.append(Op("commit", "COMMIT"))
        else:
            ops.extend(run)
    return ops


HTAP_ROUND = (56, 4, 4)  # inserts, updates, deletes per round, then 2 reads
HTAP_RANGE_KEYS = 5000


def htap_ops(n_rows: int, seed: int, rounds: int) -> list[Op]:
    """``rounds`` x (64 autocommit writes, a whole-table GROUP BY, a range aggregate)."""
    rng = np.random.default_rng([seed, 300])
    live = _LiveKeys(n_rows)
    ops: list[Op] = []
    for _ in range(rounds):
        ops.extend(_write_op(kind, live, rng) for kind in _write_kinds(rng, *HTAP_ROUND))
        ops.append(Op("group_read", GROUP_SQL))
        low = int(rng.integers(0, live.next_key - HTAP_RANGE_KEYS))
        ops.append(Op("range_read",
                      RANGE_SQL.format(low=low, high=low + HTAP_RANGE_KEYS - 1), low))
    return ops
