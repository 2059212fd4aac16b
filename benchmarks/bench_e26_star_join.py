"""E26 — Keys stay codes from the dimension to the group.

The star join's three costs after PR 16, and what replaced each
(DESIGN.md "Batch size", "Hash join", "Hash aggregation"):

a. The 22 star queries of the suite's ``star_scan`` workload, best-of-N
   milliseconds each, beside the exact counters that say which path ran:
   how probe rows found their build rows (offset table | sorted search),
   how many build columns left the joins as dictionary vectors, how the
   aggregate's keys arrived (as vectors | coded by the aggregate).
   ``--parent DIR`` adds the same timing on a checkout of the parent
   commit (a second process importing that tree), and checks that every
   answer is equal, floats included.
b. ``_HashTable`` probe cost, ns per probe key: the offset table by
   build size and key-domain density, against the sorted search the same
   structure uses once the domain is sparser than 8 cells a row.
c. Grouping cost, ns per input row, by how the key arrives: handed in as
   a vector, a plain integer, a plain string, two keys, many groups.
d. The batch-size sweep that picked ``DEFAULT_BATCH_SIZE``.
e. A join + aggregate over 1M rows arriving in default-size batches:
   peak traced memory, in units of one batch column.
f. A skewed build (one key repeated 20,000 times, the 'unknown' member of
   a dimension) that the probe side does not, or hardly, hit.

``--smoke`` runs (a) on a 12,000-row fact table and asserts the exact
counters only — no clock — which is what CI runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "suite"))

import inputs  # noqa: E402  (the suite's frozen star schema and queries)

FULL = dict(fact_rows=200_000, rowgroup=32_768)
SMOKE = dict(fact_rows=12_000, rowgroup=4_096)
PASSES = 3
ROUNDS = 3  # parent, change, parent, change, ...
# Queries whose dimensions arrive unfiltered: every build key domain is
# dense, so every probe must go through the offset table.
UNFILTERED_JOINS = {"Q07": 1, "Q08": 1, "Q10": 1, "Q12": 2, "Q14": 2, "Q16": 1}
COUNTERS = (
    "exec.hash_join.offset_probes",
    "exec.hash_join.search_probes",
    "exec.hash_join.columns_emitted_encoded",
    "exec.hash_aggregate.keys_from_vectors",
    "exec.hash_aggregate.keys_coded_locally",
)


def best_of(fn, repeats: int) -> float:
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def load_star(fact_rows: int, rowgroup: int, seed: int):
    from repro import Database, StoreConfig

    data = inputs.star_rows(fact_rows, seed)
    db = Database(StoreConfig(rowgroup_size=rowgroup, bulk_load_threshold=1))
    for table, columns in inputs.STAR_TABLES.items():
        db.sql(f"{inputs.create_table_sql(table, columns)} USING columnstore")
        db.bulk_load(table, data[table])
    return db


# --------------------------------------------------------------------- #
# (a) the 22 queries — also what the worker process runs on the parent
# --------------------------------------------------------------------- #
def time_queries(db, passes: int, **options) -> tuple[dict[str, float], dict[str, list]]:
    best: dict[str, float] = {}
    answers: dict[str, list] = {}
    for _ in range(passes + 1):  # the first pass warms statistics and caches
        for query in inputs.STAR_QUERIES:
            start = time.perf_counter()
            rows = db.sql(query.sql, **options).rows
            elapsed = (time.perf_counter() - start) * 1000.0
            best[query.qid] = min(best.get(query.qid, float("inf")), elapsed)
            answers[query.qid] = rows
    return best, answers


def query_counters(db) -> dict[str, dict[str, int]]:
    out = {}
    for query in inputs.STAR_QUERIES:
        stats = db.sql(query.sql, stats=True).stats
        row = {name.split(".", 1)[1]: int(stats.counter(name)) for name in COUNTERS}
        row["joins"] = len(stats.find("BatchHashJoin"))
        row["probe_rows"] = sum(j.details.get("probe_rows", 0) for j in stats.find("BatchHashJoin"))
        row["join_batches"] = [j.runtime.batches for j in stats.find("BatchHashJoin")]
        out[query.qid] = row
    return out


def check_counters(counters: dict[str, dict[str, int]]) -> None:
    """The exact claims: on an unfiltered star join every probe is an
    offset-table probe, every join emits its one grouped attribute as a
    vector, and the aggregate codes no key itself."""
    for qid, joins in UNFILTERED_JOINS.items():
        row = counters[qid]
        assert row["joins"] == joins, (qid, row)
        assert row["hash_join.search_probes"] == 0, (qid, row)
        assert row["hash_join.offset_probes"] == row["probe_rows"] > 0, (qid, row)
        assert row["hash_join.columns_emitted_encoded"] == joins, (qid, row)
        assert row["hash_aggregate.keys_coded_locally"] == 0, (qid, row)
        assert row["hash_aggregate.keys_from_vectors"] == joins * row["join_batches"][0], (qid, row)
    for qid, row in counters.items():
        if row["joins"] == 0:  # fact-only: nothing to hand in, except by the scan
            assert row["hash_join.columns_emitted_encoded"] == 0, (qid, row)


def worker(args: argparse.Namespace) -> None:
    """Run in a second process against whatever ``repro`` PYTHONPATH names;
    prints one JSON line. Only what both trees can do is measured here."""
    db = load_star(args.fact_rows, args.rowgroup, args.seed)
    best, answers = time_queries(db, PASSES)
    grouping = {kind: grouping_ns_per_row(kind) for kind in GROUPING_KINDS if "vector" not in kind}
    skew = {str(hits): skewed_join_ms(hits) for hits in SKEW_HITS}
    print(json.dumps({"ms": best, "answers": answers, "grouping": grouping, "skew": skew}))


def _best_of_both(one: dict, other: dict) -> dict:
    """Two rounds' timings (``ms`` / ``grouping`` / ``skew``), each figure
    the smaller; anything else (the answers) as in ``one``."""
    return {
        section: {k: min(v, other[section][k]) for k, v in values.items()}
        if section in ("ms", "grouping", "skew") else values
        for section, values in one.items()
    }


def run_parent(parent: Path, scale: dict, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(parent / "src"))
    command = [sys.executable, str(Path(__file__).resolve()), "--worker", "--seed", str(seed),
               "--fact-rows", str(scale["fact_rows"]), "--rowgroup", str(scale["rowgroup"])]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# (b) probe cost
# --------------------------------------------------------------------- #
def probe_ns_per_key(build_rows: int, cells_per_row: int, probes: int = 32_768) -> tuple[str, float]:
    from repro.exec.batch import Batch
    from repro.exec.operators.hash_join import _HashTable

    rng = np.random.default_rng(26)
    build = Batch(columns={"id": rng.permutation(build_rows).astype(np.int64) * cells_per_row})
    probe = Batch(columns={"k": rng.integers(0, build_rows, probes).astype(np.int64) * cells_per_row})
    table = _HashTable(build, ["id"])
    seconds = best_of(lambda: table.probe(probe, ["k"]), 20)
    return table.locate, seconds * 1e9 / probes


# --------------------------------------------------------------------- #
# (c) grouping cost
# --------------------------------------------------------------------- #
GROUPING_KINDS = ("vector", "vector + str", "int", "str", "two plain", "many groups", "distinct str")


def grouping_ns_per_row(kind: str, rows: int = 196_608, batch_rows: int = 32_768) -> float:
    from repro.exec.batch import Batch
    from repro.exec.operators.base import BatchOperator
    from repro.exec.operators.hash_aggregate import BatchHashAggregate, agg

    rng = np.random.default_rng(27)
    regions = np.array(["east", "west", "north", "south", "central"], dtype=object)
    batches = []
    for _ in range(rows // batch_rows):
        codes = rng.integers(0, 5, batch_rows)
        columns = {"v": rng.random(batch_rows)}
        encoded = {}
        if kind in ("vector", "vector + str"):
            from repro.storage.segment import DictionaryVector

            encoded["k"] = DictionaryVector.of(codes, regions, source="join")
        elif kind in ("str", "two plain"):
            columns["k"] = regions[codes]
        elif kind == "int":
            columns["k"] = rng.integers(0, 100, batch_rows)
        elif kind == "distinct str":
            first = len(batches) * batch_rows
            columns["k"] = np.array([f"k{i}" for i in range(first, first + batch_rows)], dtype=object)
        else:
            assert kind == "many groups"
            columns["k"] = rng.integers(0, 4000, batch_rows)
        keys = ["k"]
        if kind in ("vector + str", "two plain"):
            columns["k2"] = regions[rng.integers(0, 5, batch_rows)]
            keys.append("k2")
        batches.append(Batch(columns=columns, encoded=encoded))

    class Source(BatchOperator):
        @property
        def output_names(self):
            return [*keys, "v"]

        def batches(self):
            yield from batches

    def run():
        op = BatchHashAggregate(Source(), keys, [agg("sum", "v", "sv")])
        for _ in op.batches():
            pass

    return best_of(run, 5) * 1e9 / rows


# --------------------------------------------------------------------- #
# (e) memory of a join over a 1M-row unit
# --------------------------------------------------------------------- #
def join_peak_batch_columns(rows: int = 1_048_576) -> tuple[float, int]:
    """Peak traced bytes while a join + aggregate consume ``rows`` probe
    rows sliced as the scan slices a row group, in units of one batch
    column (batch size x 8 bytes); and the largest batch the join emitted."""
    from repro.exec.batch import DEFAULT_BATCH_SIZE, Batch, slice_into_batches
    from repro.exec.operators.base import BatchOperator
    from repro.exec.operators.hash_aggregate import BatchHashAggregate, agg
    from repro.exec.operators.hash_join import BatchHashJoin

    rng = np.random.default_rng(28)
    unit = Batch(columns={"k": rng.integers(0, 4000, rows), "v": rng.random(rows)})
    regions = np.array(["east", "west", "north", "south", "central"], dtype=object)
    dimension = Batch(columns={"id": np.arange(4000), "region": regions[np.arange(4000) % 5]})
    largest = 0

    class Source(BatchOperator):
        def __init__(self, batch):
            self.batch = batch

        @property
        def output_names(self):
            return self.batch.names

        def batches(self):
            yield from slice_into_batches(self.batch)

    class Watch(BatchOperator):
        def __init__(self, child):
            self.child = child

        @property
        def output_names(self):
            return self.child.output_names

        def declare_encoded(self, takes):
            self.child.declare_encoded(takes)

        def batches(self):
            nonlocal largest
            for batch in self.child.batches():
                largest = max(largest, batch.row_count)
                yield batch

    join = BatchHashJoin(Source(dimension), Source(unit), ["id"], ["k"])
    aggregate = BatchHashAggregate(Watch(join), ["region"], [agg("sum", "v", "sv")])
    aggregate.child.declare_encoded(aggregate.takes_encoded())
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    for _ in aggregate.batches():
        pass
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()
    return peak / (DEFAULT_BATCH_SIZE * 8), largest


# --------------------------------------------------------------------- #
# (f) a skewed build
# --------------------------------------------------------------------- #
SKEW_HITS = (0, 10)


def skewed_join_ms(hot_probe_rows: int, probe_rows: int = 200_000) -> float:
    """An inner join against 50,000 build rows of which 20,000 share one
    key, probed by ``probe_rows`` rows of which ``hot_probe_rows`` carry
    that key; the probe side arrives in the tree's default batches."""
    from repro.exec.batch import Batch, slice_into_batches
    from repro.exec.operators.base import BatchOperator
    from repro.exec.operators.hash_join import BatchHashJoin

    hot = -1
    ids = np.concatenate([np.full(20_000, hot), np.arange(30_000)])
    keys = np.resize(np.arange(30_000), probe_rows)
    keys[np.linspace(0, probe_rows - 1, hot_probe_rows, dtype=np.int64)] = hot

    class Source(BatchOperator):
        def __init__(self, columns):
            self.batch = Batch(columns=columns)

        @property
        def output_names(self):
            return self.batch.names

        def batches(self):
            yield from slice_into_batches(self.batch)

    build = Source({"id": ids, "tag": np.arange(ids.size)})
    probe = Source({"k": keys, "v": np.arange(probe_rows)})

    def run():
        emitted = sum(b.row_count for b in BatchHashJoin(build, probe, ["id"], ["k"]).batches())
        assert emitted == probe_rows + hot_probe_rows * 19_999

    return best_of(run, 5) * 1000.0


# --------------------------------------------------------------------- #
# Report
# --------------------------------------------------------------------- #
def full_report(args: argparse.Namespace) -> str:
    from repro.bench.harness import ReportTable
    from repro.exec.batch import DEFAULT_BATCH_SIZE

    db = load_star(seed=args.seed, **FULL)
    counters = query_counters(db)
    check_counters(counters)
    # The host drifts by tens of percent over minutes, so the two trees
    # are timed in alternating rounds and each figure is its best round.
    parent = mine = None
    for _ in range(ROUNDS):
        if args.parent:
            theirs = run_parent(Path(args.parent), FULL, args.seed)
            parent = theirs if parent is None else _best_of_both(parent, theirs)
        ms, answers = time_queries(db, PASSES)
        ours = {"ms": ms,
                "grouping": {kind: grouping_ns_per_row(kind) for kind in GROUPING_KINDS},
                "skew": {str(hits): skewed_join_ms(hits) for hits in SKEW_HITS}}
        mine = ours if mine is None else _best_of_both(mine, ours)
    best, grouping, skew = mine["ms"], mine["grouping"], mine["skew"]
    if parent is not None:
        unordered = {q.qid for q in inputs.STAR_QUERIES if not q.order}
        for qid, rows in answers.items():
            # JSON round-trips a float to the same bits; tuples come back as lists.
            ours, theirs = [list(row) for row in rows], parent["answers"][qid]
            if qid in unordered:
                ours, theirs = sorted(ours), sorted(theirs)
            assert ours == theirs, f"{qid}: answer differs from the parent's"

    a = ReportTable(
        f"E26a: the 22 star queries, best of {ROUNDS} alternating rounds x {PASSES} passes (200,000 facts, 7 row groups, seed {args.seed})",
        ["query", "parent ms", "change ms", "ratio", "joins", "offset probes", "search probes",
         "cols emitted encoded", "keys from vectors", "keys coded here"],
    )
    for qid in sorted(best, key=lambda q: -(parent["ms"][q] if parent else best[q])):
        row = counters[qid]
        before = parent["ms"][qid] if parent else None
        a.add_row(qid, f"{before:.1f}" if before else "-", f"{best[qid]:.1f}",
                  f"{before / best[qid]:.1f}x" if before else "-", row["joins"],
                  row["hash_join.offset_probes"], row["hash_join.search_probes"],
                  row["hash_join.columns_emitted_encoded"],
                  row["hash_aggregate.keys_from_vectors"], row["hash_aggregate.keys_coded_locally"])
    total = sum(best.values())
    a.add_row("pass", f"{sum(parent['ms'].values()):.0f}" if parent else "-", f"{total:.0f}",
              f"{sum(parent['ms'].values()) / total:.1f}x" if parent else "-",
              *(sum(r[c] for r in counters.values()) for c in (
                  "joins", "hash_join.offset_probes", "hash_join.search_probes",
                  "hash_join.columns_emitted_encoded", "hash_aggregate.keys_from_vectors",
                  "hash_aggregate.keys_coded_locally")))
    searched = sorted(q for q, row in counters.items() if row["hash_join.search_probes"])
    a.add_note(f"search probes ({', '.join(searched)}) are dimensions filtered down to fewer than "
               "one build row per 8 cells of their key domain")
    if parent is not None:
        a.add_note("all 22 answers equal the parent's, floats bit for bit; row order too "
                   "wherever the query orders its result")

    b = ReportTable(
        "E26b: _HashTable probe, ns per probe key (32,768 probes, best of 20)",
        ["build rows", "domain / rows = 1", "= 4", "= 8", "= 9 (sorted search)"],
    )
    for build_rows in (100, 4_000, 100_000, 1_000_000):
        cells = []
        for density in (1, 4, 8, 9):
            locate, ns = probe_ns_per_key(build_rows, density)
            assert locate == ("search" if density == 9 else "offsets")
            cells.append(f"{ns:.1f}")
        b.add_row(f"{build_rows:,}", *cells)
    b.add_note("unique build keys; the three offset columns differ only in how much of the table "
               "the gathers touch")

    c = ReportTable(
        "E26c: grouping, ns per input row (196,608 rows in 32,768-row batches, SUM(float), best of 5 in each round)",
        ["key arrives as", "parent ns/row", "change ns/row"],
    )
    for kind in GROUPING_KINDS:
        before = parent["grouping"].get(kind) if parent else None
        label = {"vector": "vector, 5 values (from a join)", "vector + str": "vector + plain string",
                 "int": "plain int, 100 values", "str": "plain string, 5 values",
                 "two plain": "two plain strings, 25 groups",
                 "many groups": "plain int, 4,000 values",
                 "distinct str": "plain string, every row its own group"}[kind]
        c.add_row(label, f"{before:.0f}" if before else "-", f"{grouping[kind]:.0f}")
    c.add_note("the parent has no vector to hand in except from a scan; its string and two-key "
               "rows are the per-row generator this change deleted")

    d = ReportTable(
        f"E26d: batch-size sweep, one pass over the 22 queries (ms, best of {PASSES * ROUNDS} per query, sizes interleaved)",
        ["batch rows", "pass ms", "Q12", "Q14", "Q07", "Q21", "Q20", "Q04"],
    )
    sizes = (1_024, 4_096, 16_384, 65_536, 262_144)
    sweep: dict[int, dict[str, float]] = {size: {} for size in sizes}
    for _ in range(PASSES * ROUNDS):  # sizes interleaved pass by pass: the host drifts
        for size in sizes:
            once, _ = time_queries(db, 0, batch_size=size)
            sweep[size] = {q: min(ms, sweep[size].get(q, ms)) for q, ms in once.items()}
    for size, ms in sweep.items():
        d.add_row(f"{size:,}{' (default)' if size == DEFAULT_BATCH_SIZE else ''}",
                  f"{sum(ms.values()):.0f}", *(f"{ms[q]:.1f}" for q in ("Q12", "Q14", "Q07", "Q21", "Q20", "Q04")))
    d.add_note("row groups hold 32,768 rows here: from that size up a unit crosses the plan whole "
               "and the sweep is flat; 1,024 is the paper's batch")

    peak, largest = join_peak_batch_columns()
    e = ReportTable(
        "E26e: join + aggregate over 1,048,576 probe rows arriving in default-size batches",
        ["batch rows", "largest batch the join emitted", "peak traced memory / one batch column"],
    )
    e.add_row(f"{DEFAULT_BATCH_SIZE:,}", f"{largest:,}", f"{peak:.1f}")
    assert largest <= DEFAULT_BATCH_SIZE and peak < 24
    e.add_note("2 probe columns + 1 carried vector; the bound asserted is 24 batch columns "
               "(a batch column = 65,536 x 8 B = 512 KB), whatever the unit's size")

    f = ReportTable(
        "E26f: skewed build — 50,000 build rows, one key repeated 20,000 times; 200,000 probe rows (ms, best of 5 in each round)",
        ["probe rows carrying the hot key", "rows emitted", "parent ms", "change ms"],
    )
    for hits in SKEW_HITS:
        before = parent["skew"][str(hits)] if parent else None
        f.add_row(hits, f"{200_000 + hits * 19_999:,}", f"{before:.1f}" if before else "-",
                  f"{skew[str(hits)]:.1f}")
    f.add_note("a probe batch is located whole and cut where the running match count passes a "
               "batch, so the hot key costs only the probe rows that carry it")

    return "\n\n".join(table.render() for table in (a, b, c, d, e, f))


def smoke() -> dict[str, dict[str, int]]:
    db = load_star(seed=1, **SMOKE)
    counters = query_counters(db)
    check_counters(counters)
    return counters


def test_e26_exact_counters():
    """What CI runs (also reachable as ``--smoke``): no clock."""
    counters = smoke()
    assert sum(row["hash_join.columns_emitted_encoded"] for row in counters.values()) >= 8


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="tiny tables, exact counters only")
    parser.add_argument("--parent", help="checkout of the parent commit to time beside this tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--fact-rows", type=int, default=FULL["fact_rows"], help=argparse.SUPPRESS)
    parser.add_argument("--rowgroup", type=int, default=FULL["rowgroup"], help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args)
    elif args.smoke:
        for qid, row in smoke().items():
            print(qid, {k: v for k, v in row.items() if v})
        print("E26 smoke: exact counters hold")
    else:
        text = full_report(args)
        (HERE / "reports" / "e26_star_join.txt").write_text(text + "\n")
        print(text)


if __name__ == "__main__":
    main()
