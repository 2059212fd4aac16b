"""E28 — A star join is a gather.

What PR 20 changed between the fact scan and the join above it, each
measured where it acts (DESIGN.md "Locating build rows", "Bitmap
filters"):

a. Locating, ns per probe key, on a unique dense build of 4,000 rows
   (the suite's ``customer``): the ``_starts`` + ``_order`` path the
   join took before (kept below as the reference, as the parent ran it)
   against ``_HashTable.ranges`` + ``pairs`` over the direct table, at
   4,096 / 32,768 / 65,536 int32 keys, every key hitting and every
   second one. Same process, alternating, allocator warmed.
b. The 14 join queries of the suite's ``star_scan`` workload, best-of-N
   milliseconds each, parent beside change (``--parent DIR``): both
   trees timed in fresh subprocesses, in alternating rounds; every
   answer checked equal, floats and row order included.
c. The counts: probe rows passed through per join, bitmap probes
   settled, units eliminated by bitmap.

``--smoke`` runs (c) on a 12,000-row fact table and asserts it — no
clock — which is what CI runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench_e26_star_join import (  # noqa: E402
    FULL,
    PASSES,
    ROUNDS,
    SMOKE,
    UNFILTERED_JOINS,
    best_of,
    inputs,
    load_star,
    time_queries,
)

JOIN_QUERIES = [query for query in inputs.STAR_QUERIES if " JOIN " in query.sql]
KEY_COUNTS = (4_096, 32_768, 65_536)
BUILD_ROWS = 4_000


# --------------------------------------------------------------------- #
# (a) locating
# --------------------------------------------------------------------- #
def starts_path(keys: np.ndarray, low: int, high: int, starts: np.ndarray, order: np.ndarray):
    """How a unique dense build was probed before: the reference."""
    candidates = np.flatnonzero(np.ones(keys.shape[0], dtype=bool))
    probe_vals = keys.astype(np.int64, copy=False)[candidates]
    inside = (probe_vals >= low) & (probe_vals <= high)
    candidates = candidates[inside]
    slots = probe_vals[inside] - low
    left, right = starts[slots], starts[slots + 1]
    counts = right - left
    hit = counts > 0
    return candidates[hit], order[left[hit]]


def locate_ns_per_key() -> dict[str, dict[str, float]]:
    from repro.exec.batch import Batch
    from repro.exec.operators.hash_join import _HashTable

    rng = np.random.default_rng(28)
    ids = rng.permutation(BUILD_ROWS).astype(np.int64)
    table = _HashTable(Batch(columns={"id": ids}), ["id"])
    assert table.direct
    order = np.argsort(ids, kind="stable")
    starts = np.arange(BUILD_ROWS + 1)
    # Let glibc raise its mmap threshold as a loaded engine has: fresh
    # 256 KB temporaries are otherwise page-faulted in on every call.
    np.ones(1 << 20).sum()
    out: dict[str, dict[str, float]] = {}
    for count in KEY_COUNTS:
        for label, domain in (("every key hits", BUILD_ROWS), ("half hit", 2 * BUILD_ROWS)):
            keys = rng.integers(0, domain, count).astype(np.int32)
            probe = Batch(columns={"k": keys})

            def direct():
                return table.pairs(*table.ranges(probe, ["k"]))

            rows, build_idx = direct()
            want_rows, want_idx = starts_path(keys, 0, BUILD_ROWS - 1, starts, order)
            assert (rows is None) == (label == "every key hits")
            assert (np.arange(count) if rows is None else rows).tolist() == want_rows.tolist()
            assert build_idx.tolist() == want_idx.tolist()
            before = after = float("inf")
            for _ in range(5):  # alternating: the host drifts
                before = min(before, best_of(
                    lambda: starts_path(keys, 0, BUILD_ROWS - 1, starts, order), 40))
                after = min(after, best_of(direct, 40))
            out[f"{count:,} keys, {label}"] = {
                "_starts": before * 1e9 / count, "row_of": after * 1e9 / count}
    return out


# --------------------------------------------------------------------- #
# (b) the join queries — what the worker process runs on either tree
# --------------------------------------------------------------------- #
def run_worker(tree: Path, seed: int) -> dict:
    """A pass over the 22 queries in a fresh process importing ``tree``'s
    ``repro``; the join queries' figures come back. Both trees are timed
    this way: a process on this host keeps the speed it started with (E27)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [sys.executable, str(Path(__file__).resolve()), "--worker", "--seed", str(seed)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# (c) the counts
# --------------------------------------------------------------------- #
def query_counts(db) -> dict[str, dict]:
    """Per join query: each join's probe rows and how many of them passed
    through, the scan's three bitmap counts, and every interval
    ``might_contain`` was run on although the bitmap held all of it."""
    from repro.exec.bloom import ALL, JoinBitmapFilter

    probed_although_set: list[tuple[int, int]] = []
    might_contain = JoinBitmapFilter.might_contain

    def watched(self, keys):
        if keys.size and np.issubdtype(keys.dtype, np.integer):
            low, high = int(keys.min()), int(keys.max())
            if self.covers(low, high) == ALL:
                probed_although_set.append((low, high))
        return might_contain(self, keys)

    out = {}
    JoinBitmapFilter.might_contain = watched
    try:
        for query in JOIN_QUERIES:
            stats = db.sql(query.sql, stats=True).stats
            joins = stats.find("BatchHashJoin")
            out[query.qid] = {
                "probe_rows": [j.details.get("probe_rows", 0) for j in joins],
                "passed_through": [j.details.get("rows_passed_through", 0) for j in joins],
                "direct": [bool(j.details.get("direct")) for j in joins],
                "settled": int(stats.counter("storage.scan.bitmap_probes_settled")),
                "eliminated": int(stats.counter("storage.scan.units_eliminated_by_bitmap")),
                "rejected": int(stats.counter("storage.scan.rows_rejected_by_bitmap")),
                "probed_although_set": list(probed_although_set),
            }
            probed_although_set.clear()
    finally:
        JoinBitmapFilter.might_contain = might_contain
    return out


def check_counts(counts: dict[str, dict]) -> None:
    """The exact claims: a join on an unfiltered dimension passes every
    probe row through a direct table; Q11's ``d_year = 2022`` eliminates
    the date-clustered units of the other year from segment metadata; no
    unit whose key interval the bitmap holds entirely is ever probed."""
    for qid, joins in UNFILTERED_JOINS.items():
        row = counts[qid]
        assert len(row["probe_rows"]) == joins and all(row["direct"]), (qid, row)
        assert row["passed_through"] == row["probe_rows"], (qid, row)
        assert min(row["probe_rows"]) > 0 and row["rejected"] == 0, (qid, row)
    assert counts["Q11"]["eliminated"] > 0, counts["Q11"]
    for qid, row in counts.items():
        assert not row["probed_although_set"], (qid, row)


def smoke() -> dict[str, dict]:
    counts = query_counts(load_star(seed=1, **SMOKE))
    check_counts(counts)
    return counts


def test_e28_exact_counts():
    """What CI runs (also reachable as ``--smoke``): no clock."""
    smoke()


# --------------------------------------------------------------------- #
# Report
# --------------------------------------------------------------------- #
def full_report(args: argparse.Namespace) -> str:
    from repro.bench.harness import ReportTable

    counts = query_counts(load_star(seed=args.seed, **FULL))
    check_counts(counts)
    # The host drifts by tens of percent over minutes, so the two trees
    # are timed in alternating rounds and each figure is its best round.
    rounds: dict[str, list[dict]] = {"parent": [], "change": []}
    for _ in range(ROUNDS):
        if args.parent:
            rounds["parent"].append(run_worker(Path(args.parent), args.seed))
        rounds["change"].append(run_worker(HERE.parent, args.seed))
    for theirs, ours in zip(rounds["parent"], rounds["change"]):
        for qid, rows in ours["answers"].items():
            assert rows == theirs["answers"][qid], f"{qid}: answer differs from the parent's"

    def best_ms(side: list[dict]) -> dict[str, float]:
        return {qid: min(r["ms"][qid] for r in side) for qid in side[0]["ms"]} if side else {}

    mine, old = best_ms(rounds["change"]), best_ms(rounds["parent"])

    a = ReportTable(
        f"E28a: locating on a unique dense build of {BUILD_ROWS:,} rows, ns per int32 probe key "
        "(best of 5 alternating rounds x 40)",
        ["probe", "_starts + _order (reference)", "row_of (direct)", "ratio"],
    )
    for label, ns in locate_ns_per_key().items():
        a.add_row(label, f"{ns['_starts']:.1f}", f"{ns['row_of']:.1f}",
                  f"{ns['_starts'] / ns['row_of']:.1f}x")
    a.add_note("reference: flatnonzero(valid), a copy of the keys, two range compares, two "
               "_starts gathers, a subtract, three mask compactions, _order[left]; direct: one "
               "widening subtract, one minimum (the range check), row_of.take, one compare")

    b = ReportTable(
        f"E28b: the {len(JOIN_QUERIES)} join queries, best of {ROUNDS} alternating rounds x "
        f"{PASSES} passes (200,000 facts, 7 row groups, seed {args.seed})",
        ["query", "parent ms", "change ms", "ratio", "probe rows", "passed through",
         "probes settled", "units eliminated", "rows a probe rejected"],
    )
    for qid in sorted(mine, key=lambda q: -old.get(q, mine[q])):
        row = counts[qid]
        b.add_row(qid, f"{old[qid]:.1f}" if old else "-", f"{mine[qid]:.1f}",
                  f"{old[qid] / mine[qid]:.2f}x" if old else "-",
                  sum(row["probe_rows"]), sum(row["passed_through"]), row["settled"],
                  row["eliminated"], row["rejected"])
    total = sum(mine.values())
    b.add_row("all", f"{sum(old.values()):.0f}" if old else "-", f"{total:.0f}",
              f"{sum(old.values()) / total:.2f}x" if old else "-",
              *(sum(sum(r[c]) if isinstance(r[c], list) else r[c] for r in counts.values())
                for c in ("probe_rows", "passed_through", "settled", "eliminated", "rejected")))
    if old:
        b.add_note("every answer equals the parent's: floats bit for bit, row order included")
    return "\n\n".join(table.render() for table in (a, b))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="tiny tables, exact counts only")
    parser.add_argument("--parent", help="checkout of the parent commit to time beside this tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        ms, answers = time_queries(load_star(seed=args.seed, **FULL), PASSES)
        joins = [query.qid for query in JOIN_QUERIES]
        print(json.dumps({"ms": {q: ms[q] for q in joins}, "answers": {q: answers[q] for q in joins}}))
    elif args.smoke:
        for qid, row in smoke().items():
            print(qid, {k: v for k, v in row.items() if v})
        print("E28 smoke: exact counts hold")
    else:
        text = full_report(args)
        (HERE / "reports" / "e28_star_gather.txt").write_text(text + "\n")
        print(text)


if __name__ == "__main__":
    main()
