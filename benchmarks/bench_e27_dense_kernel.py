"""E27 — No interpreter and no sort between the packed bytes and the group.

What PR 19 changed between the packed payload and the group, each
measured where it acts (DESIGN.md "Compressed execution"):

a. ``bitpack.unpack`` ns per value by width, at 16,384 and 32,768 values:
   the dense phase (strided window views, no gather) against the gather
   it replaced for full-length decodes. ``--parent DIR`` adds the same
   loop on a checkout of the parent commit; each tree is timed in fresh
   processes, in alternating rounds.
b. The 22 star queries of the suite's ``star_scan`` workload, best-of-N
   milliseconds each (parent beside change with ``--parent``; every
   answer checked equal, floats included), beside the exact counters:
   how the aggregate's keys arrived (as vectors | coded by the
   aggregate) and how many keys reached ``gid_of`` (directory misses)
   against the groups there are.
c. Grouping cost, ns per input row, for a plain integer key (100 and
   4,000 values: coded by subtraction, directory resolved in bulk).

``--smoke`` runs (b)'s counters on a 12,000-row fact table and asserts
them — no clock — which is what CI runs.
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
    best_of,
    grouping_ns_per_row,
    inputs,
    load_star,
    time_queries,
)

WIDTHS = (1, 2, 6, 7, 10, 11, 12, 14, 15, 17, 20, 24, 25, 26, 33, 40, 57, 58, 63)
COUNTS = (16_384, 32_768)
GROUPING_KINDS = ("int", "many groups")
COUNTERS = (
    "exec.hash_aggregate.keys_from_vectors",
    "exec.hash_aggregate.keys_coded_locally",
    "exec.hash_aggregate.directory_misses",
)


# --------------------------------------------------------------------- #
# (a) the kernel — also what the worker process runs on the parent
# --------------------------------------------------------------------- #
def kernel_ns_per_value() -> dict[str, dict[str, float]]:
    from repro.storage import bitpack

    rng = np.random.default_rng(27)
    out: dict[str, dict[str, float]] = {}
    for count in COUNTS:
        row = out[str(count)] = {}
        for width in WIDTHS:
            values = rng.integers(0, 2**64, count, dtype=np.uint64) >> np.uint64(64 - width)
            payload = bitpack.pack(values, width)
            assert bitpack.unpack(payload, width, count).tolist() == values.tolist()
            seconds = best_of(lambda: bitpack.unpack(payload, width, count), 200)
            row[str(width)] = seconds * 1e9 / count
    return out


def measure(db) -> dict:
    ms, answers = time_queries(db, PASSES)
    return {
        "kernel": kernel_ns_per_value(),
        "ms": ms,
        "answers": answers,
        "grouping": {kind: grouping_ns_per_row(kind) for kind in GROUPING_KINDS},
    }


def _best_of_both(one: dict, other: dict) -> dict:
    def smaller(a, b):
        return {k: smaller(v, b[k]) if isinstance(v, dict) else min(v, b[k]) for k, v in a.items()}

    return {
        section: values if section == "answers" else smaller(values, other[section])
        for section, values in one.items()
    }


def run_worker(tree: Path, seed: int) -> dict:
    """``measure`` in a fresh process importing ``tree``'s ``repro``. Both
    trees are timed this way: a process on this host keeps the speed it
    started with, so a long-lived parent process against fresh children
    would compare two processes, not two trees."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [sys.executable, str(Path(__file__).resolve()), "--worker", "--seed", str(seed)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# (b) the exact counters
# --------------------------------------------------------------------- #
def query_counters(db) -> dict[str, dict]:
    out = {}
    for query in inputs.STAR_QUERIES:
        stats = db.sql(query.sql, stats=True).stats
        row = {name.rsplit(".", 1)[1]: int(stats.counter(name)) for name in COUNTERS}
        aggregates = stats.find("BatchHashAggregate")
        row["grouped"] = bool(aggregates) and bool(aggregates[0].details.get("keys"))
        row["groups"] = sum(a.details.get("groups", 0) for a in aggregates)
        row["keys"] = aggregates[0].details.get("keys", {}) if aggregates else {}
        out[query.qid] = row
    return out


def check_counters(counters: dict[str, dict]) -> None:
    """The exact claims: Q21's CASE key arrives from the projection as
    codes and the aggregate codes nothing itself; a group key reaches
    ``gid_of`` once per aggregate — groups, not groups x batches."""
    q21 = counters["Q21"]
    assert q21["keys_coded_locally"] == 0, q21
    assert q21["keys_from_vectors"] > 1, q21  # one per row group
    assert set(q21["keys"].values()) == {"codes:project"}, q21
    for qid, row in counters.items():
        if row["grouped"]:
            assert row["directory_misses"] == row["groups"], (qid, row)
        else:
            assert row["directory_misses"] == 0, (qid, row)
    q20 = counters["Q20"]
    assert q20["keys_coded_locally"] > 1 and q20["groups"] > 100, q20  # many batches, many keys


def smoke() -> dict[str, dict]:
    db = load_star(seed=1, **SMOKE)
    counters = query_counters(db)
    check_counters(counters)
    return counters


def test_e27_exact_counters():
    """What CI runs (also reachable as ``--smoke``): no clock."""
    smoke()


# --------------------------------------------------------------------- #
# Report
# --------------------------------------------------------------------- #
def full_report(args: argparse.Namespace) -> str:
    from repro.bench.harness import ReportTable

    db = load_star(seed=args.seed, **FULL)
    counters = query_counters(db)
    check_counters(counters)
    # The host drifts by tens of percent over minutes, so the two trees
    # are timed in alternating rounds and each figure is its best round.
    parent = mine = None
    for _ in range(ROUNDS):
        if args.parent:
            theirs = run_worker(Path(args.parent), args.seed)
            parent = theirs if parent is None else _best_of_both(parent, theirs)
        ours = run_worker(HERE.parent, args.seed)
        mine = ours if mine is None else _best_of_both(mine, ours)
    if parent is not None:
        unordered = {q.qid for q in inputs.STAR_QUERIES if not q.order}
        for qid, rows in mine["answers"].items():
            ours, theirs = rows, parent["answers"][qid]
            if qid in unordered:
                ours, theirs = sorted(ours), sorted(theirs)
            assert ours == theirs, f"{qid}: answer differs from the parent's"

    def before(section: str, *path: str):
        value = parent[section] if parent else None
        for key in path:
            value = value[key] if value is not None else None
        return value

    a = ReportTable(
        f"E27a: bitpack.unpack, ns per value (best of 200 in each of {ROUNDS} alternating rounds)",
        ["width", "parent @16,384", "change @16,384", "parent @32,768", "change @32,768"],
    )
    for width in WIDTHS:
        cells = []
        for count in COUNTS:
            old = before("kernel", str(count), str(width))
            cells += [f"{old:.1f}" if old else "-", f"{mine['kernel'][str(count)][str(width)]:.1f}"]
        a.add_row(width, *cells)
    a.add_note("widths 1-57: the dense phase (strided windows, no gather); 58 and 63: the gather "
               "(a shifted value can reach a ninth byte), unchanged; 8/16/32/64 are a typed view")

    b = ReportTable(
        f"E27b: the 22 star queries, best of {ROUNDS} alternating rounds x {PASSES} passes "
        f"(200,000 facts, 7 row groups, seed {args.seed})",
        ["query", "parent ms", "change ms", "ratio", "keys from vectors", "keys coded here",
         "groups", "directory misses"],
    )
    for qid in sorted(mine["ms"], key=lambda q: -(before("ms", q) or mine["ms"][q])):
        row, old = counters[qid], before("ms", qid)
        b.add_row(qid, f"{old:.1f}" if old else "-", f"{mine['ms'][qid]:.1f}",
                  f"{old / mine['ms'][qid]:.2f}x" if old else "-", row["keys_from_vectors"],
                  row["keys_coded_locally"], row["groups"], row["directory_misses"])
    total = sum(mine["ms"].values())
    old_total = sum(parent["ms"].values()) if parent else None
    b.add_row("pass", f"{old_total:.0f}" if old_total else "-", f"{total:.0f}",
              f"{old_total / total:.2f}x" if old_total else "-",
              *(sum(r[c] for r in counters.values()) for c in
                ("keys_from_vectors", "keys_coded_locally", "groups", "directory_misses")))
    b.add_note("directory misses = keys that reached gid_of: the groups there are, whatever the "
               "number of batches (the parent looked every batch's every key up in Python)")
    if parent is not None:
        b.add_note("all 22 answers equal the parent's, floats bit for bit; row order too "
                   "wherever the query orders its result")

    c = ReportTable(
        "E27c: grouping by a plain integer key, ns per input row (196,608 rows in 32,768-row batches, SUM(float))",
        ["key", "parent ns/row", "change ns/row"],
    )
    for kind, label in (("int", "100 values"), ("many groups", "4,000 values")):
        old = before("grouping", kind)
        c.add_row(label, f"{old:.0f}" if old else "-", f"{mine['grouping'][kind]:.0f}")
    c.add_note("coded by subtraction (span <= 8 cells a row) instead of np.unique; the directory "
               "resolved by one C-level map per batch")

    return "\n\n".join(table.render() for table in (a, b, c))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="tiny tables, exact counters only")
    parser.add_argument("--parent", help="checkout of the parent commit to time beside this tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(measure(load_star(seed=args.seed, **FULL))))
    elif args.smoke:
        for qid, row in smoke().items():
            print(qid, {k: v for k, v in row.items() if v})
        print("E27 smoke: exact counters hold")
    else:
        text = full_report(args)
        (HERE / "reports" / "e27_dense_kernel.txt").write_text(text + "\n")
        print(text)


if __name__ == "__main__":
    main()
