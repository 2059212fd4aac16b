"""E29 — A short statement pays for its literals, not its text.

What PR 21 changed on the short-statement path (DESIGN.md "Statement
shapes", "Compressed execution"):

a. Stages per statement kind on the suite's ``kv`` table (100,000 rows,
   16,384-row groups, in-process ``Session``), median microseconds:
   lex / parse / bind / optimize / compile / pin / run called one by one
   (the way ``benchmarks/suite/stages.py`` calls them), and the whole
   statement through ``Session.sql`` — where the change binds a repeated
   shape once. Parent beside change (``--parent DIR``), each tree timed
   in a fresh subprocess, in alternating rounds (E27: a process keeps the
   speed it started with).
b. ``ColumnSegment.take`` of 1 / 2 / 4 / 8 / 16 / 64 positions per
   stream kind of a 16,384-row segment: the lane (Python integers, one
   array at the end) against the gather (the array path), microseconds.
   This table sets ``segment._FEW``.
c. The counts: on the served list misses are 3 (one per shape) and every
   other statement hits; on the trickle list misses are 3; on one pass of
   the 22 star queries the 14 joins are not kept.

``--smoke`` runs (c) on small tables and asserts it — no clock — which
is what CI runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bench_e26_star_join import SMOKE, inputs, load_star  # noqa: E402

KV_ROWS = 100_000
ROWGROUP = 16_384
SMOKE_KV_ROWS = 8_000
ROUNDS = 3
REPEATS = 4  # passes over the served list per round, keys shifted each pass
STAGES = ("lex", "parse", "bind", "optimize", "compile", "pin", "run", "statement")
TAKE_COUNTS = (1, 2, 4, 8, 16, 64)


# --------------------------------------------------------------------- #
# (a) stages — what the worker process runs on either tree
# --------------------------------------------------------------------- #
def kv_session(rows: int, seed: int):
    from repro import Database, StoreConfig
    from repro.concurrency import ConcurrentDatabase

    db = Database(StoreConfig(rowgroup_size=ROWGROUP, bulk_load_threshold=1))
    db.sql(inputs.create_table_sql("kv", inputs.KV_TABLE))
    db.bulk_load("kv", inputs.kv_rows(rows, seed))
    cdb = ConcurrentDatabase(db)
    return cdb, cdb.session("e29")


def _us(fn) -> tuple[float, object]:
    start = time.perf_counter()
    out = fn()
    return (time.perf_counter() - start) * 1e6, out


def staged_select(db, sql: str) -> dict[str, float]:
    """One SELECT, each stage through its public entry point."""
    from repro.planner.schema_infer import infer_output_dtypes
    from repro.sql.lexer import tokenize
    from repro.sql.parser import parse_statement
    from repro.sql.runner import make_binder, pin_plan

    out = {}
    out["lex"], _ = _us(lambda: tokenize(sql))
    parsed, statement = _us(lambda: parse_statement(sql))
    out["parse"] = parsed - out["lex"]
    out["bind"], plan = _us(lambda: make_binder(db).bind_select(statement))
    dtypes_by_name = infer_output_dtypes(plan, db.catalog)
    out["optimize"], plan = _us(lambda: db.optimizer.optimize(plan))
    out["compile"], physical = _us(lambda: db.optimizer.compile(plan, optimize=False))
    dtypes = [dtypes_by_name[name] for name in physical.columns]
    lease = db.mvcc.readers.pin(tag="e29")
    out["pin"], _ = _us(lambda: pin_plan(physical, lease.epoch))
    out["run"], _ = _us(lambda: list(physical.rows(dtypes)))
    lease.release()
    return out


def worker(seed: int) -> dict[str, dict[str, float]]:
    from repro.sql.lexer import tokenize
    from repro.sql.parser import parse_statement

    cdb, session = kv_session(KV_ROWS, seed)
    samples: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for op in inputs.served_ops(KV_ROWS, seed, 100, 50):  # warm-up
        session.sql(op.sql)
    for shift in range(1, REPEATS + 1):
        for op in inputs.served_ops(KV_ROWS, seed, 0, 300, shift=shift):
            for stage, us in staged_select(cdb.db, op.sql).items():
                samples[op.kind][stage].append(us)
            samples[op.kind]["statement"].append(_us(lambda: session.sql(op.sql))[0])
    for op in inputs.trickle_ops(KV_ROWS, seed, 24):
        if op.kind in ("begin", "commit"):
            continue
        lexed, _ = _us(lambda: tokenize(op.sql))
        samples[op.kind]["lex"].append(lexed)
        samples[op.kind]["parse"].append(_us(lambda: parse_statement(op.sql))[0] - lexed)
        samples[op.kind]["statement"].append(_us(lambda: session.sql(op.sql))[0])
    session.close()
    cdb.close()
    return {
        kind: {stage: statistics.median(values) for stage, values in stages.items()}
        for kind, stages in samples.items()
    }


def run_worker(tree: Path, seed: int) -> dict[str, dict[str, float]]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [sys.executable, str(Path(__file__).resolve()), "--worker", "--seed", str(seed)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# (b) the few-row take
# --------------------------------------------------------------------- #
@contextmanager
def array_path():
    from repro.storage import segment as segment_module

    few, segment_module._FEW = segment_module._FEW, -1
    try:
        yield
    finally:
        segment_module._FEW = few


def take_segments() -> dict[str, object]:
    from repro import types
    from repro.storage.segment import encode_segment

    rng = np.random.default_rng(29)
    tags = np.array([f"tag{t:02d}" for t in rng.integers(0, 97, ROWGROUP)], dtype=object)
    segments = {
        "bit-packed values (v: 10 bits)": encode_segment(
            types.INT, rng.integers(0, 1000, ROWGROUP).astype(np.int32)),
        "bit-packed floats (price: 16 bits, 10**2)": encode_segment(
            types.FLOAT, np.round(rng.uniform(1, 500, ROWGROUP), 2)),
        "run-length values (grp: 50 runs)": encode_segment(
            types.INT, np.sort(rng.integers(0, 50, ROWGROUP)).astype(np.int32)),
        "dictionary codes (tag: 97 strings)": encode_segment(types.VARCHAR, tags),
        "raw floats": encode_segment(types.FLOAT, rng.standard_normal(ROWGROUP)),
    }
    return segments


def take_us(repeats: int = 2000) -> dict[str, dict[int, tuple[float, float]]]:
    """Stream kind -> positions -> (lane us, gather us), best of 5."""
    rng = np.random.default_rng(7)
    out: dict[str, dict[int, tuple[float, float]]] = {}
    for label, segment in take_segments().items():
        out[label] = {}
        for count in TAKE_COUNTS:
            positions = np.sort(rng.integers(0, ROWGROUP, count))
            few = segment._take_few(positions.tolist())
            with array_path():
                gathered = segment.take(positions)
            assert few[0].tolist() == gathered[0].tolist()
            lane = _best(lambda: segment._take_few(positions.tolist()), repeats)
            with array_path():
                gather = _best(lambda: segment.take(positions), repeats)
            out[label][count] = (lane, gather)
    return out


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, (time.perf_counter() - start) / repeats)
    return best * 1e6


# --------------------------------------------------------------------- #
# (c) the counts
# --------------------------------------------------------------------- #
def shape_counts(run) -> dict[str, float]:
    """The ``sql.shapes.*`` counters ``run()`` moved, on a fresh registry."""
    from repro.observability import MetricsRegistry
    from repro.observability.registry import set_registry

    previous = set_registry(MetricsRegistry())
    try:
        run()
        from repro.observability.registry import get_registry

        snapshot = get_registry().snapshot()
    finally:
        set_registry(previous)
    return {k[len("sql.shapes."):]: v for k, v in snapshot.items() if k.startswith("sql.shapes.")}


def counts(kv_rows: int, star: dict) -> dict[str, dict[str, float]]:
    cdb, session = kv_session(kv_rows, 1)
    served = inputs.served_ops(kv_rows, 1, 0, 300)
    trickle = inputs.trickle_ops(kv_rows, 1, 8)
    db = load_star(seed=1, **star)
    out = {
        "served": shape_counts(lambda: [session.sql(op.sql) for op in served]),
        "trickle": shape_counts(lambda: [session.sql(op.sql) for op in trickle]),
        "star": shape_counts(lambda: [db.sql(q.sql) for q in inputs.STAR_QUERIES]),
    }
    session.close()
    cdb.close()
    out["served"]["statements"] = len(served)
    out["trickle"]["control"] = sum(op.kind in ("begin", "commit") for op in trickle)
    out["trickle"]["statements"] = len(trickle)
    return out


def check_counts(found: dict[str, dict[str, float]]) -> None:
    served, trickle, star = found["served"], found["trickle"], found["star"]
    assert served["misses"] == 3, served
    assert served["hits"] == served["statements"] - 3, served
    assert trickle["misses"] == 3, trickle
    assert trickle["hits"] == trickle["statements"] - trickle["control"] - 3, trickle
    assert trickle["not_kept.statement"] == trickle["control"], trickle
    assert star["not_kept.join"] == 14 and star["misses"] == 8, star
    assert "evicted" not in served and "evicted" not in star


def smoke() -> dict[str, dict[str, float]]:
    found = counts(SMOKE_KV_ROWS, SMOKE)
    check_counts(found)
    return found


def test_e29_exact_counts():
    """What CI runs (also reachable as ``--smoke``): no clock."""
    smoke()


# --------------------------------------------------------------------- #
# Report
# --------------------------------------------------------------------- #
def full_report(args: argparse.Namespace) -> str:
    from repro.bench.harness import ReportTable

    found = counts(KV_ROWS, dict(fact_rows=200_000, rowgroup=32_768))
    check_counts(found)
    rounds: dict[str, list[dict]] = {"parent": [], "change": []}
    for _ in range(ROUNDS):  # alternating: the host drifts
        if args.parent:
            rounds["parent"].append(run_worker(Path(args.parent), args.seed))
        rounds["change"].append(run_worker(HERE.parent, args.seed))

    def best(side: list[dict]) -> dict[str, dict[str, float]]:
        return {kind: {stage: min(r[kind][stage] for r in side) for stage in side[0][kind]}
                for kind in side[0]} if side else {}

    mine, old = best(rounds["change"]), best(rounds["parent"])
    a = ReportTable(
        f"E29a: stages per statement kind, median us, best of {ROUNDS} alternating rounds "
        f"({KV_ROWS:,} rows, {ROWGROUP:,}-row groups, seed {args.seed})",
        ["kind", "tree", *STAGES],
    )
    for kind in mine:
        for tree, figures in (("parent", old.get(kind)), ("change", mine[kind])):
            if figures:
                a.add_row(kind, tree,
                          *(f"{figures[s]:.0f}" if s in figures else "-" for s in STAGES))
    a.add_note("stages are called one by one, as benchmarks/suite/stages.py does, so they "
               "cannot show the shape cache; 'statement' is Session.sql, where the change "
               "runs a repeated shape from its template (no parse, bind or optimize)")
    a.add_note("DML rows: lex and parse alone; bind and apply are Database.insert / "
               "update_where / delete_where inside 'statement'")

    b = ReportTable(
        f"E29b: ColumnSegment.take of a {ROWGROUP:,}-row segment, us per take (best of 5 x 2,000): "
        "lane (Python integers) / gather (array path)",
        ["stream", *(f"{count} pos." for count in TAKE_COUNTS)],
    )
    for label, by_count in take_us().items():
        b.add_row(label, *(f"{lane:.1f} / {gather:.1f}" for lane, gather in by_count.values()))
    b.add_note("a raw stream's lane indexes its typed view with the list of positions")

    c = ReportTable("E29c: sql.shapes.* counters", ["list", "statements", "hits", "misses",
                                                   "not kept (join)", "not kept (statement)"])
    for name, row in found.items():
        c.add_row(name, row.get("statements", 22), row.get("hits", 0), row.get("misses", 0),
                  row.get("not_kept.join", 0), row.get("not_kept.statement", 0))
    return "\n\n".join(table.render() for table in (a, b, c))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="small tables, exact counts only")
    parser.add_argument("--parent", help="checkout of the parent commit to time beside this tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(args.seed)))
    elif args.smoke:
        for name, row in smoke().items():
            print(name, row)
        print("E29 smoke: exact counts hold")
    else:
        text = full_report(args)
        (HERE / "reports" / "e29_short_statement.txt").write_text(text + "\n")
        print(text)


if __name__ == "__main__":
    main()
