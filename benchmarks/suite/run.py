#!/usr/bin/env python3
"""The benchmark suite's one command.

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload once and prints, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Without ``--workload`` it runs every workload untraced
(``--repeat N`` times, each with its own seed) and then traced, each run
in its own process, and writes the collected results to a JSON file that
``--compare A.json B.json`` can set against another. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
    print(f"benchmark error: no engine source at {REPO_ROOT / 'src' / 'repro'}; "
          "run from a checkout of the repository", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(SUITE_DIR))

import catalog  # noqa: E402
import common  # noqa: E402
import stats  # noqa: E402


def _contract() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _run_workload(name: str, seed: int, seconds: float, trace: bool, scale: common.Scale):
    if name == "star_scan":
        import star_scan
        return star_scan.run(seed, seconds, trace, scale)
    if name == "served_short":
        import served_short
        return served_short.run(seed, seconds, trace, scale)
    import write_workloads
    spec = write_workloads.TRICKLE if name == "trickle_write" else write_workloads.HTAP
    return write_workloads.run(spec, seed, seconds, trace, scale)


def run_one(args: argparse.Namespace) -> int:
    """The driver's contract: one workload, one run, one JSON line."""
    scale = common.SMOKE if args.smoke else common.FULL
    common.OUT_DIR.mkdir(exist_ok=True)
    header = common.environment(scale, args.seed, args.seconds)
    common.log(f"== {args.workload} trace={args.trace} "
               + " ".join(f"{key}={value!r}" for key, value in header.items()))
    common.log(f"why: {catalog.WORKLOADS[args.workload]}")
    if args.inject_wrong_answer:
        import oracle
        oracle.corrupt_expectations()
    window, metrics = _run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), scale)
    failed_share = window.failed / window.attempted
    common.log(f"attempted={window.attempted} failed={window.failed} "
               f"failed_share={failed_share:.6f}")
    for name, (value, unit) in metrics.items():
        common.log(f"metric {args.workload} {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": window.failed == 0,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


# --------------------------------------------------------------------- #
# The whole suite, and comparing two of its result files
# --------------------------------------------------------------------- #
def _child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One run in its own process (its own peak RSS, registry and caches)."""
    command = [sys.executable, str(SUITE_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, cwd=str(REPO_ROOT))
    wall = time.perf_counter() - started
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        common.die(f"{workload} (seed {seed}, trace {trace}) exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(f"  | {line}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    print(f"  {workload} seed={seed} trace={trace}: {wall:.1f} s wall, "
          f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return result


def run_suite(args: argparse.Namespace) -> int:
    contract = _contract()
    seconds = args.seconds if args.seconds is not None else (
        2 if args.smoke else contract["run_seconds"])
    results: dict = {"environment": common.environment(
        common.SMOKE if args.smoke else common.FULL, args.seed, seconds), "workloads": {}}
    for workload in catalog.WORKLOADS:
        print(f"== {workload}", flush=True)
        runs = [_child(workload, args.seed + repeat, seconds, 0, args.smoke)
                for repeat in range(args.repeat)]
        traced = _child(workload, args.seed, seconds, 1, args.smoke)
        results["workloads"][workload] = {"untraced": runs, "traced": traced}
    out = Path(args.out) if args.out else common.OUT_DIR / "suite.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    _print_suite(results, contract)
    print(f"results written to {out}")
    failed = sum(run["failed"] for entry in results["workloads"].values()
                 for run in entry["untraced"] + [entry["traced"]])
    return 1 if failed else 0


def _values(entry: dict, metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in entry["untraced"]]


def _print_suite(results: dict, contract: dict) -> None:
    print("\nend-to-end (untraced runs; median, spread = IQR/median over the repeats)")
    for metric in contract["end_to_end"]:
        for workload, entry in results["workloads"].items():
            values = _values(entry, metric["name"])
            print(f"  {metric['name']:<28} {workload:<14} {stats.median(values):>14.4f} "
                  f"{metric['unit']:<6} n={len(values)} spread={stats.spread(values):.2%} "
                  f"bound={metric['bound']:.0%}")
    print("\nper-layer (one traced run)")
    for metric in contract["per_layer"]:
        row = "  ".join(
            f"{entry['traced']['metrics'][metric['name']]['value']:>12.5g}"
            for entry in results["workloads"].values())
        print(f"  {metric['name']:<40} {row}  {metric['unit']}")
    print("  " + " " * 40 + "  ".join(f"{name:>12}" for name in results["workloads"]))


def compare(first_path: str, second_path: str) -> int:
    """Per end-to-end metric and workload: both medians, their relative
    difference, the bound, and a verdict. A pair is *unresolved* when
    either side's spread across its repeats exceeds the bound — the
    difference could then be noise — and *regressed* when the second
    median is worse than the first by more than the bound."""
    contract = _contract()
    first_file = json.loads(Path(first_path).read_text())
    second_file = json.loads(Path(second_path).read_text())
    first, second = first_file["workloads"], second_file["workloads"]
    regressed = unresolved = 0
    print(f"{'metric':<28} {'workload':<14} {'first':>12} {'second':>12} "
          f"{'worse by':>9} {'bound':>6} {'spread':>15}  verdict")
    for metric in contract["end_to_end"]:
        for workload in first:
            a = _values(first[workload], metric["name"])
            b = _values(second[workload], metric["name"])
            worse = stats.worsening(stats.median(a), stats.median(b), metric["better"])
            spreads = (stats.spread(a), stats.spread(b))
            if max(spreads) > metric["bound"]:
                verdict = "unresolved"
                unresolved += 1
            elif worse > metric["bound"]:
                verdict = "REGRESSED"
                regressed += 1
            else:
                verdict = "ok"
            print(f"{metric['name']:<28} {workload:<14} {stats.median(a):>12.4f} "
                  f"{stats.median(b):>12.4f} {worse:>+9.2%} {metric['bound']:>6.0%} "
                  f"{spreads[0]:>7.2%}/{spreads[1]:<7.2%}  {verdict}")
    exact = ("storage.scan.rows_scanned", "wal.records_appended", "storage.delta.rows_inserted")
    same_seed = first_file["environment"]["seed"] == second_file["environment"]["seed"]
    if not same_seed:
        print("exact counters not compared: the two files were traced under different seeds")
    for workload in first if same_seed else ():
        for name in exact:
            a = first[workload]["traced"]["metrics"][name]["value"]
            b = second[workload]["traced"]["metrics"][name]["value"]
            if a != b:
                regressed += 1
                print(f"exact counter {name} on {workload} differs: {a} != {b}")
    print(f"{regressed} regressed, {unresolved} unresolved")
    return 1 if regressed or unresolved else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny tables and lists (seconds, not minutes); not for numbers of record")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite mode: untraced runs per workload, seeds seed..seed+N-1")
    parser.add_argument("--out", help="suite mode: where to write the results JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--inject-wrong-answer", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    present = [name for name in common.FORBIDDEN_ENV if name in os.environ]
    if present:
        common.die(f"refusing to run with {', '.join(present)} set: the numbers "
                   "would not be comparable with the numbers of record")
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        return run_suite(args)
    if args.seconds is None:
        args.seconds = float(_contract()["run_seconds"])
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
