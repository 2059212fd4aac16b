"""Smoke test of the benchmark suite (``python -m pytest benchmarks/suite -q``).

Not part of tier-1 (``testpaths = ["tests"]``). Runs every workload at
``--smoke`` scale, untraced and traced, and checks the output contract:
every workload and metric named in ``BENCHMARK.json`` is printed exactly
once with its unit, nothing failed, exact engine counters repeat for a
seed, and a wrong answer shows up as a failure.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) = (\S+) (\S+)$")
EXACT = ("storage.scan.rows_scanned", "wal.records_appended", "storage.delta.rows_inserted")

sys.path.insert(0, str(SUITE))
import catalog  # noqa: E402


def _run(workload: str, trace: int, *extra: str) -> tuple[dict, list[str]]:
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        capture_output=True, text=True, cwd=str(ROOT), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), lines[:-1]


@pytest.fixture(scope="module")
def runs() -> dict:
    return {(workload, trace): _run(workload, trace)
            for workload in WORKLOADS for trace in (0, 1)}


def test_contract_matches_the_catalogue():
    assert WORKLOADS == list(catalog.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in CONTRACT["end_to_end"]] \
        == catalog.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]] \
        == catalog.PER_LAYER
    names = WORKLOADS + [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_once_with_its_unit(runs, trace, section):
    wanted = {metric["name"]: metric["unit"] for metric in CONTRACT[section]}
    for workload in WORKLOADS:
        result, lines = runs[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {name: entry["unit"] for name, entry in result["metrics"].items()} == wanted
        printed = [m.groups() for m in map(METRIC_LINE.match, lines) if m]
        assert sorted(name for _w, name, _v, _u in printed) == sorted(wanted)
        for printed_workload, name, value, unit in printed:
            assert printed_workload == workload
            assert unit == wanted[name]
            assert float(value) == result["metrics"][name]["value"]


def test_nothing_failed_and_end_to_end_metrics_are_never_zero(runs):
    for (workload, trace), (result, _lines) in runs.items():
        assert result["correct"] is True and result["failed"] == 0, (workload, trace)
        assert result["attempted"] >= 1
        if trace == 0:
            assert all(entry["value"] > 0 for entry in result["metrics"].values()), workload


def test_layers_separate_by_workload(runs):
    star = runs["star_scan", 1][0]["metrics"]
    served = runs["served_short", 1][0]["metrics"]
    for name in ("wal.records_appended", "wal.fsyncs", "db.insert_ms_p50"):
        assert star[name]["value"] == 0 and served[name]["value"] == 0
        assert runs["trickle_write", 1][0]["metrics"][name]["value"] > 0
        assert runs["htap_mix", 1][0]["metrics"][name]["value"] > 0
    assert star["storage.delta_share_at_read"]["value"] == 0
    assert runs["htap_mix", 1][0]["metrics"]["storage.delta_share_at_read"]["value"] > 0
    assert served["server.roundtrip_overhead_ms_p50"]["value"] > 0
    assert star["server.roundtrip_overhead_ms_p50"]["value"] == 0


def test_exact_counters_repeat_for_a_seed(runs):
    for workload in WORKLOADS:
        again, _lines = _run(workload, 1)
        for name in EXACT:
            assert again["metrics"][name]["value"] == runs[workload, 1][0]["metrics"][name]["value"]


def test_an_injected_wrong_answer_is_a_failure():
    result, lines = _run("star_scan", 0, "--inject-wrong-answer")
    assert result["correct"] is False and result["failed"] >= 1
    share = next(line for line in lines if line.startswith("attempted="))
    assert float(share.rsplit("failed_share=", 1)[1]) > 0


def test_trace_files_hold_spans_with_parents(runs):
    for workload in WORKLOADS:
        spans = [json.loads(line)
                 for line in (SUITE / "out" / f"trace_{workload}.jsonl").read_text().splitlines()]
        assert spans and all(
            {"id", "parent", "statement", "name", "layer", "start_s", "end_s", "self_ms"}
            <= set(span) for span in spans)
        assert any(span["parent"] >= 0 for span in spans)
