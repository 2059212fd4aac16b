"""MetricsRegistry semantics: counters, gauges, snapshots."""

from __future__ import annotations

from pathlib import Path

from repro.observability import (
    STABLE_COUNTERS,
    MetricsRegistry,
    MorphReason,
    get_registry,
    increment,
    set_registry,
    snapshot_delta,
)


class TestCounters:
    def test_counter_starts_at_zero(self):
        assert MetricsRegistry().counter("anything") == 0

    def test_increment_accumulates(self):
        registry = MetricsRegistry()
        registry.increment("scan.rows")
        registry.increment("scan.rows", 41)
        assert registry.counter("scan.rows") == 42

    def test_counters_are_isolated_between_instances(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.increment("shared.name", 5)
        assert a.counter("shared.name") == 5
        assert b.counter("shared.name") == 0

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.increment("c", 3)
        registry.set_gauge("g", 7)
        registry.reset()
        assert registry.counter("c") == 0
        assert registry.gauge("g") is None
        assert registry.snapshot() == {}


class TestGauges:
    def test_set_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.set_gauge("cache.bytes", 100)
        registry.set_gauge("cache.bytes", 50)
        assert registry.gauge("cache.bytes") == 50

    def test_max_gauge_keeps_high_water_mark(self):
        registry = MetricsRegistry()
        registry.max_gauge("peak", 10)
        registry.max_gauge("peak", 30)
        registry.max_gauge("peak", 20)
        assert registry.gauge("peak") == 30


class TestSnapshots:
    def test_snapshot_is_a_point_in_time_copy(self):
        registry = MetricsRegistry()
        registry.increment("c", 1)
        before = registry.snapshot()
        registry.increment("c", 1)
        assert before["c"] == 1
        assert registry.snapshot()["c"] == 2

    def test_snapshot_delta_reports_only_growth(self):
        registry = MetricsRegistry()
        registry.increment("stale", 5)
        registry.increment("hot", 1)
        before = registry.snapshot()
        registry.increment("hot", 3)
        registry.increment("fresh", 2)
        delta = snapshot_delta(before, registry.snapshot())
        assert delta == {"hot": 3, "fresh": 2}

    def test_snapshot_delta_empty_when_nothing_moved(self):
        registry = MetricsRegistry()
        registry.increment("c", 9)
        snap = registry.snapshot()
        assert snapshot_delta(snap, registry.snapshot()) == {}


class TestGlobalRegistry:
    def test_set_registry_swaps_and_returns_previous(self):
        mine = MetricsRegistry()
        previous = set_registry(mine)
        try:
            assert get_registry() is mine
            increment("swapped.counter", 2)
            assert mine.counter("swapped.counter") == 2
            assert previous.counter("swapped.counter") == 0
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestStableCounterNames:
    def test_names_are_unique_dotted_paths(self):
        assert len(set(STABLE_COUNTERS)) == len(STABLE_COUNTERS)
        for name in STABLE_COUNTERS:
            assert "." in name
            assert name == name.lower()
            assert " " not in name

    def test_morph_reasons_are_registered_and_documented(self):
        """The enum's docstring is the fallback matrix: every reason has a
        stable counter and an entry, and DESIGN.md's table is those entries."""
        design = (Path(__file__).parents[2] / "DESIGN.md").read_text()
        entries = MorphReason.__doc__.split("\n    ``")[1:]
        assert [entry.split("``")[0] for entry in entries] == [r.value for r in MorphReason]
        for reason, entry in zip(MorphReason, entries):
            assert reason.counter in STABLE_COUNTERS
            text = " ".join(entry.split("``\n")[1].split())
            assert f"| `{reason.value}` | {text} |" in design
