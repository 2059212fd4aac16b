"""Shared plumbing: scales, scratch directories, clocks and process probes."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

import stats

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
OUT_DIR = SUITE_DIR / "out"

# Environment switches that change what the engine does; a run under any
# of them is not comparable with the numbers of record.
FORBIDDEN_ENV = ("REPRO_ENCODED_EVAL", "REPRO_ENCODED_AGG", "REPRO_BENCH_SCALE")

# A run stops starting new passes once its passes have taken this many
# times ``--seconds``: the driver's per-run cap must hold on a slower machine.
DEADLINE_FACTOR = 2.0


@dataclass(frozen=True)
class Scale:
    """Input sizes, list lengths and passes per second of ``--seconds``.

    A run executes a *fixed* list (engine counters repeat exactly for a
    seed), not a timed loop; ``--seconds`` sets how many passes over it
    are made. The rates were calibrated on the seed commit so that the
    passes take about ``--seconds`` together. Table sizes depend on
    neither.
    """

    star_fact_rows: int
    star_rowgroup: int
    kv_rows: int
    served_rowgroup: int
    write_rowgroup: int
    delta_close: int
    checkpoint_every: int
    served_statements: int  # per pass
    trickle_units: int  # per pass
    htap_rounds: int  # per pass
    star_passes_per_s: float
    served_passes_per_s: float
    trickle_passes_per_s: float
    htap_passes_per_s: float
    durability_statements: int
    row_mode_rows: int


FULL = Scale(
    star_fact_rows=200_000, star_rowgroup=32_768,
    kv_rows=100_000, served_rowgroup=16_384, write_rowgroup=16_384,
    delta_close=256, checkpoint_every=250,
    served_statements=300, trickle_units=24, htap_rounds=6,
    star_passes_per_s=0.43, served_passes_per_s=0.43,
    trickle_passes_per_s=0.43, htap_passes_per_s=0.43,
    durability_statements=800, row_mode_rows=40_000,
)

SMOKE = Scale(
    star_fact_rows=12_000, star_rowgroup=4096,
    kv_rows=8000, served_rowgroup=2048, write_rowgroup=2048,
    delta_close=64, checkpoint_every=60,
    served_statements=40, trickle_units=8, htap_rounds=3,
    star_passes_per_s=2.0, served_passes_per_s=2.0,
    trickle_passes_per_s=2.0, htap_passes_per_s=2.0,
    durability_statements=100, row_mode_rows=4000,
)


def pass_count(seconds: float, per_second: float) -> int:
    return max(2, round(seconds * per_second))


def environment(scale: Scale, seed: int, seconds: float) -> dict[str, Any]:
    """What the numbers were measured on; printed at the top of every run."""
    import numpy
    from repro import StoreConfig
    from repro.wal import DEFAULT_GROUP_COMMIT_SIZE

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "scale": "smoke" if scale is SMOKE else "full",
        "load": "closed loop; 1 generator process; 1 client",
        "durability": f"group (WAL fsync every {DEFAULT_GROUP_COMMIT_SIZE} commits; "
                      "checkpoint = Database.save)",
        "segment_cache_bytes": StoreConfig().segment_cache_bytes,
    }


def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (REPO_ROOT / ".git" / text[5:]).read_text().strip()[:12]
        return text[:12]
    except OSError:
        return "unknown"


@contextmanager
def scratch(label: str) -> Iterator[Path]:
    """A fresh directory under ``out/`` that is removed afterwards."""
    path = OUT_DIR / f"tmp-{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def dir_bytes(path: Path) -> int:
    return sum(
        (Path(root) / name).stat().st_size
        for root, _dirs, names in os.walk(path)
        for name in names
    )


def peak_rss_mb(pid: int | None = None) -> float:
    """High-water resident set of this process, or of the running child
    ``pid``. The child's figure is read from ``/proc``: ``RUSAGE_CHILDREN``
    would also count the pages it shared with this process before ``exec``.
    """
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


@contextmanager
def fresh_registry():
    """Install an empty ``MetricsRegistry`` for the block and yield it."""
    from repro.observability import MetricsRegistry, set_registry

    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


@contextmanager
def counting(registry, totals: dict[str, float]):
    """Add the registry's growth over the block to ``totals``. The traced
    run interleaves several replays; only the untraced one is counted."""
    from repro.observability import snapshot_delta

    before = registry.snapshot()
    try:
        yield
    finally:
        for name, grown in snapshot_delta(before, registry.snapshot()).items():
            totals[name] = totals.get(name, 0) + grown


def rotated(items: list, by: int) -> list:
    """``items`` starting at position ``by`` — the traced run rotates which
    replay of a block goes first, so that no path always runs on a warmer
    or a slower machine than the others."""
    by %= len(items)
    return items[by:] + items[:by]


# --------------------------------------------------------------------- #
# Calibration: timings in milliseconds of a machine of fixed speed
# --------------------------------------------------------------------- #
# The host this suite runs on changes speed under it: neighbours slow
# pure-Python code by up to 1.6x and numpy by 1.3x, wall clock and CPU
# time alike, in spells from milliseconds to many minutes, so the same
# code measured ten minutes apart differs by 10-25 % and no statistic
# taken within one run removes that. What does: timing a fixed *kernel*
# that never touches the engine next to the statements (about one sample
# per 8 ms of work, 1 ms each, two fifths pure Python, the rest numpy) and
# expressing every duration in units of it. A duration is reported as
#
#     measured duration x KERNEL_REF_MS / (mean kernel sample taken around it)
#
# i.e. in milliseconds of a machine on which the kernel takes KERNEL_REF_MS
# — this host when nothing disturbs it. The log prints the measured values
# and the kernel's own time next to the calibrated ones.
KERNEL_REF_MS = 0.8
_SAMPLE_EVERY_S = 0.008
_MAX_OWED = 24


class _Node:
    __slots__ = ("value", "next")


def _make_kernel() -> Callable[[], float]:
    import numpy as np

    nodes = [_Node() for _ in range(509)]
    for index, node in enumerate(nodes):
        node.value = index
        node.next = nodes[(index * 7 + 3) % 509]
    table = {index: index * 13 % 509 for index in range(509)}
    values = np.random.default_rng(1).integers(0, 1000, 40_000)
    order = np.random.default_rng(2).permutation(40_000)

    def step(total: int, index: int) -> int:
        return (total * 31 + index) % 1009

    def kernel() -> float:
        """Run the fixed work once; returns the milliseconds it took. Pure
        Python first (calls, attribute and dict lookups, integer and string
        work; nothing the cyclic collector tracks is allocated), then numpy
        (gather, histogram, arithmetic, sort) over 40,000 integers."""
        start = time.perf_counter()
        total = 0
        node = nodes[0]
        for index in range(1600):
            total = step(total, index)
            node = node.next
            total += table[node.value]
        text = "%d:%d" % (total, node.value)
        total += len(text)
        gathered = values[order]
        np.bincount(gathered, minlength=1000)
        (gathered * 3 % 11).sum()
        np.sort(gathered[:16_000])
        return (time.perf_counter() - start) * 1000.0

    return kernel


class Calibrator:
    """Samples the kernel between statements: :meth:`tick` takes one sample
    per ``_SAMPLE_EVERY_S`` elapsed since the last, so samples are spread
    over a replay in proportion to time."""

    _kernel: Callable[[], float] | None = None

    def __init__(self) -> None:
        if Calibrator._kernel is None:
            Calibrator._kernel = _make_kernel()
        self.samples: list[float] = []  # ms
        self._last = time.perf_counter()

    def take(self, count: int) -> None:
        for _ in range(count):
            self.samples.append(Calibrator._kernel())
        self._last = time.perf_counter()

    def tick(self) -> None:
        owed = int((time.perf_counter() - self._last) / _SAMPLE_EVERY_S)
        if owed:
            self.take(min(owed, _MAX_OWED))

    def factor(self) -> float:
        """What a duration measured alongside the samples is multiplied by."""
        return KERNEL_REF_MS / (sum(self.samples) / len(self.samples))


def kernel_ms(samples: int = 64) -> float:
    """Mean of ``samples`` kernel samples taken now: the machine's speed,
    printed by the traced run (whose timings are not calibrated)."""
    calibrator = Calibrator()
    calibrator.take(samples)
    return KERNEL_REF_MS / calibrator.factor()


def calibrated(fn: Callable[[], Any], samples: int = 8) -> tuple[float, float, Any]:
    """``(calibrated seconds, measured seconds, result)`` of one call, the
    kernel sampled ``samples`` times before it and after it."""
    calibrator = Calibrator()
    calibrator.take(samples)
    seconds, result = timed(fn)
    calibrator.take(samples)
    return seconds * calibrator.factor(), seconds, result


def _grouped(kinds: list[str], values: list[float]) -> dict[str, list[float]]:
    grouped: dict[str, list[float]] = defaultdict(list)
    for kind, value in zip(kinds, values):
        grouped[kind].append(value)
    return grouped


@dataclass
class Window:
    """Per-statement latencies of one replay of a list, in execution order,
    as measured. With a ``calibrator`` the kernel is sampled between
    statements (never inside a statement's own timing)."""

    kinds: list[str] = field(default_factory=list)
    sequence: list[float] = field(default_factory=list)  # ms
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    calibrator: Calibrator | None = None

    def record(self, kind: str, ms: float) -> None:
        self.kinds.append(kind)
        self.sequence.append(ms)
        self.attempted += 1
        if self.calibrator is not None:
            self.calibrator.tick()

    @property
    def by_kind(self) -> dict[str, list[float]]:
        return _grouped(self.kinds, self.sequence)

    def ms_of(self, kinds: tuple[str, ...]) -> list[float]:
        return [ms for kind, ms in zip(self.kinds, self.sequence) if kind in kinds]

    def statements(self) -> int:
        return len(self.sequence)


class Pass(NamedTuple):
    """One execution of the list on the state every pass starts from."""

    statements: list[float]  # measured ms per list position
    upkeep: list[float]  # measured ms per maintenance call of the client
    factor: float  # Calibrator.factor() over the pass


def _median_per_position(passes: list[Pass], which: int) -> list[float]:
    return [stats.median(column)
            for column in zip(*([ms * p.factor for ms in p[which]] for p in passes))]


def end_to_end(kinds: list[str], passes: list[Pass], setup_s: float, rss_mb: float,
               stored_ratio: float, recovery_s: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics every workload reports, name -> (value, unit).

    The list (statement ``i`` is of kind ``kinds[i]``) was executed once per
    pass on identical state. Every pass is calibrated by its own factor;
    a position's latency is the median of its calibrated latencies over the
    passes. Throughput is the list's statements over the sum of those
    (the client's maintenance calls included), the percentiles run over the
    list's statements. ``setup_s`` and ``recovery_s`` arrive calibrated.
    """
    latency = _median_per_position(passes, 0)
    busy_ms = sum(latency) + sum(_median_per_position(passes, 1))
    by_kind = _grouped(kinds, latency)
    log(f"{len(passes)} passes x {len(latency)} statements; measured s per pass "
        + " ".join(f"{(sum(p.statements) + sum(p.upkeep)) / 1000.0:.2f}" for p in passes)
        + "; kernel ms per pass "
        + " ".join(f"{KERNEL_REF_MS / p.factor:.3f}" for p in passes)
        + f" (reference {KERNEL_REF_MS}); calibrated s per pass "
        + " ".join(f"{(sum(p.statements) + sum(p.upkeep)) * p.factor / 1000.0:.2f}"
                   for p in passes)
        + f"; median per position sums to {busy_ms / 1000.0:.2f} s")
    log("calibrated median ms by kind: "
        + " ".join(f"{kind}={stats.median(ms):.3f} (n={len(ms)})"
                   for kind, ms in sorted(by_kind.items())))
    return {
        "setup_s": (setup_s, "s"),
        "stmt_per_s": (len(latency) / (busy_ms / 1000.0), "1/s"),
        "stmt_ms_p50": (stats.median(latency), "ms"),
        "stmt_ms_p95": (stats.percentile(latency, 95.0), "ms"),
        "kind_geomean_ms": (stats.geomean(stats.median(ms) for ms in by_kind.values()), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "stored_bytes_per_user_byte": (stored_ratio, "ratio"),
        "recovery_s": (recovery_s, "s"),
    }


def latency_rows(values: dict[str, float], side: str, samples: list[float]) -> None:
    """Fill ``bench.<side>_ms_p50/_p95/_ptail``; the tail is the highest
    percentile with at least ten samples beyond it."""
    if not samples:
        return
    values[f"bench.{side}_ms_p50"] = stats.median(samples)
    values[f"bench.{side}_ms_p95"] = stats.percentile(samples, 95.0)
    quantile, value = stats.tail_percentile(samples)
    values[f"bench.{side}_ms_ptail"] = value
    log(f"bench.{side}_ms_ptail is p{quantile:g} of {len(samples)} samples")


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def open_seconds(source: Path, work: Path, probe_sql: str) -> tuple[float, float, list]:
    """One ``recovery_s`` sample: calibrated and measured seconds for
    ``Database.open`` on a copy of ``source`` to answer its first query,
    and that answer's rows. The open gets a copy because recovery may
    truncate a torn tail or collect stale files; the copy is made and
    removed off the clock."""
    from repro import Database

    target = work / "recover"
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(source, target)

    def reopen():
        db = Database.open(str(target))
        return db, db.sql(probe_sql).rows

    calibrated_s, measured_s, (db, rows) = calibrated(reopen)
    db.close()
    shutil.rmtree(target)
    return calibrated_s, measured_s, rows


def seconds_line(label: str, samples: list[tuple[float, float]]) -> str:
    """``label`` with every ``(calibrated, measured)`` sample, for the log."""
    return f"{label} s calibrated(measured) " + " ".join(
        f"{calibrated_s:.3f}({measured_s:.3f})" for calibrated_s, measured_s in samples)


def median_calibrated(samples: list[tuple[float, float]]) -> float:
    return stats.median([calibrated_s for calibrated_s, _measured_s in samples])


def describe(config) -> str:
    """The non-default fields of a ``StoreConfig``, for the run header."""
    from repro import StoreConfig

    default = StoreConfig()
    changed = {
        name: getattr(config, name)
        for name in vars(default)
        if getattr(config, name) != getattr(default, name)
    }
    return f"StoreConfig({', '.join(f'{k}={v}' for k, v in changed.items())})"


def log(message: str) -> None:
    print(message, flush=True)


def die(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    raise SystemExit(2)
