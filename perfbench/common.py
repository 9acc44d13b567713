"""Shared pieces of the end-to-end benchmark: metric catalogue, result
record, summary statistics, memory readings, and run metadata.

Every workload reports every end-to-end metric (untraced runs) or every
per-layer metric (traced runs), so the catalogues below are the single
list both the workloads and ``BENCHMARK.json`` follow.
"""

from __future__ import annotations

import gc
import os
import resource
import subprocess
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.core.bcp import BCPNetwork

#: End-to-end metrics: (name, unit).  Each workload defines every one;
#: see README.md for what each means on each workload.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("establish_per_s", "1/s"),
    ("scenarios_per_s", "1/s"),
    ("admit_p50_ms", "ms"),
    ("admit_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("spare_fraction", "fraction"),
    ("r_fast", "fraction"),
)

#: Layers of the traced run's self-time breakdown (see tracing.layer_of).
LAYERS = (
    "bench", "experiments", "parallel", "workload", "core", "routing",
    "network", "recovery", "protocol", "sim", "serve.rtt", "serve.server",
)

#: Round-trip ops the churn client and the benchmark issue.
SERVE_OPS = (
    "hello", "establish", "teardown", "num_connections", "network_load",
    "spare_fraction", "audit", "evaluate", "metrics", "shutdown",
)

#: Per-layer metrics of a traced run: (name, unit).  A layer a workload
#: never enters reports 0.
PER_LAYER = (
    tuple((f"layer.{layer}.self_s", "s") for layer in LAYERS)
    + (
        ("trace.total_s", "s"),
        ("trace.rows_sum_s", "s"),
        ("trace.untraced_run_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
        ("routing.shortest_path.calls", "count"),
        ("routing.shortest_path.s", "s"),
        ("routing.hop_distance.calls", "count"),
        ("routing.hop_distance.s", "s"),
        ("routing.route_cache.hit_ratio", "ratio"),
        ("core.establish.calls", "count"),
        ("core.establish.self_s", "s"),
        ("core.teardown.calls", "count"),
        ("core.teardown.s", "s"),
        ("core.reliability.s", "s"),
        ("core.mux.preview_add.calls", "count"),
        ("core.mux.preview_add.s", "s"),
        ("core.mux.add_backup.s", "s"),
        ("core.mux.remove_backup.s", "s"),
        ("core.mux.remove_backups.s", "s"),
        ("network.ledger.calls", "count"),
        ("network.ledger.s", "s"),
        ("parallel.evaluate_scenarios.s", "s"),
        ("recovery.evaluate.calls", "count"),
        ("recovery.evaluate.s", "s"),
        ("recovery.fast_ratio", "ratio"),
        ("recovery.r_fast_link", "ratio"),
        ("recovery.r_fast_node", "ratio"),
        ("recovery.r_fast_2node", "ratio"),
    )
    + tuple(
        (f"serve.rtt.{op}.{what}", unit)
        for op in SERVE_OPS
        for what, unit in (("calls", "count"), ("s", "s"))
    )
    + (
        ("serve.rtt.teardown.p50_ms", "ms"),
        ("serve.ops_per_s", "1/s"),
        ("serve.server.admission_s", "s"),
        ("serve.wire_s", "s"),
        ("serve.round_trips_per_admit", "ratio"),
        ("churn.blocked_fraction", "ratio"),
        ("protocol.construct.s", "s"),
        ("protocol.inject.s", "s"),
        ("sim.run.s", "s"),
        ("sim.events", "count"),
        ("sim.events_per_s", "1/s"),
        ("rcc.frames_sent", "count"),
        ("rcc.retransmissions", "count"),
        ("protocol.gamma_miss_fraction", "ratio"),
        ("protocol.recovery_delay_p99_sim", "s_sim"),
        ("protocol.evaluator_disagreements", "count"),
    )
)


@dataclass
class Context:
    """One benchmark invocation.  The grid is the paper's 8x8 unless a
    self-test shrinks it."""

    seed: int
    seconds: float
    trace: bool
    root: Path
    out_dir: Path
    rows: int = 8
    cols: int = 8

    @property
    def nodes(self) -> int:
        return self.rows * self.cols

    @property
    def run_id(self) -> str:
        return f"s{self.seed}-p{os.getpid()}"


@dataclass
class Result:
    """What a workload hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    #: metric name -> value, for the catalogue matching the run mode.
    metrics: dict = field(default_factory=dict)
    #: (check name, passed, detail) for every correctness check.
    checks: list = field(default_factory=list)
    #: Human-readable lines printed before the JSON result.
    notes: list = field(default_factory=list)
    #: Workload outputs kept for the results file and the self-tests.
    details: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: object = "") -> None:
        self.checks.append((name, bool(passed), str(detail)))

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_percentiles_ms(runs: list) -> tuple[float, float]:
    """``(p50, p99)`` in milliseconds over the calls of a repeated unit.

    ``runs`` holds one list of seconds per repetition; every repetition
    issues the same calls in the same order.  Each call's time is its
    median over the repetitions, so a burst of host interference that
    slows a few dozen consecutive calls of one repetition does not set
    the tail, while a call that is slow every time still does.
    """
    if len({len(samples) for samples in runs}) != 1:
        raise ValueError("repetitions issued different numbers of calls")
    per_call = [median(times) for times in zip(*runs)]
    return percentile(per_call, 50) * 1e3, percentile(per_call, 99) * 1e3


# ----------------------------------------------------------------------
# process readings
# ----------------------------------------------------------------------
def own_peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live child process, from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def budget_allows(started: float, seconds: float, last: float) -> bool:
    """Whether another unit like the last one (``last`` seconds) still
    fits in a ``seconds`` budget that began at ``started``."""
    return perf_counter() - started + last <= seconds


def settle() -> None:
    """Collect the previous unit's garbage before the next timed unit, so
    one unit's leftovers are not billed to the next."""
    gc.collect()


@contextmanager
def timed_establish(samples: list):
    """Record the wall time of every ``BCPNetwork.establish`` call.

    The probe adds two clock reads per call (about a microsecond against
    the millisecond an establishment takes at 8x8 scale).
    """
    original = BCPNetwork.establish

    def establish(self, *args, **kwargs):
        started = perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            samples.append(perf_counter() - started)

    BCPNetwork.establish = establish
    try:
        yield samples
    finally:
        BCPNetwork.establish = original


# ----------------------------------------------------------------------
# metadata recorded with each result
# ----------------------------------------------------------------------
def git_commit(root: Path) -> "str | None":
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip()


def src_lines(root: Path) -> int:
    """Lines of Python under ``src/`` (informational, not a metric)."""
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: a reading of the host's
    speed during the run, to tell machine drift from program change."""
    times = []
    for _ in range(5):
        started = perf_counter()
        total = 0
        for value in range(1_000_000):
            total += value * value
        times.append(perf_counter() - started)
    return median(times)


def metadata(root: Path) -> dict:
    return {
        "git_commit": git_commit(root),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(root),
        "calibration_s": calibration_s(),
    }
