"""Workload ``serve-churn``: remote churn against a live admission server.

A ``repro serve start`` subprocess holds the 8x8 torus (capacity 200,
one backup at mux=3) behind a Unix socket with ``--workers 1``.  The
load is :class:`~repro.workload.churn.ChurnEngine` over
:class:`~repro.serve.client.RemoteNetwork`: a closed loop with one
client, which is how the repository's own caller (``repro serve churn``)
drives the server - it waits for every reply.  Arrivals are Poisson with
exponential holding times, drawn from a recurring pool of node pairs, so
the server's route cache hits and same-pair batching engages.  The
offered load (arrival rate x holding time) sits past the all-pairs point,
so some arrivals block and the all-or-nothing rollback runs.  Every
epoch audits the server's ledger and evaluates a small single-link
failure sample server-side.

The seed drives every draw.  One unit is a fresh server plus one churn
run of ``DURATION`` simulated seconds, long enough to pass saturation.
Units repeat while another fits in ``--seconds``; each must reproduce
the first one's stats exactly, and timings are medians over units.
Starting each unit's server is the set-up.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from time import perf_counter

from repro.obs.registry import MetricsRegistry
from repro.scenario import (
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    churn_config_from_spec,
)
from repro.serve import RemoteNetwork, ServeClient
from repro.workload import ChurnEngine

from perfbench.common import (
    Context,
    Result,
    budget_allows,
    latency_percentiles_ms,
    median,
    percentile,
    pid_peak_rss_mb,
    settle,
)

ARRIVAL_RATE = 170.0      # arrivals per simulated second, at 8x8
HOLDING_TIME = 30.0       # mean simulated seconds a connection holds
BANDWIDTH = 2.0           # per channel; saturates the torus in fewer arrivals
PAIR_POOL = 1024          # recurring node pairs; spreads hot spots evenly
EPOCH = 5.0               # simulated seconds between audits/evaluations
EVAL_SCENARIOS = 32       # single-link failures evaluated per epoch
DURATION = 35.0           # simulated seconds of one unit
SETUP_REPEATS = 3
CONNECT_WINDOW = 60.0     # seconds a starting server may take to listen


def scenario_spec(ctx: Context):
    """The cell the server serves; its workload pins the churn config."""
    nodes = ctx.nodes
    # Smaller grids get proportionally fewer arrivals, so the offered
    # load keeps the same relation to the all-pairs point.
    scale = nodes * (nodes - 1) / 4032.0
    return ScenarioSpec(
        name="perfbench/serve-churn",
        topology=TopologySpec(
            family="torus", rows=ctx.rows, cols=ctx.cols,
            capacity=200.0,
        ),
        workload=WorkloadSpec(
            kind="churn",
            arrival_rate=ARRIVAL_RATE * scale,
            holding_time=HOLDING_TIME,
            duration=DURATION,
            bandwidth=BANDWIDTH,
            epoch_interval=EPOCH,
            eval_scenarios=EVAL_SCENARIOS,
            pairs=min(PAIR_POOL, nodes * (nodes - 1)),
        ),
        protocol=ProtocolSpec(num_backups=1, mux_degree=3),
        seed=ctx.seed,
    )


def churn_config(spec):
    return churn_config_from_spec(spec, workers=1)


class TimedClient(ServeClient):
    """A :class:`ServeClient` that records every round trip's wall time
    by op."""

    def __init__(self, address: str) -> None:
        super().__init__(address, timeout=120.0)
        self.trips: dict[str, list[float]] = defaultdict(list)

    def call(self, op: str, **params) -> dict:
        started = perf_counter()
        try:
            return super().call(op, **params)
        finally:
            self.trips[op].append(perf_counter() - started)


class Server:
    """One ``repro serve start`` subprocess and the client bound to it.

    The server runs on ``cpu``; ``tag`` names its socket and log file
    within the run.
    """

    def __init__(self, ctx: Context, spec_path, cpu: int, tag: str,
                 traced_spans=None) -> None:
        tag = f"{ctx.run_id}-{tag}"
        socket_path = ctx.out_dir / f"srv-{tag}.sock"
        if socket_path.exists():
            socket_path.unlink()
        # Unix socket paths are short; a path relative to the shared
        # working directory keeps deep checkouts within the limit.
        self.address = os.path.relpath(socket_path)
        args = ["serve", "start", "--spec", str(spec_path), "--bind",
                self.address, "--workers", "1"]
        if traced_spans is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable,
                       str(ctx.root / "perfbench" / "traced_server.py"),
                       str(traced_spans), *args]
        env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
        self._log_path = ctx.out_dir / f"srv-{tag}.log"
        self._log = open(self._log_path, "w")
        self.process = subprocess.Popen(
            command, cwd=os.getcwd(), env=env, stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            os.sched_setaffinity(self.process.pid, {cpu})
            self._await_socket(socket_path)
            self.client = TimedClient(self.address)
            self.network = RemoteNetwork(self.client,
                                         retry_window=CONNECT_WINDOW)
        except BaseException:
            self.kill()
            raise

    def _await_socket(self, socket_path) -> None:
        """Wait until the server has bound its socket (or died)."""
        deadline = perf_counter() + CONNECT_WINDOW
        while not socket_path.exists():
            code = self.process.poll()
            if code is not None:
                raise RuntimeError(
                    f"server exited with {code} before listening; "
                    f"see {self._log_path}"
                )
            if perf_counter() > deadline:
                raise TimeoutError(f"server did not bind {socket_path}")
            time.sleep(0.005)

    def stop(self) -> int:
        """Ask the server to shut down; returns its exit code."""
        try:
            self.network.shutdown()
        finally:
            self.client.close()
        try:
            code = self.process.wait(timeout=60)
        finally:
            self.kill()
        if code == 0:
            self._log_path.unlink()
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._log.close()


def _stats_dict(stats) -> dict:
    """A detached copy of the engine's running stats."""
    return json.loads(json.dumps(stats.to_dict()))


def _drive(server: Server, config) -> dict:
    """One churn run against ``server``."""
    trips = server.client.trips
    before = {op: len(values) for op, values in trips.items()}
    registry = MetricsRegistry()
    engine = ChurnEngine(server.network, config, metrics=registry)
    started = perf_counter()
    engine.run()
    elapsed = perf_counter() - started
    spare = [value for _, value in
             registry.series("churn.spare_fraction").points()]
    return {
        "run_s": elapsed,
        "stats": _stats_dict(engine.stats),
        "trips": {op: values[before.get(op, 0):]
                  for op, values in trips.items()},
        "spare": sum(spare) / len(spare),
    }


def _finish(server: Server, result: Result, unit: dict, label: str) -> None:
    """Audit, read the server's metrics and memory, shut it down."""
    network = server.network
    violations = network.audit_invariants()
    live = network.num_connections
    unit["rss"] = pid_peak_rss_mb(server.process.pid)
    unit["counters"] = network.metrics_snapshot()["counters"]
    code = server.stop()
    stats = unit["stats"]
    result.check(f"{label}.epoch_audits_clean", not stats["audit_violations"],
                 stats["audit_violations"][:3])
    result.check(f"{label}.final_audit_clean", not violations, violations[:3])
    result.check(
        f"{label}.arrivals_accounted",
        stats["arrivals"] == stats["established"] + stats["blocked"],
        f"{stats['arrivals']} = {stats['established']} + {stats['blocked']}",
    )
    result.check(f"{label}.live_connections",
                 live == stats["established"] - stats["departures"],
                 f"server {live}, client {stats['established']} - "
                 f"{stats['departures']}")
    unit["errors"] = unit["counters"].get("serve.errors", 0)
    result.check(f"{label}.no_error_responses", unit["errors"] == 0,
                 f"{unit['errors']} errors")
    result.check(f"{label}.server_exit", code == 0, f"exit {code}")


def _unit(ctx, spec_path, server_cpu, config, result, setup_times, tag):
    """Start a server (timed as set-up), churn, audit, stop."""
    settle()
    started = perf_counter()
    server = Server(ctx, spec_path, server_cpu, tag)
    setup_times.append(perf_counter() - started)
    try:
        unit = _drive(server, config)
        _finish(server, result, unit, f"serve.{tag}")
    finally:
        server.kill()
    return unit


def run(ctx: Context) -> Result:
    # The client and the server each run on a CPU of their own.  Sharing
    # one CPU made a unit take anywhere from 5.8 to 10.7 s over ten runs
    # of the same code on a 2-vCPU virtual machine; on two CPUs the same
    # runs took 8.7 to 10.9 s.  With one CPU available both share it.
    previous = os.sched_getaffinity(0)
    cpus = sorted(previous)
    os.sched_setaffinity(0, {cpus[0]})
    try:
        return _run(ctx, cpus[-1])
    finally:
        os.sched_setaffinity(0, previous)


def _run(ctx: Context, server_cpu: int) -> Result:
    result = Result()
    spec = scenario_spec(ctx)
    config = churn_config(spec)
    spec_path = ctx.out_dir / f"spec-{ctx.run_id}.json"
    with open(spec_path, "w") as handle:
        json.dump(spec.to_dict(), handle)

    setup_times, units = [], []
    started = perf_counter()
    while not units or (not ctx.trace and budget_allows(
        started, ctx.seconds, setup_times[-1] + units[-1]["run_s"]
    )):
        units.append(_unit(ctx, spec_path, server_cpu, config, result,
                           setup_times, f"unit{len(units)}"))
    while not ctx.trace and len(setup_times) < SETUP_REPEATS:
        settle()
        begun = perf_counter()
        server = Server(ctx, spec_path, server_cpu,
                        f"setup{len(setup_times)}")
        setup_times.append(perf_counter() - begun)
        result.check("serve.setup_server_exit", server.stop() == 0)

    first = units[0]
    stats = first["stats"]
    result.check("serve.repeatable",
                 all(unit["stats"] == stats for unit in units),
                 f"{len(units)} unit(s)")
    result.attempted = stats["arrivals"]
    result.failed = stats["blocked"] + first["errors"]
    result.details = {"stats": stats}
    result.notes.append(
        f"serve: {len(units)} unit(s) of {DURATION:g} simulated s: "
        f"{stats['arrivals']} arrivals, {stats['blocked']} blocked "
        f"({stats['blocking_probability']:.4f}), {stats['epochs']} epochs, "
        f"peak {stats['peak_connections']} connections, "
        f"R_fast {stats['recovery']['r_fast']}"
    )
    if not ctx.trace:
        spec_path.unlink()
        p50, p99 = latency_percentiles_ms(
            [unit["trips"]["establish"] for unit in units]
        )
        result.metrics = {
            "setup_s": median(setup_times),
            "run_s": median(unit["run_s"] for unit in units),
            "establish_per_s": median(
                unit["stats"]["established"] / sum(unit["trips"]["establish"])
                for unit in units
            ),
            # Over every evaluation of every unit.  An evaluation's cost
            # grows about tenfold as the network fills, so the median
            # round trip fell on the steep middle epochs and moved by a
            # third between runs of the same code.
            "scenarios_per_s": config.eval_scenarios * sum(
                len(unit["trips"]["evaluate"]) for unit in units
            ) / sum(sum(unit["trips"]["evaluate"]) for unit in units),
            "admit_p50_ms": p50,
            "admit_p99_ms": p99,
            "peak_rss_mb": median(unit["rss"] for unit in units),
            "spare_fraction": first["spare"],
            "r_fast": stats["recovery"]["r_fast"],
        }
        return result

    from perfbench.tracing import (
        Tracer,
        adopt_remote,
        per_layer_metrics,
        read_spans,
    )

    server_spans = ctx.out_dir / f"srvspans-{ctx.run_id}.jsonl"
    tracer = Tracer(ctx.run_id)
    settle()
    server = Server(ctx, spec_path, server_cpu, "traced",
                    traced_spans=server_spans)
    try:
        with tracer:
            with tracer.span("bench.serve") as root:
                traced = _drive(server, config)
        _finish(server, result, traced, "serve.traced")
    finally:
        server.kill()
    result.check("serve.traced_same_outputs", traced["stats"] == stats)
    window = next(span for span in tracer.spans if span[0] == root.id)
    adopted, orphans = adopt_remote(
        tracer.spans, read_spans(server_spans), window[3], window[4]
    )
    server_spans.unlink()
    spec_path.unlink()
    result.check("serve.server_spans_nested", orphans == 0,
                 f"{orphans} server spans outside every round trip")
    admission = sum(end - start for _, _, name, start, end in adopted
                    if name == "core.establish_batch")
    establish_rtt = sum(end - start for _, _, name, start, end in tracer.spans
                        if name == "serve.rtt.establish")
    counters = traced["counters"]
    hits = counters.get("route_cache.hits", 0)
    misses = counters.get("route_cache.misses", 0)
    round_trips = sum(len(values) for values in first["trips"].values())
    metrics, problem = per_layer_metrics(
        tracer.spans + adopted, root.id, first["run_s"],
        {
            "routing.route_cache.hit_ratio": hits / max(1, hits + misses),
            "recovery.fast_ratio": stats["recovery"]["r_fast"],
            "serve.rtt.teardown.p50_ms": (
                percentile(first["trips"]["teardown"], 50) * 1e3
            ),
            "serve.ops_per_s": round_trips / first["run_s"],
            "serve.server.admission_s": admission,
            "serve.wire_s": establish_rtt - admission,
            "serve.round_trips_per_admit": round_trips / stats["established"],
            "churn.blocked_fraction": stats["blocking_probability"],
        },
    )
    result.check("trace.rows_sum_to_total", problem is None, problem or "")
    tracer.write(ctx.out_dir / f"spans-serve-{ctx.run_id}.jsonl", adopted)
    result.metrics = metrics
    return result
