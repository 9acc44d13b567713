"""Workload ``table1-torus-mux3``: one Table 1 panel cell, end to end.

The paper's own experiment (Section 7): every ordered node pair of the
8x8 torus (capacity 200) gets a D-connection with one backup at mux=3,
established in sequence through ``experiments.setup.load_network``; the
three Section 7.2 failure models then run through
``parallel.evaluate_scenarios(workers=1)``.  Establishment (routing and
mux) and the recovery evaluator do all the work: every route search
misses the cache, and there is no teardown and no wire.

The seed draws the 200-sample double-node failure set.  One *panel*
(establish + evaluate) is the unit; panels repeat while another fits in
``--seconds``, and timings are medians over panels.
Every panel must reproduce the first one's outputs exactly.
"""

from __future__ import annotations

from time import perf_counter

from repro import parallel
from repro.channels.qos import FaultToleranceQoS
from repro.experiments import setup
from repro.obs.registry import MetricsRegistry, obs_session

from perfbench.common import (
    Context,
    Result,
    budget_allows,
    latency_percentiles_ms,
    median,
    own_peak_rss_mb,
    settle,
    timed_establish,
)

MUX_DEGREE = 3
DOUBLE_NODE_SAMPLES = 200
SETUP_REPEATS = 9


def _inputs(ctx: Context):
    config = setup.NetworkConfig(
        topology="torus", rows=ctx.rows, cols=ctx.cols,
        capacity=200.0,
    )
    models = setup.standard_failure_models(
        config.build(), DOUBLE_NODE_SAMPLES, ctx.seed
    )
    return config, models


def _panel(ctx: Context, config, models) -> dict:
    """Establish the all-pairs load and evaluate the three models."""
    qos = FaultToleranceQoS(num_backups=1, mux_degree=MUX_DEGREE)
    registry = MetricsRegistry()
    with obs_session(registry):
        started = perf_counter()
        network, report = setup.load_network(config, qos)
        established = perf_counter()
        stats = {
            model: parallel.evaluate_scenarios(
                network, scenarios, workers=1, seed=ctx.seed
            )
            for model, scenarios in models.items()
        }
        finished = perf_counter()
    counters = registry.snapshot()["counters"]
    return {
        "establish_s": established - started,
        "evaluate_s": finished - established,
        "run_s": finished - started,
        "report": report,
        "spare": network.spare_fraction(),
        "stats": stats,
        "counters": counters,
        # Deterministic outputs every repetition must reproduce.
        "outputs": (
            report.established, report.rejected, network.spare_fraction(),
            tuple(
                (model, s.scenarios, s.failed_primaries, s.fast_recovered,
                 s.mux_failures, s.channels_lost, s.r_fast)
                for model, s in stats.items()
            ),
        ),
    }


def _check_panel(result: Result, panel: dict, ctx: Context) -> None:
    pairs = ctx.nodes * (ctx.nodes - 1)
    report = panel["report"]
    result.check("table1.established_all_pairs", report.established == pairs,
                 f"{report.established} of {pairs}")
    result.check("table1.no_rejections", report.rejected == 0,
                 f"{report.rejected} rejected")
    link = panel["stats"]["1 link failure"].r_fast
    result.check("table1.r_fast_single_link_is_1", link == 1.0,
                 f"R_fast(1 link) = {link!r}")


def run(ctx: Context) -> Result:
    result = Result()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        config, models = _inputs(ctx)
        setup_times.append(perf_counter() - started)
    scenarios = sum(len(items) for items in models.values())

    panels = []
    started = perf_counter()
    while not panels or (
        not ctx.trace and budget_allows(started, ctx.seconds, panels[-1]["run_s"])
    ):
        settle()
        with timed_establish([]) as latencies:
            panels.append(_panel(ctx, config, models))
        panels[-1]["latencies"] = latencies
    first = panels[0]
    _check_panel(result, first, ctx)
    result.check(
        "table1.repeatable",
        all(panel["outputs"] == first["outputs"] for panel in panels),
        f"{len(panels)} panels",
    )
    result.attempted = first["report"].requested
    result.failed = first["report"].rejected
    stats = first["stats"]
    result.notes.append(
        f"table1: {len(panels)} panel(s); spare {first['spare']:.4f}; "
        + "; ".join(f"R_fast({m}) {s.r_fast:.4f}" for m, s in stats.items())
    )

    if not ctx.trace:
        p50, p99 = latency_percentiles_ms([p["latencies"] for p in panels])
        result.metrics = {
            "setup_s": median(setup_times),
            "run_s": median(p["run_s"] for p in panels),
            "establish_per_s": median(
                p["report"].established / p["establish_s"] for p in panels
            ),
            "scenarios_per_s": median(scenarios / p["evaluate_s"] for p in panels),
            "admit_p50_ms": p50,
            "admit_p99_ms": p99,
            "peak_rss_mb": own_peak_rss_mb(),
            "spare_fraction": first["spare"],
            "r_fast": stats["2 node failures"].r_fast,
        }
        return result

    from perfbench.tracing import Tracer, per_layer_metrics

    settle()
    tracer = Tracer(ctx.run_id)
    with tracer:
        with tracer.span("bench.table1") as root:
            traced = _panel(ctx, config, models)
    result.check("table1.traced_repeatable", traced["outputs"] == first["outputs"])
    counters = traced["counters"]
    hits = counters.get("route_cache.hits", 0)
    misses = counters.get("route_cache.misses", 0)
    merged = None
    for model_stats in traced["stats"].values():
        merged = model_stats if merged is None else merged.merge(model_stats)
    metrics, problem = per_layer_metrics(
        tracer.spans, root.id, first["run_s"],
        {
            "routing.route_cache.hit_ratio": hits / max(1, hits + misses),
            "recovery.fast_ratio": merged.r_fast,
            "recovery.r_fast_link": stats["1 link failure"].r_fast,
            "recovery.r_fast_node": stats["1 node failure"].r_fast,
            "recovery.r_fast_2node": stats["2 node failures"].r_fast,
        },
    )
    result.check("trace.rows_sum_to_total", problem is None, problem or "")
    tracer.write(ctx.out_dir / f"spans-table1-{ctx.run_id}.jsonl")
    result.metrics = metrics
    return result
