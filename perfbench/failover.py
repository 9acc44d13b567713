"""Workload ``protocol-failover``: event-level recovery on the loaded torus.

The loaded 8x8 torus (all pairs, one backup at mux=3) is built during
set-up.  A seeded sample of single-link and single-node failures is then
replayed, each through a fresh
:class:`~repro.protocol.runtime.ProtocolSimulation` run to its horizon.
This is the only workload that drives ``repro.sim``, the BCP daemons and
the RCC links: link scenarios are dominated by constructing the runtime,
node scenarios by event processing.

Scenario cost follows how many primaries a failure hits, which varies
about fourfold between components, so the sample is stratified: each
round draws one link from each of ``LINK_STRATA`` equal-sized load
strata and one node from each of ``NODE_STRATA``.  The first round is
the deterministic unit (``run_s``, the correctness checks, ``attempted``
and ``failed``); further seeded rounds run while another fits in ``--seconds``.

Every recovered connection's measured service disruption is compared
with its own Section 5.3 bound, Γ ≤ (K−1)·D + 2(b−1)(K−1)·D; excesses
count as failed operations.  Every scenario's outcomes are compared with
the combinatorial :class:`~repro.recovery.evaluator.RecoveryEvaluator`
(architecture invariant 5).
"""

from __future__ import annotations

import random
from time import perf_counter

from repro.analysis.delay import connection_delay_bound
from repro.channels.qos import FaultToleranceQoS
from repro.experiments import setup
from repro.faults.models import FailureScenario
from repro.protocol.config import ProtocolConfig
from repro.protocol.runtime import ProtocolSimulation
from repro.recovery.evaluator import ConnectionOutcome, RecoveryEvaluator

from perfbench.common import (
    Context,
    Result,
    budget_allows,
    latency_percentiles_ms,
    median,
    own_peak_rss_mb,
    percentile,
    settle,
    timed_establish,
)

LINK_STRATA = 4
NODE_STRATA = 4
FAILURE_TIME = 1.0
HORIZON = 500.0
SETUP_REPEATS = 3
#: Slack on the Γ comparison: delays are sums of float frame times.
EPSILON = 1e-9


def _build(ctx: Context):
    config = setup.NetworkConfig(
        topology="torus", rows=ctx.rows, cols=ctx.cols,
        capacity=200.0,
    )
    network, report = setup.load_network(
        config, FaultToleranceQoS(num_backups=1, mux_degree=3)
    )
    return network, report


def _strata(items, load, count):
    """``items`` split into ``count`` runs of similar ``load``."""
    ordered = sorted(items, key=lambda item: (load[item], str(item)))
    size = len(ordered) / count
    return [ordered[round(i * size):round((i + 1) * size)] for i in range(count)]


def scenario_rounds(network, seed: int):
    """Endless seeded rounds of stratified link and node failures."""
    topology = network.topology
    link_load = {link: 0 for link in topology.links()}
    node_load = {node: 0 for node in topology.nodes()}
    for connection in network.connections():
        path = connection.primary.path
        for link in path.links:
            link_load[link] += 1
        for node in path.nodes:
            node_load[node] += 1
    link_strata = _strata(list(link_load), link_load, LINK_STRATA)
    node_strata = _strata(list(node_load), node_load, NODE_STRATA)
    rng = random.Random(seed)
    while True:
        links = [rng.choice(stratum) for stratum in link_strata]
        nodes = [rng.choice(stratum) for stratum in node_strata]
        scenarios = [FailureScenario.of_links([link]) for link in links]
        scenarios += [FailureScenario.of_nodes([node]) for node in nodes]
        rng.shuffle(scenarios)
        yield scenarios


def _simulate(network, scenario):
    """One scenario through a fresh runtime; returns its readings."""
    started = perf_counter()
    simulation = ProtocolSimulation(network, ProtocolConfig(), 0)
    simulation.inject_scenario(scenario, FAILURE_TIME)
    simulation.run(until=HORIZON)
    elapsed = perf_counter() - started
    recovered, lost = {}, set()
    for connection_id, record in simulation.metrics.recoveries.items():
        if record.endpoint_failed or record.failed_at is None:
            continue
        if record.recovered:
            recovered[connection_id] = record.service_disruption
        else:
            lost.add(connection_id)
    totals = simulation.rcc_totals()
    return {
        "scenario": scenario,
        "elapsed": elapsed,
        "recovered": recovered,
        "lost": lost,
        "events": simulation.engine.events_processed,
        "mux_failures": simulation.metrics.mux_failures,
        "frames_sent": totals["frames_sent"],
        "retransmissions": totals["retransmissions"],
        "d_max": simulation.config.rcc.max_delay,
    }


def _judge(network, readings: list, result: "Result | None") -> dict:
    """Γ excesses, losses and the evaluator cross-check over ``readings``.

    With ``result`` the cross-check also records correctness checks: on a
    scenario without contention (neither path sees a multiplexing
    failure) both paths must agree connection by connection; under
    contention the two may pick different winners, so they must agree on
    which primaries failed, and a differing fast-recovered total is
    counted as a disagreement.
    """
    bounds = {}
    primaries = misses = lost = disagreements = evaluator_fast = 0
    delays = []
    for reading in readings:
        recovered, lost_set = reading["recovered"], reading["lost"]
        primaries += len(recovered) + len(lost_set)
        lost += len(lost_set)
        for connection_id, delay in recovered.items():
            if connection_id not in bounds:
                bounds[connection_id] = connection_delay_bound(
                    network.connection(connection_id), reading["d_max"]
                )
            delays.append(delay)
            if delay > bounds[connection_id] + EPSILON:
                misses += 1
        outcome = RecoveryEvaluator(network).evaluate(reading["scenario"])
        fast = {cid for cid, value in outcome.outcomes.items()
                if value is ConnectionOutcome.FAST_RECOVERED}
        failed = {cid for cid, value in outcome.outcomes.items()
                  if value in (ConnectionOutcome.MUX_FAILURE,
                               ConnectionOutcome.CHANNELS_LOST)}
        contended = (outcome.count(ConnectionOutcome.MUX_FAILURE) > 0
                     or reading["mux_failures"] > 0)
        evaluator_fast += len(fast)
        if len(fast) != len(recovered):
            disagreements += 1
        if result is None:
            continue
        label = reading["scenario"]
        result.check(
            f"failover.same_failed_primaries[{label}]",
            fast | failed == set(recovered) | lost_set,
            f"protocol {len(recovered) + len(lost_set)}, "
            f"evaluator {len(fast | failed)}",
        )
        if not contended:
            result.check(
                f"failover.outcomes_match_evaluator[{label}]",
                fast == set(recovered) and failed == lost_set,
                f"fast: protocol {len(recovered)}, evaluator {len(fast)}",
            )
    return {
        "primaries": primaries,
        "recovered": primaries - lost,
        "lost": lost,
        "misses": misses,
        "delays": delays,
        "disagreements": disagreements,
        "evaluator_fast": evaluator_fast,
    }


def run(ctx: Context) -> Result:
    result = Result()
    setup_times, latencies = [], []
    for _ in range(1 if ctx.trace else SETUP_REPEATS):
        network = None  # frees the previous build before the next
        settle()
        started = perf_counter()
        with timed_establish([]) as samples:
            network, report = _build(ctx)
        setup_times.append(perf_counter() - started)
        latencies.append(samples)
    pairs = ctx.nodes * (ctx.nodes - 1)
    result.check("failover.loaded_all_pairs",
                 report.established == pairs and report.rejected == 0,
                 f"{report.established} of {pairs}, {report.rejected} rejected")

    rounds = scenario_rounds(network, ctx.seed)
    first_round = next(rounds)
    readings = []
    started = perf_counter()
    for scenario in first_round:
        settle()
        readings.append(_simulate(network, scenario))
    run_s = sum(reading["elapsed"] for reading in readings)
    last_round = perf_counter() - started
    while not ctx.trace and budget_allows(started, ctx.seconds, last_round):
        begun = perf_counter()
        for scenario in next(rounds):
            settle()
            readings.append(_simulate(network, scenario))
        last_round = perf_counter() - begun

    _judge(network, readings, result)
    unit = _judge(network, readings[: len(first_round)], None)
    result.attempted = unit["primaries"]
    result.failed = unit["misses"] + unit["lost"]
    gamma_miss = unit["misses"] / max(1, unit["recovered"])
    result.notes.append(
        f"failover: {len(readings)} scenario(s), first round "
        f"{', '.join(str(s) for s in first_round)}: {unit['primaries']} "
        f"failed primaries, {unit['lost']} not recovered, {unit['misses']} "
        f"recoveries over their Γ bound ({gamma_miss:.4f}), "
        f"{unit['disagreements']} scenario(s) where the protocol and the "
        f"evaluator recover different totals"
    )
    result.details = {"first_round": [str(s) for s in first_round], **{
        key: unit[key] for key in ("primaries", "lost", "misses",
                                   "disagreements")}}

    if not ctx.trace:
        p50, p99 = latency_percentiles_ms(latencies)
        result.metrics = {
            "setup_s": median(setup_times),
            "run_s": run_s,
            "establish_per_s": report.established / median(setup_times),
            "scenarios_per_s": (
                len(readings) / sum(reading["elapsed"] for reading in readings)
            ),
            "admit_p50_ms": p50,
            "admit_p99_ms": p99,
            "peak_rss_mb": own_peak_rss_mb(),
            "spare_fraction": network.spare_fraction(),
            "r_fast": unit["recovered"] / unit["primaries"],
        }
        return result

    from perfbench.tracing import Tracer, per_layer_metrics

    tracer = Tracer(ctx.run_id)
    traced, roots = [], []
    with tracer:
        # One root per scenario keeps the collections between scenarios
        # out of the traced total, as they are out of ``run_s``.
        for scenario in first_round:
            settle()
            with tracer.span("bench.failover") as root:
                traced.append(_simulate(network, scenario))
            roots.append(root.id)
    same = all(
        (a["recovered"], a["lost"], a["events"]) == (b["recovered"], b["lost"],
                                                     b["events"])
        for a, b in zip(readings, traced)
    )
    result.check("failover.traced_same_outputs", same)
    events = sum(reading["events"] for reading in traced)
    sim_s = sum(end - start for _, _, name, start, end in tracer.spans
                if name == "sim.run")
    metrics, problem = per_layer_metrics(
        tracer.spans, roots, run_s,
        {
            "recovery.fast_ratio": unit["evaluator_fast"] / unit["primaries"],
            "sim.events": events,
            "sim.events_per_s": events / sim_s,
            "rcc.frames_sent": sum(r["frames_sent"] for r in traced),
            "rcc.retransmissions": sum(r["retransmissions"] for r in traced),
            "protocol.gamma_miss_fraction": gamma_miss,
            "protocol.recovery_delay_p99_sim": percentile(unit["delays"], 99),
            "protocol.evaluator_disagreements": unit["disagreements"],
        },
    )
    result.check("trace.rows_sum_to_total", problem is None, problem or "")
    tracer.write(ctx.out_dir / f"spans-failover-{ctx.run_id}.jsonl")
    result.metrics = metrics
    return result
