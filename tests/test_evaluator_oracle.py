"""The recovery evaluator against its scan-every-connection reference.

:class:`repro.recovery.RecoveryEvaluator` visits only the owners of the
channels a scenario disables; ``tests/reference_evaluator.py`` keeps the
evaluator that walked every connection.  Both must produce the same
``outcomes`` (in the same insertion order — grouped evaluation folds
them in that order) and ``activated_serial`` for every scenario.  The
full-scale 8x8 Table 1 comparison runs outside this suite, in
``scripts/check_evaluator_oracle.py``.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro import BCPNetwork, FaultToleranceQoS, TrafficSpec, torus
from repro.experiments.setup import NetworkConfig, load_network
from repro.experiments.workloads import all_pairs, establish_workload
from repro.faults import (
    all_single_link_failures,
    all_single_node_failures,
    sample_double_node_failures,
)
from repro.obs.registry import NULL_REGISTRY
from repro.recovery import ActivationOrder, RecoveryEvaluator
from tests.reference_evaluator import ReferenceEvaluator, result_items

#: ``mux=∞``: a degree above any shared-component count, so every pair
#: of backups multiplexes.
UNLIMITED = 1000
DEGREES = {"mux1": 1, "mux3": 3, "muxinf": UNLIMITED}


@lru_cache(maxsize=None)
def _loaded(topology: str, mux: str, backups: int):
    network, _ = load_network(
        NetworkConfig(topology=topology, rows=6, cols=6),
        FaultToleranceQoS(num_backups=backups, mux_degree=DEGREES[mux]),
    )
    return network


@lru_cache(maxsize=None)
def _scenarios(topology: str) -> tuple:
    graph = _loaded(topology, "mux1", 1).topology
    return (
        *all_single_link_failures(graph),
        *all_single_node_failures(graph),
        *sample_double_node_failures(graph, 100, seed=3),
    )


def _assert_matches_reference(network, scenarios, **options) -> int:
    """Replay ``scenarios`` through both evaluators; returns how many
    connections contended in total (so callers can check the case is not
    vacuous)."""
    reference = ReferenceEvaluator(network, **options)
    evaluator = RecoveryEvaluator(network, metrics=NULL_REGISTRY, **options)
    contended = 0
    for scenario in scenarios:
        expected = reference.evaluate(scenario)
        actual = evaluator.evaluate(scenario)
        assert result_items(actual) == result_items(expected), str(scenario)
        contended += expected.failed_primaries
    return contended


@pytest.mark.parametrize("backups", [1, 2])
@pytest.mark.parametrize("mux", sorted(DEGREES))
@pytest.mark.parametrize("topology", ["torus", "mesh"])
def test_all_pairs_loads_match_reference(topology, mux, backups):
    network = _loaded(topology, mux, backups)
    assert _assert_matches_reference(network, _scenarios(topology)) > 0


@pytest.mark.parametrize(
    "order",
    [ActivationOrder.PRIORITY, ActivationOrder.CONNECTION_ID,
     ActivationOrder.RANDOM],
)
@pytest.mark.parametrize("topology,mux", [("torus", "mux3"), ("mesh", "muxinf")])
def test_activation_orders_match_reference(topology, mux, order):
    network = _loaded(topology, mux, 2)
    _assert_matches_reference(
        network, _scenarios(topology), order=order, seed=11
    )


def test_float_spare_override_matches_reference():
    # A pool of 1.5 Mbps per link admits one 1 Mbps activation per link:
    # heavy contention, many multiplexing failures.
    network = _loaded("torus", "mux3", 1)
    _assert_matches_reference(network, _scenarios("torus"), spare_override=1.5)


def test_mapping_spare_override_matches_reference():
    network = _loaded("mesh", "mux3", 2)
    links = list(network.topology.links())
    pools = {link: float(index % 4) for index, link in enumerate(links)}
    _assert_matches_reference(network, _scenarios("mesh"), spare_override=pools)


@pytest.mark.parametrize("topology", ["torus", "mesh"])
def test_free_capacity_fallback_matches_reference(topology):
    network = _loaded(topology, "muxinf", 2)
    _assert_matches_reference(
        network, _scenarios(topology), free_capacity_fallback=True
    )


@lru_cache(maxsize=None)
def _churned_network():
    """Mixed mux degrees and fractional bandwidths, then teardowns, a few
    switchovers and late arrivals: connection ids with gaps, promoted
    backups with non-initial serials, and pools left with float
    residues."""
    degrees = (1, 3, UNLIMITED, 2)

    def qos(index: int) -> FaultToleranceQoS:
        return FaultToleranceQoS(
            num_backups=1 + index % 2, mux_degree=degrees[index % 4]
        )

    config = NetworkConfig(topology="torus", rows=6, cols=6, capacity=60.0)
    network, _ = load_network(config, qos)
    connections = network.connections()
    for connection in connections[::3]:
        network.teardown(connection)
    switched = 0
    for connection in network.connections()[::7]:
        if connection.backups:
            network.switch_to_backup(connection)
            switched += 1
    assert switched > 0
    report = establish_workload(
        network, all_pairs(network.topology)[:60], qos,
        traffic=lambda index: TrafficSpec(bandwidth=2.4),
    )
    assert report.established > 0
    return network


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"order": ActivationOrder.RANDOM, "seed": 5},
        {"free_capacity_fallback": True},
    ],
    ids=["priority", "random", "fallback"],
)
def test_churned_network_matches_reference(options):
    network = _churned_network()
    scenarios = _scenarios("torus")
    assert _assert_matches_reference(network, scenarios, **options) > 0


def test_channels_outside_live_connections_are_ignored():
    # Two ways a registered channel can lack a live owner: a connection
    # established on the engine but never handed to the network, and the
    # old primary a bare DConnection.switch_to_backup leaves registered.
    # Neither may contend, be excluded, or hide its owner's real channels.
    network = BCPNetwork(torus(6, 6, capacity=200.0))
    for src, dst in all_pairs(network.topology)[:400]:
        network.establish(
            src, dst, ft_qos=FaultToleranceQoS(num_backups=2, mux_degree=3)
        )
    network.engine.establish(
        0, 14, ft_qos=FaultToleranceQoS(num_backups=1, mux_degree=3)
    )
    switched = network.connections()[7]
    switched.switch_to_backup(switched.backups[0])
    graph = network.topology
    scenarios = (*all_single_link_failures(graph), *all_single_node_failures(graph))
    assert _assert_matches_reference(network, scenarios) > 0
