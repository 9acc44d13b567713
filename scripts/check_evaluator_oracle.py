#!/usr/bin/env python
"""CI gate: the recovery evaluator must match its reference oracle.

Loads the paper's Table 1 network (8x8 torus, capacity 200, all 4032
ordered pairs, one backup at mux=3), then replays all 256 single-link,
64 single-node and 200 sampled double-node failures through both
:class:`repro.recovery.RecoveryEvaluator` and the scan-every-connection
reference kept in ``tests/reference_evaluator.py``.  Any per-scenario
difference in ``outcomes`` (including insertion order) or
``activated_serial`` fails the run; both evaluators' wall times are
printed.

Usage (from the repository root):
    PYTHONPATH=src:. python scripts/check_evaluator_oracle.py
"""

from __future__ import annotations

import sys
from time import perf_counter

from repro.channels.qos import FaultToleranceQoS
from repro.experiments.setup import (
    NetworkConfig,
    load_network,
    standard_failure_models,
)
from repro.obs.registry import NULL_REGISTRY
from repro.recovery import RecoveryEvaluator
from tests.reference_evaluator import ReferenceEvaluator, result_items

DOUBLE_NODE_SAMPLES = 200
SEED = 0


def main() -> int:
    config = NetworkConfig(topology="torus", rows=8, cols=8, capacity=200.0)
    qos = FaultToleranceQoS(num_backups=1, mux_degree=3)
    network, _ = load_network(config, qos)
    models = standard_failure_models(network.topology, DOUBLE_NODE_SAMPLES, SEED)
    scenarios = [scenario for group in models.values() for scenario in group]

    started = perf_counter()
    reference = ReferenceEvaluator(network)
    expected = [reference.evaluate(scenario) for scenario in scenarios]
    reference_s = perf_counter() - started
    started = perf_counter()
    evaluator = RecoveryEvaluator(network, metrics=NULL_REGISTRY)
    actual = [evaluator.evaluate(scenario) for scenario in scenarios]
    evaluator_s = perf_counter() - started

    mismatches = 0
    for want, got in zip(expected, actual):
        if result_items(want) != result_items(got):
            mismatches += 1
            print(f"MISMATCH in scenario {want.scenario}")
    print(
        f"{len(scenarios)} scenarios on {config.label}: reference "
        f"{reference_s:.2f}s, evaluator {evaluator_s:.2f}s, "
        f"{mismatches} mismatching"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
