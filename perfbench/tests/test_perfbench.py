"""Self-tests of the end-to-end benchmark at 4x4 scale.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common, serve_churn  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    adopt_remote,
    check_rows,
    layer_rows,
)

WORKLOADS = ("table1-torus-mux3", "serve-churn", "protocol-failover")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--rows", "4", "--cols", "4"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_catalogue_matches_benchmark_json():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        common.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        common.PER_LAYER
    )
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    completed = run_bench(workload, trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    payload = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is True
    assert payload["attempted"] >= 1
    catalogue = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [(name, value["unit"]) for name, value in payload["metrics"].items()] \
        == [(m["name"], m["unit"]) for m in catalogue]
    if not trace:
        assert all(value["value"] > 0 for value in payload["metrics"].values())
    else:
        metrics = {name: value["value"] for name, value in payload["metrics"].items()}
        assert metrics["trace.rows_sum_s"] == pytest.approx(
            metrics["trace.total_s"], rel=1e-6
        )


def test_remote_churn_matches_local_churn(tmp_path):
    from repro.core.bcp import BCPNetwork
    from repro.obs.registry import MetricsRegistry
    from repro.workload import ChurnEngine

    ctx = common.Context(
        seed=5, seconds=0.0, trace=False, root=ROOT,
        out_dir=tmp_path, rows=4, cols=4,
    )
    remote = serve_churn.run(ctx)
    assert remote.correct, remote.checks
    spec = serve_churn.scenario_spec(ctx)
    local = ChurnEngine(
        BCPNetwork(spec.topology.build()), serve_churn.churn_config(spec),
        metrics=MetricsRegistry(),
    ).run()
    assert remote.details["stats"] == json.loads(json.dumps(local.to_dict()))


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("table1-torus-mux3", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_latency_tail_ignores_a_burst_in_one_repetition():
    quiet = [0.001] * 99 + [0.002]
    burst = [0.001] * 90 + [0.010] * 9 + [0.002]
    p50, p99 = common.latency_percentiles_ms([quiet, burst, quiet])
    assert p50 == pytest.approx(1.0)
    assert p99 == pytest.approx(1.01)  # pooled, the burst would set it: 10
    with pytest.raises(ValueError):
        common.latency_percentiles_ms([quiet, quiet[:-1]])


def test_self_times_telescope_to_the_root():
    spans = [
        (1, 0, "bench.x", 0.0, 10.0),
        (2, 1, "core.establish", 1.0, 6.0),
        (3, 2, "routing.shortest_path", 2.0, 3.5),
        (4, 2, "network.ledger.set_spares", 4.0, 4.25),
        (5, 1, "recovery.evaluate", 7.0, 9.0),
        (6, 0, "core.establish", 20.0, 21.0),  # outside the root: ignored
    ]
    rows, by_name, total = layer_rows(spans, 1)
    assert total == 10.0
    assert rows == {"bench": 3.0, "core": 3.25, "routing": 1.5,
                    "network": 0.25, "recovery": 2.0}
    assert by_name["core.establish"] == [1, 5.0, 3.25]
    assert check_rows(rows, total) is None
    assert check_rows({"core": -1.0, "bench": 11.0}, total) is not None


def test_remote_spans_hang_under_their_round_trip():
    local = [
        (1, 0, "bench.serve", 0.0, 10.0),
        (2, 1, "serve.rtt.establish", 1.0, 3.0),
        (3, 1, "serve.rtt.teardown", 4.0, 5.0),
    ]
    remote = [
        (1, 0, "serve.server.establish", 1.2, 2.8),
        (2, 1, "core.establish_batch", 1.3, 2.7),
        (3, 0, "serve.server.teardown", 4.1, 4.9),
        (4, 0, "serve.server.hello", 20.0, 20.1),  # outside the window
        (5, 0, "serve.server.audit", 6.0, 6.5),    # no round trip holds it
    ]
    adopted, orphans = adopt_remote(local, remote, 0.0, 10.0)
    assert orphans == 1
    by_name = {span[2]: span for span in adopted}
    assert by_name["serve.server.establish"][1] == 2
    assert by_name["core.establish_batch"][1] == by_name["serve.server.establish"][0]
    assert by_name["serve.server.teardown"][1] == 3
    assert "serve.server.hello" not in by_name
