"""End-to-end benchmark of the repro package: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-torus-mux3 --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs one untraced and one traced unit of the workload and
reports the per-layer breakdown instead.  Every run checks the
workload's outputs; the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  A failed check
exits 1; a checkout without ``src/repro`` exits 2 without a result.
Spans and a per-run record (git commit, ``nproc``, ``src/`` line count)
are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("table1-torus-mux3", "serve-churn", "protocol-failover")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=8,
                        help="grid rows (self-tests shrink the torus)")
    parser.add_argument("--cols", type=int, default=8)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import common, failover, serve_churn, table1

    modules = {
        "table1-torus-mux3": table1,
        "serve-churn": serve_churn,
        "protocol-failover": failover,
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    ctx = common.Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        root=ROOT, out_dir=out_dir, rows=args.rows, cols=args.cols,
    )
    result = modules[args.workload].run(ctx)

    catalogue = common.PER_LAYER if ctx.trace else common.END_TO_END
    missing = [name for name, _ in catalogue if name not in result.metrics]
    result.check("bench.every_metric_reported", not missing, missing)
    payload = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics.get(name, 0), "unit": unit}
            for name, unit in catalogue
        },
    }
    meta = common.metadata(ROOT)
    with open(out_dir / "results.jsonl", "a") as handle:
        handle.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "rows": args.rows, "cols": args.cols, **meta,
            "checks": result.checks, "details": result.details,
            "result": payload,
        }) + "\n")
    for note in result.notes:
        print(note)
    for name, passed, detail in result.checks:
        print(f"check {name}: {'ok' if passed else 'FAILED'}"
              + (f" ({detail})" if detail else ""))
    for name, unit in catalogue:
        print(f"{name} = {payload['metrics'][name]['value']!r} {unit}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(payload))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
