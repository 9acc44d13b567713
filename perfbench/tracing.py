"""Span tracing at layer boundaries, installed from outside the program.

A :class:`Tracer` replaces selected public functions and methods of
``repro`` with thin wrappers that record one span per call: ``(id,
parent, name, start, end)``.  Spans stay in memory and are written out
once, when the benchmark ends.  Only calls an upper layer makes into a
lower one are wrapped (route searches, mux updates, ledger mutations,
evaluator and simulator entry points, round trips); per-link getters
such as ``ReservationLedger.free`` are not, so the wrappers cost a few
microseconds per establishment rather than per link probe.

:func:`layer_rows` folds a span tree into per-layer *self* time: a span's
duration minus the part its direct children cover.  Self times telescope,
so the rows sum to the root span's duration; :func:`check_rows` verifies
that, the way the episode breakdown of :mod:`repro.obs.episodes` checks
its delay components.

``perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, which every process
shares, so spans recorded by a traced server subprocess are placed under
the client round trip that contains them (:func:`adopt_remote`).
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

from perfbench.common import LAYERS, PER_LAYER, SERVE_OPS

#: (module, attribute path, span name) for every wrapped call.  A span
#: name's first component is its layer (``serve`` spans use two, and gain
#: the request's op: ``serve.rtt.establish``).
BOUNDARIES = (
    ("repro.experiments.setup", "load_network", "experiments.load_network"),
    ("repro.parallel", "evaluate_scenarios", "parallel.evaluate_scenarios"),
    ("repro.serve.server", "evaluate_scenarios", "parallel.evaluate_scenarios"),
    ("repro.workload.churn", "evaluate_scenarios", "parallel.evaluate_scenarios"),
    ("repro.workload.churn", "ChurnEngine.run", "workload.churn.run"),
    ("repro.recovery.evaluator", "RecoveryEvaluator.__init__", "recovery.init"),
    ("repro.recovery.evaluator", "RecoveryEvaluator.evaluate", "recovery.evaluate"),
    ("repro.core.bcp", "BCPNetwork.establish", "core.establish"),
    ("repro.core.bcp", "BCPNetwork.establish_batch", "core.establish_batch"),
    ("repro.core.bcp", "BCPNetwork.teardown", "core.teardown"),
    ("repro.core.bcp", "BCPNetwork.audit_invariants", "core.audit"),
    ("repro.core.establishment", "connection_pr", "core.reliability"),
    ("repro.core.establishment", "shortest_path", "routing.shortest_path"),
    ("repro.core.establishment", "hop_distance", "routing.hop_distance"),
    ("repro.core.multiplexing", "LinkMuxState.preview_add", "core.mux.preview_add"),
    ("repro.core.muxkernel", "VectorLinkMux.preview_add", "core.mux.preview_add"),
    ("repro.core.multiplexing", "MultiplexingEngine.add_backup",
     "core.mux.add_backup"),
    ("repro.core.multiplexing", "MultiplexingEngine.remove_backup",
     "core.mux.remove_backup"),
    ("repro.core.multiplexing", "MultiplexingEngine.remove_backups",
     "core.mux.remove_backups"),
    ("repro.network.reservations", "ReservationLedger.reserve_primary_path",
     "network.ledger.reserve_primary_path"),
    ("repro.network.reservations", "ReservationLedger.release_primary_path",
     "network.ledger.release_primary_path"),
    ("repro.network.reservations", "ReservationLedger.set_spare",
     "network.ledger.set_spare"),
    ("repro.network.reservations", "ReservationLedger.set_spares",
     "network.ledger.set_spares"),
    ("repro.network.reservations", "ReservationLedger.snapshot_spares",
     "network.ledger.snapshot_spares"),
    ("repro.network.reservations", "ReservationLedger.shared_spares",
     "network.ledger.shared_spares"),
    ("repro.network.reservations", "ReservationLedger.audit",
     "network.ledger.audit"),
    ("repro.protocol.runtime", "ProtocolSimulation.__init__",
     "protocol.construct"),
    ("repro.protocol.runtime", "ProtocolSimulation.inject_scenario",
     "protocol.inject"),
    ("repro.protocol.runtime", "ProtocolSimulation.run", "sim.run"),
    ("repro.serve.server", "AdmissionServer.handle_request", "serve.server"),
    ("repro.serve.client", "ServeClient.call", "serve.rtt"),
)

#: Field order of a span tuple, as written by :meth:`Tracer.write`.
SPAN_FIELDS = ["id", "parent", "name", "start", "end"]

def layer_of(name: str) -> str:
    """The layer a span name belongs to (``serve.rtt``, ``core``, ...)."""
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] == "serve" else parts[0]


class Tracer:
    """Records spans for the calls at :data:`BOUNDARIES` while installed."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: Finished spans: ``(id, parent, name, start, end)``.
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _open(self) -> tuple[int, int]:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(self._next_id)
        return self._next_id, parent

    def _close(self, span_id: int, parent: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans.append((span_id, parent, name, start, end))

    def span(self, name: str) -> "_Span":
        """Context manager recording one span around a block."""
        return _Span(self, name)

    def _wrap(self, func, name: str):
        tracer = self
        if name == "serve.rtt":  # ServeClient.call(self, op, **params)
            def label(args):
                return f"{name}.{args[1]}"
        elif name == "serve.server":  # AdmissionServer.handle_request
            def label(args):
                return f"{name}.{args[1].get('op')}"
        else:
            def label(args):
                return name

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id, parent = tracer._open()
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, label(args), start)

        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every boundary; :meth:`uninstall` restores the originals."""
        for module_name, path, name in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- export --------------------------------------------------------
    def write(self, path, extra: "list | None" = None) -> None:
        """Write the spans (and any adopted remote spans) as JSON lines: a
        header naming the run and the fields, then one list per span."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"run": self.run_id, "fields": SPAN_FIELDS})
                         + "\n")
            for span in self.spans + (extra or []):
                handle.write(json.dumps(span) + "\n")


class _Span:
    """One span around a ``with`` block; ``id`` is known on entry."""

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.id, self.parent = self.tracer._open()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.tracer._close(self.id, self.parent, self.name, self.start)
        return False


def read_spans(path) -> list[tuple[int, int, str, float, float]]:
    """Spans written by :meth:`Tracer.write`."""
    with open(path) as handle:
        header = json.loads(handle.readline())
        if header.get("fields") != SPAN_FIELDS:
            raise ValueError(f"{path}: not a span file ({header!r})")
        return [tuple(json.loads(line)) for line in handle if line.strip()]


def adopt_remote(
    local: list, remote: list, window_start: float, window_end: float
) -> tuple[list, int]:
    """Re-id ``remote`` spans after ``local`` ones and hang each remote
    root under the ``serve.rtt.*`` span containing it in time.

    Remote spans outside ``[window_start, window_end]`` (the traced unit)
    are dropped.  Returns the adopted spans and how many remote roots
    inside the window no round trip contained (each one would break the
    row sum, so callers check for zero).
    """
    offset = max((span[0] for span in local), default=0)
    trips = sorted(
        (span for span in local if span[2].startswith("serve.rtt.")),
        key=lambda span: span[3],
    )
    starts = [span[3] for span in trips]
    adopted, orphans = [], 0
    for span_id, parent, name, start, end in remote:
        if start < window_start or end > window_end:
            continue
        if parent:
            adopted.append((span_id + offset, parent + offset, name, start, end))
            continue
        index = bisect.bisect_right(starts, start) - 1
        host = 0
        if index >= 0 and trips[index][4] >= end:
            host = trips[index][0]
        else:
            orphans += 1
        adopted.append((span_id + offset, host, name, start, end))
    return adopted, orphans


def layer_rows(spans: list, root_ids) -> tuple[dict, dict, float]:
    """Per-layer self time under the spans ``root_ids`` (one id or many).

    Returns ``(rows, by_name, total)``: ``rows`` maps layer to summed self
    seconds, ``by_name`` maps span name to ``[calls, inclusive seconds,
    self seconds]``, and ``total`` is the roots' summed duration.  Spans
    outside the roots' subtrees are ignored.
    """
    if isinstance(root_ids, int):
        root_ids = (root_ids,)
    children = defaultdict(list)
    by_id = {}
    for span in spans:
        by_id[span[0]] = span
        children[span[1]].append(span)
    rows: dict[str, float] = defaultdict(float)
    by_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    roots = [by_id[root_id] for root_id in root_ids]
    stack = list(roots)
    while stack:
        span = stack.pop()
        duration = span[4] - span[3]
        kids = children.get(span[0], ())
        self_time = duration - sum(kid[4] - kid[3] for kid in kids)
        rows[layer_of(span[2])] += self_time
        entry = by_name[span[2]]
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_time
        stack.extend(kids)
    return dict(rows), dict(by_name), sum(root[4] - root[3] for root in roots)


def check_rows(rows: dict, total: float) -> "str | None":
    """``None`` when the rows telescope to ``total``; else the mismatch.

    A negative row means some child span outlived its parent (a clock or
    nesting fault), which the sum alone would hide.
    """
    negative = {layer: value for layer, value in rows.items() if value < -1e-9}
    if negative:
        return f"negative self time {negative}"
    # Each span boundary carries one rounding error of a CLOCK_MONOTONIC
    # reading (~1e-11 s); structural faults are far larger.
    gap = abs(sum(rows.values()) - total)
    if gap > 1e-6 * max(1.0, total):
        return f"rows sum to {sum(rows.values())!r}, total {total!r}"
    return None


def per_layer_metrics(
    spans: list, root_ids, untraced_run_s: float, extras: dict
) -> tuple[dict, "str | None"]:
    """The full per-layer catalogue for one traced unit.

    ``extras`` carries the workload's own per-layer readings (counters,
    ratios); every catalogue entry it does not set, and no span fed,
    reads 0.  Returns the metrics and a row-sum problem, if any.
    """
    rows, by_name, total = layer_rows(spans, root_ids)
    problem = check_rows(rows, total)
    strays = sorted(set(rows) - set(LAYERS))
    if strays and problem is None:
        problem = f"spans outside the layer catalogue: {strays}"
    metrics = {name: 0 for name, _ in PER_LAYER}

    def calls(*names):
        return sum(by_name.get(name, (0, 0.0, 0.0))[0] for name in names)

    def inclusive(*names):
        return sum(by_name.get(name, (0, 0.0, 0.0))[1] for name in names)

    def own(*names):
        return sum(by_name.get(name, (0, 0.0, 0.0))[2] for name in names)

    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = rows.get(layer, 0.0)
    ledger = [name for name in by_name if name.startswith("network.ledger.")]
    metrics.update({
        "trace.total_s": total,
        "trace.rows_sum_s": sum(rows.values()),
        "trace.untraced_run_s": untraced_run_s,
        "trace.overhead_s": total - untraced_run_s,
        "trace.spans": sum(entry[0] for entry in by_name.values()),
        "routing.shortest_path.calls": calls("routing.shortest_path"),
        "routing.shortest_path.s": inclusive("routing.shortest_path"),
        "routing.hop_distance.calls": calls("routing.hop_distance"),
        "routing.hop_distance.s": inclusive("routing.hop_distance"),
        "core.establish.calls": calls("core.establish", "core.establish_batch"),
        "core.establish.self_s": own("core.establish", "core.establish_batch"),
        "core.teardown.calls": calls("core.teardown"),
        "core.teardown.s": inclusive("core.teardown"),
        "core.reliability.s": inclusive("core.reliability"),
        "core.mux.preview_add.calls": calls("core.mux.preview_add"),
        "core.mux.preview_add.s": inclusive("core.mux.preview_add"),
        "core.mux.add_backup.s": inclusive("core.mux.add_backup"),
        "core.mux.remove_backup.s": inclusive("core.mux.remove_backup"),
        "core.mux.remove_backups.s": inclusive("core.mux.remove_backups"),
        # Ledger calls are leaves (the ledger calls no wrapped boundary),
        # so their inclusive times never overlap.
        "network.ledger.calls": calls(*ledger),
        "network.ledger.s": inclusive(*ledger),
        "parallel.evaluate_scenarios.s": inclusive("parallel.evaluate_scenarios"),
        "recovery.evaluate.calls": calls("recovery.evaluate"),
        "recovery.evaluate.s": inclusive("recovery.evaluate"),
        "protocol.construct.s": inclusive("protocol.construct"),
        "protocol.inject.s": inclusive("protocol.inject"),
        "sim.run.s": inclusive("sim.run"),
    })
    for op in SERVE_OPS:
        metrics[f"serve.rtt.{op}.calls"] = calls(f"serve.rtt.{op}")
        metrics[f"serve.rtt.{op}.s"] = inclusive(f"serve.rtt.{op}")
    unknown = sorted(set(extras) - set(metrics))
    if unknown:
        raise KeyError(f"per-layer readings outside the catalogue: {unknown}")
    metrics.update(extras)
    return metrics, problem
