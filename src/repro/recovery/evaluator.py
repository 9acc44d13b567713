"""Scenario-based recovery evaluation.

For each failure scenario the evaluator replays the *outcome* of the BCP
recovery procedure in the steady state:

1. the scenario's failed components disable every channel whose path
   touches them;
2. connections whose end-nodes crashed are excluded (Section 7.2);
3. every other connection with a failed primary attempts activation, in
   **priority order** — ascending multiplexing degree, the paper's
   priority-based activation (Section 4.3: backups with smaller ν are
   higher priority and draw spare first);
4. a connection tries its backups in serial order (Section 4.2); a backup
   activates iff its path is fully healthy and every link of it can supply
   the channel's bandwidth from the remaining spare pool; draws persist
   within the scenario, so later activations can suffer *multiplexing
   failures* (Section 3.3).

The evaluation works on a scratch copy of the spare pools, so a network
can be evaluated against thousands of scenarios without re-establishment.
An optional uniform spare override implements the brute-force baseline of
Section 7.4.

A scenario costs O(affected channels + contenders x backup hops): the
candidate connections are the owners of the channels the registry's
component index reports as disabled, visited in ascending connection id
(establishment order), and spare pools are flat lists indexed by the
routing core's CSR edge slots.  Each contending connection's activation
row (priority key, bandwidth, backup paths as slot tuples) is built once
per evaluator, which is why an evaluator refuses to run once the network
it was built from has changed (:class:`StaleEvaluatorError`).
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from time import perf_counter
from typing import NamedTuple

from repro.core.bcp import BCPNetwork
from repro.core.dconnection import DConnection
from repro.faults.models import FailureScenario
from repro.network.components import LinkId
from repro.obs.registry import MetricsRegistry, get_registry, get_trace_sink
from repro.recovery.metrics import RecoveryStats
from repro.routing.flatgraph import flat_view
from repro.util.rng import make_rng


class ActivationOrder(enum.Enum):
    """Order in which contending connections draw spare resources."""

    #: Ascending multiplexing degree (paper's priority-based activation).
    PRIORITY = "priority"
    #: Establishment order (connection id) — no prioritisation.
    CONNECTION_ID = "connection_id"
    #: Uniformly random — models unsynchronised activation races.
    RANDOM = "random"


class ConnectionOutcome(enum.Enum):
    """Per-connection result within one scenario."""

    FAST_RECOVERED = "fast_recovered"
    MUX_FAILURE = "mux_failure"
    CHANNELS_LOST = "channels_lost"
    EXCLUDED = "excluded"
    UNAFFECTED = "unaffected"


# Enum member access is a descriptor lookup; the per-connection loops
# below use these module-level aliases instead.
_FAST = ConnectionOutcome.FAST_RECOVERED
_MUX = ConnectionOutcome.MUX_FAILURE
_LOST = ConnectionOutcome.CHANNELS_LOST
_EXCLUDED = ConnectionOutcome.EXCLUDED


class OutcomeTally(NamedTuple):
    """Per-outcome connection counts of one scenario."""

    fast_recovered: int
    mux_failures: int
    channels_lost: int
    excluded: int

    @property
    def failed_primaries(self) -> int:
        """Connections whose primary failed and whose endpoints survived."""
        return self.fast_recovered + self.mux_failures + self.channels_lost


@dataclass
class ScenarioResult:
    """Outcome of one failure scenario.

    ``outcomes`` is ordered: excluded connections first, in ascending
    connection id, then contenders in activation order.  Per-group
    aggregation (:func:`repro.recovery.grouping.evaluate_grouped`) folds
    outcomes in this order, so it is part of the contract.
    """

    scenario: FailureScenario
    outcomes: dict[int, ConnectionOutcome] = field(default_factory=dict)
    #: connection id -> serial of the backup that took over.
    activated_serial: dict[int, int] = field(default_factory=dict)

    def count(self, outcome: ConnectionOutcome) -> int:
        """Number of connections with the given outcome."""
        return sum(1 for value in self.outcomes.values() if value is outcome)

    @cached_property
    def tally(self) -> OutcomeTally:
        """All outcome counts from one pass over ``outcomes``.

        Computed on first access and kept: a result is final once the
        evaluator has returned it.
        """
        fast = mux = lost = excluded = 0
        for value in self.outcomes.values():
            if value is _FAST:
                fast += 1
            elif value is _MUX:
                mux += 1
            elif value is _LOST:
                lost += 1
            elif value is _EXCLUDED:
                excluded += 1
        return OutcomeTally(fast, mux, lost, excluded)

    @property
    def failed_primaries(self) -> int:
        """Connections whose primary failed and whose endpoints survived."""
        return self.tally.failed_primaries

    @property
    def r_fast(self) -> float | None:
        tally = self.tally
        failed = tally.failed_primaries
        if failed == 0:
            return None
        return tally.fast_recovered / failed


class StaleEvaluatorError(RuntimeError):
    """A :class:`RecoveryEvaluator` was used after its network changed.

    The evaluator snapshots the spare pools and memoises per-connection
    activation rows; replaying a scenario after an establishment,
    teardown or switchover would mix that dead state with the live
    channel index.  Build a fresh evaluator instead.
    """


class RecoveryEvaluator:
    """Evaluates failure scenarios against a loaded BCP network.

    Parameters
    ----------
    network:
        The loaded :class:`~repro.core.bcp.BCPNetwork` (not mutated).  It
        must not change while the evaluator is in use: :meth:`evaluate`
        raises :class:`StaleEvaluatorError` once the ledger has moved.
    order:
        Activation order among contending connections.
    spare_override:
        Per-link spare pools replacing the network's own — either a mapping
        (missing links get 0) or a single float applied to every link.
        This is how the brute-force baseline of Section 7.4 is evaluated.
    free_capacity_fallback:
        If ``True``, an activation short on spare may draw the shortfall
        from the link's *free* (unreserved) capacity.  The paper draws from
        spare only; the fallback is an ablation knob.
    seed:
        RNG seed for ``ActivationOrder.RANDOM``.
    metrics:
        Registry receiving per-scenario timing (``evaluator.scenario_s``)
        and outcome counters (``evaluator.*``); defaults to the session
        registry.  Pass :data:`~repro.obs.NULL_REGISTRY` to de-instrument
        a hot sweep.
    """

    def __init__(
        self,
        network: BCPNetwork,
        order: ActivationOrder = ActivationOrder.PRIORITY,
        spare_override: "Mapping[LinkId, float] | float | None" = None,
        free_capacity_fallback: bool = False,
        seed: "int | None" = 0,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.network = network
        self.order = order
        self.free_capacity_fallback = free_capacity_fallback
        self._rng = make_rng(seed)
        obs = metrics if metrics is not None else get_registry()
        self._timed = obs.enabled
        self._t_scenario = obs.timer("evaluator.scenario_s")
        self._c_scenarios = obs.counter("evaluator.scenarios")
        self._c_fast = obs.counter("evaluator.fast_recovered")
        self._c_mux = obs.counter("evaluator.mux_failures")
        self._c_lost = obs.counter("evaluator.channels_lost")
        self._c_excluded = obs.counter("evaluator.excluded")
        #: ``(src, dst)`` -> position in the scenario pool lists: the flat
        #: routing view's CSR edge slot.  Keyed by node pair so that path
        #: node sequences translate without ``LinkId.__eq__`` calls.
        self._slot = {
            (link.src, link.dst): slot
            for link, slot in flat_view(network.topology).edge_slot.items()
        }
        self._base_spares = self._resolve_spares(spare_override)
        self._base_pools = self._slot_list(self._base_spares.items())
        #: Ledger version the base spare snapshot was captured at;
        #: :meth:`evaluate` refuses to run once the ledger has moved.
        self.ledger_version = network.ledger.version
        # Free capacity per link, fixed at construction — only needed (and
        # only paid for) in fallback mode.
        self._base_free: "list[float] | None" = None
        if free_capacity_fallback:
            self._base_free = self._slot_list(
                (link, network.ledger.free(link))
                for link in network.topology.links()
            )
        #: channel id -> :meth:`_enroll` entry, built on first failure.
        self._members: dict[int, tuple] = {}
        #: connection id -> activation row, built on first contention.
        self._rows: dict[int, tuple] = {}

    @property
    def is_stale(self) -> bool:
        """Whether the network's ledger has moved past the spare snapshot
        this evaluator was built from (the evaluate-under-churn guard)."""
        return self.network.ledger.version != self.ledger_version

    def reseed(self, seed: "int | None") -> None:
        """Replace the activation-order RNG (``ActivationOrder.RANDOM``).

        The parallel execution layer reseeds one evaluator per scenario
        shard so results are independent of how shards map to workers.
        """
        self._rng = make_rng(seed)

    def _slot_list(self, amounts: "Iterable[tuple[LinkId, float]]") -> list[float]:
        """Per-link amounts as a list indexed by edge slot (others 0)."""
        slot = self._slot
        values = [0.0] * len(slot)
        for link, amount in amounts:
            values[slot[link.src, link.dst]] = amount
        return values

    def _resolve_spares(
        self, override: "Mapping[LinkId, float] | float | None"
    ) -> dict[LinkId, float]:
        topology = self.network.topology
        if override is None:
            # Shared, version-cached view: constructing many evaluators
            # against an unchanged network (one per shard in a parallel
            # sweep, or one per activation-order variant in the ablation
            # experiment) re-derives the spare pools exactly once.  The
            # evaluator never mutates its base pools (scenario draws go to
            # scenario-local copies), so sharing is safe.
            return self.network.ledger.shared_spares()
        if isinstance(override, (int, float)):
            # A uniform pool cannot exceed what the link can actually hold.
            return {
                link: min(
                    float(override),
                    topology.capacity(link)
                    - self.network.ledger.primary_reserved(link),
                )
                for link in topology.links()
            }
        return {link: float(override.get(link, 0.0)) for link in topology.links()}

    # ------------------------------------------------------------------
    def evaluate(self, scenario: FailureScenario) -> ScenarioResult:
        """Replay one scenario; the network itself is untouched."""
        if self.is_stale:
            raise StaleEvaluatorError(
                f"the network's ledger moved from version "
                f"{self.ledger_version} to {self.network.ledger.version} "
                f"since this evaluator was built; build a fresh "
                f"RecoveryEvaluator"
            )
        if not self._timed:
            return self._evaluate(scenario)
        start = perf_counter()
        result = self._evaluate(scenario)
        self._t_scenario.record(perf_counter() - start)
        ordinal = self._c_scenarios.value
        self._c_scenarios.inc()
        tally = result.tally
        self._c_fast.inc(tally.fast_recovered)
        self._c_mux.inc(tally.mux_failures)
        self._c_lost.inc(tally.channels_lost)
        self._c_excluded.inc(tally.excluded)
        sink = get_trace_sink()
        if sink is not None:
            # The evaluator has no simulation clock; the time field is
            # the scenario ordinal within this evaluator.
            sink.record(
                float(ordinal), "scenario", "evaluator",
                f"{scenario}: fast={tally.fast_recovered} "
                f"mux={tally.mux_failures} lost={tally.channels_lost}",
            )
        return result

    def _evaluate(self, scenario: FailureScenario) -> ScenarioResult:
        network = self.network
        failed_components = scenario.components(network.topology)
        affected_ids = network.registry.affected_by(failed_components)
        result = ScenarioResult(scenario=scenario)
        if not affected_ids:
            return result

        # Classify the owners of the disabled channels.  Ascending id is
        # establishment order, so excluded entries land in ``outcomes``
        # (and RANDOM shuffles its contenders) exactly as a scan of
        # ``network.connections()`` would.
        members = self._members
        excluded: set[int] = set()
        contending: set[int] = set()
        for channel_id in affected_ids:
            member = members.get(channel_id)
            if member is None:
                member = self._enroll(channel_id)
            if not member:
                continue  # a leftover channel no live connection holds
            connection_id, source, destination, is_primary = member
            if scenario.hits_endpoint(source, destination):
                excluded.add(connection_id)
            elif is_primary:
                contending.add(connection_id)
            # A failed backup alone does not disrupt service; it is handled
            # by resource reconfiguration, not by this evaluator.
        outcomes = result.outcomes
        for connection_id in sorted(excluded):
            outcomes[connection_id] = _EXCLUDED
        rows = self._rows
        contenders: list[tuple] = []
        for connection_id in sorted(contending):
            row = rows.get(connection_id)
            if row is None:
                row = rows[connection_id] = self._row(
                    network.connection(connection_id)
                )
            contenders.append(row)

        if self.order is ActivationOrder.PRIORITY:
            contenders.sort(key=itemgetter(0))
        elif self.order is ActivationOrder.RANDOM:
            self._rng.shuffle(contenders)
        # CONNECTION_ID: already in ascending id order.

        pools = self._base_pools.copy()
        free = None if self._base_free is None else self._base_free.copy()
        activated = result.activated_serial
        draw = self._draw
        for _, connection_id, bandwidth, backups in contenders:
            outcome = _LOST
            for serial, components, slots in backups:
                if not components.isdisjoint(failed_components):
                    continue
                if draw(slots, bandwidth, pools, free):
                    activated[connection_id] = serial
                    outcome = _FAST
                    break
                outcome = _MUX
            outcomes[connection_id] = outcome
        return result

    def evaluate_many(self, scenarios: Iterable[FailureScenario]) -> RecoveryStats:
        """Aggregate :class:`RecoveryStats` over a scenario set."""
        stats = RecoveryStats()
        for scenario in scenarios:
            tally = self.evaluate(scenario).tally
            stats.add_scenario(
                failed_primaries=tally.failed_primaries,
                fast_recovered=tally.fast_recovered,
                mux_failures=tally.mux_failures,
                channels_lost=tally.channels_lost,
                excluded_connections=tally.excluded,
            )
        return stats

    # ------------------------------------------------------------------
    def _enroll(self, channel_id: int) -> tuple:
        """Record every channel of ``channel_id``'s connection in the member
        index as ``(connection_id, source, destination, is_primary)``, and
        return ``channel_id``'s entry — ``()`` unless a live connection
        holds it."""
        network = self.network
        members = self._members
        connection_id = network.registry.get(channel_id).connection_id
        try:
            connection = network.connection(connection_id)
        except KeyError:
            pass  # a departed connection's leftover channel
        else:
            source, destination = connection.source, connection.destination
            members[connection.primary.channel_id] = (
                connection_id, source, destination, True
            )
            for backup in connection.backups:
                members[backup.channel_id] = (
                    connection_id, source, destination, False
                )
        return members.setdefault(channel_id, ())

    def _row(self, connection: DConnection) -> tuple:
        """``((mux_degree, id), id, bandwidth, backups)`` — the backups in
        serial order (Section 4.2) as ``(serial, components, slots)``."""
        slot = self._slot.__getitem__
        backups = []
        for backup in connection.backups_in_serial_order():
            nodes = backup.path.nodes
            slots = tuple(map(slot, zip(nodes, nodes[1:])))
            backups.append((backup.serial, backup.path.components, slots))
        return (
            (connection.mux_degree, connection.connection_id),
            connection.connection_id,
            connection.traffic.bandwidth,
            tuple(backups),
        )

    @staticmethod
    def _draw(
        slots: "tuple[int, ...]",
        bandwidth: float,
        pools: list[float],
        free: "list[float] | None",
    ) -> bool:
        """Atomically draw ``bandwidth`` on every link slot of a backup.

        ``pools``/``free`` are the scenario-local remaining amounts;
        ``free`` is ``None`` unless the free-capacity fallback is on.
        """
        for slot in slots:
            available = pools[slot]
            if available + 1e-9 < bandwidth:
                if free is None:
                    return False
                spill = bandwidth - available
                if free[slot] + 1e-9 < spill:
                    return False
        for slot in slots:
            remaining = pools[slot] - bandwidth
            if remaining < -1e-9:
                # Fallback mode: the shortfall was checked in the first
                # pass; draw the rest from the free pool.
                free[slot] += remaining
                remaining = 0.0
            pools[slot] = max(0.0, remaining)  # absorb float round-off
        return True
