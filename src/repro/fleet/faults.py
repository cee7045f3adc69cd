"""Fault-injection harness: scripted and seeded-random chaos for the fleet.

The fleet's failure coverage used to be a handful of hand-placed
``inject_device_failure`` calls; this module makes fault workloads
first-class.  A :class:`FaultPlan` is an ordered list of declarative
:class:`FaultEvent` entries — the *fault-plan grammar* — and a
:class:`FaultInjector` compiles a plan onto a not-yet-run
:class:`~repro.fleet.scheduler.FleetScheduler` through the scheduler's
existing injection API, so every fault rides the same deterministic
capacity-event machinery as hand-written tests:

* ``failure`` / ``repair`` / ``arrival`` — single-device events, exactly
  the scheduler's primitives; a ``failure`` may carry ``repair_after_ms``
  to schedule its own repair.
* ``rack_outage`` — a *correlated* failure: every device of one topology
  node (:meth:`~repro.cluster.topology.ClusterTopology.node_devices`) dies
  in the same fleet-clock instant, modelling a power/network drop of a
  whole rack, optionally with a common repair delay.
* ``planner_kill`` / ``store_error`` / ``store_corrupt`` — planner-side
  faults: worker kills (degrading pools toward inline planning), transient
  plan-payload losses that exercise the retry/backoff path, and fetched
  plan payloads corrupted in transit (caught by their checksum, then
  retried the same way).  The seeded generators never draw
  ``store_corrupt``, so their plans are unchanged by its addition.

Generators build the plans the chaos tests and benchmark replay:
:func:`failure_storm` draws exponential inter-arrival failure times
(``rate_per_s``) with per-failure repair delays — the classic
large-cluster failure-trace shape — :func:`rack_outage` scripts one
correlated outage, and :func:`random_fault_plan` seeds a mixed storm +
rack-outage + planner-fault plan for property-based testing.  Plans are
JSON round-trippable (:meth:`FaultPlan.to_dicts` /
:meth:`FaultPlan.from_dicts`), mergeable, and — being pure data — replay
bit-identically on every run with the same seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.cluster.topology import ClusterTopology

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.fleet.scheduler import FleetScheduler

#: Recognised fault-event kinds (the plan grammar's verbs).
FAULT_KINDS = (
    "failure",
    "repair",
    "arrival",
    "rack_outage",
    "planner_kill",
    "store_error",
    "store_corrupt",
)
#: Kinds that fault the planning side (``count`` events at one instant).
PLANNER_FAULT_KINDS = ("planner_kill", "store_error", "store_corrupt")


@dataclass(frozen=True)
class FaultEvent:
    """One declarative fault in a plan.

    Attributes:
        time_ms: Fleet-clock time the fault fires (>= 0).
        kind: One of :data:`FAULT_KINDS`.
        device: Global device index (``failure``/``repair``/``arrival``).
        node: Topology node index (``rack_outage``).
        count: Workers to kill / plans to drop (planner faults).
        repair_after_ms: For ``failure``/``rack_outage``: schedule the
            affected devices' repairs this many milliseconds after the
            fault (``None`` leaves repair to the scheduler's
            ``repair_delay_ms`` knob, or makes the outage permanent).
    """

    time_ms: float
    kind: str
    device: int | None = None
    node: int | None = None
    count: int = 1
    repair_after_ms: float | None = None

    def __post_init__(self) -> None:
        if self.time_ms < 0:
            raise ValueError(f"time_ms must be >= 0, got {self.time_ms}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if self.kind in ("failure", "repair", "arrival") and self.device is None:
            raise ValueError(f"{self.kind} events need a device index")
        if self.kind == "rack_outage" and self.node is None:
            raise ValueError("rack_outage events need a node index")
        if self.kind in PLANNER_FAULT_KINDS and self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.repair_after_ms is not None and self.repair_after_ms <= 0:
            raise ValueError(f"repair_after_ms must be > 0, got {self.repair_after_ms}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form (``None`` fields omitted)."""
        payload: dict[str, Any] = {"time_ms": self.time_ms, "kind": self.kind}
        if self.device is not None:
            payload["device"] = self.device
        if self.node is not None:
            payload["node"] = self.node
        if self.count != 1:
            payload["count"] = self.count
        if self.repair_after_ms is not None:
            payload["repair_after_ms"] = self.repair_after_ms
        return payload


@dataclass
class FaultPlan:
    """An ordered, replayable fault workload.

    Attributes:
        events: The plan's events; applied in ``(time_ms, declaration
            order)`` — the scheduler's own tie-breaking keeps simultaneous
            faults deterministic.
        seed: Seed the plan was generated from (``None`` for scripted
            plans); carried for provenance in benchmark artifacts.
        description: Human-readable one-liner for reports.
    """

    events: list[FaultEvent] = field(default_factory=list)
    seed: int | None = None
    description: str = ""

    def __len__(self) -> int:
        return len(self.events)

    def merge(self, other: "FaultPlan") -> "FaultPlan":
        """A new plan with both plans' events, sorted by time (stable)."""
        events = sorted(self.events + other.events, key=lambda e: e.time_ms)
        description = " + ".join(d for d in (self.description, other.description) if d)
        return FaultPlan(events=events, seed=self.seed, description=description)

    def to_dicts(self) -> list[dict[str, Any]]:
        """JSON-safe event list (seed/description travel separately)."""
        return [event.to_dict() for event in self.events]

    @classmethod
    def from_dicts(
        cls,
        payload: Iterable[dict[str, Any]],
        seed: int | None = None,
        description: str = "",
    ) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dicts` output."""
        return cls(
            events=[FaultEvent(**event) for event in payload],
            seed=seed,
            description=description,
        )

    def counts(self) -> dict[str, int]:
        """Events per kind (diagnostics / benchmark accounting)."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts


class FaultInjector:
    """Compiles a :class:`FaultPlan` onto a scheduler before it runs.

    Args:
        plan: The fault workload to apply.

    The injector is pure glue: every event lowers to the scheduler's
    ``inject_device_failure`` / ``inject_device_repair`` /
    ``inject_device_arrival`` / ``inject_planner_fault`` primitives (a
    ``rack_outage`` lowers to one failure per device of the node), so
    applied plans obey the scheduler's documented event ordering and are
    part of its checkpoint the moment ``run()`` seeds them.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def apply(self, scheduler: "FleetScheduler") -> dict[str, int]:
        """Inject every event of the plan; returns events-per-kind counts.

        Raises:
            RuntimeError: If the scheduler already ran.
            ValueError: If an event references a device/node outside the
                scheduler's topology.
        """
        topology = scheduler.topology
        for event in self.plan.events:
            if event.kind == "failure":
                scheduler.inject_device_failure(event.time_ms, event.device)
                if event.repair_after_ms is not None:
                    scheduler.inject_device_repair(
                        event.time_ms + event.repair_after_ms, event.device
                    )
            elif event.kind == "repair":
                scheduler.inject_device_repair(event.time_ms, event.device)
            elif event.kind == "arrival":
                scheduler.inject_device_arrival(event.time_ms, event.device)
            elif event.kind == "rack_outage":
                for device in topology.node_devices(event.node):
                    scheduler.inject_device_failure(event.time_ms, device)
                    if event.repair_after_ms is not None:
                        scheduler.inject_device_repair(
                            event.time_ms + event.repair_after_ms, device
                        )
            else:  # planner_kill / store_error / store_corrupt
                scheduler.inject_planner_fault(
                    event.time_ms, event.kind, count=event.count
                )
        return self.plan.counts()


# ---------------------------------------------------------------------- generators


def failure_storm(
    num_devices: int,
    seed: int,
    start_ms: float = 0.0,
    duration_ms: float = 60_000.0,
    rate_per_s: float = 0.5,
    repair_after_ms: float | None = 5_000.0,
) -> FaultPlan:
    """A seeded failure storm: exponential inter-arrival device failures.

    Failure times follow a Poisson process of ``rate_per_s`` over
    ``[start_ms, start_ms + duration_ms)``; each failure hits a uniformly
    drawn device and (optionally) schedules its repair ``repair_after_ms``
    later — the standard storm shape of large-cluster failure traces.

    Args:
        num_devices: Device-index range to draw victims from.
        seed: RNG seed; same seed → bit-identical plan.
        start_ms: Storm onset (fleet clock).
        duration_ms: Storm window length.
        rate_per_s: Mean failures per second of fleet time.
        repair_after_ms: Per-failure repair delay (``None``: no scheduled
            repair — permanent unless the scheduler auto-repairs).
    """
    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    if rate_per_s <= 0:
        raise ValueError(f"rate_per_s must be > 0, got {rate_per_s}")
    rng = random.Random(seed)
    events: list[FaultEvent] = []
    time_ms = start_ms
    while True:
        time_ms += rng.expovariate(rate_per_s) * 1000.0
        if time_ms >= start_ms + duration_ms:
            break
        events.append(
            FaultEvent(
                time_ms=time_ms,
                kind="failure",
                device=rng.randrange(num_devices),
                repair_after_ms=repair_after_ms,
            )
        )
    return FaultPlan(
        events=events,
        seed=seed,
        description=(
            f"storm: {len(events)} failures over {duration_ms:g} ms "
            f"(rate {rate_per_s:g}/s, seed {seed})"
        ),
    )


def rack_outage(
    node: int,
    time_ms: float,
    repair_after_ms: float | None = None,
) -> FaultPlan:
    """A correlated outage of one whole rack (topology node).

    Every device of ``node`` fails in the same fleet-clock instant; with
    ``repair_after_ms`` the rack comes back as one block (power restored),
    otherwise repair falls to the scheduler's ``repair_delay_ms`` knob.
    """
    return FaultPlan(
        events=[
            FaultEvent(
                time_ms=time_ms,
                kind="rack_outage",
                node=node,
                repair_after_ms=repair_after_ms,
            )
        ],
        description=f"rack outage: node {node} at {time_ms:g} ms",
    )


def random_fault_plan(
    topology: ClusterTopology,
    seed: int,
    duration_ms: float = 40_000.0,
    storm_rate_per_s: float = 0.3,
    rack_outage_probability: float = 0.5,
    planner_fault_probability: float = 0.0,
) -> FaultPlan:
    """A seeded mixed fault workload for property-based testing.

    Composes a :func:`failure_storm` (always), at most one
    :func:`rack_outage` (with ``rack_outage_probability``, at a random
    time, always repaired), and optionally planner faults — all drawn from
    one ``random.Random(seed)``, so a hypothesis-minimised seed reproduces
    the exact plan.
    """
    rng = random.Random(seed)
    plan = failure_storm(
        topology.num_gpus,
        seed=rng.randrange(2**31),
        start_ms=rng.uniform(0.0, duration_ms / 4),
        duration_ms=duration_ms,
        rate_per_s=storm_rate_per_s,
        repair_after_ms=rng.uniform(1_000.0, duration_ms / 4),
    )
    if rng.random() < rack_outage_probability:
        plan = plan.merge(
            rack_outage(
                node=rng.randrange(topology.num_nodes),
                time_ms=rng.uniform(0.0, duration_ms),
                repair_after_ms=rng.uniform(1_000.0, duration_ms / 4),
            )
        )
    if rng.random() < planner_fault_probability:
        kind = rng.choice(["planner_kill", "store_error"])
        plan = plan.merge(
            FaultPlan(
                events=[
                    FaultEvent(
                        time_ms=rng.uniform(0.0, duration_ms),
                        kind=kind,
                        count=rng.randrange(1, 3),
                    )
                ],
                description=f"planner fault: {kind}",
            )
        )
    plan.seed = seed
    return plan
