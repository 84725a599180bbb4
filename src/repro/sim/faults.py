"""Declarative fault injection, compiled once for every driver.

The paper's §5 is candid about a weakness: "network congestion also
results in correlated message loss thus degrading reliability. This is a
potential weakness of the approach". A :class:`FaultScript` schedules
exactly such pathologies — loss windows, partition windows, node
crashes (with optional restart) and bandwidth caps — onto a running
system so experiments can measure what the adaptation can and cannot
rescue (see ``benchmarks/test_ablation_correlated_loss.py`` and the
scenario library in :mod:`repro.scenarios`).

:func:`compile_program` lowers a spec's fault, churn and resource
scripts into one *fault program*: a time-sorted tuple of
``(time, op, args)`` entries over the :class:`FaultTarget` vocabulary.
Every driver replays that program — the simulator schedules it on its
event heap (:meth:`FaultScript.apply`), the threaded and process
drivers fire it on a wall clock — so a condition is lowered in exactly
one place and same-instant ordering cannot drift between drivers.

Loss and bandwidth windows mutate *global* network state, so two open
windows of the same kind would silently fight over it (the later one
would win while open, and its close would clobber the earlier one's
restore). :meth:`FaultScript.validate` therefore rejects overlapping
windows of the same kind with a clear error; :func:`compile_program`
validates before lowering anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Protocol, Sequence, Union

from repro.sim.engine import Simulator
from repro.sim.network import RULE_OPS, BernoulliLoss, LossModel, Network

__all__ = [
    "LossWindow",
    "LinkLossWindow",
    "PartitionWindow",
    "AsymmetricPartitionWindow",
    "CrashWindow",
    "BandwidthCapWindow",
    "FaultScript",
    "FaultTarget",
    "OverlappingFaultsError",
    "compile_program",
    "schedule_program",
    "prestart_split",
]


class OverlappingFaultsError(ValueError):
    """Two fault windows of one knob family overlap in time (ambiguous)."""


@dataclass(frozen=True, slots=True)
class LossWindow:
    """Bernoulli loss at probability ``p`` during [time, time+duration)."""

    time: float
    duration: float
    p: float

    def __post_init__(self) -> None:
        if self.time < 0 or self.duration <= 0:
            raise ValueError("need time >= 0 and duration > 0")
        if not 0 < self.p <= 1:
            raise ValueError("p must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class PartitionWindow:
    """Network split into ``groups`` during [time, time+duration)."""

    time: float
    duration: float
    groups: tuple[tuple, ...]

    def __post_init__(self) -> None:
        if self.time < 0 or self.duration <= 0:
            raise ValueError("need time >= 0 and duration > 0")
        if len(self.groups) < 2:
            raise ValueError("a partition needs at least two groups")


@dataclass(frozen=True, slots=True)
class AsymmetricPartitionWindow:
    """One-way reachability cut during [time, time+duration).

    ``groups`` splits the nodes like :class:`PartitionWindow`; ``blocked``
    is a tuple of directed ``(src_group, dst_group)`` index pairs that
    cannot be crossed — traffic in the *other* direction still flows.
    This models the asymmetric links of wireless/NAT deployments where a
    node can hear the cluster but not speak to it (or vice versa), a
    regime where probabilistic broadcast degrades non-obviously.
    """

    time: float
    duration: float
    groups: tuple[tuple, ...]
    blocked: tuple[tuple[int, int], ...] = ((0, 1),)

    def __post_init__(self) -> None:
        if self.time < 0 or self.duration <= 0:
            raise ValueError("need time >= 0 and duration > 0")
        if len(self.groups) < 2:
            raise ValueError("a one-way partition needs at least two groups")
        if not self.blocked:
            raise ValueError("a one-way partition needs at least one blocked pair")
        for pair in self.blocked:
            if len(pair) != 2:
                raise ValueError(f"blocked pair {pair!r} is not a (src, dst) pair")
            a, b = pair
            if not (0 <= a < len(self.groups) and 0 <= b < len(self.groups)):
                raise ValueError(
                    f"blocked pair {pair!r} references a group outside "
                    f"0..{len(self.groups) - 1}"
                )
            if a == b:
                raise ValueError(f"blocked pair {pair!r} cuts a group from itself")


@dataclass(frozen=True, slots=True)
class LinkLossWindow:
    """Per-link Bernoulli loss during [time, time+duration).

    ``links`` is a sparse loss matrix: at construction it may be a dict
    keyed by ``(src, dst)`` with loss probabilities as values, or an
    iterable of ``(src, dst, p)`` triples; it is normalised to a sorted
    tuple of triples so the window stays hashable, picklable and
    deterministic. Pairs not in the matrix are untouched (the global
    loss model still applies to everything).
    """

    time: float
    duration: float
    links: tuple[tuple, ...]

    def __init__(self, time: float, duration: float, links) -> None:
        if hasattr(links, "items"):
            entries = [(src, dst, p) for (src, dst), p in links.items()]
        else:
            entries = [tuple(e) for e in links]
        entries.sort(key=lambda e: (repr(e[0]), repr(e[1])))
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "duration", duration)
        object.__setattr__(self, "links", tuple(entries))
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.time < 0 or self.duration <= 0:
            raise ValueError("need time >= 0 and duration > 0")
        if not self.links:
            raise ValueError("a link-loss window needs at least one link")
        seen = set()
        for entry in self.links:
            if len(entry) != 3:
                raise ValueError(f"link entry {entry!r} is not a (src, dst, p) triple")
            src, dst, p = entry
            if not 0 < p <= 1:
                raise ValueError(f"link ({src!r}, {dst!r}) loss p={p!r} not in (0, 1]")
            if (src, dst) in seen:
                raise ValueError(f"duplicate link entry for ({src!r}, {dst!r})")
            seen.add((src, dst))

    @property
    def matrix(self) -> dict:
        """The sparse ``(src, dst) -> p`` dict form of :attr:`links`."""
        return {(src, dst): p for src, dst, p in self.links}


@dataclass(frozen=True, slots=True)
class CrashWindow:
    """Nodes crash silently at ``time``; with ``restart_at`` they rejoin.

    A restarted node is a *fresh* process (empty buffers, new protocol
    state) that re-enters under its old identity — the realistic model
    for a process restart. Crashes need a cluster driver to act on, so
    :meth:`FaultScript.apply` must be handed one when crash windows are
    present.
    """

    time: float
    nodes: tuple
    restart_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("crash time must be >= 0")
        if not self.nodes:
            raise ValueError("a crash window needs at least one node")
        if self.restart_at is not None and self.restart_at <= self.time:
            raise ValueError("restart_at must be after the crash time")


@dataclass(frozen=True, slots=True)
class BandwidthCapWindow:
    """Network throughput capped at ``rate`` msg/s during [time, time+duration)."""

    time: float
    duration: float
    rate: float

    def __post_init__(self) -> None:
        if self.time < 0 or self.duration <= 0:
            raise ValueError("need time >= 0 and duration > 0")
        if self.rate <= 0:
            raise ValueError("bandwidth cap rate must be > 0")


Fault = Union[
    LossWindow,
    LinkLossWindow,
    PartitionWindow,
    AsymmetricPartitionWindow,
    CrashWindow,
    BandwidthCapWindow,
]

@dataclass
class FaultScript:
    """An ordered schedule of faults."""

    faults: list[Fault] = field(default_factory=list)

    def loss(self, time: float, duration: float, p: float) -> "FaultScript":
        self.faults.append(LossWindow(time, duration, p))
        return self

    def partition(
        self, time: float, duration: float, groups: Sequence[Sequence]
    ) -> "FaultScript":
        self.faults.append(
            PartitionWindow(time, duration, tuple(tuple(g) for g in groups))
        )
        return self

    def crash(
        self, time: float, nodes: Sequence, restart_at: Optional[float] = None
    ) -> "FaultScript":
        self.faults.append(CrashWindow(time, tuple(nodes), restart_at))
        return self

    def bandwidth_cap(self, time: float, duration: float, rate: float) -> "FaultScript":
        self.faults.append(BandwidthCapWindow(time, duration, rate))
        return self

    def oneway_partition(
        self,
        time: float,
        duration: float,
        groups: Sequence[Sequence],
        blocked: Sequence[Sequence[int]] = ((0, 1),),
    ) -> "FaultScript":
        self.faults.append(
            AsymmetricPartitionWindow(
                time,
                duration,
                tuple(tuple(g) for g in groups),
                tuple((int(a), int(b)) for a, b in blocked),
            )
        )
        return self

    def link_loss(self, time: float, duration: float, links) -> "FaultScript":
        self.faults.append(LinkLossWindow(time, duration, links))
        return self

    def __len__(self) -> int:
        return len(self.faults)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Reject ambiguous schedules before anything is scheduled.

        Overlapping windows of one knob family do not compose (two open
        loss windows do not multiply their probabilities — the network
        holds a single loss model), so instead of silently letting the
        later window clobber the earlier one this raises
        :class:`OverlappingFaultsError` naming the offending pair.
        Windows of *different* families hold independent knobs and may
        overlap freely — per-link loss during a partition is a legal,
        meaningful composition.
        """
        # every window with a duration holds one knob of its own kind
        # for that long (crash windows act on nodes, not knobs)
        windows = sorted(
            (f for f in self.faults if hasattr(f, "duration")),
            key=lambda f: (type(f).__name__, f.time, f.duration),
        )
        for earlier, later in zip(windows, windows[1:]):
            if type(later) is type(earlier) and later.time < earlier.time + earlier.duration:
                raise OverlappingFaultsError(
                    f"overlapping {type(earlier).__name__}s: {earlier} is still "
                    f"open at t={later.time} when {later} starts; overlapping "
                    "windows of one knob family do not compose — merge "
                    "them into one window or separate them in time"
                )

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def apply(
        self,
        sim: Simulator,
        network: Network,
        baseline_loss: Optional[LossModel] = None,
        cluster=None,
    ) -> None:
        """Compile this script and schedule its program on the simulator.

        ``baseline_loss`` is restored when a loss window closes (defaults
        to no loss). ``cluster`` — a :class:`~repro.workload.cluster.SimCluster`
        — is required when the script contains :class:`CrashWindow`s
        (crash/restart acts on nodes, not on the network).
        """
        program = compile_program(faults=self, baseline_loss=baseline_loss)
        if cluster is None and any(op not in RULE_OPS for _, op, _ in program):
            raise ValueError(
                "FaultScript contains crash windows; pass the cluster "
                "(e.g. SimCluster.apply_faults) so nodes can be crashed"
            )
        schedule_program(program, sim, network, cluster)


# ----------------------------------------------------------------------
# the fault program
# ----------------------------------------------------------------------
class FaultTarget(Protocol):
    """The ops a compiled fault program calls.

    The rule setters (:data:`~repro.sim.network.RULE_OPS`) are
    implemented by a driver's link-rule set —
    :class:`~repro.sim.network.Network` or
    :class:`~repro.runtime.transport.ChaosRules`, both
    :class:`~repro.sim.network.LinkRules` — and the node ops by
    its node host (``SimCluster``, ``ThreadedCluster``, a process
    ``ShardWorker``). Node ops name one node; a host ignores nodes it
    does not run.
    """

    def set_loss(self, loss: Optional[LossModel]) -> None: ...
    def set_link_loss(self, matrix: Optional[dict]) -> None: ...
    def partition(self, groups) -> None: ...
    def heal(self) -> None: ...
    def partition_oneway(self, groups, blocked) -> None: ...
    def heal_oneway(self) -> None: ...
    def set_bandwidth_cap(self, rate: Optional[float]) -> None: ...
    def crash_node(self, node) -> Any: ...
    def join_node(self, node) -> Any: ...
    def leave_node(self, node) -> Any: ...
    def set_capacity(self, node, capacity: int) -> None: ...
    def set_offered_rate(self, node, rate: float) -> None: ...


def _lower_fault(fault, baseline_loss: Optional[LossModel]) -> list:
    """One fault window's ops (open, then close); [] for unknown kinds."""
    if isinstance(fault, CrashWindow):
        ops = [(fault.time, "crash_node", (node,)) for node in fault.nodes]
        if fault.restart_at is not None:
            ops += [(fault.restart_at, "join_node", (node,)) for node in fault.nodes]
        return ops
    if isinstance(fault, LossWindow):
        opened = ("set_loss", (BernoulliLoss(fault.p),))
        closed = ("set_loss", (baseline_loss,))
    elif isinstance(fault, LinkLossWindow):
        opened = ("set_link_loss", (fault.matrix,))
        closed = ("set_link_loss", (None,))
    elif isinstance(fault, PartitionWindow):
        opened = ("partition", (fault.groups,))
        closed = ("heal", ())
    elif isinstance(fault, AsymmetricPartitionWindow):
        opened = ("partition_oneway", (fault.groups, fault.blocked))
        closed = ("heal_oneway", ())
    elif isinstance(fault, BandwidthCapWindow):
        opened = ("set_bandwidth_cap", (fault.rate,))
        closed = ("set_bandwidth_cap", (None,))
    else:
        return []
    return [(fault.time, *opened), (fault.time + fault.duration, *closed)]


def compile_program(
    faults: Optional[FaultScript] = None,
    churn=None,
    resources=None,
    baseline_loss: Optional[LossModel] = None,
) -> tuple:
    """Validate and lower scripted conditions into one fault program.

    Returns a time-sorted tuple of ``(time, op, args)`` over the
    :class:`FaultTarget` vocabulary. Same-instant ops keep the
    simulator's scheduling order: resource changes, then fault windows
    (time-sorted; each window's open, then its close), then churn
    events — so a window closing at ``t`` always lands before one
    opening at ``t``, whatever order the script lists them in.
    ``baseline_loss`` is what a closing loss window restores. Fault
    kinds without a lowering compile to nothing (the live drivers'
    coverage audit reports them as skipped).
    """
    program: list = []
    if resources is not None:
        # lazy: the workload layer imports the simulator this module is part of
        from repro.workload.dynamics import CapacityChange

        for change in sorted(resources.changes, key=lambda c: c.time):
            if isinstance(change, CapacityChange):
                op, value = "set_capacity", change.capacity
            else:
                op, value = "set_offered_rate", change.rate
            program += [(change.time, op, (node, value)) for node in change.nodes]
    if faults is not None:
        faults.validate()
        for fault in sorted(faults.faults, key=lambda f: f.time):
            program += _lower_fault(fault, baseline_loss)
    if churn is not None:
        program += [
            (event.time, f"{event.action}_node", (event.node,))
            for event in churn.sorted_events()
        ]
    program.sort(key=lambda entry: entry[0])  # stable: keeps same-instant order
    return tuple(program)


def schedule_program(program, sim: Simulator, rules, nodes) -> None:
    """Schedule every op of ``program`` on the simulator's event heap.

    Rule setters bind on ``rules`` (the :class:`~repro.sim.network.Network`),
    node ops on ``nodes`` (the cluster). Scheduled back to back,
    same-instant ops fire in program order.
    """
    for time, op, args in program:
        sim.schedule_at(time, getattr(rules if op in RULE_OPS else nodes, op), *args)


def prestart_split(program) -> tuple[list, list]:
    """``(prestart, timed)``: the ops a live driver applies before start.

    Capacity changes at t=0 land directly on the still-idle protocols
    (slow receivers exist from the first round); everything else is
    fired on the run's clock.
    """
    prestart, timed = [], []
    for entry in program:
        time, op, _ = entry
        (prestart if time == 0.0 and op == "set_capacity" else timed).append(entry)
    return prestart, timed
