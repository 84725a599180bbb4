"""Simulated message transport with pluggable latency and loss models.

The :class:`Network` connects simulated processes by address. ``send``
samples a latency (and possibly a loss decision) and schedules the
receiver's handler on the simulator. Latency models, loss models and
partitions compose independently so experiments can dial in exactly the
network pathology they need.

The paper's experiments run on a 60-workstation Ethernet LAN; the default
model is therefore a low, lightly-jittered latency with no loss. Loss and
burst-loss models exist for the robustness studies (the paper notes that
correlated loss degrades gossip reliability, §5).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Protocol

from repro.sim.engine import Simulator

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "BurstLoss",
    "NetworkStats",
    "LinkRules",
    "RULE_OPS",
    "Network",
    "RateWindow",
    "build_partition_map",
    "crosses_oneway",
]

Address = Hashable
Handler = Callable[[Any, Address, float], None]


# ----------------------------------------------------------------------
# shared network-rule building blocks
#
# The threaded and process runtimes inject the same conditions this
# simulated network models; the rule state and the per-message decision
# live in :class:`LinkRules`, once, so the drivers cannot silently
# diverge (driver parity is asserted scenario-by-scenario in CI).
# ----------------------------------------------------------------------
def build_partition_map(groups) -> dict:
    """``address -> group id`` for a partition; unmentioned addresses
    share the implicit group ``-1`` and can still talk to each other."""
    partition_of: dict = {}
    for gid, group in enumerate(groups):
        for addr in group:
            partition_of[addr] = gid
    return partition_of


def crosses_oneway(oneway_of: dict, blocked: frozenset, src, dst) -> bool:
    """Whether a (src, dst) message crosses a *directed* blocked group edge.

    ``oneway_of`` maps addresses to group ids (implicit group ``-1`` for
    unmentioned addresses, as in :func:`build_partition_map`); ``blocked``
    holds the directed ``(src_group, dst_group)`` pairs that are cut.
    Unlike a symmetric partition, the reverse direction still flows.
    """
    if not blocked:
        return False
    return (oneway_of.get(src, -1), oneway_of.get(dst, -1)) in blocked


class RateWindow:
    """A bandwidth cap accounted in one-second windows.

    Once ``rate`` messages have entered within a window, further sends
    in that window are refused — a blunt but deterministic model of a
    saturated link or switch. ``rate=None`` disables the cap. The clock
    is the caller's (virtual time for the simulator, wall time for the
    chaos transport); only window identity ``int(now)`` matters.
    """

    __slots__ = ("rate", "_window", "_used")

    def __init__(self, rate: Optional[float] = None) -> None:
        if rate is not None and rate <= 0:
            raise ValueError("bandwidth cap must be > 0 msg/s (or None)")
        self.rate = rate
        self._window = -1
        self._used = 0

    def exceeded(self, now: float) -> bool:
        """Account one send at time ``now``; True if over budget."""
        window = int(now)
        if window != self._window:
            self._window = window
            self._used = 0
        if self._used >= self.rate:
            return True
        self._used += 1
        return False


class LatencyModel(Protocol):
    """Samples a one-way delay for a (src, dst) message."""

    def sample(self, src: Address, dst: Address, rng) -> float: ...


class LossModel(Protocol):
    """Decides whether a (src, dst) message is dropped."""

    def is_lost(self, src: Address, dst: Address, rng) -> bool: ...


@dataclass(frozen=True)
class ConstantLatency:
    """Every message takes exactly ``delay`` seconds."""

    delay: float = 0.01

    def sample(self, src: Address, dst: Address, rng) -> float:
        """Return the fixed delay."""
        return self.delay


@dataclass(frozen=True)
class UniformLatency:
    """Latency uniform in [low, high] — the default LAN-ish model."""

    low: float = 0.005
    high: float = 0.05

    def sample(self, src: Address, dst: Address, rng) -> float:
        """Draw a delay uniformly from [low, high]."""
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class LogNormalLatency:
    """Heavy-tailed latency, parameterised by median and sigma.

    ``median`` is the median one-way delay; ``sigma`` the log-space
    standard deviation (0.5 gives a moderate tail). An optional ``cap``
    bounds pathological samples.
    """

    median: float = 0.02
    sigma: float = 0.5
    cap: float = 2.0

    def sample(self, src: Address, dst: Address, rng) -> float:
        """Draw a capped log-normal delay."""
        return min(self.cap, rng.lognormvariate(math.log(self.median), self.sigma))


@dataclass(frozen=True)
class NoLoss:
    """Perfect network: nothing is ever dropped."""

    def is_lost(self, src: Address, dst: Address, rng) -> bool:
        """Always False."""
        return False


@dataclass(frozen=True)
class BernoulliLoss:
    """Independent loss with probability ``p`` per message."""

    p: float = 0.01

    def is_lost(self, src: Address, dst: Address, rng) -> bool:
        """Independent coin flip per message."""
        return rng.random() < self.p


class BurstLoss:
    """Gilbert–Elliott two-state burst loss.

    ``p_enter`` is the probability of moving from the good to the bad
    state per message; ``p_exit`` of leaving the bad state; ``p_bad`` the
    loss probability while in the bad state. State is kept per network
    (correlated loss — the pathology the paper warns about in §5).
    """

    def __init__(self, p_enter: float = 0.005, p_exit: float = 0.2, p_bad: float = 0.8):
        self.p_enter = p_enter
        self.p_exit = p_exit
        self.p_bad = p_bad
        self._bad = False

    def is_lost(self, src: Address, dst: Address, rng) -> bool:
        """Advance the two-state chain and sample loss in the bad state."""
        if self._bad:
            if rng.random() < self.p_exit:
                self._bad = False
        else:
            if rng.random() < self.p_enter:
                self._bad = True
        return self._bad and rng.random() < self.p_bad


@dataclass
class NetworkStats:
    """Counters maintained by :class:`Network`."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    partitioned: int = 0
    oneway_blocked: int = 0
    link_lost: int = 0
    no_route: int = 0
    payload_items: int = 0
    capped: int = 0

    def reset(self) -> None:
        self.sent = self.delivered = self.lost = 0
        self.partitioned = self.no_route = self.payload_items = 0
        self.oneway_blocked = self.link_lost = 0
        self.capped = 0


# The ops of a compiled fault program that act on a link-rule set (see
# repro.sim.faults.compile_program); every other op acts on nodes.
RULE_OPS = frozenset(
    (
        "set_loss",
        "set_link_loss",
        "partition",
        "heal",
        "partition_oneway",
        "heal_oneway",
        "set_bandwidth_cap",
    )
)


class LinkRules:
    """The live link-rule state and the one per-message decision.

    Every driver evaluates its network conditions here: the simulator's
    :class:`Network` and the threaded and process chaos layers
    (:class:`~repro.runtime.transport.ChaosRules`) are link-rule sets,
    and the vector lane's batched filter reads the public fields.
    The setters are the rule ops of a compiled fault program (see
    :data:`RULE_OPS`). :meth:`verdict`
    names the counter a message is charged to — ``partitioned``,
    ``oneway_blocked``, ``no_route``, ``capped``, ``lost`` or
    ``link_lost``, the :class:`NetworkStats` field names — or returns
    None when the message goes through. ``idle`` is True while no rule
    is open and the loss model is :class:`NoLoss`; hot paths test it
    once and skip the decision entirely.

    Setters run under ``lock`` (a no-op by default). A rule set that
    evaluates from several threads passes a real lock and holds it
    around :meth:`verdict`.
    """

    __slots__ = (
        "loss",
        "partition_of",
        "oneway_of",
        "oneway_blocked",
        "link_loss",
        "cap",
        "idle",
        "_lock",
    )

    def __init__(self, loss: Optional[LossModel] = None, lock=None) -> None:
        self._lock = lock if lock is not None else nullcontext()
        self.loss: LossModel = NoLoss()
        self.partition_of: dict = {}
        # one-way partition (independent knob: may be open at the same
        # time as a symmetric partition, a loss window or a cap)
        self.oneway_of: dict = {}
        self.oneway_blocked: frozenset = frozenset()
        # sparse per-link loss matrix ((src, dst) -> p); None when closed
        self.link_loss: Optional[dict] = None
        self.cap = RateWindow()
        self.idle = True
        self.set_loss(loss)

    def _update_idle(self) -> None:
        self.idle = (
            type(self.loss) is NoLoss
            and not self.partition_of
            and not self.oneway_blocked
            and self.link_loss is None
            and self.cap.rate is None
        )

    def set_loss(self, loss: Optional[LossModel]) -> None:
        """Swap the loss model (``None`` means no loss)."""
        with self._lock:
            self.loss = loss if loss is not None else NoLoss()
            self._update_idle()

    def partition(self, groups) -> None:
        """Split the network: messages may only cross within one group.

        Addresses not mentioned in any group remain in the implicit group
        ``-1`` and can still talk to each other.
        """
        partition_of = build_partition_map(groups)
        with self._lock:
            self.partition_of = partition_of
            self._update_idle()

    def heal(self) -> None:
        """Remove any symmetric partition (one-way cuts are a separate knob)."""
        with self._lock:
            self.partition_of = {}
            self._update_idle()

    def partition_oneway(self, groups, blocked) -> None:
        """Cut the *directed* group edges in ``blocked``.

        ``groups`` splits addresses as in :meth:`partition`; ``blocked``
        is an iterable of ``(src_group, dst_group)`` index pairs that can
        no longer be crossed. Traffic in the reverse direction — and any
        direction not listed — still flows. Independent of
        :meth:`partition`: both cuts may be open at once.
        """
        oneway_of = build_partition_map(groups)
        oneway_blocked = frozenset((a, b) for a, b in blocked)
        with self._lock:
            self.oneway_of = oneway_of
            self.oneway_blocked = oneway_blocked
            self._update_idle()

    def heal_oneway(self) -> None:
        """Remove any one-way cut."""
        with self._lock:
            self.oneway_of = {}
            self.oneway_blocked = frozenset()
            self._update_idle()

    def set_link_loss(self, matrix: Optional[dict]) -> None:
        """Open (or with ``None`` close) a sparse per-link loss matrix.

        ``matrix`` maps ``(src, dst)`` to a loss probability; pairs not
        in it are unaffected. Applied *after* the global loss model, and
        only draws from the RNG for pairs with an entry, so runs without
        link loss consume an identical RNG stream.
        """
        link_loss = dict(matrix) if matrix else None
        with self._lock:
            self.link_loss = link_loss
            self._update_idle()

    def set_bandwidth_cap(self, rate: Optional[float]) -> None:
        """Cap throughput at ``rate`` messages per second.

        Accounted in one-second windows of the caller's clock (see
        :class:`RateWindow`): once ``rate`` messages have entered within
        a window, further sends in that window are refused. ``None``
        removes the cap; setting a cap starts a fresh window.
        """
        cap = RateWindow(rate)  # validate outside the lock
        with self._lock:
            self.cap = cap
            self._update_idle()

    def verdict(self, src, dst, now: float, rng, routable=None) -> Optional[str]:
        """The counter a ``src -> dst`` message is charged to, or None.

        Rule order: partition, one-way cut, route (only when the caller
        passes the ``routable`` container), bandwidth cap (accounted at
        ``now``), loss model, per-link loss. The deterministic rules run
        before the loss draws, so they never perturb ``rng``; a message
        the cap lets through has spent its budget even if it is lost
        afterwards.
        """
        partition_of = self.partition_of
        if partition_of and partition_of.get(src, -1) != partition_of.get(dst, -1):
            return "partitioned"
        if self.oneway_blocked and crosses_oneway(
            self.oneway_of, self.oneway_blocked, src, dst
        ):
            return "oneway_blocked"
        if routable is not None and dst not in routable:
            return "no_route"
        if self.cap.rate is not None and self.cap.exceeded(now):
            return "capped"
        if self.loss.is_lost(src, dst, rng):
            return "lost"
        link_loss = self.link_loss
        if link_loss is not None:
            p = link_loss.get((src, dst))
            if p is not None and rng.random() < p:
                return "link_lost"
        return None


class Network(LinkRules):
    """Delivers messages between attached handlers through the simulator.

    Deliveries are *coalesced per instant*: every message arriving at one
    virtual timestamp is queued, and a single flush event — ordered after
    all of that instant's arrivals — hands each destination its messages
    in arrival order. Receivers that registered a ``batch_handler`` get
    them in one call (the simulator's counterpart of the threaded
    runtime's bulk queue drain, feeding
    :meth:`~repro.gossip.protocol.GossipProtocol.on_receive_batch`);
    plain handlers are invoked once per message, unchanged. Both round
    dispatch modes share this path, so runs remain byte-identical across
    them.

    Parameters
    ----------
    sim:
        The simulator used for scheduling deliveries and as RNG source.
    latency:
        A :class:`LatencyModel`; defaults to :class:`UniformLatency`.
    loss:
        A :class:`LossModel`; defaults to :class:`NoLoss`.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        loss: Optional[LossModel] = None,
    ) -> None:
        super().__init__(loss)
        self._sim = sim
        self._latency = latency if latency is not None else UniformLatency()
        self._rng = sim.rngs.stream("network")
        self._handlers: dict[Address, Handler] = {}
        self._batch_handlers: dict[Address, Callable] = {}
        # (message, src) pairs queued per destination for the current
        # instant, drained by one _flush_pending event per timestamp.
        self._pending: dict[Address, list] = {}
        self._flush_scheduled = False
        self.stats = NetworkStats()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(
        self,
        address: Address,
        handler: Handler,
        batch_handler: Optional[Callable] = None,
    ) -> None:
        """Register ``handler(message, src, now)`` as receiver for ``address``.

        ``batch_handler(messages, now)`` — ``messages`` a list in arrival
        order — takes precedence when several messages land at one
        instant (and is also used for single messages, so a receiver
        sees exactly one code path). Batch receivers that need the
        source must read it from the message itself.
        """
        if address in self._handlers:
            raise ValueError(f"address {address!r} already attached")
        self._handlers[address] = handler
        if batch_handler is not None:
            self._batch_handlers[address] = batch_handler

    def detach(self, address: Address) -> None:
        """Remove an address; in-flight messages to it are dropped on arrival."""
        self._handlers.pop(address, None)
        self._batch_handlers.pop(address, None)

    def is_attached(self, address: Address) -> bool:
        """Whether ``address`` currently has a receiver."""
        return address in self._handlers

    @property
    def addresses(self) -> list[Address]:
        """All currently attached addresses."""
        return list(self._handlers)

    @property
    def _loss(self) -> LossModel:
        """The loss model in force (read-only alias of ``loss``)."""
        return self.loss

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, src: Address, dst: Address, message: Any, items: int = 1) -> bool:
        """Queue ``message`` from ``src`` to ``dst`` (a one-address :meth:`multicast`).

        Returns True if the message was scheduled for delivery, False if
        it was dropped (loss, partition, or unknown destination). ``items``
        is an accounting hint (number of application events inside) used
        for payload statistics only.
        """
        return self.multicast(src, (dst,), message, items) == 1

    def multicast(self, src: Address, dsts, message: Any, items: int = 1) -> int:
        """Queue one ``message`` from ``src`` to every address in ``dsts``.

        The batched counterpart of calling :meth:`send` once per
        destination: statistics are updated in bulk, the loss/latency
        models are consulted per destination in ``dsts`` order (so RNG
        consumption — and therefore the whole run — is identical to the
        per-send path), and destinations whose sampled delays coincide are
        delivered by a single scheduled event. With a draw-free model pair
        like :class:`ConstantLatency` + :class:`NoLoss`, a whole fanout's
        deliveries collapse into one heap entry.

        Returns the number of destinations actually scheduled.
        """
        stats = self.stats
        n = len(dsts)
        stats.sent += n
        stats.payload_items += items * n
        handlers = self._handlers
        latency = self._latency
        fixed_delay = latency.delay if type(latency) is ConstantLatency else None
        idle = self.idle
        if idle and fixed_delay is not None:
            # Draw-free models, no open rule: every destination shares one
            # delay and nothing consults the RNG, so the whole fanout
            # reduces to a membership filter and a single scheduled event.
            batch = [dst for dst in dsts if dst in handlers]
            missing = n - len(batch)
            if missing:
                stats.no_route += missing
            if batch:
                self._sim.post(fixed_delay, self._deliver_batch, tuple(batch), message, src)
            return len(batch)
        # the fault-free loop stays call-free per destination: the rule
        # set is consulted only while something is open
        verdict = None if idle else self.verdict
        now = self._sim.now
        rng = self._rng
        post = self._sim.post
        scheduled = 0
        batch_delay = -1.0
        batch = []
        for dst in dsts:
            if verdict is not None:
                charged = verdict(src, dst, now, rng, handlers)
                if charged is not None:
                    setattr(stats, charged, getattr(stats, charged) + 1)
                    continue
            elif dst not in handlers:
                stats.no_route += 1
                continue
            delay = fixed_delay if fixed_delay is not None else latency.sample(src, dst, rng)
            if delay == batch_delay:
                batch.append(dst)
            else:
                if batch:
                    post(batch_delay, self._deliver_batch, tuple(batch), message, src)
                batch = [dst]
                batch_delay = delay
            scheduled += 1
        if batch:
            post(batch_delay, self._deliver_batch, tuple(batch), message, src)
        return scheduled

    def _deliver_batch(self, dsts: tuple, message: Any, src: Address) -> None:
        # Batch-handled destinations queue bare messages (their handler
        # never sees the source); plain handlers queue (message, src).
        pending = self._pending
        batched = self._batch_handlers
        for dst in dsts:
            queue = pending.get(dst)
            item = message if dst in batched else (message, src)
            if queue is None:
                pending[dst] = [item]
            else:
                queue.append(item)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._sim.post(0.0, self._flush_pending)

    def _flush_pending(self) -> None:
        # Runs at the same virtual time as the arrivals it drains: post()
        # sequencing orders it after every delivery event of this instant
        # (all were scheduled earlier), and anything a handler sends now
        # arrives strictly later, starting a fresh accumulation.
        self._flush_scheduled = False
        pending = self._pending
        if not pending:
            return
        self._pending = {}
        handlers = self._handlers
        batch_handlers = self._batch_handlers
        stats = self.stats
        now = self._sim.now
        for dst, items in pending.items():
            batch_handler = batch_handlers.get(dst)
            if batch_handler is not None:
                stats.delivered += len(items)
                batch_handler(items, now)
                continue
            handler = handlers.get(dst)
            if handler is None:
                # Receiver left while the messages were in flight.
                stats.no_route += len(items)
                continue
            stats.delivered += len(items)
            for message, src in items:
                handler(message, src, now)
