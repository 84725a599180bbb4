"""Transports for the real-time runtime.

A transport delivers opaque datagrams between addresses. The
:class:`Transport` protocol names the contract; two base transports are
provided:

* :class:`InMemoryTransport` — endpoints registered on a shared
  :class:`InMemoryHub`; delivery is a thread-safe queue hand-off.
  Deterministic enough for CI, no sockets involved.
* :class:`UdpTransport` — real UDP on localhost (or a LAN), mirroring
  the paper's prototype deployment. Gossip tolerates datagram loss by
  design, so UDP's best-effort semantics are exactly right.

Both expose the same blocking ``recv(timeout)`` interface the node loop
consumes.

On top of either sits :class:`ChaosTransport`, a composable decorator
that injects the adverse network conditions the simulator models —
Bernoulli/burst loss, latency distributions, bandwidth caps and
partitions — into *real* sends. One shared :class:`ChaosRules` value
holds the live rule set for a whole cluster (fault schedulers mutate it
mid-run from any thread); each wrapped endpoint draws its drop/delay
decisions from its own per-node seeded RNG, so a given seed always
produces the same decision sequence on a given send sequence. Delayed
datagrams ride a single shared :class:`DelayLine` thread per rule set.
The loss/latency vocabularies are the simulator's own
(:class:`~repro.sim.network.LossModel` / ``LatencyModel``), so a
scenario's network environment lowers onto the threaded runtime without
translation.
"""

from __future__ import annotations

import heapq
import queue
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.sim.network import LinkRules
from repro.sim.rng import derive_seed

__all__ = [
    "Transport",
    "InMemoryHub",
    "InMemoryTransport",
    "UdpTransport",
    "ChaosStats",
    "ChaosRules",
    "ChaosTransport",
    "DelayLine",
]


@runtime_checkable
class Transport(Protocol):
    """What the node loop needs from a transport endpoint.

    Structural: anything with an ``address``, a non-blocking-ish
    ``send`` and a blocking ``recv(timeout)`` qualifies — the in-memory
    hub endpoint, a UDP socket, or a chaos decorator around either.
    """

    address: Any

    def send(self, dest: Any, data: bytes) -> bool: ...

    def recv(self, timeout: float) -> Optional[tuple[bytes, Any]]: ...

    def close(self) -> None: ...


class InMemoryHub:
    """Shared registry connecting in-memory endpoints by address."""

    def __init__(self) -> None:
        self._endpoints: dict[object, "InMemoryTransport"] = {}
        self._lock = threading.Lock()
        self.dropped = 0

    def create(self, address: object, max_queue: int = 1024) -> "InMemoryTransport":
        """Register a new endpoint at ``address``."""
        transport = InMemoryTransport(self, address, max_queue)
        with self._lock:
            if address in self._endpoints:
                raise ValueError(f"address {address!r} already registered")
            self._endpoints[address] = transport
        return transport

    def _route(self, dest: object, data: bytes, src: object) -> bool:
        with self._lock:
            endpoint = self._endpoints.get(dest)
        if endpoint is None:
            self.dropped += 1
            return False
        return endpoint._enqueue(data, src)

    def _remove(self, address: object, transport: Optional["InMemoryTransport"] = None) -> None:
        with self._lock:
            # identity-checked: a late close of a *retired* endpoint
            # (e.g. a leave-grace timer firing after the node rejoined)
            # must not unregister the fresh endpoint at the same address
            if transport is None or self._endpoints.get(address) is transport:
                self._endpoints.pop(address, None)

    def addresses(self) -> list[object]:
        """All currently registered endpoint addresses."""
        with self._lock:
            return list(self._endpoints)


class InMemoryTransport:
    """One endpoint on an :class:`InMemoryHub`."""

    def __init__(self, hub: InMemoryHub, address: object, max_queue: int) -> None:
        self._hub = hub
        self.address = address
        self._queue: "queue.Queue[tuple[bytes, object]]" = queue.Queue(max_queue)
        self._closed = False

    def send(self, dest: object, data: bytes) -> bool:
        """Deliver ``data`` to ``dest``'s queue; False if unknown/full."""
        if self._closed:
            raise RuntimeError("transport closed")
        return self._hub._route(dest, data, self.address)

    def _enqueue(self, data: bytes, src: object) -> bool:
        try:
            self._queue.put_nowait((data, src))
            return True
        except queue.Full:
            # Best-effort like UDP: drop on overrun.
            self._hub.dropped += 1
            return False

    def recv(self, timeout: float) -> Optional[tuple[bytes, object]]:
        """Blocking receive; None on timeout."""
        try:
            return self._queue.get(timeout=max(0.0, timeout))
        except queue.Empty:
            return None

    def close(self) -> None:
        """Unregister from the hub; further sends raise."""
        self._closed = True
        self._hub._remove(self.address, self)


class UdpTransport:
    """A UDP socket endpoint; addresses are ``(host, port)`` pairs."""

    MAX_DATAGRAM = 65507

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((host, port))
        self.address = self._sock.getsockname()
        self._closed = False

    def send(self, dest: tuple[str, int], data: bytes) -> bool:
        """Send one datagram; False on OS-level send failure."""
        if self._closed:
            raise RuntimeError("transport closed")
        if len(data) > self.MAX_DATAGRAM:
            raise ValueError(f"datagram too large: {len(data)} bytes")
        try:
            self._sock.sendto(data, dest)
            return True
        except OSError:
            return False

    def recv(self, timeout: float) -> Optional[tuple[bytes, tuple[str, int]]]:
        """Blocking receive; None on timeout or if closed mid-wait."""
        self._sock.settimeout(max(1e-4, timeout))
        try:
            data, src = self._sock.recvfrom(self.MAX_DATAGRAM)
            return data, src
        except (TimeoutError, socket.timeout):
            return None
        except OSError:
            return None  # closed under us

    def close(self) -> None:
        """Close the socket; a blocked recv returns None."""
        self._closed = True
        self._sock.close()


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
@dataclass
class ChaosStats:
    """What the chaos layer did to traffic (whole rule set, all nodes).

    The eaten-datagram counters carry the
    :class:`~repro.sim.network.NetworkStats` names — each is the name of
    the :meth:`~repro.sim.network.LinkRules.verdict` that charges it.
    """

    sent: int = 0  # passed through (possibly after a delay)
    delayed: int = 0  # forwarded late through the delay line
    partitioned: int = 0  # eaten by an open partition
    oneway_blocked: int = 0  # eaten by a one-way (directed) cut
    capped: int = 0  # eaten by the bandwidth cap
    lost: int = 0  # eaten by the loss model
    link_lost: int = 0  # eaten by the per-link loss matrix

    @property
    def eaten(self) -> int:
        """Everything that never reached the wire."""
        return (
            self.partitioned
            + self.oneway_blocked
            + self.capped
            + self.lost
            + self.link_lost
        )


class DelayLine:
    """One shared timer thread forwarding delayed datagrams when due.

    Submissions are (due wall time, thunk) pairs on a heap; a single
    daemon thread (started lazily on first use) pops due entries and
    runs them. Thunks that raise are dropped silently — a delayed send
    races node shutdown by construction, and late datagrams into a
    closed endpoint are exactly UDP semantics.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._cond = threading.Condition()
        self._seq = 0
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    def submit(self, due: float, thunk: Callable[[], None]) -> None:
        with self._cond:
            if self._closed:
                return  # shutting down: late traffic is dropped
            heapq.heappush(self._heap, (due, self._seq, thunk))
            self._seq += 1
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="chaos-delay-line", daemon=True
                )
                self._thread.start()
            self._cond.notify()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._closed and (
                    not self._heap or self._heap[0][0] > time.monotonic()
                ):
                    wait = (
                        self._heap[0][0] - time.monotonic() if self._heap else None
                    )
                    self._cond.wait(timeout=wait if wait is None or wait > 0 else 0)
                if self._closed:
                    return
                _, _, thunk = heapq.heappop(self._heap)
            try:
                thunk()
            except Exception:
                pass  # endpoint closed under us: best-effort, like the wire

    def close(self) -> None:
        """Stop the thread; pending delayed datagrams are dropped."""
        with self._cond:
            self._closed = True
            self._heap.clear()
            self._cond.notify_all()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)


class ChaosRules(LinkRules):
    """The live fault rule set one cluster's chaos endpoints consult.

    The rule state, setters and per-send decision are the simulator's
    own :class:`~repro.sim.network.LinkRules`, so the drivers share the
    semantics, not just the setter names; this class adds the lock,
    latency scaling, the address map and the delay line.

    Thread-safety: setters may be called from any thread (the scenario
    fault scheduler lives on the feeder thread, decisions happen on node
    threads); every read/write of the rule state goes through one lock.
    Decision RNGs live in the per-endpoint :class:`ChaosTransport`, not
    here, so rule mutations never perturb another node's random stream.

    Parameters
    ----------
    loss / latency:
        Initial models — the simulator's own vocabularies
        (:class:`~repro.sim.network.LossModel` with
        ``is_lost(src, dst, rng)``, ``LatencyModel`` with
        ``sample(src, dst, rng)``); either may be None.
    latency_scale:
        Multiplier applied to sampled latencies — threaded scenario runs
        compress spec time onto a shorter wall clock, and link delays
        must shrink with it.
    clock:
        Time source for bandwidth-cap window accounting. Delayed
        datagrams always ride wall time (the delay line's thread waits
        on ``time.monotonic``), so an injected clock shapes cap windows
        only.
    node_of:
        Maps transport addresses back to protocol node ids (identity by
        default — correct for the in-memory hub, where address == id);
        loss/latency/partition rules all speak node ids.
    """

    def __init__(
        self,
        loss: Optional[Any] = None,
        latency: Optional[Any] = None,
        latency_scale: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        node_of: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        if latency_scale <= 0:
            raise ValueError("latency_scale must be > 0")
        super().__init__(loss, lock=threading.Lock())
        self._latency = latency
        self._latency_scale = latency_scale
        self._clock = clock
        self._node_of = node_of if node_of is not None else lambda addr: addr
        self.stats = ChaosStats()
        self.delay_line = DelayLine()

    def bind_address_map(self, node_of: Callable[[Any], Any]) -> None:
        """Install the address→node translation (clusters wire this)."""
        self._node_of = node_of

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Install the cap-accounting clock (clusters wire this).

        Scenario lowering binds a *spec-time* clock (wall seconds
        divided by the run's time scale), so cap windows bucket per
        spec second exactly like the simulator's network — same budget
        granularity, not just the same average rate.
        """
        with self._lock:
            self._clock = clock
        self.set_bandwidth_cap(self.cap.rate)  # restart the current window

    def set_latency(self, latency: Optional[Any]) -> None:
        """Install (or clear) the latency model."""
        with self._lock:
            self._latency = latency

    def plan(self, src: Any, dest_addr: Any, rng: random.Random) -> Optional[float]:
        """Decide one send's fate: None = eat it, else delay in seconds.

        The rules are the simulator's (:meth:`LinkRules.verdict`, which
        names the :class:`ChaosStats` counter an eaten send charges);
        the latency draw happens last. The whole decision runs inside
        one lock acquisition — loss models may be stateful
        (``BurstLoss`` mutates per decision) and are shared by every
        node thread, so the model call itself must be serialised, not
        just the rule snapshot.
        """
        dst = self._node_of(dest_addr)
        with self._lock:
            stats = self.stats
            verdict = self.verdict(src, dst, self._clock(), rng)
            if verdict is not None:
                setattr(stats, verdict, getattr(stats, verdict) + 1)
                return None
            if self._latency is not None:
                delay = self._latency.sample(src, dst, rng) * self._latency_scale
                if delay > 0:
                    stats.delayed += 1
                    return delay
        return 0.0

    def note_sent(self) -> None:
        """Count one datagram that actually reached the inner transport."""
        with self._lock:
            self.stats.sent += 1

    def close(self) -> None:
        """Tear down the delay line (pending delayed datagrams drop)."""
        self.delay_line.close()


class ChaosTransport:
    """A fault-injecting decorator around any :class:`Transport`.

    Receives pass straight through; sends consult the shared
    :class:`ChaosRules` with this endpoint's own seeded RNG. Dropped,
    capped and partition-blocked datagrams report ``True`` to the caller
    — like the real network, the sender cannot tell a lost datagram from
    a delivered one (only hub-level failures like an unknown address
    still report ``False``).
    """

    def __init__(
        self,
        inner: Transport,
        rules: ChaosRules,
        node: Any,
        seed: int = 0,
    ) -> None:
        self.inner = inner
        self.rules = rules
        self.node = node
        self.address = inner.address
        self.rng = random.Random(derive_seed(seed, "chaos", node))

    def send(self, dest: Any, data: bytes) -> bool:
        rules = self.rules
        verdict = rules.plan(self.node, dest, self.rng)
        if verdict is None:
            return True  # eaten: indistinguishable from wire loss
        if verdict <= 0.0:
            ok = self.inner.send(dest, data)
            if ok:
                rules.note_sent()
            return ok
        inner = self.inner

        def forward() -> None:
            # counted as sent only when the wire actually takes it —
            # a delay line torn down mid-flight drops the datagram and
            # must not inflate the pass-through count
            if inner.send(dest, data):
                rules.note_sent()

        rules.delay_line.submit(time.monotonic() + verdict, forward)
        return True

    def recv(self, timeout: float) -> Optional[tuple[bytes, Any]]:
        return self.inner.recv(timeout)

    def close(self) -> None:
        self.inner.close()
