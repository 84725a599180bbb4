"""Tests for the fault-injecting chaos transport layer."""

import random
import time

import pytest

from repro.runtime.transport import (
    ChaosRules,
    ChaosTransport,
    InMemoryHub,
    Transport,
)
from repro.sim.network import BernoulliLoss, ConstantLatency, UniformLatency


class RecordingInner:
    """A stub Transport that records what actually hit the wire."""

    def __init__(self, address="stub"):
        self.address = address
        self.sent = []

    def send(self, dest, data):
        self.sent.append((dest, data))
        return True

    def recv(self, timeout):
        return None

    def close(self):
        pass


def test_transports_satisfy_the_protocol():
    hub = InMemoryHub()
    raw = hub.create("a")
    assert isinstance(raw, Transport)
    wrapped = ChaosTransport(raw, ChaosRules(), "a", seed=1)
    assert isinstance(wrapped, Transport)
    assert wrapped.address == raw.address


def test_same_seed_same_drop_decisions():
    """Seeded determinism: the same seed replays the same chaos."""

    def pattern(seed):
        rules = ChaosRules(loss=BernoulliLoss(0.4))
        inner = RecordingInner()
        transport = ChaosTransport(inner, rules, node=3, seed=seed)
        results = [
            transport.send("d", i.to_bytes(2, "big")) for i in range(200)
        ]
        rules.close()
        assert all(results)  # chaos drops are invisible to the caller
        return [int.from_bytes(data, "big") for _, data in inner.sent]

    assert pattern(7) == pattern(7)
    # and a different seed gives a different drop pattern (p ~ 1 - 2^-200)
    assert pattern(7) != pattern(8)


def test_same_seed_same_delay_draws():
    def delays(seed):
        rules = ChaosRules(latency=UniformLatency(0.01, 0.05))
        rng = random.Random(seed)
        out = [rules.plan(0, 1, rng) for _ in range(50)]
        rules.close()
        return out

    assert delays(42) == delays(42)
    assert delays(42) != delays(43)


def test_latency_scale_compresses_delays():
    rules = ChaosRules(latency=ConstantLatency(0.5), latency_scale=0.1)
    verdict = rules.plan(0, 1, random.Random(0))
    rules.close()
    assert verdict == pytest.approx(0.05)


def test_partition_blocks_cross_group_only():
    rules = ChaosRules()
    rules.partition([[0, 1], [2, 3]])
    rng = random.Random(0)
    assert rules.plan(0, 1, rng) == 0.0  # same group
    assert rules.plan(0, 2, rng) is None  # across the split
    assert rules.plan(4, 5, rng) == 0.0  # unmentioned nodes share group -1
    assert rules.plan(0, 4, rng) is None  # named vs unmentioned differ
    assert rules.stats.partitioned == 2
    rules.heal()
    assert rules.plan(0, 2, rng) == 0.0
    rules.close()


def test_bandwidth_cap_windows():
    t = [100.0]
    rules = ChaosRules(clock=lambda: t[0])
    rules.set_bandwidth_cap(3.0)
    rng = random.Random(0)
    verdicts = [rules.plan(0, 1, rng) for _ in range(5)]
    assert verdicts == [0.0, 0.0, 0.0, None, None]
    assert rules.stats.capped == 2
    t[0] = 101.0  # a fresh one-second window refills the budget
    assert rules.plan(0, 1, rng) == 0.0
    rules.set_bandwidth_cap(None)
    assert all(rules.plan(0, 1, rng) == 0.0 for _ in range(10))
    rules.close()


def test_cap_validation():
    rules = ChaosRules()
    with pytest.raises(ValueError):
        rules.set_bandwidth_cap(0.0)
    with pytest.raises(ValueError):
        ChaosRules(latency_scale=0.0)
    rules.close()


def test_delayed_datagrams_arrive_late_but_arrive():
    hub = InMemoryHub()
    a_raw = hub.create("a")
    b = hub.create("b")
    rules = ChaosRules(latency=ConstantLatency(0.05))
    a = ChaosTransport(a_raw, rules, "a", seed=1)
    t0 = time.monotonic()
    for i in range(3):
        assert a.send("b", bytes([i]))
    assert b.recv(0.0) is None  # nothing on the wire yet: all in flight
    got = [b.recv(1.0) for _ in range(3)]
    elapsed = time.monotonic() - t0
    assert [data for data, _ in got] == [b"\x00", b"\x01", b"\x02"]
    assert elapsed >= 0.05
    assert rules.stats.delayed == 3
    rules.close()


def test_rule_updates_apply_mid_stream():
    rules = ChaosRules()
    inner = RecordingInner()
    transport = ChaosTransport(inner, rules, node=0, seed=0)
    transport.send("d", b"1")
    rules.set_loss(BernoulliLoss(1.0))  # now everything drops
    transport.send("d", b"2")
    transport.send("d", b"3")
    rules.set_loss(None)
    transport.send("d", b"4")
    assert [data for _, data in inner.sent] == [b"1", b"4"]
    assert rules.stats.lost == 2
    rules.close()


def test_delay_line_close_drops_pending():
    hub = InMemoryHub()
    a_raw = hub.create("a")
    b = hub.create("b")
    rules = ChaosRules(latency=ConstantLatency(5.0))
    a = ChaosTransport(a_raw, rules, "a", seed=1)
    a.send("b", b"late")
    rules.close()  # pending delayed datagram is dropped, thread joins
    assert b.recv(0.05) is None


def test_oneway_cut_blocks_one_direction_only():
    rules = ChaosRules()
    rules.partition_oneway([[0, 1], [2, 3]], blocked=[(0, 1)])
    rng = random.Random(0)
    assert rules.plan(0, 2, rng) is None  # group 0 -> group 1: cut
    assert rules.plan(2, 0, rng) == 0.0  # reverse direction flows
    assert rules.plan(0, 1, rng) == 0.0  # inside a group
    assert rules.stats.oneway_blocked == 1
    rules.heal_oneway()
    assert rules.plan(0, 2, rng) == 0.0
    rules.close()


def test_link_loss_matrix_is_per_pair():
    rules = ChaosRules()
    rules.set_link_loss({(0, 1): 1.0})
    rng = random.Random(0)
    assert rules.plan(0, 1, rng) is None
    assert rules.plan(1, 0, rng) == 0.0  # reverse pair not in the matrix
    assert rules.plan(0, 2, rng) == 0.0
    assert rules.stats.link_lost == 1
    rules.set_link_loss(None)
    assert rules.plan(0, 1, rng) == 0.0
    rules.close()


def test_link_loss_draws_rng_only_for_matrix_pairs():
    """Mirrors the sim discipline: pairs outside the matrix must not
    consume the chaos stream, or the matrix would shift every later
    draw and desynchronise unrelated links."""
    rules = ChaosRules(loss=None)
    rules.set_link_loss({(0, 1): 0.5})
    rng = random.Random(0)
    before = rng.getstate()
    rules.plan(0, 2, rng)
    assert rng.getstate() == before
    rules.plan(0, 1, rng)
    assert rng.getstate() != before
    rules.close()


def test_restart_reseeds_the_same_chaos_stream():
    """A crashed-and-restarted node rebuilds its ChaosTransport from the
    same derived seed (the cluster derives it from (seed, "chaos", node)),
    so the restarted node replays the identical drop pattern — restarts
    do not fork the chaos timeline."""

    def wire_pattern(run):
        rules = ChaosRules(loss=BernoulliLoss(0.4))
        rules.set_link_loss({("x", "d"): 0.3})
        inner = RecordingInner()
        transport = ChaosTransport(inner, rules, node="x", seed=99)
        for i in range(200):
            transport.send("d", i.to_bytes(2, "big"))
        rules.close()
        return [int.from_bytes(data, "big") for _, data in inner.sent]

    first_life = wire_pattern(0)
    restarted = wire_pattern(1)  # a fresh transport, same node + seed
    assert first_life == restarted
    assert 0 < len(first_life) < 200  # chaos actually ate something
