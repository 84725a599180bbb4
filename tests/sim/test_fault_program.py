"""The compiled fault program and the one link-rule evaluator.

:func:`~repro.sim.faults.compile_program` lowers fault, churn and
resource scripts once; the simulator schedules the result and the live
drivers replay it on a wall clock (:func:`~repro.scenarios.runner.live_actions`).
These tests pin the program itself (every condition kind lowers, one
same-instant order), the drivers' agreement on it (adjacent windows
listed out of time order), and the shared counter vocabulary across the
simulator's three execution lanes.
"""

import dataclasses
import typing

import pytest

from repro.experiments.harness import build_cluster, run_once, spec_for_scenario
from repro.gossip.config import SystemConfig
from repro.membership.churn import ChurnScript
from repro.runtime.cluster import ThreadedCluster
from repro.scenarios.runner import live_actions
from repro.scenarios.spec import FixedLinks, ScenarioSpec, SenderSpec
from repro.sim.engine import Simulator
from repro.sim.faults import (
    AsymmetricPartitionWindow,
    BandwidthCapWindow,
    CrashWindow,
    Fault,
    FaultScript,
    FaultTarget,
    LinkLossWindow,
    LossWindow,
    PartitionWindow,
    compile_program,
    schedule_program,
)
from repro.sim.network import RULE_OPS, BernoulliLoss, LinkRules, Network
from repro.workload.dynamics import ResourceScript

TARGET_OPS = {
    name for name in vars(FaultTarget) if not name.startswith("_")
}

# one sample per member of the Fault union; the test below fails when a
# kind is added without one
SAMPLES = {
    LossWindow: LossWindow(1.0, 2.0, 0.3),
    LinkLossWindow: LinkLossWindow(1.0, 2.0, {(0, 1): 0.5}),
    PartitionWindow: PartitionWindow(1.0, 2.0, ((0,), (1,))),
    AsymmetricPartitionWindow: AsymmetricPartitionWindow(1.0, 2.0, ((0,), (1,))),
    CrashWindow: CrashWindow(1.0, (2, 3), restart_at=4.0),
    BandwidthCapWindow: BandwidthCapWindow(1.0, 2.0, 10.0),
}


class Recorder:
    """A FaultTarget that logs every op it receives, in order."""

    def __init__(self) -> None:
        self.log = []

    def __getattr__(self, op):
        if op not in TARGET_OPS:
            raise AttributeError(op)
        return lambda *args: self.log.append((op, args))


def test_target_vocabulary_is_rule_ops_plus_node_ops():
    assert RULE_OPS <= TARGET_OPS
    assert TARGET_OPS - RULE_OPS == {
        "crash_node",
        "join_node",
        "leave_node",
        "set_capacity",
        "set_offered_rate",
    }


def test_every_fault_kind_churn_and_resource_change_compiles_to_ops():
    assert set(SAMPLES) == set(typing.get_args(Fault))
    for kind, fault in SAMPLES.items():
        program = compile_program(faults=FaultScript([fault]))
        assert program, kind.__name__
        assert {op for _, op, _ in program} <= TARGET_OPS
        assert [t for t, _, _ in program] == sorted(t for t, _, _ in program)
    churn = ChurnScript().leave(1.0, 5).join(2.0, 5).crash(3.0, 6)
    assert compile_program(churn=churn) == (
        (1.0, "leave_node", (5,)),
        (2.0, "join_node", (5,)),
        (3.0, "crash_node", (6,)),
    )
    resources = ResourceScript().set_capacity(1.0, [1, 2], 9).set_offered_rate(2.0, [0], 3.0)
    assert compile_program(resources=resources) == (
        (1.0, "set_capacity", (1, 9)),
        (1.0, "set_capacity", (2, 9)),
        (2.0, "set_offered_rate", (0, 3.0)),
    )


def test_unknown_fault_kinds_compile_to_nothing():
    @dataclasses.dataclass(frozen=True)
    class AlienWindow:
        time: float = 1.0
        duration: float = 1.0

    assert compile_program(faults=FaultScript([AlienWindow()])) == ()


def _same_instant_program():
    # at t=5: a resource change, a loss window closing and one opening
    # (listed out of time order), a crash window and a churn leave
    return compile_program(
        faults=FaultScript()
        .loss(5.0, 5.0, 0.5)
        .crash(5.0, [7])
        .loss(0.0, 5.0, 0.3),
        churn=ChurnScript().leave(5.0, 6),
        resources=ResourceScript().set_capacity(5.0, [3], 11),
    )


def test_same_instant_ops_follow_the_simulators_insertion_order():
    at_five = [(op, args) for t, op, args in _same_instant_program() if t == 5.0]
    assert at_five == [
        ("set_capacity", (3, 11)),  # resources first
        ("set_loss", (None,)),  # the earlier window closes...
        ("set_loss", (BernoulliLoss(0.5),)),  # ...before the later one opens
        ("crash_node", (7,)),
        ("leave_node", (6,)),  # churn last
    ]


def test_sim_and_live_replays_fire_the_program_in_one_order():
    program = _same_instant_program()
    expected = [(op, args) for _, op, args in program]

    sim = Simulator(seed=0)
    sim_target = Recorder()
    schedule_program(program, sim, sim_target, sim_target)
    sim.run()
    assert sim_target.log == expected

    live_target = Recorder()
    for _, fire, args in live_actions(program, 0.1, live_target, live_target, []):
        fire(*args)
    assert live_target.log == expected


def test_live_replay_repaces_feeders_and_leaves_t0_capacity_to_prestart():
    @dataclasses.dataclass
    class Arrivals:
        rate: float

    @dataclasses.dataclass
    class Feeder:
        node: int
        arrivals: Arrivals

    feeders = [Feeder(0, Arrivals(1.0)), Feeder(1, Arrivals(1.0))]
    program = compile_program(
        resources=ResourceScript()
        .set_capacity(0.0, [2], 5)
        .set_offered_rate(3.0, [1], 9.0)
    )
    target = Recorder()
    actions = live_actions(program, 0.5, target, target, feeders)
    assert [(due, args) for due, _, args in actions] == [(1.5, (1, 9.0))]
    for _, fire, args in actions:
        fire(*args)
    assert [f.arrivals.rate for f in feeders] == [1.0, 9.0]
    assert target.log == []


# ----------------------------------------------------------------------
# adjacent windows listed out of time order: the later one holds at t=15
# ----------------------------------------------------------------------
ADJACENT = {
    "loss": (
        FaultScript().loss(10, 10, 0.5).loss(0, 10, 0.3),
        lambda rules: rules.loss == BernoulliLoss(0.5),
    ),
    "partition": (
        FaultScript().partition(10, 10, [[0, 1], [2, 3]]).partition(0, 10, [[0], [1, 2, 3]]),
        lambda rules: rules.partition_of == {0: 0, 1: 0, 2: 1, 3: 1},
    ),
    "bandwidth cap": (
        FaultScript().bandwidth_cap(10, 10, 5.0).bandwidth_cap(0, 10, 3.0),
        lambda rules: rules.cap.rate == 5.0,
    ),
}


@pytest.mark.parametrize("kind", sorted(ADJACENT))
def test_adjacent_windows_program_holds_the_later_window(kind):
    script, in_force = ADJACENT[kind]
    rules = LinkRules()
    for time, op, args in compile_program(faults=script):
        if time <= 15:
            getattr(rules, op)(*args)
    assert in_force(rules)


@pytest.mark.parametrize("kind", sorted(ADJACENT))
def test_adjacent_windows_sim_holds_the_later_window(kind):
    script, in_force = ADJACENT[kind]
    sim = Simulator(seed=0)
    net = Network(sim)
    script.apply(sim, net)
    sim.run(until=15.0)
    assert in_force(net)


@pytest.mark.parametrize("kind", sorted(ADJACENT))
def test_adjacent_windows_threaded_driver_holds_the_later_window(kind):
    script, in_force = ADJACENT[kind]
    spec = ScenarioSpec(
        name="adjacent",
        n_nodes=4,
        system=SystemConfig(buffer_capacity=20, dedup_capacity=200),
        senders=(SenderSpec(0, 2.0),),
        faults=script,
        duration=30.0,
        warmup=5.0,
        drain=5.0,
    )
    scale = 0.1 / spec.system.gossip_period
    cluster = ThreadedCluster.from_scenario(spec, gossip_period=0.1, transport="memory")
    try:
        program = compile_program(spec.faults, spec.churn, spec.resources, spec.baseline_loss)
        for due, fire, args in live_actions(program, scale, cluster.chaos, cluster, []):
            if due <= 15 * scale:
                fire(*args)
        assert in_force(cluster.chaos)
    finally:
        cluster.stop()


# ----------------------------------------------------------------------
# one counter vocabulary across timers, batched and vector
# ----------------------------------------------------------------------
def _all_rules_spec() -> ScenarioSpec:
    n = 24
    links = {(src, dst): 0.5 for src in range(4) for dst in range(4, 12)}
    return ScenarioSpec(
        name="all-rules",
        n_nodes=n,
        protocol="lpbcast",
        system=SystemConfig(
            buffer_capacity=40,
            dedup_capacity=2000,
            round_phase=0.0,
            round_jitter=0.0,
        ),
        topology=FixedLinks(0.01),
        senders=(SenderSpec(0, 6.0), SenderSpec(13, 6.0)),
        faults=FaultScript()
        .partition(6.0, 6.0, [list(range(12)), list(range(12, n))])
        .oneway_partition(4.0, 10.0, [list(range(6)), list(range(6, n))], [(1, 0)])
        .bandwidth_cap(8.0, 3.0, 40.0)
        .loss(5.0, 9.0, 0.2)
        .link_loss(3.0, 14.0, links),
        duration=24.0,
        warmup=4.0,
        drain=4.0,
        seed=11,
    )


NET_COUNTERS = ("net_lost", "net_partitioned", "net_oneway_blocked", "net_link_lost", "net_capped")


def test_counters_agree_across_lanes_and_conserve_messages():
    spec = _all_rules_spec()
    counters = {}
    for dispatch in ("timers", "batched", "vector"):
        run_spec = spec_for_scenario(spec, dispatch=dispatch)
        result = run_once(run_spec)
        counters[dispatch] = tuple(getattr(result, name) for name in NET_COUNTERS)
        assert all(counters[dispatch]), (dispatch, counters[dispatch])

        cluster = build_cluster(run_spec)
        try:
            assert (cluster.vector is not None) == (dispatch == "vector")
            # ticks land on whole seconds and arrive 0.01 s later: at
            # t=17.5 every message ever sent has arrived or been charged
            cluster.run(until=17.5)
            s = cluster.network.stats
            assert s.sent > 0
            assert s.sent == (
                s.delivered
                + s.lost
                + s.partitioned
                + s.oneway_blocked
                + s.link_lost
                + s.capped
                + s.no_route
            ), (dispatch, s)
        finally:
            cluster.close()
    assert counters["timers"] == counters["batched"] == counters["vector"]
