"""The benchmark's metric vocabulary and the layer boundaries it times.

``END_TO_END`` are the numbers a user of the system sees; ``PER_LAYER``
are spans and counters at public call boundaries, named
``<module>.<function>.<stat>``. Each per-layer entry names the
end-to-end metric it is expected to move and on which workloads, so a
later change can cite a claim by metric and workload name.
``BENCHMARK.json`` is generated from these tables
(``python3 perfbench/run.py --emit-benchmark-json``).
"""

from __future__ import annotations

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "install"]

PAPER, GATE, MEGA, LIVE = "paper-sweep", "scenario-gate", "mega-vector", "live-udp"
SIM = (PAPER, GATE, MEGA)

WORKLOADS = {
    PAPER: "the paper's own regime (adaptive vs baseline lpbcast, Figs 6-8): "
    "per-node batched lane, so gossip, core, metrics and sim.engine/network "
    "carry the work",
    GATE: "check-scenarios --all --quick in-process: the only workload driving "
    "sim.faults lowering, Network fault rules, partial views, churn and the "
    "scenarios expectation/baseline layers",
    MEGA: "the five mega-* scenarios at 10k nodes on the vector lane: sim.vector "
    "carries the work; mega-flood skips the fault filter, the four faulted "
    "ones run it",
    LIVE: "ProcessCluster runs correlated-loss (30 nodes, 2 workers) over "
    "loopback UDP: the only workload using runtime (codec, sockets, "
    "ChaosRules, spawn)",
}

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
# Host time on a shared 2-core VM moves by up to a third between minutes
# (CPU steal and a slower shared core), so every time metric gets the
# widest bound allowed; the model-side metrics are steadier.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("node_rounds_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("reliability", "fraction", "higher", 0.05),
    ("atomicity", "fraction", "higher", 0.15),
    ("dissemination_p50_rounds", "rounds", "lower", 0.2),
    ("dissemination_p99_rounds", "rounds", "lower", 0.25),
    ("ops_ok_ratio", "fraction", "higher", 0.01),
)


def _layer(name, unit, better, moves, workloads):
    return {
        "name": name,
        "unit": unit,
        "better": better,
        "moves": moves,
        "workloads": workloads,
    }


def _spans(prefix, functions, moves, workloads, stats=("calls", "self_s")):
    units = {"calls": ("count", "lower"), "self_s": ("s", "lower"), "bytes": ("B", "lower")}
    return [
        _layer(f"{prefix}.{fn}.{stat}", *units[stat], moves, workloads)
        for fn in functions
        for stat in stats
    ]


PER_LAYER = (
    # metrics: the delivery/drop/gauge callback chain
    *_spans("metrics", ("on_deliver", "on_drop", "sample_gauge"), "wall_s", (PAPER,)),
    _layer("metrics.analyze.self_s", "s", "lower", "wall_s", (PAPER,)),
    # gossip: the per-node lpbcast fold
    *_spans("gossip", ("on_round_batch", "on_receive_batch"), "wall_s", (PAPER, GATE)),
    _layer("gossip.events_delivered", "count", "higher", "reliability", SIM + (LIVE,)),
    _layer("gossip.duplicates_seen", "count", "lower", "wall_s", (PAPER, GATE)),
    _layer("gossip.useful_ratio", "fraction", "higher", "wall_s", (PAPER, GATE)),
    _layer("gossip.drops_overflow", "count", "lower", "reliability", (PAPER, GATE)),
    _layer("gossip.drops_age_out", "count", "lower", "reliability", (PAPER, GATE)),
    # core: the adaptive machinery of section 3
    *_spans("core", ("round_tick", "on_header", "try_admit"), "wall_s", (PAPER,)),
    _layer("core.admit_ratio", "fraction", "higher", "reliability", (PAPER,)),
    # sim.engine / sim.network
    _layer("sim.engine.events", "count", "lower", "wall_s", (PAPER, GATE)),
    _layer("sim.engine.events_per_node_round", "count", "lower", "wall_s", (PAPER, GATE)),
    *_spans("sim.network", ("multicast", "send"), "wall_s", (PAPER, GATE)),
    *(
        _layer(f"sim.network.{counter}", "count", "lower", "wall_s", (PAPER, GATE))
        for counter in (
            "sent",
            "delivered",
            "lost",
            "partitioned",
            "oneway_blocked",
            "link_lost",
            "capped",
        )
    ),
    _layer("sim.network.delivered_ratio", "fraction", "higher", "reliability", (PAPER, GATE)),
    # membership: target sampling (full and partial views)
    *_spans("membership", ("sample_targets",), "wall_s", (PAPER, GATE)),
    # sim.faults and the scenarios layer
    _layer("sim.faults.apply.self_s", "s", "lower", "setup_s", (GATE, MEGA)),
    *_spans("scenarios", ("lower", "expectations", "baseline_compare"), "setup_s", (GATE,), ("self_s",)),
    _layer("scenarios.expectations_failed", "count", "lower", "ops_ok_ratio", (GATE, MEGA)),
    _layer("scenarios.baselines_drifted", "count", "lower", "ops_ok_ratio", (GATE,)),
    # sim.vector: host time per round of the columnar lane
    _layer("sim.vector.round_ms.p50", "ms", "lower", "wall_s", (MEGA,)),
    _layer("sim.vector.round_ms.p99", "ms", "lower", "wall_s", (MEGA,)),
    _layer("sim.vector.live_events", "count", "lower", "node_rounds_per_s", (MEGA,)),
    *_spans("sim.vector", ("crash", "restart"), "wall_s", (MEGA,), ("calls",)),
    # experiments: cluster build and the run harness
    _layer("experiments.build_cluster.self_s", "s", "lower", "setup_s", SIM),
    *_spans("experiments", ("run_once",), "setup_s", SIM),
    _layer("workload.run.self_s", "s", "lower", "wall_s", SIM),
    # runtime: codec, chaos, sockets and the process split
    *_spans("runtime.codec", ("encode", "decode"), "cpu_s", (LIVE,), ("calls", "self_s", "bytes")),
    *(
        _layer(f"runtime.chaos.{counter}", "count", "lower", "reliability", (LIVE,))
        for counter in ("eaten", "delayed", "oneway_blocked")
    ),
    *(
        _layer(f"runtime.{counter}", "count", "lower", "cpu_s", (LIVE,))
        for counter in ("decode_errors", "send_failures", "bind_errors", "duplicates")
    ),
    _layer("runtime.port_attempts", "count", "lower", "setup_s", (LIVE,)),
    _layer("runtime.parent_cpu_s", "s", "lower", "cpu_s", (LIVE,)),
    _layer("runtime.workers_cpu_s", "s", "lower", "cpu_s", (LIVE,)),
    _layer("runtime.offers_shortfall", "fraction", "lower", "reliability", (LIVE,)),
    # the cost of tracing itself (traced wall minus untraced wall)
    _layer("trace.overhead_s", "s", "lower", "wall_s", SIM + (LIVE,)),
    _layer("trace.overhead_ratio", "fraction", "lower", "wall_s", SIM + (LIVE,)),
)


def install(tracer) -> None:
    """Patch every in-process layer boundary the per-layer metrics name."""
    from repro.core.machinery import AdaptiveMachinery
    from repro.experiments import harness
    from repro.gossip.lpbcast import LpbcastProtocol
    from repro.membership.full import FullMembershipView
    from repro.membership.views import PartialViewMembership
    from repro.metrics import delivery
    from repro.metrics.collector import MetricsCollector
    from repro.runtime.codec import BinaryCodec
    from repro.scenarios import baselines, expectations, registry
    from repro.sim.faults import FaultScript
    from repro.sim.network import Network
    from repro.sim.vector import VectorRoundExecutor
    from repro.workload.cluster import SimCluster

    # hot boundaries keep per-name statistics only
    method = tracer.patch_method
    for name in ("on_deliver", "on_drop", "sample_gauge"):
        method(MetricsCollector, name, f"metrics.{name}")
    for name in ("on_round_batch", "on_receive_batch"):
        method(LpbcastProtocol, name, f"gossip.{name}")
    method(AdaptiveMachinery, "round_tick", "core.round_tick")
    method(AdaptiveMachinery, "on_header", "core.on_header")
    method(
        AdaptiveMachinery,
        "try_admit",
        "core.try_admit",
        measure=lambda args, admitted: (0, 1 if admitted else 0),
    )
    method(Network, "multicast", "sim.network.multicast")
    method(Network, "send", "sim.network.send")
    method(FullMembershipView, "sample_targets", "membership.sample_targets")
    method(PartialViewMembership, "sample_targets", "membership.sample_targets")
    method(
        BinaryCodec,
        "encode",
        "runtime.codec.encode",
        measure=lambda args, data: (len(data), 0),
    )
    method(
        BinaryCodec,
        "decode",
        "runtime.codec.decode",
        measure=lambda args, message: (len(args[1]), 0),
    )

    # coarse boundaries keep every span
    method(FaultScript, "apply", "sim.faults.apply", keep=True)
    method(VectorRoundExecutor, "crash", "sim.vector.crash", keep=True)
    method(VectorRoundExecutor, "restart", "sim.vector.restart", keep=True)
    method(SimCluster, "run", "workload.run", keep=True)
    fn = tracer.patch_function
    fn(harness, "build_cluster", "experiments.build_cluster", keep=True)
    fn(harness, "run_once", "experiments.run_once", keep=True)
    fn(harness, "spec_for_scenario", "scenarios.lower", keep=True)
    fn(registry, "get_scenario", "scenarios.lower", keep=True)
    fn(expectations, "evaluate_expectations", "scenarios.expectations", keep=True)
    fn(baselines, "compare_to_baseline", "scenarios.baseline_compare", keep=True)
    fn(delivery, "analyze_delivery", "metrics.analyze", keep=True)
