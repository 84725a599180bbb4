"""Per-run observation of simulated runs, with and without tracing.

:class:`Observer` hooks the harness calls every simulated run goes
through — ``spec_for_scenario``, ``build_cluster`` and ``run_once`` —
once per run, and steps ``SimCluster.run`` one gossip period at a time
(byte-identical to a one-shot run; the seed-0 reference checks hold
under it) and letting the pass's :class:`~hostspeed.HostSpeed` probe
the host between periods. From each run it keeps a :class:`RunRecord`:
set-up time, the lane that engaged and why another fell back, the
delivery summary of the measurement window, the layer counters the
program already exposes, and a fingerprint of the run's result.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from spans import patch_function

__all__ = ["RunRecord", "Observer", "digest"]


def digest(value) -> str:
    """sha256 of a value's canonical JSON (floats at full precision)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class RunRecord:
    """What one simulated (or live) run contributes to the metrics."""

    label: str
    lane: str
    fallback: Optional[str]
    setup_s: float
    node_rounds: float
    messages: int
    reliability: float  # mean receiver fraction over window messages
    atomicity: float  # share of window messages reaching > 95%
    # broadcast -> last delivery per window message, in gossip periods
    dissemination: list = field(default_factory=list)
    fingerprint: str = ""
    counters: dict = field(default_factory=dict)
    spec: Any = None  # the RunSpec (sim) or ScenarioSpec (live) that ran
    # (args, kwargs) of the spec_for_scenario call that lowered it, if any
    lowering: Optional[tuple] = None

    def manifest(self) -> dict:
        return {
            "run": self.label,
            "lane": self.lane,
            "fallback": self.fallback,
            "fingerprint": self.fingerprint,
        }


def _counters(cluster) -> dict:
    """Counters the simulated layers already keep, summed over nodes."""
    stats = [node.protocol.stats for node in cluster.nodes.values()]
    net = cluster.network.stats
    return {
        "sim.engine.events": cluster.sim.events_dispatched,
        "sim.network.sent": net.sent,
        "sim.network.delivered": net.delivered,
        "sim.network.lost": net.lost,
        "sim.network.partitioned": net.partitioned,
        "sim.network.oneway_blocked": net.oneway_blocked,
        "sim.network.link_lost": net.link_lost,
        "sim.network.capped": net.capped,
        "gossip.events_delivered": sum(s.events_delivered for s in stats),
        "gossip.duplicates_seen": sum(s.duplicates_seen for s in stats),
        "gossip.drops_overflow": sum(s.drops_overflow for s in stats),
        "gossip.drops_age_out": sum(s.drops_age_out for s in stats),
    }


class Observer:
    """Hooks ``build_cluster``/``run_once`` and records one run each."""

    def __init__(self, speed, tracer=None) -> None:
        self.speed = speed  # the pass's HostSpeed, probed between periods
        self.tracer = tracer  # labels its spans with the run they belong to
        self.records: list[RunRecord] = []
        self._undo: list[tuple] = []
        self._lower_s = 0.0
        self._lowering: Optional[tuple] = None
        self._built: Optional[tuple] = None

    def install(self) -> None:
        from repro.experiments import harness
        from repro.workload.cluster import SimCluster

        spec_for_scenario = harness.spec_for_scenario
        build_cluster = harness.build_cluster
        run_once = harness.run_once
        sim_run = SimCluster.__dict__["run"]
        perf = time.perf_counter
        tracer, speed = self.tracer, self.speed

        def label_spans():
            if tracer is not None:
                tracer.run_id = f"run{len(self.records)}"

        def observed_lower(*args, **kwargs):
            label_spans()
            start = perf()
            spec = spec_for_scenario(*args, **kwargs)
            self._lower_s += perf() - start
            self._lowering = (args, kwargs)
            return spec

        def observed_build(spec):
            label_spans()
            start = perf()
            cluster = build_cluster(spec)
            self._built = (cluster, self._lower_s + perf() - start, self._lowering)
            self._lower_s, self._lowering = 0.0, None
            return cluster

        def observed_run(spec):
            result = run_once(spec)
            cluster, setup_s, lowering = self._built
            self._built = None
            record = self._summarise(spec, cluster, result, setup_s)
            record.lowering = lowering
            self.records.append(record)
            return result

        def stepped_run(cluster, until):
            period = cluster.system.gossip_period
            now = cluster.sim.now
            while now < until:
                step = min(until, now + period)
                start = perf()
                sim_run(cluster, until=step)
                end = perf()
                if tracer is not None and cluster.vector is not None:
                    tracer.record("sim.vector.round", start, end)
                    tracer.sample("sim.vector.live_events", cluster.vector.live_events)
                now = step
                speed.after_work(end - start)

        self._undo.append((SimCluster, "run", sim_run))
        SimCluster.run = stepped_run
        patch_function(harness, "spec_for_scenario", observed_lower, self._undo)
        patch_function(harness, "build_cluster", observed_build, self._undo)
        patch_function(harness, "run_once", observed_run, self._undo)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _summarise(self, spec, cluster, result, setup_s: float) -> RunRecord:
        from repro.experiments.harness import vector_fallback_reason
        from repro.experiments.sweep import to_jsonable

        if cluster.vector is not None:
            lane = "vector" if cluster.shards < 2 else f"vector-shards{cluster.shards}"
        else:
            lane = spec.dispatch
        reasons = []
        if spec.dispatch == "vector":
            reasons.append(vector_fallback_reason(spec))
        reasons.append(cluster.parallel_fallback_reason)
        fallback = "; ".join(r for r in reasons if r) or None
        since, until = spec.window
        period = spec.system.gossip_period
        dissemination = [
            (r.last_delivery - r.broadcast_time) / period
            for r in cluster.metrics.messages_in_window(since, until)
            if r.last_delivery is not None
        ]
        outcome = to_jsonable(result)
        outcome.pop("spec")
        delivery = result.delivery
        return RunRecord(
            label=f"{spec.scenario or spec.protocol}/buffer{spec.system.buffer_capacity}",
            lane=lane,
            fallback=fallback,
            setup_s=setup_s,
            node_rounds=spec.n_nodes * spec.duration / spec.system.gossip_period,
            messages=delivery.messages,
            reliability=delivery.avg_receiver_fraction,
            atomicity=delivery.atomicity,
            dissemination=dissemination,
            fingerprint=digest(outcome),
            counters=_counters(cluster),
            spec=spec,
        )
