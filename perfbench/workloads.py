"""The four benchmark workloads, one pass each.

A pass runs the workload once from this process (a closed loop: the
next pass starts when this one returns) and checks its outputs. Calls
go through module attributes (``harness.run_once``, not an imported
name), so the observer's and the tracer's patches see every run.

The benchmark seed offsets the profile's own seed: seed 0 reproduces the
repository's referee outputs (``benchmarks/out/figure{6,7,8}.txt``, the
sim baselines under ``baselines/scenarios/`` and ``references.json``),
and only seed 0 is checked against them. Every seed is checked for what
does not depend on it: no errors, the lane that must engage, and (in
``run.py``) a traced pass byte-identical to an untraced one.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from observe import RunRecord, digest

__all__ = ["Pass", "WORKLOAD_FUNCTIONS", "MEGA_SCENARIOS", "REFERENCE_SEED"]

REFERENCE_SEED = 0
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

MEGA_SCENARIOS = (
    "mega-flood",
    "mega-correlated-loss",
    "mega-partition-heal",
    "mega-catastrophic-crash",
    "mega-flaky-edge",
)
SWEEP_BUFFERS = (30, 75)
SETUP_SAMPLES = 16
SETUP_MIN_SAMPLES = 2
SETUP_BUDGET_S = 2.0
LIVE_SETUPS = 3
LIVE_SETUP_WALL_S = 0.2
LIVE_PROBE_INTERVAL_S = 0.1


@dataclass
class Pass:
    """One pass's checked outputs."""

    outputs: dict  # what must be byte-identical between traced/untraced
    checks: list = field(default_factory=list)  # (name, ok, detail)
    verdicts: list = field(default_factory=list)  # printed, not gated
    records: list = field(default_factory=list)  # runs the observer cannot see
    counters: dict = field(default_factory=dict)  # layer counters of the pass
    # host speed probed beside worker processes, for scaling CPU time only
    cpu_speed: Optional[object] = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def _seeded(profile, seed: int):
    return dataclasses.replace(profile, seed=profile.seed + seed)


# ----------------------------------------------------------------------
# paper-sweep
# ----------------------------------------------------------------------
def _table_rows(path: Path) -> dict:
    """The rows of a rendered figure table, keyed by buffer size."""
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        cells = line.split()
        if cells and cells[0].isdigit():
            rows[int(cells[0])] = cells
    return rows


def paper_sweep(seed: int, **_) -> Pass:
    from repro.experiments import figures
    from repro.experiments.profiles import QUICK
    from repro.experiments.report import fmt

    profile = _seeded(QUICK, seed)
    sweep = figures.buffer_sweep_comparison(profile, buffer_sizes=SWEEP_BUFFERS)
    tables = {
        "figure6": [
            (r.buffer_capacity, r.offered, r.allowed, r.maximum)
            for r in figures.figure6(profile, sweep).rows
        ],
        "figure7": [
            (
                r.buffer_capacity,
                r.input_lpbcast,
                r.input_adaptive,
                r.output_lpbcast,
                r.output_adaptive,
                r.drop_age_lpbcast,
                r.drop_age_adaptive,
            )
            for r in figures.figure7(profile, sweep).rows
        ],
        "figure8": [
            (
                r.buffer_capacity,
                r.avg_receiver_pct_lpbcast,
                r.avg_receiver_pct_adaptive,
                r.atomicity_pct_lpbcast,
                r.atomicity_pct_adaptive,
            )
            for r in figures.figure8(profile, sweep).rows
        ],
    }
    cells = {
        name: [[fmt(value, 1) for value in row] for row in rows]
        for name, rows in tables.items()
    }
    result = Pass(outputs={"tables": cells})
    if seed == REFERENCE_SEED:
        for name, rows in cells.items():
            reference = _table_rows(ROOT / "benchmarks" / "out" / f"{name}.txt")
            for row in rows:
                expected = reference.get(int(row[0]))
                result.check(
                    f"{name} buffer {row[0]} equals benchmarks/out/{name}.txt",
                    row == expected,
                    f"got {row}, expected {expected}",
                )
    return result


# ----------------------------------------------------------------------
# scenario-gate
# ----------------------------------------------------------------------
def scenario_gate(seed: int, **_) -> Pass:
    from repro.experiments import sweep
    from repro.experiments.profiles import QUICK
    from repro.scenarios import baselines
    from repro.scenarios.runner import smoke_profile

    profile = smoke_profile(_seeded(QUICK, seed))
    rows = []
    for check in sweep.run_scenario_checks(profile=profile, dispatch="batched"):
        diff = baselines.compare_to_baseline(check.result, None)
        rows.append((check.scenario, check.checks, diff))
    report = baselines.render_report(
        f"Scenario expectations & baselines — profile {profile.name}, "
        "driver sim, batched dispatch",
        rows,
    )
    violations = sum(
        1 for _, checks, _ in rows for c in checks if not c.passed and not c.skipped
    )
    drifted = sum(1 for _, _, diff in rows if not diff.clean)
    result = Pass(
        outputs={"report": report},
        counters={
            "scenarios.expectations_failed": violations,
            "scenarios.baselines_drifted": drifted,
        },
    )
    if seed == REFERENCE_SEED:
        result.check("every sim baseline clean", drifted == 0, f"{drifted} drifted")
        result.check("every expectation holds", violations == 0, f"{violations} failed")
    return result


# ----------------------------------------------------------------------
# mega-vector
# ----------------------------------------------------------------------
def mega_vector(seed: int, observer=None, **_) -> Pass:
    from repro.experiments import harness
    from repro.experiments.profiles import MEGA
    from repro.scenarios import expectations, registry

    profile = _seeded(MEGA, seed)
    verdicts = []
    failed = 0
    fingerprints = {}
    start = len(observer.records)
    for name in MEGA_SCENARIOS:
        scenario = registry.get_scenario(name, profile)
        run = harness.run_once(
            harness.spec_for_scenario(scenario, dispatch="vector", aggregate_metrics=True)
        )
        checks = expectations.evaluate_expectations(
            scenario.expectations,
            expectations.ScenarioResult.from_sim(run, profile=profile.name),
        )
        failed += sum(1 for c in checks if not c.passed and not c.skipped)
        verdicts.append(
            f"{name}: "
            + "; ".join(f"{c.verdict} {c.expectation}: {c.detail}" for c in checks)
        )
        fingerprints[name] = observer.records[-1].fingerprint
    result = Pass(
        outputs={"fingerprints": fingerprints},
        verdicts=verdicts,
        counters={"scenarios.expectations_failed": failed},
    )
    lanes = [r.lane for r in observer.records[start:]]
    result.check(
        "vector lane engaged on every run",
        lanes == ["vector"] * len(MEGA_SCENARIOS),
        str(lanes),
    )
    if seed == REFERENCE_SEED:
        reference = _references()["mega-vector"]
        for name, fingerprint in fingerprints.items():
            result.check(
                f"{name} fingerprint matches references.json",
                fingerprint == reference.get(name),
                fingerprint,
            )
    return result


# ----------------------------------------------------------------------
# live-udp
# ----------------------------------------------------------------------
def _expected_offers(spec) -> float:
    """Offers the senders' schedules call for over the whole run."""
    total = 0.0
    for sender in spec.senders:
        stop = min(sender.stop if sender.stop is not None else spec.duration, spec.duration)
        share = sender.on / (sender.on + sender.off) if sender.arrivals == "onoff" else 1.0
        total += sender.rate * max(0.0, stop - sender.start) * share
    return total


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _probe_while(speed, stop: threading.Event) -> None:
    while not stop.wait(LIVE_PROBE_INTERVAL_S):
        speed.sample()


def live_udp(seed: int, worker_trace: Optional[Path] = None, **_) -> Pass:
    """One ProcessCluster run; its load follows a wall-clock schedule.

    The wall time is the schedule's, so it is not scaled. The workers'
    CPU time is: a thread of this (otherwise waiting) process probes the
    host speed every ``LIVE_PROBE_INTERVAL_S`` while they run.
    """
    from hostspeed import HostSpeed
    from repro.experiments.profiles import QUICK
    from repro.metrics.delivery import analyze_delivery
    from repro.runtime import process_cluster
    from repro.scenarios import registry
    from repro.scenarios.runner import process_coverage

    spec = registry.get_scenario("correlated-loss", _seeded(QUICK, seed))
    cluster = process_cluster.ProcessCluster(spec, gossip_period=0.1, n_workers=2)
    worker_main = process_cluster.worker_main
    if worker_trace is not None:
        # spawn pickles the target by reference, so the workers import
        # this traced entry point from the benchmark's own files
        import liveworker

        process_cluster.worker_main = partial(liveworker.traced_worker_main, str(worker_trace))
    speed, stop = HostSpeed(), threading.Event()
    prober = threading.Thread(target=_probe_while, args=(speed, stop), daemon=True)
    parent0, children0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    prober.start()
    try:
        run = cluster.run()
    finally:
        stop.set()
        prober.join()
        process_cluster.worker_main = worker_main
    wall = time.perf_counter() - start
    parent_cpu = _cpu(resource.RUSAGE_SELF) - parent0 - speed.probe_s
    workers_cpu = _cpu(resource.RUSAGE_CHILDREN) - children0

    scale = run.time_scale
    since, until = spec.warmup * scale, (spec.duration - spec.drain) * scale
    window = run.metrics.messages_in_window(since, until)
    delivery = analyze_delivery(window, spec.n_nodes)
    _, skipped = process_coverage(spec)
    errors = {
        "decode_errors": run.decode_errors,
        "send_failures": run.send_failures,
        "bind_errors": run.bind_errors,
        "skipped_count": len(skipped),
    }
    result = Pass(
        cpu_speed=speed,
        outputs=errors,
        records=[
            RunRecord(
                label=f"{spec.name}/process{run.n_workers}",
                lane=f"process-udp-workers{run.n_workers}",
                fallback=None,
                setup_s=wall - run.wall_seconds,
                node_rounds=spec.n_nodes * spec.duration / spec.system.gossip_period,
                messages=delivery.messages,
                reliability=delivery.avg_receiver_fraction,
                atomicity=delivery.atomicity,
                dissemination=[
                    (r.last_delivery - r.broadcast_time) / cluster.gossip_period
                    for r in window
                    if r.last_delivery is not None
                ],
                spec=spec,
            )
        ],
        counters={
            "runtime.chaos.eaten": run.chaos.eaten,
            "runtime.chaos.delayed": run.chaos.delayed,
            "runtime.chaos.oneway_blocked": run.chaos.oneway_blocked,
            "runtime.decode_errors": run.decode_errors,
            "runtime.send_failures": run.send_failures,
            "runtime.bind_errors": run.bind_errors,
            "runtime.port_attempts": run.port_attempts,
            "runtime.duplicates": run.duplicates,
            "runtime.parent_cpu_s": parent_cpu,
            "runtime.workers_cpu_s": workers_cpu,
            "runtime.offers_shortfall": 1.0 - run.offers / _expected_offers(spec),
            "gossip.events_delivered": sum(run.delivered.values()),
            "gossip.duplicates_seen": run.duplicates,
        },
    )
    for name, count in errors.items():
        result.check(f"live run has no {name}", count == 0, str(count))
    result.check("window messages recorded", delivery.messages > 0, str(delivery.messages))
    return result


def extra_setups(workload: str, records: list) -> list[float]:
    """More set-up samples, so the reported median rests on several.

    A sim sample sets up every run of one pass again: it lowers each
    scenario again (where the pass lowered one) and builds its cluster,
    with a host speed probe before each build, and sums the times; the
    samples are scaled to the reference host speed like the passes.
    Samples are taken until ``SETUP_SAMPLES`` exist or ``SETUP_BUDGET_S``
    is spent, at least ``SETUP_MIN_SAMPLES``. The live run is set up
    ``LIVE_SETUPS`` more times as a short run, whose set-up is again its
    wall time minus its scheduled wall time.
    """
    from hostspeed import HostSpeed
    from repro.experiments import harness
    from repro.runtime.process_cluster import ProcessCluster

    samples = []
    if not records:  # the pass failed before it set anything up
        return samples
    if workload == "live-udp":
        for _ in range(LIVE_SETUPS):
            cluster = ProcessCluster(records[0].spec, gossip_period=0.1, n_workers=2)
            start = time.perf_counter()
            run = cluster.run(wall_seconds=LIVE_SETUP_WALL_S)
            samples.append(time.perf_counter() - start - run.wall_seconds)
        return samples
    speed = HostSpeed()
    begin = time.perf_counter()
    while len(samples) < SETUP_MIN_SAMPLES or (
        len(samples) < SETUP_SAMPLES and time.perf_counter() - begin < SETUP_BUDGET_S
    ):
        total = 0.0
        for record in records:
            speed.sample()
            start = time.perf_counter()
            spec = record.spec
            if record.lowering is not None:
                args, kwargs = record.lowering
                spec = harness.spec_for_scenario(*args, **kwargs)
            harness.build_cluster(spec).close()
            total += time.perf_counter() - start
        samples.append(total)
    return [sample * speed.factor for sample in samples]


def warm_up() -> None:
    """Import every module the passes use, so that no pass pays for it."""
    import importlib

    for name in (
        "repro.experiments.figures",
        "repro.experiments.harness",
        "repro.experiments.profiles",
        "repro.experiments.report",
        "repro.experiments.sweep",
        "repro.metrics.delivery",
        "repro.runtime.process_cluster",
        "repro.scenarios.baselines",
        "repro.scenarios.expectations",
        "repro.scenarios.registry",
        "repro.scenarios.runner",
    ):
        importlib.import_module(name)


WORKLOAD_FUNCTIONS: dict[str, Callable[..., Pass]] = {
    "paper-sweep": paper_sweep,
    "scenario-gate": scenario_gate,
    "mega-vector": mega_vector,
    "live-udp": live_udp,
}


def pass_digest(result: Pass, records: list) -> str:
    """Digest of everything a traced pass must reproduce exactly."""
    return digest(
        {"outputs": result.outputs, "runs": [r.fingerprint for r in records]}
    )
