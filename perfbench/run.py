"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 30 --trace 0

``--trace 0`` runs the workload in a closed loop for about ``--seconds``
(at least one pass; another pass starts only if it is expected to end
within the budget) and prints every end-to-end metric. Times are
scaled to a reference host speed measured by a probe taken while the
pass runs (see ``hostspeed.py``); the raw pass times and the factors
are in the manifest. ``--trace 1`` runs one untraced pass, then one
pass with timing wrappers installed around the layers' public calls
(see ``layers.py``), checks that both
produced byte-identical outputs, writes the spans under ``.perfbench/``
and prints every per-layer metric, including the tracing overhead.

Every pass's outputs are checked (see ``workloads.py``); a pass that
raises or fails a check counts as failed, and any failure makes the
command exit 1 after printing its result. The last line of standard
output is the result as one JSON object; the lines before it are a
human-readable report and the run manifest (git rev, seed, host, lane
per run and any fallback reason), which is also written to
``.perfbench/``. On every way out, the command stops every process it
started (live-udp's workers and multiprocessing's resource tracker) and
waits for each to end.

``--emit-benchmark-json`` prints the ``BENCHMARK.json`` that
``layers.py`` defines; ``--write-references`` records the seed-0 sim
fingerprints of mega-vector into ``references.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def _setup_path() -> None:
    """Make the program (``src/``) and the benchmark modules importable."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}")
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _git_rev() -> str:
    """HEAD's commit from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _host() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_rev": _git_rev(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass
class Iteration:
    """One timed pass of a workload."""

    result: Any  # workloads.Pass, or None when the pass raised
    records: list
    wall_s: float
    cpu_s: float
    speed: Any  # hostspeed.HostSpeed sampled during the pass
    peak_rss_mb: float  # process high-water mark when the pass ended
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.result.ok

    @property
    def scaled_wall_s(self) -> float:
        """Wall time less the probes, at the reference host speed."""
        return (self.wall_s - self.speed.probe_s) * self.speed.factor

    @property
    def scaled_cpu_s(self) -> float:
        """CPU time less the probes, at the reference host speed."""
        speed = self.speed
        if self.result is not None and self.result.cpu_speed is not None:
            speed = self.result.cpu_speed
        return (self.cpu_s - speed.probe_s) * speed.factor


def run_pass(workload: str, seed: int, tracer=None, worker_trace=None) -> Iteration:
    """Run one pass under the observer (and, if given, the tracer)."""
    import layers
    from hostspeed import HostSpeed
    from observe import Observer
    from workloads import WORKLOAD_FUNCTIONS

    gc.collect()
    if tracer is not None:
        layers.install(tracer)
    speed = HostSpeed()
    observer = Observer(speed, tracer)
    observer.install()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    result, error = None, None
    try:
        result = WORKLOAD_FUNCTIONS[workload](
            seed, observer=observer, worker_trace=worker_trace
        )
    except Exception:  # a failed pass is reported, not fatal
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
        observer.restore()
        if tracer is not None:
            tracer.restore()
    records = observer.records + (result.records if result is not None else [])
    return Iteration(result, records, wall, cpu, speed, _peak_rss_mb(), error)


def _end_to_end(iterations: list, setups: list) -> dict:
    """Every end-to-end metric over the passes of one measured run."""
    good = [it for it in iterations if it.ok] or iterations
    first = good[0]
    records = first.records
    messages = sum(r.messages for r in records) or 1
    dissemination = [d for r in records for d in r.dissemination] or [float("nan")]
    failed = sum(1 for it in iterations if not it.ok)
    return {
        "setup_s": statistics.median(
            [sum(r.setup_s for r in it.records) * it.speed.factor for it in good]
            + setups
        ),
        "wall_s": statistics.median(it.scaled_wall_s for it in good),
        "node_rounds_per_s": statistics.median(
            sum(r.node_rounds for r in it.records) / it.scaled_wall_s for it in good
        ),
        "cpu_s": statistics.median(it.scaled_cpu_s for it in good),
        "peak_rss_mb": iterations[0].peak_rss_mb,
        "reliability": sum(r.reliability * r.messages for r in records) / messages,
        "atomicity": sum(r.atomicity * r.messages for r in records) / messages,
        "dissemination_p50_rounds": _percentile(dissemination, 50),
        "dissemination_p99_rounds": _percentile(dissemination, 99),
        "ops_ok_ratio": (len(iterations) - failed) / len(iterations),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer(tracer, traced: Iteration, untraced: Iteration) -> dict:
    """Every per-layer metric from the traced pass's spans and counters."""
    from layers import PER_LAYER
    from spans import FIELDS

    counters: dict = {}
    for record in traced.records:
        for name, value in record.counters.items():
            counters[name] = counters.get(name, 0) + value
    if traced.result is not None:
        for name, value in traced.result.counters.items():
            counters[name] = counters.get(name, 0) + value
    node_rounds = sum(r.node_rounds for r in traced.records)
    rounds_ms = [d * 1000.0 for d in tracer.durations("sim.vector.round")]
    live = tracer.samples.get("sim.vector.live_events", [])
    derived = {
        "gossip.useful_ratio": _ratio(
            counters.get("gossip.events_delivered", 0),
            counters.get("gossip.events_delivered", 0)
            + counters.get("gossip.duplicates_seen", 0),
        ),
        "core.admit_ratio": _ratio(
            tracer.stat("core.try_admit", "hits"), tracer.stat("core.try_admit", "calls")
        ),
        "sim.engine.events_per_node_round": _ratio(
            counters.get("sim.engine.events", 0), node_rounds
        ),
        "sim.network.delivered_ratio": _ratio(
            counters.get("sim.network.delivered", 0), counters.get("sim.network.sent", 0)
        ),
        "sim.vector.round_ms.p50": _percentile(rounds_ms, 50) if rounds_ms else 0.0,
        "sim.vector.round_ms.p99": _percentile(rounds_ms, 99) if rounds_ms else 0.0,
        "sim.vector.live_events": statistics.fmean(live) if live else 0.0,
        "trace.overhead_s": traced.scaled_wall_s - untraced.scaled_wall_s,
        "trace.overhead_ratio": traced.scaled_wall_s / untraced.scaled_wall_s - 1.0,
    }
    metrics = {}
    for layer in PER_LAYER:
        name = layer["name"]
        span, _, stat = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif stat in FIELDS:
            value = tracer.stat(span, stat)
        else:
            value = counters.get(name, 0)
        metrics[name] = {"value": value, "unit": layer["unit"]}
    return metrics


def _fold_worker_stats(tracer, directory: Path) -> None:
    for path in sorted(directory.glob("worker-*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        tracer.merge_stats(doc["stats"])
        path.unlink()


def measured_run(args) -> tuple[dict, list, dict]:
    """``--trace 0``: closed-loop passes for about ``--seconds``."""
    from layers import END_TO_END
    from workloads import extra_setups

    iterations = []
    begin = time.perf_counter()
    while True:
        iterations.append(run_pass(args.workload, args.seed))
        elapsed = time.perf_counter() - begin
        if elapsed + iterations[-1].wall_s > args.seconds:
            break
    digests = _digests(iterations)
    if len(set(digests)) > 1:
        for it in iterations[1:]:
            if it.result is not None:
                it.result.check("passes reproduce the first pass", False, str(digests))
    values = _end_to_end(iterations, extra_setups(args.workload, iterations[0].records))
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END
    }
    return metrics, iterations, {}


def _digests(iterations: list) -> list:
    from workloads import pass_digest

    return [
        pass_digest(it.result, it.records) for it in iterations if it.result is not None
    ]


def traced_run(args) -> tuple[dict, list, dict]:
    """``--trace 1``: an untraced pass, then a traced one; per-layer metrics."""
    from spans import Tracer

    untraced = run_pass(args.workload, args.seed)
    tracer = Tracer(run_id="run0")
    worker_dir = OUT / f"workers-{os.getpid()}"
    traced = run_pass(args.workload, args.seed, tracer=tracer, worker_trace=worker_dir)
    if worker_dir.is_dir():
        _fold_worker_stats(tracer, worker_dir)
        worker_dir.rmdir()
    digests = _digests([untraced, traced])
    if traced.result is not None:
        traced.result.check(
            "traced outputs byte-identical to untraced",
            len(digests) == 2 and digests[0] == digests[1],
            str(digests),
        )
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    extra = {"spans": str(spans_path.relative_to(ROOT))}
    return _per_layer(tracer, traced, untraced), [untraced, traced], extra


def emit_benchmark_json() -> str:
    from layers import END_TO_END, PER_LAYER, WORKLOADS

    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": layer["name"], "unit": layer["unit"], "better": layer["better"]}
            for layer in PER_LAYER
        ],
    }
    return json.dumps(doc, indent=2)


def write_references() -> None:
    """Record the seed-0 mega-vector fingerprints from this tree."""
    from workloads import REFERENCES

    it = run_pass("mega-vector", 0)
    if it.error is not None:
        raise SystemExit("mega-vector failed; references not written")
    doc = {"mega-vector": it.result.outputs["fingerprints"]}
    REFERENCES.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCES}")


def main(argv=None) -> int:
    from layers import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--emit-benchmark-json", action="store_true")
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)
    if args.emit_benchmark_json:
        print(emit_benchmark_json())
        return 0
    if args.write_references:
        write_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    from workloads import warm_up

    warm_up()
    run = traced_run if args.trace else measured_run
    metrics, iterations, extra = run(args)
    failed = sum(1 for it in iterations if not it.ok)
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **_host(),
        "passes": len(iterations),
        "pass_wall_s": [it.wall_s for it in iterations],
        "pass_scaled_wall_s": [it.scaled_wall_s for it in iterations],
        "pass_host_speed_factor": [it.speed.factor for it in iterations],
        "runs": [r.manifest() for r in iterations[0].records],
        **extra,
    }
    for verdict in iterations[0].result.verdicts if iterations[0].result else ():
        print(f"verdict: {verdict}")
    for it in iterations:
        if it.result is None:
            continue
        for name, ok, detail in it.result.checks:
            if not ok:
                print(f"CHECK FAILED: {name}: {detail}")
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    print("manifest: " + json.dumps(manifest, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"manifest": manifest, "metrics": metrics}, indent=2, sort_keys=True),
        encoding="utf-8",
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(iterations),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


def _child_pids() -> list:
    """Pids of this process's live children, read from ``/proc``."""
    me, pids = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] not in ("Z", "X"):
            pids.append(int(stat.parent.name))
    return pids


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this run started and wait for each to end.

    ProcessCluster joins its workers itself, but the ``spawn`` start
    method also launches multiprocessing's resource tracker, which would
    otherwise outlive this process until it reads EOF on its pipe.
    Anything still running after that gets SIGTERM, then SIGKILL.
    """
    import signal

    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()  # closes its pipe, waits for it
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = _child_pids()
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while pids and time.monotonic() < deadline:
            time.sleep(0.05)
            pids = _child_pids()
    while True:  # reap every exited child, killed ones included
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                break
        except ChildProcessError:
            break


if __name__ == "__main__":
    _setup_path()
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
