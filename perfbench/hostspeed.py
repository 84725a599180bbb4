"""Host speed probe: scales simulated passes to a reference host speed.

On a shared host the speed of one core swings by up to 1.8x in episodes
of a few seconds (another tenant's load on the same physical core);
CPU time slows with wall time, so it cannot separate the two. A pass
that falls into a slow episode then reads as a regression the program
did not make.

:class:`HostSpeed` samples the current speed while a pass runs: after
every ``INTERVAL_S`` of simulated work it times :func:`probe`, a fixed
pure-Python kernel that shares no code with the program. A pass's times
are multiplied by ``REFERENCE_S / mean(probe times)``, so they read as
seconds on a host where the probe takes ``REFERENCE_S``, and the probe's
own time is taken out of them. A program change cannot move the probe,
so it cannot hide in the scaling. live-udp's wall time follows its
load schedule and is not scaled; its workers' CPU time is, by probes
that a thread of the waiting parent takes while they run.
"""

from __future__ import annotations

import random
import statistics
import time

__all__ = ["HostSpeed", "probe", "REFERENCE_S", "INTERVAL_S"]

#: probe time the scaled figures refer to (about the probe's time on an
#: uncontended core of the 2-vCPU Xeon VM the benchmark was tuned on)
REFERENCE_S = 0.0005
#: simulated work between two probes; the probes cost about 4 % of that
INTERVAL_S = 0.02


def probe() -> float:
    """CPU seconds of one run of the fixed kernel in the calling thread.

    Thread CPU time, not wall time: a probe taken beside busy worker
    processes must not count its wait for a free core, or a program
    change that frees cores would move the probe.
    """
    start = time.thread_time()
    rng = random.Random(1)
    counts: dict = {}
    for i in range(1000):
        key = rng.randrange(500)
        counts[key] = counts.get(key, 0) + i
    return time.thread_time() - start


class HostSpeed:
    """Probe samples taken while one pass (or one set-up loop) ran."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._work_s = 0.0

    def after_work(self, work_s: float) -> None:
        """Count ``work_s`` of measured work; probe once ``INTERVAL_S`` is due."""
        self._work_s += work_s
        if self._work_s >= INTERVAL_S:
            self._work_s = 0.0
            self.sample()

    def sample(self) -> None:
        self.samples.append(probe())

    @property
    def probe_s(self) -> float:
        """Time spent in the probe, to take out of the pass's times."""
        return sum(self.samples)

    @property
    def factor(self) -> float:
        """Multiplier from this host's speed to the reference speed."""
        if not self.samples:
            return 1.0
        return REFERENCE_S / statistics.fmean(self.samples)
