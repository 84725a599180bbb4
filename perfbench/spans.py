"""Timing wrappers installed from outside the program under test.

A :class:`Tracer` patches public functions and methods of the ``repro``
layers with wrappers that keep a stack of open spans, so each layer's
*self* time is its span's duration minus the time its child spans cover.

Two kinds of boundary are recorded:

* coarse boundaries (one call per simulated run, per scenario, per
  round step) keep every span in memory: name, start, end, parent and
  the run id, written out as JSON lines when the run ends;
* hot boundaries (per delivery, per message, per round of one node) are
  too frequent to keep one record each, so they only accumulate calls,
  total time and self time per name.

Every patch is undone by :meth:`Tracer.restore`.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Optional

__all__ = ["FIELDS", "Tracer", "patch_function"]

_perf = time.perf_counter

#: per-name statistics, in the order ``Tracer.stats`` lists keep them
FIELDS = ("calls", "total_s", "self_s", "bytes", "hits")


def patch_function(module, attr: str, replacement, undo: list) -> None:
    """Replace ``module.attr`` and every ``from module import attr`` alias.

    Modules that imported the function by name hold their own reference,
    so each loaded ``repro.*`` module whose attribute is the same object
    is patched too. ``undo`` receives the (owner, attr, original) triples.
    """
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        if getattr(mod, attr, None) is original:
            undo.append((mod, attr, original))
            setattr(mod, attr, replacement)


class Tracer:
    """Span stack, per-name statistics and the patches that feed them."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # name -> one value per FIELDS entry
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.samples: dict[str, list] = {}
        # one entry per open span: [child_time, span_id or -1]
        self._stack: list[list] = []
        self._undo: list[tuple] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _stat(self, name: str) -> list:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0, 0, 0]
        return stat

    def wrap(
        self,
        fn: Callable,
        name: str,
        keep: bool = False,
        measure: Optional[Callable[[tuple, Any], tuple[int, int]]] = None,
    ) -> Callable:
        """A timing wrapper around ``fn`` recording under ``name``.

        ``keep`` stores a span record per call (coarse boundaries only).
        ``measure(args, result) -> (bytes, hits)`` adds per-call counts,
        such as wire bytes or admitted offers.
        """
        stat = self._stat(name)
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            if keep:
                span_id = self._next_id
                self._next_id += 1
                parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id if keep else -1]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if keep:
                    spans.append((self.run_id, span_id, parent, name, start, end))
            if measure is not None:
                nbytes, hits = measure(args, result)
                stat[3] += nbytes
                stat[4] += hits
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_method(self, cls, attr: str, name: str, **kwargs) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, **kwargs))

    def patch_function(self, module, attr: str, name: str, **kwargs) -> None:
        wrapped = self.wrap(getattr(module, attr), name, **kwargs)
        patch_function(module, attr, wrapped, self._undo)

    def record(self, name: str, start: float, end: float) -> None:
        """Add one externally timed span (e.g. a stepped sim round).

        It annotates time the open spans already account for, so it is
        not charged against its parent's self time.
        """
        stat = self._stat(name)
        duration = end - start
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration
        parent = self._stack[-1][1] if self._stack else -1
        self.spans.append((self.run_id, self._next_id, parent, name, start, end))
        self._next_id += 1

    def sample(self, name: str, value: float) -> None:
        """Keep one observation of a sampled quantity."""
        self.samples.setdefault(name, []).append(value)

    def durations(self, name: str) -> list[float]:
        """Durations of every kept span with this name, in seconds."""
        return [end - start for _, _, _, n, start, end in self.spans if n == name]

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def stat(self, name: str, field: str) -> float:
        """One of ``FIELDS`` for a span name (0 if it never ran)."""
        stat = self.stats.get(name)
        return stat[FIELDS.index(field)] if stat else 0

    def merge_stats(self, stats: dict) -> None:
        """Fold per-name statistics from another process into this one."""
        for name, values in stats.items():
            stat = self._stat(name)
            for i, value in enumerate(values):
                stat[i] += value

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of per-name statistics."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for run_id, span_id, parent, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "run": run_id,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
            stats = {name: dict(zip(FIELDS, s)) for name, s in sorted(self.stats.items())}
            out.write(json.dumps({"stats": stats}) + "\n")
