"""Traced entry point for the live-udp shard workers.

The traced live-udp pass substitutes this function for
``repro.runtime.process_cluster.worker_main``. Under the ``spawn`` start
method the target is pickled by reference, so each worker imports this
module from the benchmark's directory, installs the same timing
wrappers as the parent, runs the real worker, and leaves its per-name
statistics in ``<out_dir>/worker-<pid>.json`` for the parent to fold in
after the workers are joined.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["traced_worker_main"]


def traced_worker_main(out_dir: str, conn) -> None:
    import layers
    from repro.runtime.worker import worker_main
    from spans import Tracer

    tracer = Tracer(run_id=f"worker-{os.getpid()}")
    layers.install(tracer)
    try:
        worker_main(conn)
    finally:
        tracer.restore()
        path = Path(out_dir) / f"worker-{os.getpid()}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"stats": tracer.stats}), encoding="utf-8")
