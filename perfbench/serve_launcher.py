"""Run ``repro serve`` with the benchmark's layer spans installed.

    python3 perfbench/serve_launcher.py TRACE_DIR serve --corpus ... --port 0

Installs the span wrappers of ``harness/spans.py``, then calls
``repro.cli.main(["serve", ...])``.  Process-pool workers are forked from
this process, so they inherit the wrappers; each starts a fresh span
list and writes it to ``TRACE_DIR/spans-<pid>.json`` when it exits.  On
SIGINT the server stops, the launcher closes every engine's pools (so
the workers exit and write their spans) and writes its own spans plus
the pools' counters.
"""

from __future__ import annotations

import multiprocessing.util
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from harness.spans import Tracer, install_layer_wrappers
    from repro.api.engine import ReproEngine
    from repro.cli import main as cli_main

    trace_dir, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    install_layer_wrappers(tracer)

    engines = []
    original_init = ReproEngine.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        engines.append(self)

    ReproEngine.__init__ = recording_init

    def in_worker(worker_tracer: Tracer) -> None:
        worker_tracer.reset()
        multiprocessing.util.Finalize(
            worker_tracer, worker_tracer.dump,
            args=(str(trace_dir / f"spans-{os.getpid()}.json"),), exitpriority=10,
        )

    multiprocessing.util.register_after_fork(tracer, in_worker)
    code = cli_main(argv)
    pools = {}
    for index, engine in enumerate(engines):
        for backend, stats in engine.pool_stats().items():
            pools[f"{index}:{backend}"] = stats
        engine.close()
    tracer.dump(str(trace_dir / f"spans-{os.getpid()}.json"), {"pools": pools})
    return code


if __name__ == "__main__":
    sys.exit(main())
