"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mc_stream --seed 1 --seconds 25 --trace 0

``--workload`` is one of ``mc_stream``, ``analysis_session`` and
``serve_replay``; ``--seed`` fixes every generated input; ``--seconds``
is how long the steady phase measures; ``--trace 1`` runs the traced
per-layer variant instead of the end-to-end measurement.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
the machine fingerprint and per-run detail.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
WORKLOADS = ("mc_stream", "analysis_session", "serve_replay")

#: End-to-end metric -> unit; must match ``end_to_end`` in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "latency_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MiB",
}


def _stop_children() -> None:
    """Wait for every process this run started, the resource tracker last.

    The workloads shut their worker pools and servers down themselves;
    a straggler is joined here, and killed if it does not end.  The
    first spawn-context pool also starts multiprocessing's resource
    tracker, which would otherwise end only after this process is gone,
    so it is stopped and reaped too.  Registered before ``multiprocessing``
    is imported, this hook runs after multiprocessing's own exit hook,
    whose finalizers still talk to the tracker.  Spawned workers import
    this file as ``__mp_main__`` and so never register it.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if tracker._pid is not None:  # started by this process
        tracker._stop()


def _import_program() -> None:
    """Import ``repro`` from the checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    # Spawned worker processes inherit the path through the environment.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    import importlib

    import common
    import layers

    common.OUT_DIR.mkdir(exist_ok=True)
    probe_start = common.cpu_probe_ms()
    ticks = common.cpu_ticks()
    module = importlib.import_module(args.workload)
    result = module.run(args.seed, args.seconds, bool(args.trace))
    steal = common.steal_pct(ticks, common.cpu_ticks())
    probe_end = common.cpu_probe_ms()

    wanted = layers.PER_LAYER if args.trace else END_TO_END
    if args.trace:
        # Every traced result carries every per-layer metric.  The span
        # timings are measured in every workload (a layer it never calls
        # reads a measured zero); a metric that only another workload's
        # procedure defines (pool spawn, server start, rows per round)
        # reads 0 here and is named in the detail line's ``not_reached``.
        not_reached = sorted(set(wanted) - set(result.metrics))
        for name in not_reached:
            result.metric(name, 0.0, wanted[name])
        result.detail["not_reached"] = not_reached
    missing = sorted(set(wanted) - set(result.metrics))
    if missing:
        raise SystemExit(f"perfbench: metrics not measured {missing}")
    extra = sorted(set(result.metrics) - set(wanted))
    if extra:
        raise SystemExit(f"perfbench: unlisted metrics {extra}")

    fingerprint = common.fingerprint()
    fingerprint["cpu_probe_ms"] = {"start": probe_start, "end": probe_end}
    fingerprint["steal_pct"] = steal
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint,
        "errors": result.errors,
        "detail": result.detail,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": result.correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    atexit.register(_stop_children)
    sys.exit(main())
