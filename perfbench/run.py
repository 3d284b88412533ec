"""The repository benchmark: CoRa's encoder at paper shape, offline and served.

Run from the repository root::

    python3 perfbench/run.py --workload cola-b32-l6 --seed 1 --seconds 10 --trace 0

Workloads: ``race-b32-l1``, ``cola-b32-l6`` (offline, warm) and
``serve-cola-l2`` (closed-loop serving); see ``perfbench/workloads.py``.

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` wraps each layer's public entry points with spans, reports
per-layer metrics, measures the floors and writes a Chrome trace-event
file to ``perfbench/out/``.  Either way every metric is printed with its
unit, then a JSON report line, and last one JSON line with ``correct``,
``attempted``, ``failed`` and the metrics ``BENCHMARK.json`` declares for
the mode.  BLAS threads are capped at the number of usable CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _blas_library(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # before NumPy loads its BLAS
        os.environ[var] = str(nproc)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import numpy as np

    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in
              declared["per_layer" if args.trace else "end_to_end"]]
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "blas": _blas_library(np),
        "blas_threads_cap": nproc,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    out_dir = HERE / "out"
    if args.trace:
        out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    report = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), trace_path, env)

    missing = [name for name in wanted if name not in report.metrics]
    if missing:
        print(f"perfbench: declared metrics not measured: {missing}",
              file=sys.stderr)
        return 3
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, note) in report.metrics.items():
        print(f"{name:32s} {value:14.6g} {unit:10s} {note}")
    for note in report.notes:
        print(f"note: {note}")
    print(json.dumps({"env": env, "report": {
        name: {"value": value, "unit": unit}
        for name, (value, unit, _) in report.metrics.items()}}))
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name][0],
                           "unit": report.metrics[name][1]}
                    for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
