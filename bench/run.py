"""Benchmark of topopeaks, end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload denoise-image --seed 1 --seconds 20 --trace 0

Workloads: denoise-image, classify-logo, diagram-distance (see README.md).
The package is imported from ``src/`` next to this directory. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced round with
``--trace 1``. Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import LAYERS, Tracer

T_START = time.perf_counter()

# BLAS and OpenMP pools start when numpy is imported: pin them to one thread
# first, so that the logistic fit does not compete with the process pool and
# CPU time measures the same work on every machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 5  # set-ups per run; setup_s reports their median
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _import_package(layers):
    src = ROOT / "src"
    if not (src / "topopeaks" / "__init__.py").is_file():
        sys.exit(f"bench: no topopeaks source under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("topopeaks")
    if Path(pkg.__file__).resolve().parent != (src / "topopeaks").resolve():
        sys.exit(f"bench: imported topopeaks from {pkg.__file__}, not from {src}")
    for layer in layers:
        importlib.import_module(f"topopeaks.{layer}")
    return pkg


def _cpu_s() -> float:
    """User+system CPU of this process and of its ended, waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _malloc_trim() -> None:
    """Hand the set-up's freed heap back to the OS.

    Otherwise how much of it the timed operations reuse, and so their peak
    RSS, differs from run to run (diagram-distance read 139 or 174 MB).
    """
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL("libc.so.6").malloc_trim(0)


def run_operations(ops, rounds):
    """Run whole rounds of the operation list, collecting before each one.

    Returns the per-operation results ``(name, seconds, ok, value)`` and the
    median round's wall and CPU seconds.
    """
    results, walls, cpus = [], [], []
    for _ in range(rounds):
        wall, cpu0 = 0.0, _cpu_s()
        for name, op in ops:
            gc.collect()
            t0 = time.perf_counter()
            ok, value = op()
            dt = time.perf_counter() - t0
            wall += dt
            results.append((name, dt, ok, value))
        walls.append(wall)
        cpus.append(_cpu_s() - cpu0)
    return results, statistics.median(walls), statistics.median(cpus)


def per_layer(tracer, plain_results, traced_wall, plain_wall, extras) -> dict:
    """Per-layer metrics of one traced round (0 where a layer had no calls)."""
    t = tracer
    per_op = {}
    for name, dt, _, _ in plain_results:
        per_op.setdefault(name, []).append(dt)
    metrics = {
        "core.load_dataset_csv_s": t.total("core.load_dataset_csv"),
        "core.subset_s": t.total("core.subset"),
        "core.csv_mb": t.count("core.load_dataset_csv", "csv_bytes") / 1e6,
        "core.write_pgm_s": t.total("core.write_pgm"),
        "persistence.transform_s": t.total("persistence.transform"),
        "persistence.transform_calls": t.calls("persistence.transform"),
        "persistence.maxima": t.count("persistence.transform", "maxima"),
        "persistence.transform_p50_s": extras["transform_p50_s"],
        "persistence.transform_p90_s": extras["transform_p90_s"],
        "features.build_matrix_s": t.total("features.build_matrix"),
        "features.build_matrix_calls": t.calls("features.build_matrix"),
        "features.rows": t.count("features.build_matrix", "rows"),
        "features.pool_starts": t.pool_starts.get("ops", 0),
        "simulate.denoise_s": t.total("simulate.denoise"),
        "simulate.denoise_calls": t.calls("simulate.denoise"),
        "simulate.denoise_seq_s": extras.get("denoise_seq_s", 0.0),
        "simulate.generate_s": t.total("simulate.generate_ground_truth", "setup") / SETUP_REPS,
        "classify.group_cv_s": t.total("classify.group_cv"),
        "classify.fit_logistic_s": t.total("classify.fit_logistic"),
        "classify.fit_logistic_calls": t.calls("classify.fit_logistic"),
        "classify.newton_iters": t.count("classify.fit_logistic", "newton_iters"),
        "classify.fit_forest_s": t.total("classify.fit_forest"),
        "classify.forest_nodes": t.count("classify.fit_forest", "forest_nodes"),
        "classify.predict_forest_s": t.total("classify.predict_forest"),
        "classify.predict_forest_calls": t.calls("classify.predict_forest"),
        "diagram.bottleneck_s": t.total("diagram.bottleneck_distance"),
        "diagram.bottleneck_calls": t.calls("diagram.bottleneck_distance"),
        "diagram.points": t.count("diagram.bottleneck_distance", "points"),
        "diagram.bottleneck_p50_s": t.p50("diagram.bottleneck_distance"),
        "cli.self_s": t.self_time("cli.main"),
        "cli.classify_logistic_s": statistics.median(per_op.get("logistic", [0.0])),
        "cli.classify_forest_s": statistics.median(per_op.get("forest", [0.0])),
        "trace.overhead_s": traced_wall - plain_wall,
    }
    return {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "MB" if name.endswith("_mb") else "count"


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def main(argv=None) -> int:
    from workloads import WORKLOADS  # imports numpy, so only after the pinning

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_non_negative, required=True)
    parser.add_argument("--seconds", type=_non_negative, required=True,
                        help="target length of the timed section: sets how many whole "
                             "rounds of the workload's fixed operation list run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = _import_package(LAYERS)
    import_s = time.perf_counter() - T_START
    import numpy as np

    print(f"bench: {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} import_s={import_s:.3f}", file=sys.stderr)

    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](pkg, args.seed, workdir)
    tracer = Tracer(pkg) if args.trace else None
    try:
        with contextlib.redirect_stdout(sys.stderr):
            if tracer:
                tracer.install()  # for simulate.generate_s, a set-up figure
            setups = []
            for _ in range(SETUP_REPS):
                gc.collect()
                t0 = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - t0)
            if tracer:
                tracer.remove()
            ops = workload.operations()
            rounds = max(1, round(args.seconds / workload.round_s))
            gc.collect()
            _malloc_trim()
            results, wall, cpu = run_operations(ops, rounds)
            peak_rss = _peak_rss_mb()
            if tracer:
                plain_results, plain_wall = results, wall
                tracer.phase = "ops"
                tracer.install()
                results, wall, _ = run_operations(ops, 1)
                tracer.remove()
                extras = workload.extras()
            problems = workload.check(results[-len(ops):])
    finally:
        if tracer:
            tracer.remove()
            (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(tracer.dump()))
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    if tracer:
        metrics = per_layer(tracer, plain_results, wall, plain_wall, extras)
    else:
        values = {"setup_s": import_s + statistics.median(setups), "wall_s": wall,
                  "cpu_s": cpu, "peak_rss_mb": peak_rss}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(1 for r in results if not r[2]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
