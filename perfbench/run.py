"""specmatch benchmark: one workload in one process.

    python3 perfbench/run.py --workload match-relabel --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` there
and nowhere else. The run sets its inputs up (timed as ``setup_s``), then
repeats whole rounds of the workload's operations until ``--seconds`` have
passed, checks every output, and prints as its last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end figures; with ``--trace 1`` rounds alternate
between untraced and traced, and the metrics are the per-layer figures of the
traced rounds plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread: on a 2-core machine two OpenBLAS threads made the 50-pair
# LOBPCG solve 3-4x slower than one, and a single thread is steadier. This
# must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


IMPORTS = "import numpy, scipy.sparse.linalg, specmatch"


def import_package():
    """Import numpy, scipy and specmatch from this checkout; seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "specmatch", "__init__.py")):
        sys.exit(f"specmatch sources not found under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import numpy  # noqa: F401  (the same modules as IMPORTS)
    import scipy.sparse.linalg  # noqa: F401
    import specmatch

    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(specmatch.__file__))) != SRC:
        sys.exit(f"imported specmatch from {specmatch.__file__}, not {SRC}")
    return elapsed


def fresh_import_seconds() -> float:
    """Import time in a fresh interpreter, timed inside it.

    The run's own first import may read cold files; a fresh interpreter
    started afterwards shows what importing costs once they are cached.
    """
    code = f"import time; t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        import pyamg  # noqa: F401

        pyamg_ok = True
    except ImportError:
        pyamg_ok = False
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "pyamg_imports": pyamg_ok,
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_package()

    from checks import CheckFailed
    from specmatch.errors import PipelineError
    from spans import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)

    workdir = os.path.join(WORKDIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # set-up is repeated and the median kept, so one slow import or
        # build does not set the figure
        import_times, gen_times = [], []
        for _ in range(SETUP_REPEATS):
            import_times.append(fresh_import_seconds())
            start = time.perf_counter()
            ops = WORKLOADS[args.workload](args.seed, workdir)
            gen_times.append(time.perf_counter() - start)
        setup_s = median(import_times) + median(gen_times)

        tracer = Tracer()
        latencies = {False: [], True: []}     # keyed by traced
        attempted = failed = wrong = 0
        rows_done = 0
        timed = 0.0
        failures: dict[str, int] = {}
        notes: dict[str, list] = {}
        by_label: dict[str, list] = {}
        traced_ops = 0
        start = time.perf_counter()
        rounds = 0
        while True:
            traced = bool(args.trace) and rounds % 2 == 1
            for op in ops:
                attempted += 1
                try:
                    if traced:
                        with tracer.installed():
                            t0 = time.perf_counter()
                            output = op.run()
                            dt = time.perf_counter() - t0
                    else:
                        t0 = time.perf_counter()
                        output = op.run()
                        dt = time.perf_counter() - t0
                except Exception as exc:  # a failed operation is counted, not fatal
                    failed += 1
                    stage = f"/{exc.stage}" if isinstance(exc, PipelineError) else ""
                    key = f"{op.label}:{type(exc).__name__}{stage}"
                    failures[key] = failures.get(key, 0) + 1
                    continue
                timed += dt
                try:
                    for k, v in op.check(output).items():
                        notes.setdefault(k, []).append(v)
                except Exception as exc:  # a check that cannot read the output rejects it
                    failed += 1
                    wrong += 1
                    reason = exc if isinstance(exc, CheckFailed) else f"{type(exc).__name__}: {exc}"
                    key = f"{op.label}:check:{reason}"
                    failures[key] = failures.get(key, 0) + 1
                    continue
                latencies[traced].append(dt)
                by_label.setdefault(op.label, []).append(dt)
                rows_done += op.rows
                traced_ops += traced
            rounds += 1
            elapsed = time.perf_counter() - start
            # stop once another round would end more than half a round past
            # --seconds; a traced run needs one untraced and one traced round
            if (elapsed + 0.5 * elapsed / rounds >= args.seconds
                    and (not args.trace or rounds >= 2)):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, count in sorted(failures.items()):
        print(f"failed {count}x {key}")
    for label, values in by_label.items():
        print(f"latency {label} median={median(values):.6g}s n={len(values)}")
    for key, values in sorted(notes.items()):
        print(f"note {key} mean={sum(values) / len(values):.6g} n={len(values)}")
    print(f"rounds {rounds} ops {attempted} first_import {import_s:.4f}"
          f" imports {' '.join(f'{t:.4f}' for t in import_times)}"
          f" builds {' '.join(f'{t:.4f}' for t in gen_times)}")

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in per_layer_metrics(tracer, traced_ops).items()}
        metrics["trace.overhead_s"] = {
            "value": median(latencies[True]) - median(latencies[False]), "unit": "s"}
    else:
        metrics = {
            "latency_s": {"value": median(latencies[False]), "unit": "s"},
            "throughput_vps": {"value": rows_done / timed if timed else 0.0,
                               "unit": "vertices/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
