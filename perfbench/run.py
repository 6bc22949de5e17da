"""dpdlab benchmark: one workload per run, end-to-end or traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ila-cells --seed 1 --seconds 10 --trace 0

The workload runs in this process as a closed loop with one caller; BLAS keeps
its default thread count, which is recorded, not changed.  Whole passes repeat
while the next one is expected to end within --seconds (at least one runs).

--trace 0 prints the end-to-end metrics: set-up time (median of fresh
interpreters that import dpdlab and run one warm-up cell), pass wall time,
mean postinverse NMSE and peak RSS.  --trace 1 runs the same untraced passes,
then one more pass with the outside-in tracer installed, and prints the
per-layer metrics.  The last line of stdout is the JSON result; the lines
before it record the environment, the report's quality (deployed, postinverse
and no-DPD NMSE, improved and failed shares) and its CSV SHA-256.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE_ROWS = HERE / "baseline_rows.csv"
SETUP_RUNS = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("ila-cells", "arch-search", "poly-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload at a test size")
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------


def _blas_threads():
    """OpenBLAS's own thread count, read from the library NumPy loaded."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


def setup_seconds(seed: int, size: str) -> float:
    """Median wall time of fresh interpreters importing dpdlab plus one warm-up cell."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(seed), size],
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return statistics.median(times)


# ----------------------------------------------------------------------
# checking the report rows
# ----------------------------------------------------------------------


def parse_rows(text: str, header: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError("report does not start with the sweep CSV header")
    return list(csv.DictReader(io.StringIO(text)))


def _number(cell: str):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def row_ok(row: dict) -> bool:
    """A feasible cell reports finite postinverse, deployed and no-DPD NMSE."""
    return all(_number(row[k]) is not None
               for k in ("postinv_nmse_db", "lin_nmse_db", "no_dpd_nmse_db"))


def row_keys(workload: str, rows: list[str]) -> list[tuple]:
    """(workload, family, taps, seed, occurrence) for each CSV data line."""
    seen = Counter()
    keys = []
    for line in rows:
        cells = line.split(",")
        base = (workload, cells[0], cells[2], cells[7])
        keys.append(base + (seen[base],))
        seen[base] += 1
    return keys


def load_baseline() -> dict:
    """Recorded rows: {(workload, family, taps, seed, occurrence): row text}."""
    if not BASELINE_ROWS.is_file():
        return {}
    by_workload = {}
    for line in BASELINE_ROWS.read_text(encoding="utf-8").splitlines()[1:]:
        workload, _, row = line.partition(",")
        by_workload.setdefault(workload, []).append(row)
    table = {}
    for workload, rows in by_workload.items():
        table.update(zip(row_keys(workload, rows), rows))
    return table


def rows_changed(workload: str, text: str) -> tuple[int, int]:
    """(rows differing from the recorded baseline, rows that have one)."""
    baseline = load_baseline()
    rows = text.splitlines()[1:]
    compared = changed = 0
    for key, row in zip(row_keys(workload, rows), rows):
        if key in baseline:
            compared += 1
            changed += baseline[key] != row
    return changed, compared


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args, workdir: Path) -> dict:
    setup_s = None if args.trace else setup_seconds(args.seed, args.size)

    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (imports dpdlab from the checkout)
    import dpdlab
    from dpdlab import ila

    if Path(dpdlab.__file__).resolve().parent != (SRC / "dpdlab").resolve():
        raise RuntimeError(f"imported dpdlab from {dpdlab.__file__}, not this checkout")

    size = workloads.SIZES[args.size]
    workloads.warm_up(args.seed, size)
    run_pass = workloads.make_pass(args.workload, args.seed, size, workdir)

    passes = []
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        text = run_pass()
        elapsed = time.perf_counter() - start
        passes.append((elapsed, text))
        if time.perf_counter() - began + elapsed > args.seconds:
            break
    wall_s = statistics.median(t for t, _ in passes)

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        with tracer.installed():
            start = time.perf_counter()
            text = run_pass()
            traced_wall_s = time.perf_counter() - start
        passes.append((traced_wall_s, text))
        if tracer.missing:
            print("perfbench: not traced (absent): " + ", ".join(tracer.missing),
                  file=sys.stderr)

    # checks: every pass (traced or not) gives the same bytes, the expected
    # number of rows, and finite NMSE in every row
    expected = workloads.expected_rows(args.workload, size)
    first = passes[0][1]
    first_lines = first.splitlines()
    attempted = failed = 0
    for _, text in passes:
        rows = parse_rows(text, ila.REPORT_HEADER)
        attempted += expected
        failed += max(expected - len(rows), 0)
        failed += sum(not row_ok(r) for r in rows)
        failed += sum(a != b for a, b in zip(text.splitlines(), first_lines))
    failed = min(failed, attempted)

    rows = parse_rows(first, ila.REPORT_HEADER)
    good = [r for r in rows if row_ok(r)]
    quality = {key: statistics.fmean(float(r[key]) for r in good)
               for key in ("lin_nmse_db", "postinv_nmse_db", "no_dpd_nmse_db")}
    quality["improved_frac"] = sum(
        float(r["lin_nmse_db"]) <= float(r["no_dpd_nmse_db"]) for r in good) / len(rows)
    quality["failed_frac"] = failed / attempted
    print("quality", json.dumps(quality))
    print("csv_sha256", args.workload, hashlib.sha256(first.encode("utf-8")).hexdigest())

    if tracer is None:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(wall_s, "s"),
            "postinv_nmse_db": _metric(quality["postinv_nmse_db"], "dB"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "MiB"),
        }
    else:
        metrics = {name: _metric(v, u) for name, (v, u) in tracer.metrics().items()}
        changed, compared = rows_changed(args.workload, first)
        metrics.update({
            "ila.lin_nmse_db": _metric(quality["lin_nmse_db"], "dB"),
            "ila.improved_frac": _metric(quality["improved_frac"], "ratio"),
            "ila.rows_changed": _metric(changed, "count"),
            "ila.rows_compared": _metric(compared, "count"),
            "trace.wall_s": _metric(traced_wall_s, "s"),
            "trace.unattributed_s": _metric(traced_wall_s - tracer.attributed_s(), "s"),
            "tracing_overhead_s": _metric(traced_wall_s - wall_s, "s"),
        })
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    if not (SRC / "dpdlab" / "__init__.py").is_file():
        print(f"perfbench: no dpdlab sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    print("env", json.dumps(environment(args.workload, args.seed), sort_keys=True))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workdir)
    except Exception:  # report any failure of the program under test, print no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
