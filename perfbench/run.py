#!/usr/bin/env python3
"""Seeded benchmark of oracle-verified microlocal kernel calls.

    python3 perfbench/run.py --workload symbol-algebra --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
caller issues ops back to back (a closed loop).  Each op is one call into a
public kernel on inputs generated from ``--seed``; its result is checked
against an independent oracle outside the timed region.  The run measures
``--seconds`` seconds of op time, then prints a table of every metric with
its unit on stderr and, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Timings are in
host-speed units: each latency is divided by how slow a fixed calibration
kernel ran around it (``calibrate.py``), so that other tenants of a shared
host do not move them; the stderr table and the result file also give the
timings as measured.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice on identical inputs, untraced and then with spans recorded around
every public function of the package (see ``layers.py``), for half the
budget each; it reports the per-layer metrics and the tracing overhead, and
writes the spans and counters to
``perfbench/out/trace-<workload>-<seed>.json``.  Every run also writes its
result with the run environment to ``perfbench/out/result-...json``.  No
timing ever goes into the package's own artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("symbol-algebra", "grid-oracles", "szego")
SETUP_REPEATS = 5
MIN_OPS = 100  # so that at least ten ops lie beyond op_p90_ms
IMPORT_SNIPPET = "import microlocal.acceptance, microlocal.cli"
# The standard-library and third-party modules the package imports, timed
# the same way as the reference for the package's import (see setup_seconds),
# and that reference's median time on the machine of calibrate.NOMINAL_S.
REFERENCE_SNIPPET = "import argparse, dataclasses, json, pathlib, tempfile, numpy, scipy.special"
REFERENCE_IMPORT_S = 0.54


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc for this process and its children."""
    nproc = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc)
    return nproc


def environment(nproc: int) -> dict:
    import ctypes

    import mpmath
    import numpy
    import scipy

    env = {"nproc": nproc, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "mpmath": mpmath.__version__, "machine": platform.machine(),
           "openblas": None, "blas_threads": None,
           "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            get_n = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_c = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_n is not None and get_c is not None:
                get_n.restype = ctypes.c_int
                get_c.restype = ctypes.c_char_p
                env["blas_threads"] = get_n()
                env["openblas"] = get_c().decode(errors="replace")
                return env
    return env


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, or None off Linux."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def import_seconds(snippet: str) -> float:
    """Wall time of a fresh interpreter running ``snippet``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-B", "-c", snippet], env=env, check=True,
                   timeout=120, cwd=ROOT)
    return time.perf_counter() - t0


def clear_lazy_tables():
    for name, mod in list(sys.modules.items()):
        if name.startswith("microlocal"):
            for val in list(vars(mod).values()):
                if callable(getattr(val, "cache_clear", None)):
                    val.cache_clear()


def setup_seconds(workload, seed: int) -> float:
    """Median set-up time in host-speed units: a fresh import of the
    package, plus generating the first pass's inputs from the seed and
    warming the lazily built tables, each repeated ``SETUP_REPEATS`` times
    with the tables cleared in between.

    Each import is timed against a fresh interpreter importing only the
    modules the package itself imports (``REFERENCE_SNIPPET``), which loads
    the same kind of files and libraries and so slows with the host alike;
    the reported import time is ``REFERENCE_IMPORT_S``, that reference's
    nominal time, times the ratio of the two.  Each preparation is divided by the host's
    slowness sampled just before and after it (``calibrate.py``)."""
    from calibrate import Calibration

    calibration = Calibration()
    imports, prepares = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(REFERENCE_IMPORT_S * import_seconds(IMPORT_SNIPPET)
                       / import_seconds(REFERENCE_SNIPPET))
        clear_lazy_tables()
        before = [calibration.sample() for _ in range(3)]
        t0 = time.perf_counter()
        workload.make_pass(seed, 0)
        workload.warmup()
        t_prepare = time.perf_counter() - t0
        slow = statistics.median(before + [calibration.sample() for _ in range(3)])
        prepares.append(t_prepare / slow)
    return statistics.median(imports) + statistics.median(prepares)


def load_workload(name: str):
    mod = __import__(name.replace("-", "_"))
    return mod.WORKLOAD


def report(title: str, metrics: dict, extra_lines=()):
    print(f"== {title}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}", file=sys.stderr)
    for line in extra_lines:
        print("  " + line, file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "microlocal" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2

    nproc = cap_blas_threads()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    try:
        return measure(args, nproc, load_workload(args.workload))
    finally:
        shutil.rmtree(OUT / "tmp", ignore_errors=True)


def measure(args, nproc, workload) -> int:
    import harness

    ticks0 = cpu_ticks()
    setup_s = setup_seconds(workload, args.seed)
    env = environment(nproc)

    raw = {}
    if args.trace == 0:
        records, _, classes = harness.run_ops(workload, args.seed, args.seconds,
                                                min_ops=MIN_OPS)
        metrics = harness.end_to_end(records, classes)
        raw = harness.end_to_end(records, classes, host_speed=False)
        metrics["setup_s"] = (setup_s, "s")
        shown = dict(metrics)
        shown["failed_frac"] = (1.0 - metrics["verified_frac"][0], "1")
        shown["ops_measured"] = (len(records), "count")
        for name in ("ops_per_s", "op_p50_ms", "op_p90_ms"):
            shown[f"{name} (as measured)"] = raw[name]
        report(f"{args.workload} seed={args.seed} end-to-end", shown)
    else:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
        try:
            plain, traced, _ = harness.run_ops(workload, args.seed, args.seconds / 2,
                                               tracer=tracer)
        finally:
            tracer.uninstall()
        t_plain = sum(r.latency for r in plain)
        t_traced = sum(r.latency for r in traced)
        metrics = layers.metrics(tracer, t_traced, 1.0 - t_plain / t_traced)
        records = plain + traced
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "env": env,
                     "ops": [[r.cls, r.latency] for r in traced]})
        report(f"{args.workload} seed={args.seed} per-layer (traced)", metrics)

    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # share of the machine's CPU time the hypervisor gave to other guests
        env["cpu_steal_frac"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    env["host_slowness"] = statistics.median(r.host for r in records)
    failed = [r for r in records if not r.ok]
    report("ops by class (count, median ms, max ms)", {},
           [f"{c:<28} {n:>5} {1e3 * med:>10.3f} {1e3 * mx:>10.3f}"
            for c, n, med, mx in harness.class_table(records)]
           + [f"{k}: {v}" for k, v in env.items()]
           + [f"FAILED {r.cls}: {r.error or r.pairs}" for r in failed[:5]])
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, env=env, setup_s=setup_s,
                        as_measured={k: v for k, (v, _) in raw.items()},
                        classes=harness.class_table(records))) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
