"""Closed-loop op runner and the end-to-end metrics of one run.

One caller issues ops back to back.  An op is one call into a public kernel
of the package on seeded inputs; only that call is timed.  Its result is
then checked against an independent oracle outside the timed region.  A
check is a list of ``(measured, tolerance)`` pairs; the op passes when every
``measured <= tolerance`` holds, and ``measured / tolerance`` is its margin.
Checks that are too slow to run per op (high-precision quadrature on a
seeded subsample) return later through ``Op.late`` and run after the loop.
Before each op the host's speed is sampled with a fixed calibration kernel
(``calibrate.py``), outside the op's timed region.
"""

from __future__ import annotations

import itertools
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from calibrate import Calibration

Pairs = list  # [(measured, tolerance), ...]


def need(cond: bool) -> tuple:
    """A pass/fail condition as a check pair: margin 0 when it holds."""
    return (0.0, 1.0) if cond else (math.inf, 1.0)


def at_least(value: float, lower: float) -> tuple:
    """``value >= lower`` as a check pair; the margin is ``lower / value``."""
    return (lower, value) if value > 0 else (math.inf, 1.0)


def within(value: float, lo: float, hi: float) -> tuple:
    """``lo <= value <= hi``; the margin is the distance from the centre
    over the half width."""
    return (abs(value - 0.5 * (lo + hi)), 0.5 * (hi - lo))


@dataclass
class Op:
    cls: str                                   # kind plus size, e.g. "norm.K4"
    run: Callable[[], Any]
    check: Callable[[Any], Pairs]
    late: Callable[[Any], Callable[[], Pairs]] | None = None


@dataclass
class Workload:
    make_pass: Callable[[int, int], list]      # (seed, pass index) -> [Op]
    warmup: Callable[[], None]


@dataclass
class Record:
    cls: str
    latency: float
    pass_index: int = 0
    host: float = 1.0                          # host slowness sampled before the op
    pairs: Pairs = field(default_factory=list)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(m <= t for m, t in self.pairs)


def _verify(op: Op, out, rec: Record, late: list):
    try:
        rec.pairs.extend(op.check(out))
        if op.late is not None:
            late.append((rec, op.late(out)))
    except Exception:  # a broken oracle or result counts as a failed op
        rec.error = traceback.format_exc(limit=3)


def _execute(op: Op, index: int, late: list, tracer=None, corrupt=None) -> Record:
    """Time one op, then check its result outside the timed region."""
    rec = Record(op.cls, 0.0)
    out = None
    if tracer is not None:
        tracer.begin_op(index)
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception:
        rec.error = traceback.format_exc(limit=3)
    rec.latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    if rec.error is None:
        if corrupt is not None:
            out = corrupt(index, op, out)
        _verify(op, out, rec, late)
    return rec


def _finish_late(late: list):
    for rec, thunk in late:
        try:
            rec.pairs.extend(thunk())
        except Exception:
            rec.error = traceback.format_exc(limit=3)


def run_ops(workload: Workload, seed: int, budget_s: float, tracer=None, corrupt=None,
            min_ops: int = 0, wall_cap_s: float = 110.0) -> tuple:
    """Run ops pass after pass until ``budget_s`` seconds of timed op time,
    ``min_ops`` ops and at least one whole pass.

    With a ``tracer``, every op runs twice on identical fresh inputs, first
    untraced and then traced, so warm-up and drift fall on both sides of the
    tracing-overhead comparison alike; the budget counts the untraced side.
    ``corrupt(index, op, out)`` may replace a result before its check; the
    self-test uses it to show that each check can fail.

    Returns the untraced records, the traced records (empty without a
    tracer) and the class list of one pass.
    """
    plain, traced, late = [], [], []
    calibration = Calibration()
    timed = 0.0
    t_start = time.perf_counter()
    first_pass = None
    for p in itertools.count():
        ops = workload.make_pass(seed, p)
        twins = workload.make_pass(seed, p) if tracer is not None else ops
        if first_pass is None:
            first_pass = [op.cls for op in ops]
        for op, twin in zip(ops, twins):
            i = len(plain)
            if (timed >= budget_s and i >= max(len(first_pass), min_ops)) or \
                    time.perf_counter() - t_start > wall_cap_s:
                break
            host = calibration.sample()
            plain.append(_execute(op, i, late, corrupt=corrupt))
            plain[-1].pass_index, plain[-1].host = p, host
            timed += plain[-1].latency
            if tracer is not None:
                traced.append(_execute(twin, i, late, tracer=tracer))
        else:
            continue
        break
    _finish_late(late)
    return plain, traced, first_pass


# Quantile of an op class's latencies, in host-speed units, that stands for
# the class's cost: each class recurs in every pass on fresh inputs, and its
# lower quartile (the timeit principle of the fastest repeats, kept off the
# single minimum) is the part of the spread least touched by other tenants.
CLASS_QUANTILE = 0.25


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def host_speed_latencies(records: list) -> list:
    """Each op's latency over the host's slowness during its pass: the
    median of the calibration samples taken before the pass's ops."""
    by_pass = {}
    for r in records:
        by_pass.setdefault(r.pass_index, []).append(r.host)
    slow = {p: statistics.median(v) for p, v in by_pass.items()}
    return [r.latency / slow[r.pass_index] for r in records]


def end_to_end(records: list, pass_classes: list, host_speed: bool = True) -> dict:
    """End-to-end metrics of one run, as {name: (value, unit)}.

    Latencies are first put in host-speed units (``host_speed_latencies``;
    ``host_speed=False`` keeps them as measured).  Every class of op (kind
    plus size) is then costed at the lower quartile of its latencies in the
    run (``CLASS_QUANTILE``), and the timings are those of the workload's
    fixed op list, one pass, at these costs: ``ops_per_s`` is the op count
    of a pass over its summed costs, times the share of ops verified;
    ``op_p50_ms`` and ``op_p90_ms`` are percentiles over the pass's ops.
    ``worst_margin`` is the median over passes of the largest margin in each
    pass: every pass draws fresh random points, and the largest margin over
    a whole run is an extreme value that moves with the seed more than with
    the code.
    """
    lat = host_speed_latencies(records) if host_speed else [r.latency for r in records]
    by_cls = {}
    for r, t in zip(records, lat):
        by_cls.setdefault(r.cls, []).append(t)
    cost = {c: quantile(v, CLASS_QUANTILE) for c, v in by_cls.items()}
    slots = [cost[c] for c in pass_classes if c in cost]
    verified = sum(r.ok for r in records)
    pass_worst = {}
    for r in records:
        for m, t in r.pairs:
            x = m / t if t > 0 else (0.0 if m <= 0 else math.inf)
            x = math.inf if math.isnan(x) else x
            pass_worst[r.pass_index] = max(pass_worst.get(r.pass_index, 0.0), x)
    return {
        "ops_per_s": (verified / len(records) * len(slots) / sum(slots), "ops/s"),
        "op_p50_ms": (1e3 * quantile(slots, 0.5), "ms"),
        "op_p90_ms": (1e3 * quantile(slots, 0.9), "ms"),
        "verified_frac": (verified / len(records), "1"),
        "worst_margin": (statistics.median(pass_worst.values()) if pass_worst else 0.0, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def class_table(records: list) -> list:
    """Per-class count, median and max latency, slowest class first."""
    by_cls = {}
    for r in records:
        by_cls.setdefault(r.cls, []).append(r.latency)
    rows = [(c, len(v), statistics.median(v), max(v)) for c, v in by_cls.items()]
    return sorted(rows, key=lambda row: -row[2])
