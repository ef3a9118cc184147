"""Acceptance battery: every shipped criterion as a callable check.

Each criterion returns its pass flag and the measured quantities;
:func:`run_criterion` times it into a :class:`CheckResult`, and
:func:`verify_all` runs a suite and prints one line per criterion.  The
``fast`` suite trims corpus sizes but exercises every code path; ``full``
runs the complete battery.  Every threshold that decides a pass flag, here
or in the CLI, lives in :data:`TOLERANCES`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .borel import (
    borel_sum,
    cutoff_certificate,
    ehrenpreis_cutoffs,
    fit_exponential_rate,
    remainder_profile,
)
from .cylinder import eval_mn_scaled, fit_mn_remainder, reproduce_test
from .fbi import builtin_function, wavefront_probe
from .normalform import (
    Quantize2D,
    commutator_check,
    random_jet_rhs,
    stability_sweep,
    transport_recursion,
    transport_residuals,
)
from .quantize import (
    BandLimit,
    commutator_matrix,
    commutator_residual,
    moyal_consistency,
    windowed_mode,
)
from .statphase import remainder_certificate
from .symbols import FormalSymbol, NormParams, estimate_norm, moyal_product

__all__ = ["CheckResult", "CRITERIA", "TOLERANCES", "borel_realisation_gap",
           "mn_fit_verdict", "run_criterion", "verify_all",
           "worst_transport_residual"]

# Every threshold deciding a pass flag in this module or in the CLI, keyed by
# the name of the measured quantity in the details or artifacts.  An entry is
# an upper bound unless its comment says otherwise.
TOLERANCES = {
    "fit_quality": 0.25,            # C1, C6, mn-asym, borel-demo
    "terminating_tail": 1e-12,      # C1, mn-asym
    "m2_leading": (0.98, 1.02),     # C1, closed interval
    "n1_max_rel_err": 1e-4,         # C2; szego-reproduce's default tol
    "n2_max_rel_err": 1e-3,         # C2
    "rel_diff": 0.05,               # szego-fio
    "scaling_ratio": 0.1,           # szego-fio, |ratio / 2^n - 1|
    "convention_lock": 1e-10,       # C3
    "monotone": (1e-9, 1e-12),      # C3, eps[k+1] <= eps[k] (1 + rel) + abs
    "eps1": 1e-8,                   # moyal-check
    "eps4": 1e-6,                   # C3
    "norm_ab": 12.0,                # C4, constant of norm_ab <= C |a| |b|
    "on_inner_dev": 1e-12,          # C5
    "on_outer_dev": 1e-12,          # C5
    "gap_rate": 0.01,               # C6, borel-demo; lower bound
    "poly_exactness": 1e-10,        # C7
    "poly_tail": 10.0,              # C7, multiple of e^{-lam}
    "heaviside_power": (0.8, 1.2),  # C8, closed interval
    "abs_power": (1.5, 3.0),        # C8, closed interval
    "rate": 0.03,                   # C8; lower bound
    "order0_pde_residual": 1e-9,    # normalform-demo
    "transport_residual": 1e-12,    # C9, normalform-demo
    "commutator_residual": 1e-8,    # C9, normalform-demo
    "stability_max_ratio": 1.0 + 1e-6,  # C9, stability-sweep
}


@dataclass
class CheckResult:
    cid: str
    name: str
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.cid:<4} {self.name:<42} {status}  ({self.seconds:.1f}s)"


# ---------------------------------------------------------------------------
# C1: sphere-moment asymptotics
# ---------------------------------------------------------------------------


def mn_fit_verdict(fit: dict) -> tuple[bool, dict]:
    """Verdict and details for one :func:`fit_mn_remainder` result.

    A fitted remainder must follow the factorial model; a terminating
    expansion (odd n, no samples) must leave an exponentially small
    residual beyond its last nonzero term.
    """
    if fit["n_samples"] > 0:
        return (fit["fit_quality"] <= TOLERANCES["fit_quality"],
                {"fit_quality": fit["fit_quality"], "C": fit["C"], "rho": fit["rho"]})
    tail = float(np.max(fit["residuals"][-1]))
    return tail <= TOLERANCES["terminating_tail"], {"terminating_tail": tail}


def check_mn_asymptotics(fast: bool = False) -> tuple[bool, dict]:
    r = np.geomspace(20.0, 100.0, 12 if fast else 25)
    details = {}
    ok = True
    for n in (1, 2, 3):
        ok_n, details[f"n{n}"] = mn_fit_verdict(fit_mn_remainder(n, 6, r))
        ok = ok and ok_n
    lead = float((eval_mn_scaled(2, 50.0 + 0j) * math.sqrt(50.0 / (2 * math.pi))).real)
    details["m2_leading"] = lead
    lo, hi = TOLERANCES["m2_leading"]
    return ok and lo <= lead <= hi, details


# ---------------------------------------------------------------------------
# C2: Szego reproducing property
# ---------------------------------------------------------------------------


def check_szego_reproduce(fast: bool = False) -> tuple[bool, dict]:
    pts1 = [
        (np.array([0.0]), np.array([1.0]), 0.995),
        (np.array([0.7]), np.array([-1.0]), 0.99),
        (np.array([-1.2]), np.array([1.0]), 0.98),
        (np.array([0.2]), np.array([-1.0]), 0.995),
        (np.array([2.0]), np.array([1.0]), 0.985),
    ]
    rep1 = reproduce_test(1, [0.5], pts1, tol=TOLERANCES["n1_max_rel_err"])
    details = {"n1_max_rel_err": rep1["max_rel_err"], "n1_pass": rep1["pass"]}
    ok = rep1["pass"]
    if not fast:
        pts2 = [
            (np.array([0.0, 0.0]), np.array([0.0, 1.0]), 0.9),
            (np.array([0.5, -0.3]), np.array([0.6, 0.8]), 0.92),
            (np.array([-0.2, 0.1]), np.array([1.0, 0.0]), 0.88),
        ]
        rep2 = reproduce_test(2, [0.5, 0.25], pts2, tol=TOLERANCES["n2_max_rel_err"])
        details.update({"n2_max_rel_err": rep2["max_rel_err"], "n2_pass": rep2["pass"]})
        ok = ok and rep2["pass"]
    return ok, details


# ---------------------------------------------------------------------------
# C3: Moyal / quantization consistency
# ---------------------------------------------------------------------------


def check_moyal_quantization(fast: bool = False) -> tuple[bool, dict]:
    L, M = 48.0, 2048
    band = BandLimit(384)
    x, xi = ex.var(0), ex.var(1)
    ax = FormalSymbol(1, 0.0, 0, (x,))
    axi = FormalSymbol(1, 1.0, 0, (xi,))
    X = commutator_matrix(ax, band, L, M)
    XI = commutator_matrix(axi, band, L, M)
    f = np.arange(-band.F, band.F + 1)
    vecs = []
    for m0 in ((30, 60) if fast else (30, 45, 60, -35, -55, 80)):
        g = windowed_mode(L, M, m0, BandLimit(band.F // 2))
        vecs.append(np.fft.fft(g.values)[np.mod(f, M)])
    lock = commutator_residual(X, XI, 1j * np.eye(f.size), vecs)

    w = 2 * math.pi / L
    nx = ex.norm(xi)
    a_ell = FormalSymbol(1, 0.0, 4, (
        ex.add(1, ex.mul(0.3, ex.cos(ex.mul(w, x)))),
        ex.div(ex.mul(0.5, ex.sin(ex.mul(w, x))), nx),
        ex.div(ex.mul(0.2, ex.cos(ex.mul(2 * w, x))), ex.powi(nx, 2)),
        ex.ZERO, ex.ZERO))
    b_ell = FormalSymbol(1, 0.0, 4, (
        ex.add(1, ex.mul(0.2, ex.sin(ex.mul(w, x)))),
        ex.div(ex.mul(0.4, ex.cos(ex.mul(w, x))), nx),
        ex.ZERO, ex.ZERO, ex.ZERO))
    u = windowed_mode(L, M, 60, BandLimit(band.F // 4))
    rep = moyal_consistency(a_ell, b_ell, 4, u, band)
    eps = rep["eps"]
    rel, abs_ = TOLERANCES["monotone"]
    monotone = all(eps[i + 1] <= eps[i] * (1.0 + rel) + abs_ for i in range(len(eps) - 1))
    ok = lock <= TOLERANCES["convention_lock"] and monotone and eps[4] <= TOLERANCES["eps4"]
    return ok, {"convention_lock": lock, "eps": eps, "monotone": monotone}


# ---------------------------------------------------------------------------
# C4: Banach-algebra bound for the star product norm
# ---------------------------------------------------------------------------


def _banach_corpus():
    x, xi = ex.var(0), ex.var(1)
    nx = ex.norm(xi)
    a = FormalSymbol(1, 0.0, 2, (
        ex.add(1.0, ex.mul(0.5, ex.sin(x))),
        ex.div(ex.mul(0.4, ex.cos(x)), nx),
        ex.ZERO))
    b = FormalSymbol(1, 0.0, 2, (
        ex.add(1.0, ex.mul(0.3, ex.cos(x))),
        ex.div(ex.mul(0.2, ex.sin(x)), nx),
        ex.ZERO))
    c = FormalSymbol(1, 1.0, 2, (xi, ex.ONE, ex.ZERO))
    d = FormalSymbol(1, 0.0, 2, (ex.mul(x, ex.cos(x)), ex.ZERO, ex.ZERO))
    return [(a, b), (a, c), (d, b), (c, d)]


def check_banach_bound(fast: bool = False) -> tuple[bool, dict]:
    rho, m = 1.0, 8.0
    R = 2.0 ** (1 + 2) * rho**2  # R >= 2^{d+2} rho^2 at d = 1
    box = ((-2.0, 2.0), (1.0, 2.0))
    grid_n = 9 if fast else 13
    A = 4 if fast else 6
    pairs = _banach_corpus()
    if fast:
        pairs = pairs[:2]
    rows = []
    ok = True
    for i, (a, b) in enumerate(pairs):
        K = min(a.order, b.order)
        ab = moyal_product(a, b, K)
        p_full = NormParams(rho, R, m, 1, box, grid_n=grid_n, max_deriv=A)
        p_half = NormParams(rho / 2, R / 4, m, 1, box, grid_n=grid_n, max_deriv=A)
        na = estimate_norm(a, p_full).value
        nb = estimate_norm(b, p_half).value
        nab = estimate_norm(ab, p_full).value
        bound = TOLERANCES["norm_ab"] * na * nb
        rows.append({"pair": i, "norm_ab": nab, "bound": bound,
                     "ratio": nab / bound if bound > 0 else math.inf})
        ok = ok and nab <= bound
    return ok, {"rows": rows, "rho": rho, "R": R, "m": m}


# ---------------------------------------------------------------------------
# C5: Ehrenpreis certificate
# ---------------------------------------------------------------------------


def check_ehrenpreis(fast: bool = False) -> tuple[bool, dict]:
    n_max = 8 if fast else 12
    fam = ehrenpreis_cutoffs((0.0, 1.0), (2.0, 3.0), n_max)
    cert = cutoff_certificate(fam)
    worst = max((r["ratio"] for r in cert["rows"]), default=0.0)
    in_range = all(np.all((v >= 0.0) & (v <= 1.0)) for v in fam.chi.values())
    s_k = np.linspace(0.0, 1.0, 21)
    on_k = max(float(np.max(np.abs(fam.value(N, s_k) - 1.0)))
               for N in range(1, n_max + 1))
    s_l = np.linspace(2.0, 3.0, 21)
    on_l = max(float(np.max(np.abs(fam.value(N, s_l))))
               for N in range(1, n_max + 1))
    ok = (cert["pass"] and in_range and on_k <= TOLERANCES["on_inner_dev"]
          and on_l <= TOLERANCES["on_outer_dev"])
    return ok, {"rho": fam.rho, "worst_ratio": worst,
                "on_inner_dev": on_k, "on_outer_dev": on_l}


# ---------------------------------------------------------------------------
# C6: Borel remainder and realisation independence
# ---------------------------------------------------------------------------


def borel_realisation_gap(c: float, N: int, theta) -> tuple[dict, float, bool]:
    """Borel-sum a = sum_k k! |xi|^{-k} (K = 25) at scale c and at c/2.

    Returns the remainder profile of the scale-c realisation through order
    N on ``theta``, the exponential rate of the gap between the two
    realisations, and the verdict on both.
    """
    nx = ex.norm(ex.var(1))
    K = 25
    a = FormalSymbol(1, 0.0, K, (ex.ONE,) + tuple(
        ex.mul(float(math.factorial(k)), ex.powi(nx, -k)) for k in range(1, K + 1)))
    fam = ehrenpreis_cutoffs((0.0, 1.0), (2.0, 3.0), 27, deriv_max=0)
    r1 = borel_sum(a, c, fam)
    prof = remainder_profile(r1, N, theta)
    r2 = borel_sum(a, c / 2.0, fam)
    diff = r1.eval(np.zeros(1), theta) - r2.eval(np.zeros(1), theta)
    gap_rate = fit_exponential_rate(theta, diff)["eps"]
    ok = prof["fit_quality"] <= TOLERANCES["fit_quality"] and gap_rate >= TOLERANCES["gap_rate"]
    return prof, gap_rate, ok


def check_borel_remainder(fast: bool = False) -> tuple[bool, dict]:
    theta = np.geomspace(20.0, 200.0, 15 if fast else 25)
    prof, gap_rate, ok = borel_realisation_gap(1.0 / 8.0, 10, theta)
    return ok, {"fit_quality": prof["fit_quality"], "C": prof["C"],
                "rho": prof["rho"], "gap_rate": gap_rate}


# ---------------------------------------------------------------------------
# C7: stationary-phase certificate
# ---------------------------------------------------------------------------


def _statphase_corpus(d: int):
    if d == 1:
        y = ex.var(0)
        return [ex.ONE, ex.powi(y, 2), ex.sub(ex.powi(y, 4), ex.powi(y, 2)),
                ex.exp(y), ex.cos(ex.mul(3.0, y)),
                ex.div(ex.ONE, ex.add(1.0, ex.mul(0.5, ex.powi(y, 2))))]
    y1, y2 = ex.var(0), ex.var(1)
    return [ex.ONE, ex.mul(ex.powi(y1, 2), ex.powi(y2, 2)),
            ex.exp(ex.add(y1, ex.mul(0.5, y2))),
            ex.cos(ex.add(ex.mul(2.0, y1), y2))]


def check_statphase_certificate(fast: bool = False, bound_scale: float = 1.0) -> tuple[bool, dict]:
    lams = (5.0, 20.0) if fast else (5.0, 10.0, 20.0)
    dims = (1,) if fast else (1, 2)
    worst_slack = math.inf
    rows = []
    ok = True
    for d in dims:
        for u in _statphase_corpus(d):
            for lam in lams:
                for N in (2, 4, 8):
                    rep = remainder_certificate(u, d, lam, N, bound_scale=bound_scale)
                    rows.append({"d": d, "lam": lam, "N": N,
                                 "residual": rep["residual"], "bound": rep["bound"]})
                    ok = ok and rep["pass"]
                    worst_slack = min(worst_slack, rep["slack"])
    # polynomial exactness modulo the Gaussian tail
    from .statphase import gaussian_expansion, gaussian_quadrature_oracle
    y = ex.var(0)
    poly = ex.add(1.0, ex.mul(2.0, ex.powi(y, 2)), ex.powi(y, 4))
    lam = 10.0
    g = gaussian_expansion(poly, 1, lam, 8)
    # full-space moments of 1 + 2 y^2 + y^4
    exact = math.sqrt(math.pi / lam) * (1.0 + 2.0 * 0.5 / lam + 0.75 / lam**2)
    exact_err = abs(complex(g.value) - exact)
    oracle = gaussian_quadrature_oracle(poly, 1, lam, 1.0)
    tail = abs(complex(oracle) - exact)
    ok = (ok and exact_err <= TOLERANCES["poly_exactness"]
          and tail <= TOLERANCES["poly_tail"] * math.exp(-lam))
    return ok, {"cases": len(rows), "worst_slack": worst_slack,
                "poly_exactness": exact_err, "poly_tail": tail,
                "bound_scale": bound_scale}


# ---------------------------------------------------------------------------
# C8: FBI wavefront classification
# ---------------------------------------------------------------------------


def check_fbi_classification(fast: bool = False) -> tuple[bool, dict]:
    uh = builtin_function("heaviside")
    ua = builtin_function("abs")
    rows = []
    ok = True

    def singular(u, x, om, key):
        fit = wavefront_probe(u, x, om)
        lo, hi = TOLERANCES[key]
        good = fit.model == "polynomial" and lo <= fit.power <= hi
        rows.append({"probe": (x, om), "model": fit.model, "power": fit.power})
        return good

    def regular(u, x, om):
        fit = wavefront_probe(u, x, om)
        good = fit.model == "exponential" and fit.rate >= TOLERANCES["rate"]
        rows.append({"probe": (x, om), "model": fit.model, "rate": fit.rate})
        return good

    ok &= singular(uh, 0.0, +1.0, "heaviside_power")
    ok &= singular(uh, 0.0, -1.0, "heaviside_power")
    reg_h = [(0.5, 1.0), (-0.5, 1.0)] if fast else \
        [(0.5, 1.0), (0.5, -1.0), (-0.5, 1.0), (-0.5, -1.0), (0.8, 1.0)]
    for (xp, om) in reg_h:
        ok &= regular(uh, xp, om)
    ok &= singular(ua, 0.0, +1.0, "abs_power")
    ok &= singular(ua, 0.0, -1.0, "abs_power")
    reg_a = [(1.5, 1.0)] if fast else [(1.5, 1.0), (1.5, -1.0), (-1.5, 1.0), (2.0, 1.0)]
    for (xp, om) in reg_a:
        ok &= regular(ua, xp, om)
    return ok, {"rows": rows}


# ---------------------------------------------------------------------------
# C9: normal-form recursion, stability, commutator identity
# ---------------------------------------------------------------------------


def worst_transport_residual(g, K: int, N: int, pts) -> float:
    """Solve the transport recursion for ``g``; return the largest |residual|
    over the structurally nonzero residuals sampled at ``pts``."""
    b = transport_recursion(g, K, N)
    return max((float(np.max(np.abs(ex.evaluate(r, list(pts)))))
                for r in transport_residuals(b, g, K, N) if not r.is_zero()),
               default=0.0)


def check_normalform(fast: bool = False) -> tuple[bool, dict]:
    rng = np.random.default_rng(11)
    K, N = (2, 4) if fast else (3, 6)
    g = random_jet_rhs(rng, K, N)
    pts = np.random.default_rng(0).uniform(0.1, 0.4, (3, 8))
    worst_res = worst_transport_residual(g, K, N, pts)

    seeds = range(6) if fast else range(20)
    sweep = stability_sweep(seeds, K=K, N=N, m=8.0)

    q = Quantize2D()
    worst_comm = 0.0
    for bb in (ex.var(0), ex.var(2), ex.mul(ex.var(0), ex.var(3))):
        rep = commutator_check(bb, q)
        worst_comm = max(worst_comm, rep["residual"])
    ok = (worst_res <= TOLERANCES["transport_residual"]
          and sweep["max_ratio"] <= TOLERANCES["stability_max_ratio"]
          and worst_comm <= TOLERANCES["commutator_residual"])
    return ok, {"transport_residual": worst_res,
                "stability_max_ratio": sweep["max_ratio"],
                "commutator_residual": worst_comm}


# ---------------------------------------------------------------------------
# C10: determinism of emitted artifacts
# ---------------------------------------------------------------------------


def check_determinism(fast: bool = False) -> tuple[bool, dict]:
    import tempfile
    from pathlib import Path

    from .cli import run_subcommand

    ok = True
    details = {}
    for sub in ("mn-asym", "moyal-check"):
        digests = []
        for _ in range(2):
            with tempfile.TemporaryDirectory() as tmp:
                run_subcommand(sub, {}, Path(tmp), seed=1234)
                blobs = []
                for p in sorted(Path(tmp).iterdir()):
                    blobs.append((p.name, p.read_bytes()))
                digests.append(blobs)
        same = digests[0] == digests[1]
        details[sub] = "byte-identical" if same else "MISMATCH"
        ok = ok and same
    return ok, details


CRITERIA = {
    "C1": ("sphere-moment asymptotics", check_mn_asymptotics),
    "C2": ("Szego reproducing property", check_szego_reproduce),
    "C3": ("Moyal/quantization consistency", check_moyal_quantization),
    "C4": ("Banach-algebra bound (star product)", check_banach_bound),
    "C5": ("Ehrenpreis derivative certificate", check_ehrenpreis),
    "C6": ("Borel remainder + realisation gap", check_borel_remainder),
    "C7": ("stationary-phase remainder certificate", check_statphase_certificate),
    "C8": ("FBI wavefront classification", check_fbi_classification),
    "C9": ("normal-form recursion + stability", check_normalform),
    "C10": ("artifact determinism", check_determinism),
}


def run_criterion(cid: str, fast: bool = False, **kwargs) -> CheckResult:
    name, check = CRITERIA[cid]
    t0 = time.time()
    passed, details = check(fast=fast, **kwargs)
    return CheckResult(cid, name, bool(passed), time.time() - t0, details)


def verify_all(suite: str = "fast", printer=print,
               statphase_scale: float = 1.0) -> dict:
    """Run the acceptance battery; returns a summary dict.

    ``fast`` keeps every criterion but trims corpus sizes (a few seconds);
    ``full`` runs the complete battery at the shipped tolerances.
    ``statphase_scale`` rescales the stationary-phase certificate bound
    (the negative-test hook; a sufficiently small scale makes C7 fail and
    appear in the failed list).  The persisted summary omits timings so a
    repeated run with the same inputs is byte-identical.
    """
    if suite not in ("fast", "full"):
        raise ValueError(f"unknown suite {suite!r} (expected 'fast' or 'full')")
    fast = suite == "fast"
    results = []
    for cid in CRITERIA:
        kwargs = {"bound_scale": statphase_scale} if cid == "C7" else {}
        res = run_criterion(cid, fast=fast, **kwargs)
        results.append(res)
        printer(res.line())
    failed = [r.cid for r in results if not r.passed]
    return {
        "suite": suite,
        "statphase_scale": statphase_scale,
        "results": {r.cid: {"name": r.name, "params": {"fast": fast},
                            "values": r.details, "pass": r.passed, "details": {}}
                    for r in results},
        "failed": failed,
        "pass": not failed,
    }
