"""Ehrenpreis cutoffs and Borel summation of factorially divergent symbols.

The cutoff family is built by N-fold grid convolution of the scaled standard
bump with the indicator of an intermediate interval.  Derivatives are never
taken by finite differences: the j-th derivative of chi_N is the convolution
of j sampled derivative kernels with N-j smooth kernels and the indicator,
which is exact up to quadrature of the smooth kernels.  This keeps the
factorial certificate max |chi_N^(j)| <= (rho N)^j testable up to N = 12
and beyond in double precision.

Borel summation realizes a truncated symbol (a_k) as the lowest-term sum

    a(x, theta) = sum_l a_l(x, theta) (1 - chi_{l+1}(c |theta| / (l+1))),

which keeps only the terms with l + 1 < c |theta|.  Remainder fits are done
in log space; the quoted fit quality is the RMS log misfit divided by the
RMS spread of the data, so "0.25" means the factorial model explains 75
percent of the spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .symbols import FormalSymbol

__all__ = [
    "CutoffFamily",
    "ehrenpreis_cutoffs",
    "cutoff_certificate",
    "cutoff_csv_rows",
    "RealizedAmplitude",
    "borel_sum",
    "fit_factorial_rate",
    "remainder_profile",
    "cauchy_product_check",
    "fit_exponential_rate",
    "bump_value",
]

# normalization of the standard bump exp(-1/(1-x^2)) on (-1, 1)
_BUMP_NODES = 4001


def _bump_raw(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t, dtype=float)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


def _bump_raw_deriv(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t, dtype=float)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti)) * (-2.0 * ti / (1.0 - ti * ti) ** 2)
    return out


def _bump_mass() -> float:
    t = np.linspace(-1.0, 1.0, _BUMP_NODES)
    return float(np.trapezoid(_bump_raw(t), t))


_Z = _bump_mass()


def bump_value(t) -> np.ndarray:
    """Normalized standard mollifier phi with unit mass, support (-1, 1).

    Kept as the only check of ``_Z``, which the derivative kernels use as is.
    """
    return _bump_raw(np.asarray(t, dtype=float)) / _Z


@dataclass
class CutoffFamily:
    """Cutoffs chi_N with chi_N = 1 on [k0, k1], 0 outside (k0-2c, k1+2c).

    ``chi[N]`` holds grid samples; ``deriv[(N, j)]`` the exact j-th
    derivative samples.  ``rho`` is the L1 norm of the derivative of the
    scale-c mollifier, the constant entering the certificate
    ``max |chi_N^(j)| <= (rho N)^j`` for ``j <= N``.
    """

    inner: tuple
    outer: tuple
    c: float
    rho: float
    h: float
    grid: np.ndarray
    n_max: int
    chi: dict = field(default_factory=dict)
    deriv: dict = field(default_factory=dict)

    def value(self, N: int, s) -> np.ndarray:
        """Interpolated chi_N(s); s may be an array.  chi_N := 1 left of the grid."""
        if N not in self.chi:
            raise KeyError(f"chi_{N} not built (n_max={self.n_max})")
        s = np.asarray(s, dtype=float)
        return np.interp(s, self.grid, self.chi[N], left=1.0, right=0.0)


def _kernel(scale: float, h: float, derivative: bool) -> np.ndarray:
    w = int(math.ceil(scale / h))
    t = (np.arange(-w, w + 1) * h) / scale
    if derivative:
        k = _bump_raw_deriv(t) / (_Z * scale * scale)
        return k * h
    k = _bump_raw(t) / (_Z * scale)
    k *= 1.0 / (np.sum(k) * h)  # keep unit mass exactly per pass
    return k * h


def ehrenpreis_cutoffs(inner, outer, n_max: int, h: float | None = None,
                       deriv_max: int | None = None) -> CutoffFamily:
    """Build the cutoff family for 1D intervals ``inner`` and ``outer``.

    ``inner`` = (k0, k1) is where chi_N = 1; ``outer`` = (l0, l1) where
    chi_N = 0.  Requires dist(inner, outer) > 0.  ``h`` defaults to
    c / (20 n_max); a grid coarser than c / (10 n_max) is refused.
    """
    k0, k1 = map(float, inner)
    l0, l1 = map(float, outer)
    if not (k0 <= k1 < l0 <= l1):
        raise ValueError("need inner interval strictly left of outer interval")
    gap = l0 - k1
    if gap <= 0:
        raise ValueError("sets too close: dist(K, L) must be positive")
    delta = gap / 2.0
    c = delta
    if h is None:
        h = c / (20.0 * n_max)
    if h > c / (10.0 * n_max):
        raise ValueError(f"grid too coarse for N_max={n_max}: h={h} > {c / (10 * n_max)}")
    lo = k0 - 2.0 * delta - 4.0 * h
    hi = l1 + 4.0 * h
    grid = lo + h * np.arange(int(math.ceil((hi - lo) / h)) + 1)
    indicator = ((grid >= k0 - delta) & (grid <= k1 + delta)).astype(float)

    # rho = L1 norm of the derivative of the scale-c mollifier
    tt = np.linspace(-1.0, 1.0, _BUMP_NODES)
    rho = float(np.trapezoid(np.abs(_bump_raw_deriv(tt)) / (_Z * c * c), tt * c))

    fam = CutoffFamily(inner=(k0, k1), outer=(l0, l1), c=c, rho=rho, h=h,
                       grid=grid, n_max=n_max)
    jmax_all = n_max if deriv_max is None else deriv_max
    for N in range(1, n_max + 1):
        scale = c / N
        ker = _kernel(scale, h, derivative=False)
        dker = _kernel(scale, h, derivative=True)
        base = indicator
        stages = [base]
        for j in range(min(N, jmax_all)):
            stages.append(np.convolve(stages[-1], dker, mode="same"))
        # stages[j] = (phi')^{*j} * indicator ; now mollify N - j more times
        for j, st in enumerate(stages):
            u = st
            for _ in range(N - j):
                u = np.convolve(u, ker, mode="same")
            if j == 0:
                fam.chi[N] = np.clip(u, 0.0, 1.0)
            fam.deriv[(N, j)] = u
    return fam


def cutoff_csv_rows(fam: CutoffFamily, N: int, stride: int = 1):
    """(header, rows) for CSV export: position, value, first derivatives.

    Up to four derivative columns, as many as are stored for this N.
    """
    jmax = min(4, max(j for (nn, j) in fam.deriv if nn == N))
    header = ["s", "chi"] + [f"d{j}" for j in range(1, jmax + 1)]
    cols = [fam.grid, fam.chi[N]] + [fam.deriv[(N, j)] for j in range(1, jmax + 1)]
    rows = [[float(c[i]) for c in cols] for i in range(0, fam.grid.size, stride)]
    return header, rows


def cutoff_certificate(fam: CutoffFamily) -> dict:
    """Sampled derivative bounds versus (rho N)^j for every stored pair."""
    rows = []
    ok = True
    for (N, j), vals in sorted(fam.deriv.items()):
        if j == 0:
            continue
        got = float(np.max(np.abs(vals)))
        bound = (fam.rho * N) ** j
        rows.append({"N": N, "j": j, "max_abs": got, "bound": bound,
                     "ratio": got / bound})
        ok = ok and got <= bound
    return {"rho": fam.rho, "c": fam.c, "rows": rows, "pass": ok}


# ---------------------------------------------------------------------------
# Borel summation
# ---------------------------------------------------------------------------


def fit_factorial_rate(a: FormalSymbol, x_point=None, theta_ref: float = 1.0) -> tuple:
    """Least-squares fit of log(sup_k |a_k| theta^{k-d0} / k!) against k.

    Returns (C_fit, R_fit).  Homogeneity makes the scaled sup independent of
    theta; we evaluate on the ray theta = theta_ref > 0 at x = x_point.
    """
    d = a.dim
    if x_point is None:
        x_point = np.zeros(d)
    args = [np.asarray([x_point[i]]) for i in range(d)]
    args += [np.asarray([theta_ref if i == 0 else 0.0]) for i in range(d)]
    ks, logs = [], []
    for k, ck in enumerate(a.coeffs):
        if ck.is_zero():
            continue
        v = abs(complex(ex.evaluate(ck, args)[0])) * theta_ref ** (k - a.d0)
        if v <= 0:
            continue
        ks.append(k)
        logs.append(math.log(v / math.factorial(k)))
    if len(ks) < 2:
        return (math.exp(logs[0]) if logs else 1.0, 1.0)
    k_arr = np.array(ks, dtype=float)
    A = np.stack([np.ones_like(k_arr), k_arr], axis=1)
    sol, *_ = np.linalg.lstsq(A, np.array(logs), rcond=None)
    return (math.exp(sol[0]), math.exp(sol[1]))


@dataclass
class RealizedAmplitude:
    """Lazy evaluation closure of the Borel sum of a truncated symbol."""

    source: FormalSymbol
    c: float
    cutoffs: CutoffFamily

    def eval(self, x, theta) -> np.ndarray:
        """a(x, theta) for theta on the positive ray (radial evaluation).

        ``x`` is a point in R^d, ``theta`` a positive array of radii; the
        symbol is evaluated at xi = (theta, 0, .., 0).
        """
        theta = np.asarray(theta, dtype=float)
        d = self.source.dim
        args = [np.full_like(theta, float(x[i]), dtype=complex) for i in range(d)]
        args += [theta.astype(complex) if i == 0 else np.zeros_like(theta, dtype=complex)
                 for i in range(d)]
        total = np.zeros_like(theta, dtype=complex)
        for l, cl in enumerate(self.source.coeffs):
            if cl.is_zero():
                continue
            gate = 1.0 - self.cutoffs.value(l + 1, self.c * theta / (l + 1))
            if not np.any(gate > 0):
                continue
            total = total + ex.evaluate(cl, args) * gate
        return total

    def partial_sum(self, x, theta, N: int) -> np.ndarray:
        """sum_{k<N} a_k(x, theta) on the positive ray."""
        theta = np.asarray(theta, dtype=float)
        d = self.source.dim
        args = [np.full_like(theta, float(x[i]), dtype=complex) for i in range(d)]
        args += [theta.astype(complex) if i == 0 else np.zeros_like(theta, dtype=complex)
                 for i in range(d)]
        total = np.zeros_like(theta, dtype=complex)
        for k in range(min(N, self.source.order + 1)):
            ck = self.source.coeffs[k]
            if not ck.is_zero():
                total = total + ex.evaluate(ck, args)
        return total


def borel_sum(a: FormalSymbol, c: float, cutoffs: CutoffFamily,
              warn=None) -> RealizedAmplitude:
    """Borel realisation with cutoff scale c.

    Checks c * R_fit <= 1/4 for the fitted factorial growth rate of ``a``;
    a violation is reported through ``warn`` (a callable receiving a string)
    because the remainder bound is then not guaranteed.
    """
    _, R_fit = fit_factorial_rate(a)
    if c * R_fit > 0.25 + 1e-12:
        msg = (f"cutoff scale too large: c*R_fit = {c * R_fit:.3f} > 1/4; "
               "remainder bound not guaranteed")
        if warn is None:
            raise ValueError(msg)
        warn(msg)
    return RealizedAmplitude(a, c, cutoffs)


def _log_model_fit(logr, design):
    """Least squares for logr ~ design @ params; returns params, rel misfit."""
    sol, *_ = np.linalg.lstsq(design, logr, rcond=None)
    resid = logr - design @ sol
    spread = logr - np.mean(logr)
    denom = float(np.sqrt(np.mean(spread**2)))
    rel = float(np.sqrt(np.mean(resid**2))) / max(denom, 1e-30)
    return sol, rel


def _factorial_model_fit(res_rows, theta, d0, c, floor_scale, floor):
    """Fit log res = log C + n log rho + log n! + (d0 - n) log theta.

    The fit runs over the *active window* n + 1 <= c theta / 2, where the
    first omitted term of the realisation is not yet gated by its cutoff and
    the residual genuinely tracks the factorial model; outside that window
    the residual plateaus at the size of the last active term.  A separate
    global constant C_global = max res / (max(rho,2)^n n! theta^{d0-n}) is
    reported as the upper-bound form over all samples.
    """
    ns, ths, logs = [], [], []
    for n, res in enumerate(res_rows):
        for t, v in zip(theta, res):
            if v > floor * floor_scale and (n + 1) <= 0.5 * c * t:
                ns.append(n)
                ths.append(t)
                logs.append(math.log(v))
    if len(logs) < 4:
        return {"C": 0.0, "rho": 0.0, "fit_quality": 0.0,
                "n_samples": len(logs), "C_global": 0.0, "rho_bound": 2.0}
    ns_a = np.array(ns, dtype=float)
    ths_a = np.array(ths, dtype=float)
    logs_a = np.array(logs, dtype=float)
    forced = np.array([math.lgamma(n + 1.0) for n in ns_a]) + (d0 - ns_a) * np.log(ths_a)
    design = np.stack([np.ones_like(ns_a), ns_a], axis=1)
    sol, *_ = np.linalg.lstsq(design, logs_a - forced, rcond=None)
    misfit = logs_a - (design @ sol + forced)
    spread = logs_a - np.mean(logs_a)
    rel = float(np.sqrt(np.mean(misfit**2))) / max(float(np.sqrt(np.mean(spread**2))), 1e-30)
    rho_fit = math.exp(sol[1])
    rho_bound = max(rho_fit, 2.0)
    c_global = 0.0
    for n, res in enumerate(res_rows):
        model = rho_bound**n * math.gamma(n + 1.0) * theta ** (d0 - n)
        c_global = max(c_global, float(np.max(res / model)))
    return {"C": math.exp(sol[0]), "rho": rho_fit, "fit_quality": rel,
            "n_samples": len(logs), "C_global": c_global, "rho_bound": rho_bound}


def remainder_profile(r: RealizedAmplitude, N: int, theta_grid, x=None,
                      floor: float = 1e-13) -> dict:
    """Residuals |a - sum_{k<n} a_k| for n <= N and the factorial-model fit.

    ``fit_quality`` is the relative RMS log misfit on the active window
    (<= 0.25 counts as following the model); ``C_global`` is the constant
    of the upper-bound form over the whole (n, theta) rectangle.
    """
    d = r.source.dim
    if x is None:
        x = np.zeros(d)
    theta = np.asarray(theta_grid, dtype=float)
    a_val = r.eval(x, theta)
    rows = []
    for n in range(N + 1):
        rows.append(np.abs(a_val - r.partial_sum(x, theta, n)))
    rows = np.array(rows)
    fit = _factorial_model_fit(rows, theta, r.source.d0, r.c,
                               float(np.max(np.abs(a_val)) + 1.0), floor)
    fit.update({"residuals": rows, "theta": theta})
    return fit


def fit_exponential_rate(theta, values, floor: float = 1e-13) -> dict:
    """Fit log|values| = A - eps * theta over samples above the noise floor."""
    theta = np.asarray(theta, dtype=float)
    vals = np.abs(np.asarray(values))
    mask = vals > floor
    if np.sum(mask) < 3:
        return {"eps": 0.0, "A": 0.0, "n_samples": int(np.sum(mask)), "fit_quality": 1.0}
    t = theta[mask]
    lv = np.log(vals[mask])
    design = np.stack([np.ones_like(t), -t], axis=1)
    sol, rel = _log_model_fit(lv, design)
    return {"eps": float(sol[1]), "A": float(sol[0]),
            "n_samples": int(np.sum(mask)), "fit_quality": rel}


def cauchy_product_check(a: FormalSymbol, b: FormalSymbol, c: float,
                         cutoffs: CutoffFamily, theta_grid, N: int,
                         x=None) -> dict:
    """Verify borel(a) * borel(b) realises the Cauchy product of (a, b).

    Kept as the product-rule oracle of :func:`borel_sum`.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    d = a.dim
    if x is None:
        x = np.zeros(d)
    K = min(a.order, b.order)
    prod_coeffs = []
    for k in range(K + 1):
        terms = [ex.mul(a.coeffs[l], b.coeffs[k - l])
                 for l in range(k + 1)
                 if not (a.coeffs[l].is_zero() or b.coeffs[k - l].is_zero())]
        prod_coeffs.append(ex.add(*terms) if terms else ex.ZERO)
    ab = FormalSymbol(d, a.d0 + b.d0, K, tuple(prod_coeffs))

    ra = borel_sum(a, c, cutoffs)
    rb = borel_sum(b, c, cutoffs)
    rab = RealizedAmplitude(ab, c, cutoffs)  # only used for partial sums

    theta = np.asarray(theta_grid, dtype=float)
    prod_vals = ra.eval(x, theta) * rb.eval(x, theta)

    rows = []
    for n in range(N + 1):
        rows.append(np.abs(prod_vals - rab.partial_sum(x, theta, n)))
    rows = np.array(rows)
    fit = _factorial_model_fit(rows, theta, ab.d0, c,
                               float(np.max(np.abs(prod_vals)) + 1.0), 1e-13)
    fit.update({"residuals": rows, "theta": theta})
    return fit
