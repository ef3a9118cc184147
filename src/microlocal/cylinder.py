"""Exact computations on the model cylinder R^n x S^{n-1}.

Central objects:

* the sphere moment ``m_n(z) = int_{S^{n-1}} e^{z.y} dy``, a radial entire
  function equal to ``(2 pi)^{n/2} I_{n/2-1}(r) / r^{n/2-1}`` at radial
  argument r;
* its large-r amplitude ``e^{-r} m_n(r) ~ sum_j c_j r^{-(n-1)/2 - j}`` with
  the classical Bessel coefficients (see :func:`sphere_moment_coeffs`; the
  expansion terminates for odd n);
* the Szego kernel

      K(z, w) = (2 pi)^{-n} int_{R^n} e^{i (z - conj w).xi} / m_n(2 xi) d xi,

  evaluated through the radial reduction ``K = (2 pi)^{-n} int_0^oo
  m_n(i r v) / m_n(2 r) r^{n-1} dr`` with ``v = z - conj w``.  Everything is
  organized around the holomorphic radial coordinate ``s(z, w) =
  sqrt(-(z - conj w)^2)``; the kernel is singular on ``s = 2`` (the boundary
  diagonal) and the gauge ``u0 = 2 - s`` measures diagonal proximity.

Evaluation points may sit strictly inside the tube, ``z = x + i beta omega``
with ``beta < 1``; the reproducing identity holds there verbatim and the
kernel stays integrable, which is how the reproduction test approaches
boundary values.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import exp1, gamma as sp_gamma, i0e, ive

from .quadrature import gauss_panels, gauss_rule

__all__ = [
    "sphere_area",
    "eval_mn",
    "eval_mn_scaled",
    "sphere_moment_coeffs",
    "mn_partial_sum_scaled",
    "radial_s",
    "DiagonalProximityError",
    "OutsideTubeError",
    "szego_kernel",
    "szego_kernel_batch",
    "szego_fio_model",
    "szego_fio_form",
    "reproduce_test",
    "fit_mn_remainder",
]

DIAG_GAUGE_FLOOR = 2.5e-7  # |2 - s| image of the 1e-3 diagonal exclusion
TUBE_SLACK = 1e-12  # rounding allowance on Re(2 - s) = 0 for boundary pairs


class DiagonalProximityError(ValueError):
    """Kernel evaluation refused too close to the boundary diagonal."""


class OutsideTubeError(ValueError):
    """Kernel evaluation refused outside the closed tube, Re(2 - s) < 0, where
    the radial integral diverges."""


def sphere_area(m: int) -> float:
    """Surface area of the unit m-sphere in R^{m+1}."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


# ---------------------------------------------------------------------------
# the sphere moment m_n
# ---------------------------------------------------------------------------


def _check_cone(r: np.ndarray):
    if np.any(np.abs(r.imag) >= np.abs(r.real)):
        raise ValueError("radial argument outside the cone Re r > |Im r|")


def eval_mn(n: int, r, mode: str = "closed"):
    """m_n at radial argument r (complex, in the cone Re r > |Im r|).

    ``closed`` uses the Bessel form (2 pi)^{n/2} I_{n/2-1}(r) r^{1-n/2}
    with explicit hyperbolic forms for n = 1, 3; ``quadrature`` integrates
    the slice reduction |S^{n-2}| int_-1^1 e^{rt} (1-t^2)^{(n-3)/2} dt
    (Gauss-Chebyshev for n = 2, Gauss-Legendre otherwise).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = np.asarray(r, dtype=complex)
    _check_cone(r)
    if mode == "closed":
        if n == 1:
            return 2.0 * np.cosh(r)
        if n == 3:
            return 4.0 * math.pi * np.sinh(r) / r
        from scipy.special import iv
        nu = n / 2.0 - 1.0
        return (2.0 * math.pi) ** (n / 2.0) * iv(nu, r) / r**nu
    if mode == "quadrature":
        if n == 1:
            return np.exp(r) + np.exp(-r)
        if n == 2:
            K = 400
            theta = (np.arange(K) + 0.5) * math.pi / K
            t = np.cos(theta)
            # int e^{rt} (1-t^2)^{-1/2} dt with Chebyshev-Gauss weights pi/K
            return 2.0 * (math.pi / K) * np.exp(np.multiply.outer(r, t)).sum(axis=-1)
        from scipy.special import roots_jacobi
        alpha = (n - 3) / 2.0
        nodes, weights = roots_jacobi(240, alpha, alpha)
        return sphere_area(n - 2) * (np.exp(np.multiply.outer(r, nodes)) * weights).sum(axis=-1)
    raise ValueError(f"unknown mode {mode!r}")


def eval_mn_scaled(n: int, r):
    """e^{-r} m_n(r), overflow-safe for large Re r."""
    r = np.asarray(r, dtype=complex)
    _check_cone(r)
    if n == 1:
        return 1.0 + np.exp(-2.0 * r)
    if n == 3:
        return 2.0 * math.pi * (1.0 - np.exp(-2.0 * r)) / r
    nu = n / 2.0 - 1.0
    # ive(nu, r) = iv(nu, r) e^{-|Re r|}; the cone gives Re r > 0
    return (2.0 * math.pi) ** (n / 2.0) * ive(nu, r) * np.exp(-1j * r.imag) / r**nu


def sphere_moment_coeffs(n: int, J: int):
    """Asymptotic coefficients of e^{-r} m_n(r).

    Returns (c, p) with e^{-r} m_n(r) ~ sum_j c[j] r^{-p[j]} and
    p[j] = (n-1)/2 + j.  The coefficients are the classical modified-Bessel
    expansion constants

        c_j = (2 pi)^{(n-1)/2} (-1)^j a_j(nu),    nu = n/2 - 1,
        a_j(nu) = prod_{i=1..j} (4 nu^2 - (2i-1)^2) / (j! 8^j),

    validated against quadrature of m_n; for odd n the product terminates
    (n = 1: constant 1; n = 3: single term 2 pi / r).
    """
    if n < 1 or J < 0:
        raise ValueError("need n >= 1, J >= 0")
    nu = n / 2.0 - 1.0
    pref = (2.0 * math.pi) ** ((n - 1) / 2.0)
    c = np.zeros(J + 1)
    p = np.zeros(J + 1)
    prod = 1.0
    for j in range(J + 1):
        if j > 0:
            prod *= 4.0 * nu**2 - (2 * j - 1) ** 2
        a_j = prod / (math.factorial(j) * 8.0**j)
        c[j] = pref * ((-1.0) ** j) * a_j
        p[j] = (n - 1) / 2.0 + j
    return c, p


def mn_partial_sum_scaled(n: int, J: int, r):
    """sum_{j<=J} c_j r^{-p_j}, the J+1 term approximation of e^{-r} m_n."""
    c, p = sphere_moment_coeffs(n, J)
    r = np.asarray(r, dtype=complex)
    out = np.zeros_like(r)
    for j in range(J + 1):
        out = out + c[j] * r ** (-p[j])
    return out


def fit_mn_remainder(n: int, J_max: int, r_grid, floor: float = 1e-14) -> dict:
    """Fit |e^{-r} m_n - partial_J| ~ C rho^J J! r^{-(n-1)/2-J-1} in log space.

    Samples (J, r) with the next coefficient nonzero (odd n terminates, so
    only J below the termination index contributes).  Returns fitted (C,
    rho) and the relative RMS log misfit.
    """
    r = np.asarray(r_grid, dtype=float)
    exact = eval_mn_scaled(n, r.astype(complex))
    c, _ = sphere_moment_coeffs(n, J_max + 2)
    Js, lr, logs = [], [], []
    residual_rows = []
    for J in range(J_max + 1):
        res = np.abs(exact - mn_partial_sum_scaled(n, J, r))
        residual_rows.append(res)
        if abs(c[J + 1]) == 0.0:
            continue  # expansion terminates; residual is exponentially small
        for ri, vi in zip(r, res):
            if vi > floor * max(1.0, abs(c[0])):
                Js.append(J)
                lr.append(ri)
                logs.append(math.log(vi))
    out = {"residuals": np.array(residual_rows), "r": r}
    if len(logs) < 4:
        out.update({"C": 0.0, "rho": 0.0, "fit_quality": 0.0, "n_samples": len(logs)})
        return out
    Js_a = np.array(Js, dtype=float)
    lr_a = np.array(lr, dtype=float)
    logs_a = np.array(logs, dtype=float)
    forced = np.array([math.lgamma(J + 2.0) for J in Js_a]) \
        - ((n - 1) / 2.0 + Js_a + 1.0) * np.log(lr_a)
    design = np.stack([np.ones_like(Js_a), Js_a + 1.0], axis=1)
    sol, *_ = np.linalg.lstsq(design, logs_a - forced, rcond=None)
    misfit = logs_a - (design @ sol + forced)
    spread = logs_a - logs_a.mean()
    rel = float(np.sqrt(np.mean(misfit**2))) / max(float(np.sqrt(np.mean(spread**2))), 1e-30)
    out.update({"C": math.exp(sol[0]), "rho": math.exp(sol[1]),
                "fit_quality": rel, "n_samples": len(logs)})
    return out


# ---------------------------------------------------------------------------
# the Szego kernel
# ---------------------------------------------------------------------------


def radial_s(v: np.ndarray) -> np.ndarray:
    """Holomorphic radial coordinate s = sqrt(-(v.v)) of v = z - conj(w).

    Principal branch; equals 2 on the boundary diagonal.
    """
    v = np.asarray(v, dtype=complex)
    vsq = (v * v).sum(axis=0)
    return np.sqrt(-vsq)


def _szego2_smalls(s: np.ndarray) -> np.ndarray:
    """n = 2 kernel for |s| < 0.3 (lightcone points), direct quadrature of
    r I0(rs)/I0(2r) = r ive(0, rs) e^{-(2 - Re s) r} / i0e(2r).

    |I0(rs)| <= I0(0.3 r), so the integrand is at most r I0(0.3r)/I0(2r):
    1.6e-19 at r = 28, with a tail beyond 28 of 9.4e-20 against a kernel of
    at least 0.72 (2pi)^-2 (its smallest, at s = +-0.3i).  The window is the
    fixed [0, 28] for every point, so a value does not depend on its batch.
    The integrand is analytic and oscillates at most 0.3 rad per unit of r,
    so 28 panels of width 1 with 12 Gauss nodes each (336 nodes) agree with
    three times as many panels to about 3e-15.
    """
    s = np.asarray(s, dtype=complex).reshape(-1)
    r, w = gauss_panels(np.linspace(0.0, 28.0, 29), 12)
    integrand = r * ive(0, np.outer(s, r)) * np.exp(-np.outer(2.0 - s.real, r)) / i0e(2.0 * r)
    return (integrand @ w) / (2.0 * math.pi) ** 2


_SZEGO2_GROUP_NODES = 1 << 20  # radial nodes per pass; bounds the temporaries


def _szego2_subtracted(s: np.ndarray) -> np.ndarray:
    """n = 2 kernel via leading-term subtraction, valid for Re s < 2.

    With u0 = 2 - s, Q(r, s) = I0(rs) e^{-rs} / (I0(2r) e^{-2r}) and
    c1(s) = 1/(8s) - 1/16:

    K = (2pi)^-2 { sqrt(2/s) [ u0^-2 + c1 g1(u0) ]
                   + int_0^oo r e^{-r u0} E2(r, s) dr },
    g1(u) = 1/u - e^u E1(u),   E2 = Q - sqrt(2/s) (1 + c1/(1+r)).
    E2 is O(r^-2) at infinity and vanishes at r = 0 on the diagonal, so the
    remaining integral is mild uniformly in u0.

    Each point has its own radial rule, so a value does not depend on the
    batch it came in: 4 equal head panels on [0, r0] with r0 = min(4,
    13/|Im s|), then linear panels on [r0, r_max] with r_max = 40 / Re u0 and
    enough panels to resolve the oscillation e^{-i r Im u0}.  The integrand
    is analytic at r = 0, so the head needs no grading toward it: each head
    panel spans at most 1 in r and 3.25 rad of that oscillation, the linear
    panels at most 6.5 rad, all with 12 Gauss nodes, so a point takes 48 head
    nodes.  The nodes of all points are laid out in one flat array
    with a segment index, and the integrand is summed per point with
    ``np.bincount``; points go in groups of about ``_SZEGO2_GROUP_NODES``
    nodes.

    On the principal root Re s >= 0, so ive(0, rs) = I0(rs) e^{-r Re s} and
    the phase of e^{-r u0} cancels against that of e^{-rs} in Q:
    e^{-r u0} Q = ive(0, rs) e^{-r Re u0} / i0e(2r), with the real-argument
    ``i0e``.  Only the subtracted term keeps the complex e^{-r u0}.  Per node
    that leaves one complex ``ive``, one ``i0e`` and one complex ``exp``; the
    complex ``ive`` is most of the cost.
    """
    s = np.asarray(s, dtype=complex).reshape(-1)
    u0 = 2.0 - s
    root = np.sqrt(2.0 / s)
    c1 = 1.0 / (8.0 * s) - 1.0 / 16.0
    g1 = 1.0 / u0 - np.exp(u0) * exp1(u0)
    closed = root * (1.0 / u0**2 + c1 * g1)

    # Re s >= 0 on the principal root, so Re u0 <= 2 and r_max >= 20 > r0
    r_max = np.minimum(40.0 / np.maximum(u0.real, 1e-3), 4e4)
    r0 = 13.0 / np.maximum(np.abs(s.imag), 3.25)
    n_osc = (r_max * np.abs(u0.imag) / 6.5).astype(int)
    n_pan = np.maximum(np.maximum(6, np.minimum(n_osc, 3000)), (r_max / 30.0).astype(int))
    t_head, wt_head = gauss_panels(np.linspace(0.0, 1.0, 5), 12)  # scaled by r0
    x, wx = gauss_rule(12)

    n_nodes = t_head.size + x.size * n_pan
    first = np.cumsum(n_nodes) - n_nodes
    integral = np.empty(s.shape, dtype=complex)
    for grp in np.split(np.arange(s.size), np.flatnonzero(np.diff(first // _SZEGO2_GROUP_NODES)) + 1):
        m, pans = grp.size, n_pan[grp]
        pan_pt = np.repeat(np.arange(m), pans)  # segment index of each linear panel
        k = np.arange(pan_pt.size) - np.repeat(np.cumsum(pans) - pans, pans)
        lo = r0[grp]
        h = ((r_max[grp] - lo) / pans)[pan_pt]
        r_lin = ((lo[pan_pt] + h * (k + 0.5))[:, None] + (0.5 * h)[:, None] * x).ravel()
        r = np.concatenate([np.outer(lo, t_head).ravel(), r_lin])
        w = np.concatenate([np.outer(lo, wt_head).ravel(), ((0.5 * h)[:, None] * wx).ravel()])
        seg = np.concatenate([np.repeat(np.arange(m), t_head.size), np.repeat(pan_pt, x.size)])
        j = grp[seg]
        f = w * r * (ive(0, s[j] * r) * np.exp(-u0.real[j] * r) / i0e(2.0 * r)
                     - root[j] * (1.0 + c1[j] / (1.0 + r)) * np.exp(-u0[j] * r))
        integral[grp] = np.bincount(seg, f.real, m) + 1j * np.bincount(seg, f.imag, m)
    return (closed + integral) / (2.0 * math.pi) ** 2


# B_2, B_4, ..., B_16
_BERNOULLI_EVEN = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_SZEGO3_TERMS = 32


def _hurwitz3_asymptotic(q: np.ndarray) -> np.ndarray:
    """zeta(3, q) for large |q| (DLMF 25.11.43 at s = 3):

    zeta(3, q) ~ q^-2/2 + q^-3/2 + sum_j B_2j/(2j)! (3)_{2j-1} q^{-2-2j},
    with (3)_{2j-1} = (2j+1)!/2.  At |q| >= 30 the last term kept is below
    1e-17 relative.
    """
    out = 0.5 / q**2 + 0.5 / q**3
    for j, b in enumerate(_BERNOULLI_EVEN, start=1):
        out = out + b * (2 * j + 1) / 2.0 * q ** (-2.0 - 2 * j)
    return out


def _szego3_batch(s: np.ndarray) -> np.ndarray:
    """n = 3 kernel through the exact image of the radial reduction:

    K = (2pi)^-3 (4/s) sum_{k>=0} [ (2+4k-s)^-3 - (2+4k+s)^-3 ].

    The first ``_SZEGO3_TERMS`` terms are summed as
    (4/s) [(a-s)^-3 - (a+s)^-3] = 8 (3a^2 + s^2) / (a^2 - s^2)^3, which has
    no cancellation at small s.  The rest is 4^-3 [zeta(3, N + (2-s)/4) -
    zeta(3, N + (2+s)/4)], taken from the Hurwitz zeta asymptotic expansion
    (see :func:`_hurwitz3_asymptotic`).
    """
    s = np.asarray(s, dtype=complex).reshape(-1)
    a = 2.0 + 4.0 * np.arange(_SZEGO3_TERMS)
    s2 = (s * s)[:, None]
    head = 8.0 * ((3.0 * a * a + s2) / (a * a - s2) ** 3).sum(axis=1)
    q = _SZEGO3_TERMS + 0.5
    tail = (4.0 / s) * (_hurwitz3_asymptotic(q - s / 4.0) - _hurwitz3_asymptotic(q + s / 4.0)) / 64.0
    return (head + tail) / (2.0 * math.pi) ** 3


def szego_kernel_batch(n: int, v: np.ndarray) -> np.ndarray:
    """K as a function of v = z - conj(w); v has shape (n, B)."""
    v = np.asarray(v, dtype=complex)
    if v.ndim == 1:
        v = v.reshape(n, -1)
    s = radial_s(v)
    u0 = 2.0 - s
    outside = u0.real < -TUBE_SLACK
    if np.any(outside):
        raise OutsideTubeError(
            f"{int(outside.sum())} kernel evaluation point(s) outside the closed tube "
            f"(Re(2 - s) down to {float(u0.real.min()):.6g} < 0)"
        )
    if np.any(np.abs(u0) < DIAG_GAUGE_FLOOR):
        raise DiagonalProximityError(
            "kernel evaluation within the diagonal exclusion zone "
            f"(|2 - s| < {DIAG_GAUGE_FLOOR:g})"
        )
    if n == 1:
        # K = sech(pi v/4)/8 = e^{-a} / (4 (1 + e^{-2a})) with a = +-pi v/4 and
        # Re a >= 0, so nothing overflows at large |Re v|
        a = (0.25 * math.pi) * v[0]
        a = np.where(a.real < 0.0, -a, a)
        e = np.exp(-a)
        return e / (4.0 * (1.0 + e * e))
    if n == 2:
        out = np.zeros(s.shape, dtype=complex)
        small = np.abs(s) < 0.3
        if np.any(small):
            out[small] = _szego2_smalls(s[small])
        if np.any(~small):
            out[~small] = _szego2_subtracted(s[~small])
        return out
    if n == 3:
        return _szego3_batch(s)
    raise ValueError("Szego kernel implemented for n <= 3")


def szego_kernel(n: int, z, w) -> complex:
    """Szego kernel K(z, w) for single points z, w in C^n."""
    z = np.asarray(z, dtype=complex).reshape(n, 1)
    w = np.asarray(w, dtype=complex).reshape(n, 1)
    return complex(szego_kernel_batch(n, z - np.conj(w))[0])


# ---------------------------------------------------------------------------
# FIO model near the diagonal
# ---------------------------------------------------------------------------


def szego_fio_model(n: int, s: np.ndarray, J: int | None = None) -> np.ndarray:
    """Closed-form fiber-integrated FIO model of the kernel near s = 2.

    Writing the radial reduction with the amplitude ratio replaced by the
    truncated expansion of e^{-r} m_n and its formal reciprocal, every term
    integrates to a Gamma factor:

        K_model = (2 pi)^-n (2/s)^{(n-1)/2}
                  sum_{m <= min(J, n-1)} q_m(s) Gamma(n - m) (2 - s)^{m - n}.

    Terms with m >= n would hit the fiber integral's origin divergence and
    are outside the model's reach (amplitude expansions hold at large t).
    """
    s = np.asarray(s, dtype=complex)
    J = n - 1 if J is None else min(J, n - 1)
    c, _ = sphere_moment_coeffs(n, n + 1)
    crel = c / c[0]
    # formal reciprocal of sum crel_j t^-j
    d = np.zeros(n + 2)
    d[0] = 1.0
    for m in range(1, n + 2):
        d[m] = -sum(crel[i] * d[m - i] for i in range(1, m + 1))
    out = np.zeros(s.shape, dtype=complex)
    for m in range(J + 1):
        q_m = sum(crel[i] * d[m - i] * s ** (-float(i)) * 2.0 ** (-(m - i))
                  for i in range(m + 1))
        out = out + q_m * sp_gamma(n - m) * (2.0 - s) ** (m - n)
    return (2.0 * math.pi) ** (-n) * (2.0 / s) ** ((n - 1) / 2.0) * out


def szego_fio_form(n: int, z, w, J: int | None = None) -> dict:
    """Compare the quadrature kernel with the FIO model at one point pair."""
    z = np.asarray(z, dtype=complex).reshape(n, 1)
    w = np.asarray(w, dtype=complex).reshape(n, 1)
    v = z - np.conj(w)
    s = radial_s(v)
    K = szego_kernel_batch(n, v)[0]
    Km = szego_fio_model(n, s, J)[0]
    im_psi = (2.0 - s[0]).real  # Im of the phase i(2 - s)
    return {
        "s": complex(s[0]), "u0": complex(2.0 - s[0]),
        "kernel": complex(K), "model": complex(Km),
        "rel_diff": abs(K - Km) / max(abs(K), 1e-300),
        "im_psi": float(im_psi),
    }


# ---------------------------------------------------------------------------
# reproduction test
# ---------------------------------------------------------------------------


def _graded_edges(inner: float, outer: float) -> list:
    """Panel edges 0, inner, 1.8 inner, (1.8)^2 inner, ..., outer."""
    edges = [0.0, inner]
    while edges[-1] < outer:
        edges.append(min(edges[-1] * 1.8, outer))
    return edges


def _graded_line(center: float, inner: float, outer: float, order: int = 10) -> tuple:
    """1D nodes on [center-outer, center+outer], refined toward the center."""
    p, w = gauss_panels(_graded_edges(inner, outer), order)
    p, w = p.reshape(-1, order), w.reshape(-1, order)
    return np.stack([center + p, center - p], axis=1).ravel(), np.stack([w, w], axis=1).ravel()


def _kernel_decay_rate(n: int) -> float:
    """Fitted exponential off-diagonal decay rate of |K| along the x ray."""
    ds = np.array([4.0, 6.0, 8.0, 10.0])
    vals = []
    e1 = np.zeros(n)
    e1[0] = 1.0
    omega = np.zeros(n)
    omega[-1] = 1.0
    for dd in ds:
        z = 0.9j * omega
        w = dd * e1 + 1j * omega
        vals.append(abs(szego_kernel(n, z, w)))
    coef = np.polyfit(ds, np.log(np.array(vals)), 1)
    return max(-float(coef[0]), 0.05)


def reproduce_test(n: int, zeta, points, tol: float | None = None,
                   x_cut: float | None = None, nodes_scale: float = 1.0) -> dict:
    """Quadrature check of S f = f for f(w) = e^{i zeta . w}.

    ``points`` is a list of (x, omega, beta) with beta < 1; the holomorphic
    test function is reproduced at z = x + i beta omega.  The x-integration
    is truncated at a radius chosen from the fitted exponential off-diagonal
    decay of the kernel; the tail estimate is reported per point.
    """
    if tol is None:
        tol = 1e-4 if n == 1 else 1e-3
    zeta = np.asarray(zeta, dtype=float).reshape(n)
    rate = _kernel_decay_rate(n)
    if x_cut is None:
        x_cut = (math.log(1.0 / tol) + 7.0) / rate
    rows = []
    for (x, omega, beta) in points:
        x = np.asarray(x, dtype=float).reshape(n)
        omega = np.asarray(omega, dtype=float).reshape(n)
        beta = float(beta)
        if beta >= 1.0:
            raise ValueError("evaluation point must lie strictly inside the tube")
        z = x + 1j * beta * omega
        f_z = np.exp(1j * (zeta @ z))
        if n == 1:
            got, tail = _reproduce_1d(zeta, z, x, x_cut, rate, nodes_scale)
        elif n == 2:
            got, tail = _reproduce_2d(zeta, z, x, omega, beta, x_cut, rate, nodes_scale)
        else:
            raise ValueError("reproduction test implemented for n <= 2")
        rows.append({
            "x": x.tolist(), "omega": omega.tolist(), "beta": beta,
            "f": complex(f_z), "Sf": complex(got),
            "rel_err": abs(got - f_z) / abs(f_z),
            "tail_estimate": float(tail),
        })
    return {"n": n, "zeta": zeta.tolist(), "x_cut": float(x_cut),
            "decay_rate": float(rate), "tol": tol, "rows": rows,
            "max_rel_err": max(r["rel_err"] for r in rows),
            "pass": bool(all(r["rel_err"] <= tol for r in rows))}


def _reproduce_1d(zeta, z, x, x_cut, rate, nodes_scale):
    inner = 0.002
    xs, ws = _graded_line(float(x[0]), inner, x_cut, order=max(10, int(12 * nodes_scale)))
    total = 0.0 + 0.0j
    for omega_p in (+1.0, -1.0):
        w_pts = xs[None, :] + 1j * omega_p
        v = z.reshape(1, 1) - np.conj(w_pts)
        K = szego_kernel_batch(1, v)
        f_w = np.exp(1j * zeta[0] * w_pts[0])
        total += np.sum(K * f_w * ws)
    tail = abs(szego_kernel(1, z, np.array([x[0] + x_cut + 1j])) / rate) * 2.0
    return total, tail


def _reproduce_2d(zeta, z, x, omega, beta, x_cut, rate, nodes_scale):
    # polar grid in the x'-plane around x, graded radially toward 0
    n_ang = max(24, int(24 * nodes_scale))
    n_phi = max(26, int(26 * nodes_scale))
    r_nodes, r_wts = gauss_panels(_graded_edges(0.05, x_cut), max(6, int(6 * nodes_scale)))
    psi = 2.0 * math.pi * np.arange(n_ang) / n_ang
    w_psi = 2.0 * math.pi / n_ang
    phi0 = math.atan2(omega[1], omega[0])
    phi = phi0 + 2.0 * math.pi * np.arange(n_phi) / n_phi
    w_phi = 2.0 * math.pi / n_phi

    X1 = x[0] + np.multiply.outer(r_nodes, np.cos(psi))
    X2 = x[1] + np.multiply.outer(r_nodes, np.sin(psi))
    O1 = np.cos(phi)
    O2 = np.sin(phi)
    # combine: w = (x', omega') over the product grid
    W1 = X1[..., None] + 1j * O1[None, None, :]
    W2 = X2[..., None] + 1j * O2[None, None, :]
    v = np.stack([z[0] - np.conj(W1).ravel(), z[1] - np.conj(W2).ravel()], axis=0)
    K = szego_kernel_batch(2, v).reshape(W1.shape)
    f_w = np.exp(1j * (zeta[0] * W1 + zeta[1] * W2))
    meas = (r_nodes * r_wts)[:, None, None] * (w_psi * w_phi)
    total = np.sum(K * f_w * meas)
    tail = abs(szego_kernel(2, z, np.array([x[0] + x_cut, x[1]]) + 1j * np.array([omega[0], omega[1]]))) \
        * 2.0 * math.pi * x_cut / rate * 2.0 * math.pi
    return total, tail
