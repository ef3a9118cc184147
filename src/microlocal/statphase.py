"""Quantitative Gaussian stationary phase with an explicit remainder bound.

For a smooth integrand u the truncated expansion of the Gaussian integral is

    int e^{-lam y^2} u(y) dy  ~  pi^{d/2} lam^{-d/2} sum_{j < N/2}
                                 Lap^j u(0) / ((4 lam)^j j!),

with iterated Laplacians read off exactly from the order-N jet of u at the
origin.  The certified remainder bound is

    C_d (e^{-lam} + rho_d^N lam^{-N/2} (N/2)!) sum_{j<=N} |grad^j u|_oo / j!,

where the sup-norms are sampled on the unit ball with the Euclidean
derivative-norm convention |grad^j u| = sqrt(sum_{|a|=j} |d^a u|^2) and
(N/2)! means Gamma(N/2 + 1).  The shipped constants C_d = 10 * 3^d and
rho_d = 4 d are calibration, exposed as arguments.

The quadrature oracle integrates e^{-lam y^2} u over the ball B(0, radius)
by deterministic panel refinement (Gauss-Legendre radially and in polar
angle, trapezoid in periodic angles), doubling resolution until two
consecutive refinements agree to the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .jets import gradient_norms, jet_batch_from_expr, jet_from_expr
from .multiindex import factorial_multi, index_of, multi_indices
from .quadrature import gauss_panels

__all__ = [
    "GaussianExpansion",
    "gaussian_expansion",
    "gaussian_quadrature_oracle",
    "QuadratureError",
    "remainder_certificate",
    "laplacian_powers_at_zero",
    "default_Cd",
    "default_rhod",
]


def default_Cd(d: int) -> float:
    return 10.0 * 3.0**d


def default_rhod(d: int) -> float:
    return 4.0 * d


class QuadratureError(RuntimeError):
    """Oracle refinement failed to reach the requested tolerance."""

    def __init__(self, msg, achieved):
        super().__init__(msg)
        self.achieved = achieved


@dataclass(frozen=True)
class GaussianExpansion:
    """Truncated expansion; ``terms[j] = Lap^j u(0) / ((4 lam)^j j!)``."""

    dim: int
    lam: float
    N: int
    terms: tuple
    prefactor: float

    @property
    def value(self) -> complex:
        return self.prefactor * sum(self.terms)


def laplacian_powers_at_zero(u: ex.Expr, d: int, jmax: int) -> list:
    """[u(0), Lap u(0), Lap^2 u(0), ...] via the order-2*jmax jet."""
    jet = jet_from_expr(u, np.zeros(d), 2 * jmax)
    out = []
    for j in range(jmax + 1):
        acc = 0.0 + 0.0j
        for gamma in multi_indices(d, j):
            if sum(gamma) != j:
                continue
            two_gamma = tuple(2 * g for g in gamma)
            acc += (math.factorial(j) / factorial_multi(gamma)) \
                * jet[index_of(two_gamma, 2 * jmax)] * factorial_multi(two_gamma)
        out.append(complex(acc))
    return out


def gaussian_expansion(u: ex.Expr, d: int, lam: float, N: int) -> GaussianExpansion:
    """Expansion value pi^{d/2} lam^{-d/2} sum_{j<N/2} Lap^j u(0)/((4 lam)^j j!)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    jmax = (N + 1) // 2 - 1 if N >= 1 else -1
    terms = []
    if jmax >= 0:
        laps = laplacian_powers_at_zero(u, d, jmax)
        for j in range(jmax + 1):
            terms.append(laps[j] / ((4.0 * lam) ** j * math.factorial(j)))
    pref = math.pi ** (d / 2.0) * lam ** (-d / 2.0)
    return GaussianExpansion(d, lam, N, tuple(terms), pref)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def _ball_quad_value(u: ex.Expr, d: int, lam: float, radius: float,
                     n_rad: int, n_ang: int) -> complex:
    if d == 1:
        x, w = gauss_panels(np.linspace(-radius, radius, n_rad + 1), 16)
        vals = ex.evaluate(u, [x]) * np.exp(-lam * x**2)
        return complex(np.sum(vals * w))
    if d == 2:
        r, wr = gauss_panels(np.linspace(0.0, radius, n_rad + 1), 16)
        th = 2.0 * np.pi * np.arange(n_ang) / n_ang
        wth = 2.0 * np.pi / n_ang
        R, T = np.meshgrid(r, th, indexing="ij")
        X = R * np.cos(T)
        Y = R * np.sin(T)
        vals = ex.evaluate(u, [X, Y])
        g = np.exp(-lam * r**2) * r
        return complex(np.sum((vals * wth).sum(axis=1) * g * wr))
    if d == 3:
        r, wr = gauss_panels(np.linspace(0.0, radius, n_rad + 1), 16)
        ct, wct = gauss_panels([-1.0, 1.0], n_ang)
        ph = 2.0 * np.pi * np.arange(n_ang) / n_ang
        wph = 2.0 * np.pi / n_ang
        st = np.sqrt(1.0 - ct**2)
        R = r[:, None, None]
        CT = ct[None, :, None]
        ST = st[None, :, None]
        PH = ph[None, None, :]
        X = R * ST * np.cos(PH)
        Y = R * ST * np.sin(PH)
        Z = R * CT
        vals = ex.evaluate(u, [X, Y, Z])
        ang = (vals * wph).sum(axis=2) @ wct
        g = np.exp(-lam * r**2) * r**2
        return complex(np.sum(ang * g * wr))
    raise ValueError("oracle implemented for d <= 3")


def gaussian_quadrature_oracle(u: ex.Expr, d: int, lam: float, radius: float = 1.0,
                               tol: float | None = None, max_refine: int = 8) -> complex:
    """int_{B(0,radius)} e^{-lam y^2} u(y) dy by deterministic refinement.

    Default absolute tolerance: 1e-10 for d <= 2, 1e-8 for d = 3.  Raises
    :class:`QuadratureError` carrying the achieved difference if refinement
    stalls.
    """
    if tol is None:
        tol = 1e-10 if d <= 2 else 1e-8
    n_rad = max(8, int(2 * radius * math.sqrt(max(lam, 1.0))))
    n_ang = 16
    prev = _ball_quad_value(u, d, lam, radius, n_rad, n_ang)
    for _ in range(max_refine):
        n_rad *= 2
        n_ang = min(2 * n_ang, 256)
        cur = _ball_quad_value(u, d, lam, radius, n_rad, n_ang)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    raise QuadratureError(
        f"oracle did not converge to {tol:g}", achieved=abs(cur - prev)
    )


# ---------------------------------------------------------------------------
# remainder certificate
# ---------------------------------------------------------------------------


def _ball_sample_points(d: int, n: int = 7) -> np.ndarray:
    axes = [np.linspace(-1.0, 1.0, 2 * n + 1) for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=0)
    keep = np.sum(pts**2, axis=0) <= 1.0 + 1e-12
    return pts[:, keep]


def sup_gradient_norms(u: ex.Expr, d: int, order: int, n: int = 7) -> np.ndarray:
    """Sampled sup over the unit ball of |grad^j u| for j = 0..order."""
    pts = _ball_sample_points(d, n)
    coeffs = jet_batch_from_expr(u, pts, order)
    norms = gradient_norms(coeffs, d, order)
    return norms.max(axis=1)


def remainder_certificate(u: ex.Expr, d: int, lam: float, N: int,
                          C_d: float | None = None, rho_d: float | None = None,
                          radius: float = 1.0, bound_scale: float = 1.0) -> dict:
    """Compare oracle and expansion against the certified remainder bound.

    ``bound_scale`` rescales the whole bound (used by the negative test in
    the verification suite); the shipped constants have wide slack, so a
    failure requires a drastic scale-down, which the report makes visible
    through the ``slack`` field.
    """
    C_d = default_Cd(d) if C_d is None else C_d
    rho_d = default_rhod(d) if rho_d is None else rho_d
    expa = gaussian_expansion(u, d, lam, N)
    oracle = gaussian_quadrature_oracle(u, d, lam, radius)
    residual = abs(oracle - expa.value)
    sups = sup_gradient_norms(u, d, N)
    weight = float(sum(sups[j] / math.factorial(j) for j in range(N + 1)))
    bound = bound_scale * C_d * (
        math.exp(-lam) + rho_d**N * lam ** (-N / 2.0) * math.gamma(N / 2.0 + 1.0)
    ) * weight
    return {
        "d": d, "lam": lam, "N": N,
        "expansion": complex(expa.value), "oracle": complex(oracle),
        "residual": residual, "bound": bound,
        "pass": bool(residual <= bound),
        "slack": bound / residual if residual > 0 else math.inf,
        "C_d": C_d, "rho_d": rho_d, "bound_scale": bound_scale,
    }
