import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import erf

from microlocal import expr as ex
from microlocal.statphase import (
    gaussian_expansion,
    gaussian_quadrature_oracle,
    laplacian_powers_at_zero,
    remainder_certificate,
)
from microlocal.symbols import FormalSymbol

Y = ex.var(0)


def test_expansion_constant():
    g = gaussian_expansion(ex.ONE, 1, 3.7, 2)
    assert complex(g.value) == pytest.approx(math.sqrt(math.pi / 3.7))


def test_expansion_y_squared():
    lam = 2.5
    g = gaussian_expansion(ex.powi(Y, 2), 1, lam, 4)
    assert complex(g.value) == pytest.approx(math.sqrt(math.pi) / (2 * lam**1.5))


def test_expansion_2d_example():
    u = ex.add(1.0, ex.mul(ex.powi(ex.var(0), 2), ex.powi(ex.var(1), 2)))
    g = gaussian_expansion(u, 2, 10.0, 6)
    assert complex(g.value) == pytest.approx((math.pi / 10.0) * 1.0025, rel=1e-12)


def test_term_count():
    g = gaussian_expansion(ex.exp(Y), 1, 5.0, 7)
    assert len(g.terms) == math.ceil(7 / 2)


def test_laplacian_powers():
    u = ex.mul(ex.powi(ex.var(0), 2), ex.powi(ex.var(1), 2))
    laps = laplacian_powers_at_zero(u, 2, 2)
    assert laps[0] == pytest.approx(0.0)
    assert laps[1] == pytest.approx(0.0)
    assert laps[2] == pytest.approx(8.0)


def test_oracle_erf_identity():
    v = gaussian_quadrature_oracle(ex.ONE, 1, 4.0, 1.0)
    assert complex(v) == pytest.approx(math.sqrt(math.pi / 4.0) * erf(2.0), abs=1e-10)


def test_oracle_odd_symmetry():
    v = gaussian_quadrature_oracle(Y, 1, 4.0, 1.0)
    assert abs(v) <= 1e-12
    u = ex.mul(ex.var(0), ex.exp(ex.var(1)))
    v2 = gaussian_quadrature_oracle(u, 2, 6.0, 1.0)
    assert abs(v2) <= 1e-12


def test_oracle_2d_radial_closed_form():
    v = gaussian_quadrature_oracle(ex.ONE, 2, 10.0, 1.0)
    assert complex(v) == pytest.approx((math.pi / 10.0) * (1 - math.exp(-10.0)), abs=1e-10)


def test_oracle_3d():
    lam = 5.0
    v = gaussian_quadrature_oracle(ex.ONE, 3, lam, 1.0)
    exact = (math.pi / lam) ** 1.5 * erf(math.sqrt(lam)) \
        - 2 * math.pi / lam * math.exp(-lam)  # radial integration by parts
    # cross-check against an independent radial rule
    r = np.linspace(0, 1, 400001)
    brute = 4 * math.pi * np.trapezoid(np.exp(-lam * r**2) * r**2, r)
    assert complex(v) == pytest.approx(brute, abs=1e-8)


def test_certificate_polynomial_tail_only():
    u = ex.powi(Y, 2)
    rep = remainder_certificate(u, 1, 5.0, 6)
    assert rep["pass"]
    # expansion equals the full-space integral; residual is only the tail
    assert rep["residual"] <= 10.0 * math.exp(-5.0)


def test_certificate_exp_example():
    rep = remainder_certificate(ex.exp(Y), 1, 20.0, 8, C_d=10.0, rho_d=4.0)
    assert rep["pass"]
    assert rep["residual"] <= rep["bound"]


def test_certificate_negative_scale_fails():
    rep = remainder_certificate(ex.exp(Y), 1, 5.0, 4, bound_scale=1e-12)
    assert not rep["pass"]


def test_exactness_on_polynomials_vs_moments():
    lam = 10.0
    poly = ex.add(1.0, ex.mul(2.0, ex.powi(Y, 2)), ex.powi(Y, 4))
    g = gaussian_expansion(poly, 1, lam, 8)
    exact = math.sqrt(math.pi / lam) * (1.0 + 2 * 0.5 / lam + 0.75 / lam**2)
    assert abs(complex(g.value) - exact) <= 1e-10
    oracle = gaussian_quadrature_oracle(poly, 1, lam, 1.0)
    assert abs(complex(oracle) - complex(g.value)) <= 10.0 * math.exp(-lam / 2.0)


def test_monotone_improvement_until_turnover():
    # residual decreases with N until it reaches the e^{-lam} ball-tail floor
    u = ex.exp(Y)
    lam = 20.0
    oracle = gaussian_quadrature_oracle(u, 1, lam, 1.0)
    residuals = []
    for N in (2, 4, 6, 8):
        g = gaussian_expansion(u, 1, lam, N)
        residuals.append(abs(complex(oracle) - complex(g.value)))
    floor = 10.0 * math.exp(-lam)
    for i in range(len(residuals) - 1):
        assert residuals[i + 1] <= residuals[i] * (1 + 1e-6) + floor


def test_odd_integrand_contributes_nothing():
    u = ex.mul(Y, ex.cos(Y))
    g = gaussian_expansion(u, 1, 5.0, 8)
    assert abs(complex(g.value)) <= 1e-12
    assert abs(gaussian_quadrature_oracle(u, 1, 5.0, 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# formal Gaussian pushforward
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmplitudeXTY:
    """Amplitude a(x, theta, y); variable blocks x, theta, y in that order.

    Coefficient k is homogeneous of degree d0 - k in theta.
    """

    dim_x: int
    dim_theta: int
    dim_y: int
    d0: float
    order: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count mismatch")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))


def formal_gaussian_pushforward(a: AmplitudeXTY, K: int) -> FormalSymbol:
    """Formal stationary phase for the Morse model phase i |theta| y^2.

    b_j(x, theta) = pi^{dy/2} sum_{i+l=j} |theta|^{-dy/2-i}
                    Lap_y^i a_l(x, theta, 0) / (4^i i!),

    with homogeneity degrees shifted by -dy/2 - i; odd dy yields
    half-integer degrees, which the symbol type allows (d0 is real).
    """
    if a.dim_x != a.dim_theta:
        raise ValueError("output symbol type needs dim_x == dim_theta")
    if K > a.order:
        raise ValueError("truncation order exceeds amplitude order")
    dx, dth, dy = a.dim_x, a.dim_theta, a.dim_y
    y_off = dx + dth
    y_zero = {y_off + i: ex.ZERO for i in range(dy)}
    theta_norm = ex.norm(*[ex.var(dx + i) for i in range(dth)])

    def laplacian_y(e: ex.Expr) -> ex.Expr:
        parts = []
        for i in range(dy):
            d2 = ex.diff(ex.diff(e, y_off + i), y_off + i)
            if not d2.is_zero():
                parts.append(d2)
        return ex.add(*parts) if parts else ex.ZERO

    pref = math.pi ** (dy / 2.0)
    out = []
    for j in range(K + 1):
        terms = []
        for i in range(j + 1):
            l = j - i
            e = a.coeffs[l]
            for _ in range(i):
                e = laplacian_y(e)
                if e.is_zero():
                    break
            if e.is_zero():
                continue
            e0 = ex.subst(e, y_zero)
            if e0.is_zero():
                continue
            coef = pref / (4.0**i * math.factorial(i))
            terms.append(ex.mul(ex.const(coef), e0,
                                ex.powr(theta_norm, -(dy / 2.0) - i)))
        out.append(ex.add(*terms) if terms else ex.ZERO)
    return FormalSymbol(dx, a.d0 - dy / 2.0, K, tuple(out))


def test_pushforward_y_independent():
    a = AmplitudeXTY(1, 1, 2, 0.0, 1, (ex.mul(ex.var(0), ex.var(1)), ex.ZERO))
    b = formal_gaussian_pushforward(a, 1)
    assert b.d0 == pytest.approx(-1.0)  # degree drops by dy/2
    g = ex.evaluate(b.coeffs[0], [np.array([2.0]), np.array([3.0])])
    assert np.allclose(g, math.pi * 2.0 * 3.0 / 3.0)  # pi^{dy/2} a0 / |theta|


def test_pushforward_y_squared():
    a = AmplitudeXTY(1, 1, 1, 0.0, 2, (ex.powi(ex.var(2), 2), ex.ZERO, ex.ZERO))
    b = formal_gaussian_pushforward(a, 2)
    assert b.coeffs[0].is_zero()
    v = ex.evaluate(b.coeffs[1], [np.array([0.0]), np.array([4.0])])
    assert np.allclose(v, math.sqrt(math.pi) / 2.0 * 4.0**-1.5)


def test_pushforward_matches_gaussian_expansion():
    # integrate e^{-|theta| y^2} (1 + y^2) dy against the pushforward terms
    a = AmplitudeXTY(1, 1, 1, 0.0, 2,
                     (ex.add(1.0, ex.powi(ex.var(2), 2)), ex.ZERO, ex.ZERO))
    b = formal_gaussian_pushforward(a, 2)
    lam = 30.0
    total = sum(complex(ex.evaluate(b.coeffs[j], [np.array([0.0]), np.array([lam])])[0])
                for j in range(3))
    g = gaussian_expansion(ex.add(1.0, ex.powi(Y, 2)), 1, lam, 6)
    assert abs(total - complex(g.value)) <= 1e-10


def test_pushforward_borel_cross_module():
    # Borel-realized pushforward versus the quadrature of the Gaussian
    # integral of the Borel-realized input amplitude, at |theta| in {20, 50}
    from microlocal.borel import RealizedAmplitude, ehrenpreis_cutoffs

    fam = ehrenpreis_cutoffs((0.0, 1.0), (2.0, 3.0), 12, deriv_max=0)
    c = 0.25
    a = AmplitudeXTY(1, 1, 1, 0.0, 2,
                     (ex.add(1.0, ex.powi(ex.var(2), 2)), ex.ZERO, ex.ZERO))
    b = formal_gaussian_pushforward(a, 2)
    rb = RealizedAmplitude(FormalSymbol(1, b.d0, b.order, b.coeffs), c, fam)
    for lam in (20.0, 50.0):
        # realize the (x, theta, y) amplitude with the same gates and
        # integrate e^{-lam y^2} against it over the unit ball
        gate = [1.0 - fam.value(l + 1, c * lam / (l + 1)) for l in range(3)]
        u_gated = ex.mul(ex.const(gate[0]), ex.add(1.0, ex.powi(Y, 2)))
        oracle = gaussian_quadrature_oracle(u_gated, 1, lam, 1.0)
        got = complex(rb.eval(np.zeros(1), np.array([lam]))[0])
        cert = remainder_certificate(ex.add(1.0, ex.powi(Y, 2)), 1, lam, 6)
        assert abs(got - complex(oracle)) <= max(cert["bound"], 1e-8)
        # and tightly: the expansion terminates, so agreement is near-exact
        assert abs(got - complex(oracle)) <= 1e-6 * abs(oracle)
