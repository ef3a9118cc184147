import math

import numpy as np
import pytest

from microlocal.cylinder import (
    DiagonalProximityError,
    eval_mn,
    eval_mn_scaled,
    fit_mn_remainder,
    mn_partial_sum_scaled,
    radial_s,
    reproduce_test,
    sphere_area,
    sphere_moment_coeffs,
    szego_fio_form,
    szego_kernel,
    szego_kernel_batch,
)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mn_modes_agree(n):
    r = np.linspace(0.1, 50.0, 40) + 0j
    a = eval_mn(n, r, "closed")
    b = eval_mn(n, r, "quadrature")
    assert np.max(np.abs(a - b) / np.abs(a)) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mn_modes_agree_complex(n):
    z = 3.0 + 1.5j
    a = eval_mn(n, z, "closed")
    b = eval_mn(n, z, "quadrature")
    assert abs(a - b) / abs(a) <= 1e-9


def test_mn_explicit_forms():
    assert complex(eval_mn(1, 2.0 + 0j)) == pytest.approx(2 * math.cosh(2.0))
    assert complex(eval_mn(3, 2.0 + 0j)) == pytest.approx(4 * math.pi * math.sinh(2.0) / 2.0)


def test_mn_cone_guard():
    with pytest.raises(ValueError):
        eval_mn(2, 1.0 + 2.0j)


def test_mn_scaled_consistency():
    r = 30.0 + 0.5j
    a = eval_mn_scaled(2, r)
    b = eval_mn(2, r) * np.exp(-r)
    assert abs(a - b) / abs(a) <= 1e-12


def test_coefficients_n2_match_bessel_series():
    c, p = sphere_moment_coeffs(2, 2)
    s = math.sqrt(2 * math.pi)
    assert c[0] == pytest.approx(s)
    assert c[1] == pytest.approx(s / 8.0)
    assert c[2] == pytest.approx(s * 9.0 / 128.0)
    assert np.allclose(p, [0.5, 1.5, 2.5])


def test_coefficients_terminate_for_odd_n():
    c1, _ = sphere_moment_coeffs(1, 5)
    assert c1[0] == pytest.approx(1.0)
    assert np.allclose(c1[1:], 0.0)
    c3, p3 = sphere_moment_coeffs(3, 5)
    assert c3[0] == pytest.approx(2 * math.pi)
    assert np.allclose(c3[1:], 0.0)
    assert p3[0] == 1.0


def test_partial_sums_approximate():
    r = np.geomspace(20.0, 100.0, 10)
    for n in (1, 2, 3):
        exact = eval_mn_scaled(n, r + 0j)
        approx = mn_partial_sum_scaled(n, 4, r + 0j)
        rel = np.abs(exact - approx) / np.abs(exact)
        assert np.max(rel) <= 1e-4


def test_asymptotic_ratio_deviation():
    c, p = sphere_moment_coeffs(2, 0)
    for r in (20.0, 50.0, 100.0):
        ratio = complex(eval_mn_scaled(2, r + 0j)) / (c[0] * r ** (-p[0]))
        assert abs(ratio - 1.0) <= 2.0 / r


def test_mn_remainder_fit_quality():
    rep = fit_mn_remainder(2, 6, np.geomspace(20.0, 100.0, 20))
    assert rep["fit_quality"] <= 0.25
    assert rep["n_samples"] > 50


def test_leading_constant_check():
    lead = complex(eval_mn_scaled(2, 50.0 + 0j)) * math.sqrt(50.0 / (2 * math.pi))
    assert 0.98 <= lead.real <= 1.02


# ---------------------------------------------------------------------------
# Szego kernel
# ---------------------------------------------------------------------------


def sech_oracle(z, w):
    v = z - np.conj(w)
    return 0.125 / np.cosh(math.pi * v / 4.0)


def test_szego1_matches_sech_fourier_pair():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        z = rng.uniform(-2, 2) + 1j * rng.uniform(0.3, 0.98) * rng.choice([-1.0, 1.0])
        w = rng.uniform(-2, 2) + 1j * rng.choice([-1.0, 1.0])
        K = szego_kernel(1, [z], [w])
        worst = max(worst, abs(K - sech_oracle(z, w)) / abs(sech_oracle(z, w)))
    assert worst <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugate_symmetry(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        x1 = rng.uniform(-1, 1, n)
        x2 = rng.uniform(-1, 1, n)
        o1 = rng.standard_normal(n)
        o1 /= np.linalg.norm(o1)
        o2 = rng.standard_normal(n)
        o2 /= np.linalg.norm(o2)
        z = x1 + 1j * rng.uniform(0.5, 0.95) * o1
        w = x2 + 1j * o2
        K1 = szego_kernel(n, z, w)
        K2 = szego_kernel(n, w, z)
        assert abs(K1 - np.conj(K2)) <= 1e-9 * max(abs(K1), 1.0)


def test_diagonal_exclusion():
    om = np.array([1.0])
    with pytest.raises(DiagonalProximityError):
        szego_kernel(1, 1j * om, 1j * om)


def test_szego2_against_brute_quadrature():
    from scipy.special import ive

    z = np.array([0.2, -0.1]) + 0.9j * np.array([0.0, 1.0])
    w = np.array([1.0, 0.5]) + 1j * np.array([math.sin(0.7), math.cos(0.7)])
    v = (z - np.conj(w)).reshape(2, 1)
    s = complex(radial_s(v)[0])
    r = np.linspace(1e-10, 400.0, 600_000)
    Q = ive(0, r * s) * np.exp(-1j * (r * s).imag) / ive(0, 2 * r)
    brute = np.trapezoid(r * np.exp(-r * (2 - s)) * Q, r) / (2 * math.pi) ** 2
    K = szego_kernel(2, z, w)
    assert abs(K - brute) / abs(brute) <= 1e-6


def test_szego3_series_vs_radial_quadrature():
    om = np.array([0.0, 0.0, 1.0])
    om2 = np.array([math.sin(0.4), 0.0, math.cos(0.4)])
    z = 0.96j * om
    w = 1j * om2
    v = (z - np.conj(w)).reshape(3, 1)
    s = complex(radial_s(v)[0])
    r = np.linspace(1e-9, 4000.0, 1_500_000)
    ig = 2 * r**2 / s * np.exp(r * (s - 2)) * (1 - np.exp(-2 * r * s)) / (1 - np.exp(-4 * r))
    quad = np.trapezoid(ig, r) / (2 * math.pi) ** 3
    K = szego_kernel(3, z, w)
    assert abs(K - quad) / abs(quad) <= 1e-8


def test_holomorphy_cr_stencil():
    # discrete Cauchy-Riemann residual of z -> K(z, w) for n = 1
    h = 1e-4
    w = 2.0 + 1j

    def Kf(zr, zi):
        return szego_kernel(1, [zr + 1j * zi], [w])

    z0r, z0i = 0.3, 0.85
    dx = (Kf(z0r + h, z0i) - Kf(z0r - h, z0i)) / (2 * h)
    dy = (Kf(z0r, z0i + h) - Kf(z0r, z0i - h)) / (2 * h)
    cr = 0.5 * (dx + 1j * dy)
    assert abs(cr) / max(abs(dx), abs(dy)) <= 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fio_model_near_diagonal(n):
    om = np.zeros(n)
    om[-1] = 1.0
    z = np.zeros(n) + 1j * om
    w = 0.3 * om + 1j * om
    rep = szego_fio_form(n, z, w)
    assert rep["rel_diff"] <= 0.05


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fio_scaling_ratio(n):
    om = np.zeros(n)
    om[-1] = 1.0
    vals = []
    for dist in (0.1, 0.05):
        z = np.zeros(n) + 1j * om
        w = dist * om + 1j * om
        vals.append(abs(szego_kernel(n, z, w)))
    ratio = vals[1] / vals[0]
    assert abs(ratio / 2.0**n - 1.0) <= 0.1


def test_phase_imaginary_part_positive_off_diagonal():
    rng = np.random.default_rng(4)
    n = 2
    for _ in range(20):
        x1 = rng.uniform(-1, 1, n)
        x2 = rng.uniform(-1, 1, n)
        t1, t2 = rng.uniform(0, 2 * math.pi, 2)
        o1 = np.array([math.cos(t1), math.sin(t1)])
        o2 = np.array([math.cos(t2), math.sin(t2)])
        if np.linalg.norm(x1 - x2) + np.linalg.norm(o1 - o2) < 1e-2:
            continue
        v = ((x1 + 1j * o1) - np.conj(x2 + 1j * o2)).reshape(n, 1)
        s = radial_s(v)[0]
        # Im of the phase i(2 - s) is Re(2 - s) > 0 off the diagonal
        assert (2.0 - s).real > 0.0


def test_reproduce_n1():
    pts = [
        (np.array([0.0]), np.array([1.0]), 0.995),
        (np.array([0.7]), np.array([-1.0]), 0.99),
    ]
    rep = reproduce_test(1, [0.5], pts, tol=1e-4)
    assert rep["pass"]
    assert rep["max_rel_err"] <= 1e-6


def test_reproduce_constant_function():
    # zeta = 0 limit: f == 1 reproduces
    pts = [(np.array([0.3]), np.array([1.0]), 0.99)]
    rep = reproduce_test(1, [0.0], pts, tol=1e-4)
    assert rep["pass"]


def test_antiholomorphic_diagnostic():
    # the projector maps the anti-holomorphic probe to its Hardy component
    # e^{-i z zeta} sech(2 zeta); the response decays exponentially in zeta
    # (diagnostic: the complement is killed in the high-frequency limit, not
    # identically)
    from microlocal.cylinder import _graded_line, szego_kernel_batch

    x0, beta = 0.0, 0.99
    z = complex(x0, beta)
    xs, ws = _graded_line(x0, 0.002, 40.0, order=12)
    responses = []
    for zeta in (0.5, 2.0):
        total = 0.0 + 0.0j
        for op in (+1.0, -1.0):
            wpts = xs[None, :] + 1j * op
            v = np.array([[z]]) - np.conj(wpts)
            K = szego_kernel_batch(1, v)
            fbar = np.conj(np.exp(1j * zeta * wpts[0]))
            total += np.sum(K * fbar * ws)
        predicted = np.exp(-1j * z * zeta) / np.cosh(2 * zeta)
        assert abs(total - predicted) <= 1e-6 * abs(predicted)
        responses.append(abs(total) / np.exp(zeta * beta))
    assert responses[1] <= 0.1 * responses[0]


def test_sphere_area():
    assert sphere_area(0) == pytest.approx(2.0)
    assert sphere_area(1) == pytest.approx(2 * math.pi)
    assert sphere_area(2) == pytest.approx(4 * math.pi)
