import math
import warnings

import numpy as np
import pytest
from scipy.special import exp1, i0e, ive

from microlocal import cylinder
from microlocal.cylinder import (
    DiagonalProximityError,
    OutsideTubeError,
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


def test_szego1_batch_matches_sech_over_reproduce_range():
    # one batch over |Re v| <= 21, |Im v| <= 1.99: the v that _reproduce_1d
    # feeds the kernel at C2's x_cut of about 20.6
    re = np.linspace(-21.0, 21.0, 169)
    im = np.linspace(-1.99, 1.99, 9)
    v = (re[:, None] + 1j * im[None, :]).ravel()
    K = szego_kernel_batch(1, v[None, :])
    ref = 0.125 / np.cosh(math.pi * v / 4.0)
    assert np.max(np.abs(K - ref) / np.abs(ref)) <= 1e-8


# The former n = 1 kernel, a panel quadrature of the paper's Fourier integral
# (moved verbatim from the package, which now returns the closed form).
def _szego1_batch(v: np.ndarray) -> np.ndarray:
    """n = 1 kernel via the two-sided exponential split.

    K(v) = (1/2pi) [ 1/(2+iv) + 1/(2-iv)
                     + int_-oo^0 e^{i v xi} (B - e^{2 xi}) d xi
                     + int_0^oo  e^{i v xi} (B - e^{-2 xi}) d xi ],
    B(xi) = 1 / (2 cosh 2 xi).  The subtracted pieces decay like e^{-6|xi|}
    against growth at most e^{2|xi|}, so a fixed finite window suffices for
    every admissible v (|Im v| < 2).

    The window [0, 12] is cut into P equal panels of width h with 12 Gauss
    nodes each, so every node is xi = m_p + (h/2) x_j with m_p a panel
    midpoint, and e^{i V xi} = e^{i V m_p} e^{i V h x_j / 2} for V = +-v.  The
    sum over the nodes of a panel is a (2N, 12) by (12, P) matrix product with
    the table R[p, j] = (B - e^{-2 xi}) w, so a batch of N points takes
    2N (12 + P) complex exponentials instead of 2N 12 P.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    vmax = float(np.max(np.abs(v.real))) if v.size else 1.0
    n_panels = max(24, int(3 + vmax * 12.0 / (2 * math.pi)))
    h = 12.0 / n_panels
    mid = h * (np.arange(n_panels) + 0.5)
    x, wx = np.polynomial.legendre.leggauss(12)
    xi = mid[:, None] + (0.5 * h) * x
    R = (1.0 / (2.0 * np.cosh(2.0 * xi)) - np.exp(-2.0 * xi)) * (0.5 * h) * wx
    V = np.concatenate([v, -v])
    both = (np.exp(1j * np.outer(V, mid)) * (np.exp(1j * np.outer(V, (0.5 * h) * x)) @ R.T)).sum(axis=1)
    integral = both[:v.size] + both[v.size:]
    poles = 1.0 / (2.0 + 1j * v) + 1.0 / (2.0 - 1j * v)
    return (poles + integral) / (2.0 * math.pi)


def test_szego1_closed_form_matches_fourier_integral():
    # the closed form against the paper's integral over C2's reproduce range
    re = np.linspace(-21.0, 21.0, 169)
    im = np.linspace(-1.99, 1.99, 9)
    v = (re[:, None] + 1j * im[None, :]).ravel()
    K = szego_kernel_batch(1, v[None, :])
    ref = _szego1_batch(v)
    assert np.max(np.abs(K - ref) / np.abs(ref)) <= 1e-8


def test_szego1_closed_form_finite_far_out():
    # plain np.cosh overflows at |Re v| = 2000, where the kernel underflows to 0
    v = np.array([2000.0, -2000.0, 2000.0 + 1.5j, -2000.0 - 1.99j])
    u = np.array([600.0 - 1.0j, -600.0 + 1.0j, -600.0 - 1.9j])  # cosh still finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        K = szego_kernel_batch(1, v[None, :])
        K_u = szego_kernel_batch(1, u[None, :])
    assert np.all(np.isfinite(K)) and np.all(np.abs(K) <= 1e-300)
    ref = 0.125 / np.cosh(math.pi * u / 4.0)
    assert np.max(np.abs(K_u - ref) / np.abs(ref)) <= 1e-12


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_outside_tube_refused(n):
    # v = (0, ..., 2.5i) has s = 2.5, Re(2 - s) = -0.5: the radial integral
    # diverges, so the point is refused without numpy warnings
    v = np.zeros((n, 2), dtype=complex)
    v[-1] = [2.5j, 3.0j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutsideTubeError, match=r"^2 kernel evaluation point.*down to -1 < 0"):
            szego_kernel_batch(n, v)
        with pytest.raises(OutsideTubeError, match=r"^1 kernel evaluation point.*down to -0.5 < 0"):
            szego_kernel(n, 1.5j * np.eye(n)[-1], 1j * np.eye(n)[-1])
        # a boundary pair with omega = omega' and x - x' along omega has
        # Re(2 - s) = 0, which rounds to -4.4e-16 here: it is in the closed tube
        v = np.zeros((n, 1), dtype=complex)
        v[0] = 3.5947473736868436 + 2j
        assert (2.0 - radial_s(v)[0]).real < 0.0
        assert np.isfinite(szego_kernel_batch(n, v)[0])


def _unit(rng, n):
    u = rng.standard_normal(n)
    return u / np.linalg.norm(u)


def _tube_batch(rng, n, points, r_lo, r_hi):
    """z = x + i beta omega (beta near 0.9) and boundary points w at
    log-uniform distances in [r_lo, r_hi], as in C2's n = 2 polar grid."""
    z = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(0.88, 0.92) * _unit(rng, n)
    r = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), points))
    w = np.stack([z.real + ri * _unit(rng, n) + 1j * _unit(rng, n) for ri in r], axis=1)
    return z, w, z[:, None] - np.conj(w)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_matches_single_points(n):
    rng = np.random.default_rng(40 + n)
    z, w1, _ = _tube_batch(rng, n, 48, 0.02, 9.0)
    _, w2, _ = _tube_batch(rng, n, 16, 3.0, 9.0)
    w = np.concatenate([w1, w2], axis=1)
    K = szego_kernel_batch(n, z[:, None] - np.conj(w))
    single = np.array([szego_kernel(n, z, w[:, j]) for j in range(w.shape[1])])
    assert np.max(np.abs(K - single) / np.abs(single)) <= 1e-12
    swapped = np.array([szego_kernel(n, w[:, j], z) for j in range(w.shape[1])])
    assert np.max(np.abs(swapped - np.conj(K)) / np.abs(K)) <= 1e-13


def _szego2_shared_nodes(s: np.ndarray) -> np.ndarray:
    """The former n = 2 kernel: chunks of points sorted by Re u0 share the
    node set of their worst point (copied verbatim as a reference)."""
    from microlocal.quadrature import gauss_panels

    s = np.asarray(s, dtype=complex).reshape(-1)
    out = np.zeros(s.shape, dtype=complex)
    u0_all = 2.0 - s
    order = np.argsort(np.maximum(u0_all.real, 1e-6))
    chunk = 512
    for start in range(0, s.size, chunk):
        sel = order[start:start + chunk]
        sc = s[sel]
        u0 = 2.0 - sc
        root = np.sqrt(2.0 / sc)
        c1 = 1.0 / (8.0 * sc) - 1.0 / 16.0
        g1 = 1.0 / u0 - np.exp(u0) * exp1(u0)
        closed = root * (1.0 / u0**2 + c1 * g1)

        re_min = max(float(np.min(u0.real)), 1e-3)
        r_max = min(40.0 / re_min, 4e4)
        osc = float(np.max(np.abs(u0.imag)))
        # log-graded panels toward 0 plus enough panels for the oscillation
        n_osc = int(r_max * osc / 6.5)
        log_edges = min(r_max, 4.0) * 2.0 ** np.arange(-18.0, 1.0)
        r_log, w_log = gauss_panels(np.concatenate([[0.0], log_edges]), 10)
        if r_max > 4.0:
            n_pan = max(6, min(n_osc, 3000), int(r_max / 30.0))
            r_lin, w_lin = gauss_panels(np.linspace(4.0, r_max, n_pan + 1), 12)
            r = np.concatenate([r_log, r_lin])
            w = np.concatenate([w_log, w_lin])
        else:
            r, w = r_log, w_log
        rs = np.outer(sc, r)
        Q = ive(0, rs) * np.exp(-1j * rs.imag) / ive(0, 2.0 * r)[None, :]
        E2 = Q - root[:, None] * (1.0 + c1[:, None] / (1.0 + r)[None, :])
        integrand = r[None, :] * np.exp(-np.outer(u0, r)) * E2
        out[sel] = (closed + integrand @ w) / (2.0 * math.pi) ** 2
    return out


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("r_lo", [0.02, 3.0])
def test_szego2_matches_shared_node_reference(seed, r_lo):
    # polar (r from 0.02) and far (r from 3) batches; the shared node set is
    # finer than each point's own, so both rules converge to the same value
    _, _, v = _tube_batch(np.random.default_rng(seed), 2, 64, r_lo, 9.0)
    s = radial_s(v)
    s = s[np.abs(s) >= 0.3]  # the subtracted form's range
    ref = _szego2_shared_nodes(s)
    K = cylinder._szego2_subtracted(s)
    assert np.all(np.abs(K - ref) <= 1e-9 * np.maximum(np.abs(ref), 1.0))


def _szego2_smalls_84(s: np.ndarray) -> np.ndarray:
    """The former small-s rule: 84 panels of width 1/3 on [0, 28] with 12
    Gauss nodes each (copied verbatim as a reference)."""
    from microlocal.quadrature import gauss_panels

    s = np.asarray(s, dtype=complex).reshape(-1)
    r, w = gauss_panels(np.linspace(1e-9, 28.0, 85), 12)
    integrand = r * ive(0, np.outer(s, r)) * np.exp(-np.outer(2.0 - s.real, r)) / i0e(2.0 * r)
    return (integrand @ w) / (2.0 * math.pi) ** 2


def test_szego2_smalls_matches_finer_rule():
    rng = np.random.default_rng(22)
    s = 0.3 * np.sqrt(rng.uniform(0.0, 1.0, 198)) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 198))
    s = np.concatenate([s, [0.299j, -0.299j]])
    K = cylinder._szego2_smalls(s)
    ref = _szego2_smalls_84(s)
    assert np.max(np.abs(K - ref) / np.abs(ref)) <= 1e-13


def test_szego3_against_polygamma():
    # K = (2 pi)^-3 (4/s) (psi''((2+s)/4) - psi''((2-s)/4)) / 128
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    v = np.concatenate([_tube_batch(rng, 3, 32, r_lo, 9.0)[2] for r_lo in (0.02, 3.0)], axis=1)
    s = radial_s(v)
    K = szego_kernel_batch(3, v)
    with mpmath.workdps(30):
        for sv, kv in zip(s, K):
            sm = mpmath.mpc(sv.real, sv.imag)
            ref = (4 / sm) * (mpmath.psi(2, (2 + sm) / 4) - mpmath.psi(2, (2 - sm) / 4)) / 128
            ref = complex(ref / (2 * mpmath.pi) ** 3)
            assert abs(kv - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("s", [0.1 + 0.05j, 1.5 + 0.3j, 1.9 + 0j, 0.8 - 1.2j])
def test_szego2_against_mpmath_radial_quadrature(s):
    # K = (2 pi)^-2 int_0^oo r I0(rs)/I0(2r) dr; |s| < 0.3 takes the small-s rule
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        sm = mpmath.mpc(s.real, s.imag)
        f = lambda r: r * mpmath.besseli(0, r * sm) / mpmath.besseli(0, 2 * r)
        nodes = [0, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, mpmath.inf]
        ref = complex(mpmath.quad(f, nodes) / (2 * mpmath.pi) ** 2)
    K = complex(szego_kernel_batch(2, np.array([[0.0], [1j * s]]))[0])
    assert abs(K - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("s, tol", [
    (0.9134405281144331 + 8.942864046360778j, 1e-8),  # |Im s| > 3.25: the head [0, r0] ends below 4
    (0.0065869956049648 - 10.349194426017045j, 1e-10),  # slowest decay, |Im s| > 3.25
    (0.25 + 0.1j, 1e-12),  # |s| < 0.3: the small-s window [0, 28]
    (0.05 - 0.2j, 1e-12),
])
def test_szego2_against_mpmath_tight(s, tol):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        sm = mpmath.mpc(s.real, s.imag)
        f = lambda r: r * mpmath.besseli(0, r * sm) / mpmath.besseli(0, 2 * r)
        nodes = [0, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, mpmath.inf]
        ref = complex(mpmath.quad(f, nodes) / (2 * mpmath.pi) ** 2)
    K = complex(szego_kernel_batch(2, np.array([[0.0], [1j * s]]))[0])
    assert abs(K - ref) <= tol * abs(ref)


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
