import math

import numpy as np
import pytest

from microlocal.fbi import (
    PiecewiseFunction,
    builtin_function,
    fbi_kernel,
    fbi_kernel_t_quadrature,
    fbi_phase,
    fiber_integral,
    wavefront_probe,
)
from microlocal.quadrature import gauss_panels


def test_phase_positivity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-2, 2)
        y = rng.uniform(-2, 2)
        om = rng.choice([-1.0, 1.0])
        phi = complex(np.asarray(fbi_phase(1, [x], [om], np.array([[y]]))).reshape(-1)[0])
        assert phi.imag >= -1e-15
        if abs(x - y) > 1e-12:
            assert phi.imag > 0


def test_gamma_integral_identity():
    rng = np.random.default_rng(2)
    checked = 0
    worst = 0.0
    while checked < 100:
        x = rng.uniform(-1, 1)
        y = rng.uniform(-1, 1)
        om = rng.choice([-1.0, 1.0])
        phi = (x - y) * om + 0.5j * (x - y) ** 2
        if phi.imag < 0.05:
            continue
        k = complex(fbi_kernel(1, [x], [om], np.array([[y]]))[0])
        q = fbi_kernel_t_quadrature(1, [x], [om], np.array([[y]]))
        worst = max(worst, abs(k - q) / abs(k))
        checked += 1
    assert worst <= 1e-6


def test_on_axis_blowup_rate():
    # y = x + eps*omega: |kernel| ~ Gamma((n+5)/4) eps^{-(n+5)/4}
    om = 1.0
    for eps in (1e-2, 1e-3):
        k = fbi_kernel(1, [0.0], [om], np.array([[eps * om]]))
        expect = math.gamma(1.5) * eps ** -1.5
        assert abs(abs(complex(k[0])) / expect - 1.0) <= 0.02


def test_translation_invariance():
    k1 = fbi_kernel(1, [0.3], [1.0], np.array([[0.1]]))
    k2 = fbi_kernel(1, [1.3], [1.0], np.array([[1.1]]))
    assert abs(k1[0] - k2[0]) <= 1e-12 * abs(k1[0])


def test_kernel_refuses_singular_point():
    with pytest.raises(ValueError):
        fbi_kernel(1, [0.5], [1.0], np.array([[0.5]]))


def test_interior_omega_regular_at_coincidence():
    k = fbi_kernel(1, [0.0], [0.5], np.array([[0.0]]))
    assert np.isfinite(k[0])


def _piece_panels(a: float, b: float, x_split: float | None, h_min: float,
                  per_unit: float):
    """Panel edges for one piece, graded toward the split point if inside."""
    edges = [a]
    if x_split is not None and a + h_min < x_split < b - h_min:
        left = []
        e = x_split - h_min
        while e > a + h_min:
            left.append(e)
            e = x_split - (x_split - e) * 2.0
        edges += sorted(left)
        edges.append(x_split)
        right = []
        e = x_split + h_min
        while e < b - h_min:
            right.append(e)
            e = x_split + (e - x_split) * 2.0
        edges += right
    n_extra = max(2, int((b - a) * per_unit))
    base = np.linspace(a, b, n_extra + 1)
    all_edges = np.unique(np.concatenate([np.array(edges), base, [b]]))
    return all_edges


def fbi_transform(u: PiecewiseFunction, points, n: int = 1,
                  h_min: float = 1e-3, per_unit: float = 6.0,
                  order: int = 12) -> np.ndarray:
    """Tu(x, omega) = int T(x, omega, y) u(y) dy over the support of u.

    ``points`` is a list of (x, omega) scalars/1-vectors (n = 1).  Panels
    are graded toward y = x with floor ``h_min``; Gauss nodes never hit the
    singular point.  For |omega| = 1 and x inside the support the value is
    the documented h_min-regularization of the non-integrable kernel.
    """
    if n != 1:
        raise ValueError("transform quadrature implemented in 1D")
    out = np.zeros(len(points), dtype=complex)
    for ip, (x, omega) in enumerate(points):
        xv = float(np.asarray(x).reshape(-1)[0])
        acc = 0.0 + 0.0j
        for a, b, f in u.pieces:
            y, w = gauss_panels(_piece_panels(a, b, xv, h_min, per_unit), order)
            k = fbi_kernel(1, [xv], [omega], y.reshape(1, -1))
            acc += np.sum(k * f(y) * w)
        out[ip] = acc
    return out


def test_transform_zero():
    z = PiecewiseFunction(((-1.0, 1.0, lambda y: np.zeros_like(y)),))
    out = fbi_transform(z, [(0.3, 1.0), (2.0, -1.0)])
    assert np.max(np.abs(out)) == 0.0


def test_transform_linearity():
    # same piece geometry for all three, so the panel layout is shared and
    # the quadrature is exactly linear
    bump = builtin_function("bump")
    u1 = PiecewiseFunction(((-6.0, 6.0, bump),))
    u2 = builtin_function("gaussian")

    def sumf(y):
        return bump(y) + u2(y)

    usum = PiecewiseFunction(((-6.0, 6.0, sumf),))
    pts = [(0.3, 1.0), (2.0, -1.0), (1.1, 1.0)]
    a = fbi_transform(u1, pts)
    b = fbi_transform(u2, pts)
    c = fbi_transform(usum, pts)
    assert np.max(np.abs(c - (a + b)) / np.abs(c)) <= 1e-12


def test_gaussian_envelope_decay():
    u = builtin_function("gaussian")
    xs = np.linspace(0.0, 4.0, 17)
    vals = fbi_transform(u, [(x, 1.0) for x in xs])
    logs = np.log(np.abs(vals))
    coef = np.polyfit(xs, logs, 2)
    pred = np.polyval(coef, xs)
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    assert coef[0] < -0.2          # concave quadratic log-decay
    assert 1.0 - ss_res / ss_tot >= 0.99


def test_holomorphic_extension_cr_residual():
    # interior omega: Tu extends holomorphically in zeta = x - i omega
    u = builtin_function("gaussian")
    h = 5e-3
    x0, om0 = 1.2, 0.5

    def T(x, om):
        return complex(fbi_transform(u, [(x, om)])[0])

    dx = (T(x0 + h, om0) - T(x0 - h, om0)) / (2 * h)
    dom = (T(x0, om0 + h) - T(x0, om0 - h)) / (2 * h)
    cr = 0.5 * (dx - 1j * dom)
    assert abs(cr) / max(abs(dx), abs(dom)) <= 1e-4


def test_fiber_integral_matches_kernel_route():
    # sanity: F at moderate t through two quadrature layouts
    u = builtin_function("heaviside")
    t = np.array([15.0, 40.0])
    F1 = fiber_integral(u, 0.5, 1.0, t)
    F2 = fiber_integral(u, 0.5, 1.0, t, order=20)
    assert np.max(np.abs(F1 - F2) / np.abs(F1)) <= 1e-10


def _fiber_integral_panel_loop(u, xv, om, t_grid, order=12):
    # reference: per-panel accumulation, the summation order before the
    # per-piece matmul
    nodes, weights = np.polynomial.legendre.leggauss(order)
    out = np.zeros(t_grid.shape, dtype=complex)
    for a, b, f in u.pieces:
        n_panels = max(4, int((b - a) * t_grid.max() / (2.0 * math.pi) * 1.5) + 4)
        edges = np.linspace(a, b, n_panels + 1)
        for i in range(n_panels):
            mid = 0.5 * (edges[i] + edges[i + 1])
            half = 0.5 * (edges[i + 1] - edges[i])
            y = mid + half * nodes
            phi = (xv - y) * om + 0.5j * (xv - y) ** 2
            out += half * (np.exp(1j * np.multiply.outer(t_grid, phi)) @ (f(y) * weights))
    return out


@pytest.mark.parametrize("name", ["heaviside", "abs", "bump", "gaussian"])
def test_fiber_integral_matches_panel_loop(name):
    # only the summation order differs, so agreement is to rounding
    u = builtin_function(name)
    t = np.geomspace(10.0, 80.0, 50)
    for xv, om in [(0.0, 1.0), (0.0, -1.0), (0.5, 1.0), (1.5, 1.0)]:
        F = fiber_integral(u, xv, om, t)
        ref = _fiber_integral_panel_loop(u, xv, om, t)
        assert np.max(np.abs(F - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_probe_heaviside_jump_polynomial():
    u = builtin_function("heaviside")
    for om in (+1.0, -1.0):
        fit = wavefront_probe(u, 0.0, om)
        assert fit.model == "polynomial"
        assert 0.8 <= fit.power <= 1.2


def test_probe_heaviside_regular_exponential():
    u = builtin_function("heaviside")
    for (x, om) in ((0.5, 1.0), (0.5, -1.0), (-0.5, 1.0), (0.8, 1.0)):
        fit = wavefront_probe(u, x, om)
        assert fit.model == "exponential"
        assert fit.rate >= 0.03


def test_probe_abs_kink_polynomial():
    u = builtin_function("abs")
    fit = wavefront_probe(u, 0.0, 1.0)
    assert fit.model == "polynomial"
    assert 1.5 <= fit.power <= 3.0


def test_probe_abs_regular_exponential():
    u = builtin_function("abs")
    for (x, om) in ((1.5, 1.0), (-1.5, 1.0), (2.0, 1.0)):
        fit = wavefront_probe(u, x, om)
        assert fit.model == "exponential"
        assert fit.rate >= 0.03


def test_bump_shoulder_diagnostic():
    # Gevrey boundary point: exponential must not win; recorded, not asserted
    u = builtin_function("bump")
    fit = wavefront_probe(u, -1.0, 1.0)
    assert fit.model != "exponential"


def test_probe_tmin_guard():
    u = builtin_function("bump")
    with pytest.raises(ValueError):
        wavefront_probe(u, 0.0, 1.0, t_range=(2.0, 40.0))


def test_builtin_unknown():
    with pytest.raises(ValueError):
        builtin_function("nope")
