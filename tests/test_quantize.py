import numpy as np
import pytest

from microlocal import expr as ex
from microlocal.quantize import (
    BandLimit,
    GridFunction,
    commutator_matrix,
    commutator_residual,
    mode_numbers,
    moyal_consistency,
    op_apply,
    windowed_mode,
)
from microlocal.symbols import FormalSymbol, unit_symbol

L, M = 48.0, 2048
BAND = BandLimit(192)
X, XI = ex.var(0), ex.var(1)


def mode_vector(g, band):
    f = mode_numbers(band)
    return np.fft.fft(g.values)[np.mod(f, g.size)]


def test_gridfunction_validation():
    with pytest.raises(ValueError):
        GridFunction(1.0, np.zeros(100))  # not a power of two
    with pytest.raises(ValueError):
        GridFunction(1.0, np.array([np.nan] + [0.0] * 127))
    with pytest.raises(ValueError):
        BandLimit(0)


def test_band_guard():
    u = windowed_mode(L, 256, 5, BandLimit(32))
    with pytest.raises(ValueError):
        op_apply(unit_symbol(1, 0), u, BandLimit(128))


def test_identity_band_limited():
    u = windowed_mode(L, M, 12, BAND)
    r = op_apply(unit_symbol(1, 0), u, BAND)
    assert np.max(np.abs(r.values - u.values)) <= 1e-12


def test_fourier_multiplier_single_mode():
    x = np.arange(M) * (L / M)
    mode = 20
    u = GridFunction(L, np.exp(1j * 2 * np.pi * mode * x / L))
    a = FormalSymbol(1, 1.0, 0, (XI,))
    r = op_apply(a, u, BAND)
    target = (2 * np.pi * mode / L) * u.values
    assert np.max(np.abs(r.values - target)) <= 1e-12 * np.max(np.abs(target))


def test_multiplication_symbol_matches_direct_product():
    u = windowed_mode(L, M, 25, BandLimit(BAND.F // 4))
    a = FormalSymbol(1, 0.0, 0, (ex.sin(ex.mul(2 * np.pi / L, X)),))
    r = op_apply(a, u, BAND)
    x = np.arange(M) * (L / M)
    direct = np.sin(2 * np.pi * x / L) * u.values
    # residual dominated by re-band-limiting of the product
    assert np.max(np.abs(r.values - direct)) <= 1e-10


def test_linearity():
    u = windowed_mode(L, M, 30, BandLimit(BAND.F // 4))
    v = windowed_mode(L, M, -22, BandLimit(BAND.F // 4))
    a = FormalSymbol(1, 1.0, 1, (XI, ex.mul(ex.cos(ex.mul(2 * np.pi / L, X)), ex.powi(ex.norm(XI), -1))))
    uv = GridFunction(L, 0.3 * u.values + 1.7 * v.values)
    lhs = op_apply(a, uv, BAND).values
    rhs = 0.3 * op_apply(a, u, BAND).values + 1.7 * op_apply(a, v, BAND).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_convention_lock():
    ax = FormalSymbol(1, 0.0, 0, (X,))
    axi = FormalSymbol(1, 1.0, 0, (XI,))
    Xm = commutator_matrix(ax, BAND, L, M)
    XIm = commutator_matrix(axi, BAND, L, M)
    f = mode_numbers(BAND)
    vecs = [mode_vector(windowed_mode(L, M, m0, BandLimit(BAND.F // 2)), BAND)
            for m0 in (30, 45, 60, -35, -55)]
    res = commutator_residual(Xm, XIm, 1j * np.eye(f.size), vecs)
    assert res <= 1e-10


def test_commutator_matrix_examples():
    # identity symbol -> identity matrix
    Im = commutator_matrix(unit_symbol(1, 0), BandLimit(8), L, 256)
    assert np.max(np.abs(Im - np.eye(17))) <= 1e-12
    # xi symbol -> diagonal of clamped mode frequencies
    axi = FormalSymbol(1, 1.0, 0, (XI,))
    D = commutator_matrix(axi, BandLimit(8), L, 256)
    f = mode_numbers(BandLimit(8))
    xi = 2 * np.pi * f / L
    sgn = np.where(xi >= 0, 1.0, -1.0)
    xi_eff = np.where(np.abs(xi) >= 1.0, xi, sgn)
    assert np.max(np.abs(D - np.diag(xi_eff))) <= 1e-12


def test_dense_guard():
    axi = FormalSymbol(1, 1.0, 0, (XI,))
    with pytest.raises(ValueError):
        commutator_matrix(axi, BandLimit(3000), L, 8192)


def test_moyal_consistency_xi_x():
    a = FormalSymbol(1, 1.0, 1, (XI, ex.ZERO))
    b = FormalSymbol(1, 0.0, 1, (X, ex.ZERO))
    u = windowed_mode(L, M, 30, BandLimit(BAND.F // 4))
    rep = moyal_consistency(a, b, 1, u, BAND)
    assert rep["eps"][0] > 1e-3
    assert rep["eps"][1] <= 1e-8
    assert rep["u_tail"] <= 1e-10


def test_moyal_consistency_unit_pair():
    u = windowed_mode(L, M, 30, BandLimit(BAND.F // 4))
    one = unit_symbol(1, 2)
    rep = moyal_consistency(one, one, 2, u, BandLimit(384))
    assert max(rep["eps"]) <= 1e-12


def test_elliptic_corpus_geometric_decay():
    w = 2 * np.pi / L
    nx = ex.norm(XI)
    band = BandLimit(384)
    a = FormalSymbol(1, 0.0, 4, (
        ex.add(1, ex.mul(0.3, ex.cos(ex.mul(w, X)))),
        ex.div(ex.mul(0.5, ex.sin(ex.mul(w, X))), nx),
        ex.div(ex.mul(0.2, ex.cos(ex.mul(2 * w, X))), ex.powi(nx, 2)),
        ex.ZERO, ex.ZERO))
    b = FormalSymbol(1, 0.0, 4, (
        ex.add(1, ex.mul(0.2, ex.sin(ex.mul(w, X)))),
        ex.div(ex.mul(0.4, ex.cos(ex.mul(w, X))), nx),
        ex.ZERO, ex.ZERO, ex.ZERO))
    u = windowed_mode(L, M, 60, BandLimit(band.F // 4))
    rep = moyal_consistency(a, b, 4, u, band)
    eps = rep["eps"]
    for k in range(4):
        assert eps[k + 1] <= eps[k] * (1 + 1e-9) + 1e-12
    assert eps[4] <= 1e-6


def test_total_symbol_against_amplitude_oracle():
    # Op of an (x, xi, y) amplitude kernel agrees with Op of its left total
    # symbol on band-limited interior data
    from microlocal.quantize import op_apply_amplitude
    from microlocal.symbols import AmplitudeXYZ, left_total_symbol

    M_small, band = 512, BandLimit(96)
    Y = ex.var(2)
    a3 = AmplitudeXYZ(1, 1.0, 1, (ex.mul(Y, XI), ex.ZERO))
    b = left_total_symbol(a3, 1)  # b0 = x xi, b1 = -i
    u = windowed_mode(L, M_small, 20, BandLimit(band.F // 2))
    lhs = op_apply_amplitude(a3, u, band)
    rhs = op_apply(b, u, band)
    scale = np.max(np.abs(rhs.values))
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-6 * scale


def test_amplitude_oracle_reduces_to_symbol_when_y_free():
    from microlocal.quantize import op_apply_amplitude
    from microlocal.symbols import AmplitudeXYZ

    M_small, band = 512, BandLimit(96)
    a3 = AmplitudeXYZ(1, 1.0, 0, (ex.mul(ex.var(0), XI),))
    a = FormalSymbol(1, 1.0, 0, (ex.mul(ex.var(0), XI),))
    u = windowed_mode(L, M_small, 15, BandLimit(band.F // 2))
    lhs = op_apply_amplitude(a3, u, band)
    rhs = op_apply(a, u, band)
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-10


def test_adjoint_against_matrix_dagger():
    # Op(a*) equals the conjugate transpose of Op(a) on interior vectors,
    # pinning the (-i)^|mu| phase of the formal adjoint
    from microlocal.symbols import adjoint_symbol

    M_small, band = 1024, BandLimit(128)
    a = FormalSymbol(1, 1.0, 1, (ex.mul(X, XI), ex.ZERO))
    A = commutator_matrix(a, band, L, M_small)
    Astar = commutator_matrix(adjoint_symbol(a), band, L, M_small)
    f = mode_numbers(band)
    vecs = [np.fft.fft(windowed_mode(L, M_small, m0, BandLimit(band.F // 2)).values)[np.mod(f, M_small)]
            for m0 in (25, 40, -30)]
    C = A.conj().T - Astar
    worst = max(float(np.linalg.norm(C @ v) / np.linalg.norm(v)) for v in vecs)
    assert worst <= 1e-8


def _brute_force_matrix(a, x, xi, xi_sym, M, d):
    """sum_m a(x_m, xi_f) e^{i x_m.(xi_f - xi_g)} / M^d by a direct double sum.

    ``x``/``xi`` are the coordinate and frequency axes, ``xi_sym`` the
    frequencies the symbol sees; ``a`` takes d position and d frequency
    arrays of equal shape."""
    pts = np.stack([c.ravel() for c in np.meshgrid(*[x] * d, indexing="ij")])
    modes = np.stack([c.ravel() for c in np.meshgrid(*[xi] * d, indexing="ij")])
    syms = np.stack([c.ravel() for c in np.meshgrid(*[xi_sym] * d, indexing="ij")])
    n = modes.shape[1]
    out = np.zeros((n, n), dtype=complex)
    for j in range(n):
        col = a(*pts, *[np.full(pts.shape[1], s) for s in syms[:, j]])
        for i in range(n):
            out[i, j] = np.sum(col * np.exp(1j * (modes[:, j] - modes[:, i]) @ pts)) / M**d
    return out


def test_commutator_matrix_against_brute_force_sum():
    Mb, band, Lb = 16, BandLimit(3), 5.0
    a = FormalSymbol(1, 1.0, 0, (ex.add(ex.mul(ex.cos(X), XI), ex.mul(X, X), ex.sin(ex.mul(X, XI))),))
    xi = 2 * np.pi * mode_numbers(band) / Lb
    xi_sym = np.where(np.abs(xi) >= 1.0, xi, np.where(xi >= 0, 1.0, -1.0))  # |xi| < 1 clamp
    want = _brute_force_matrix(lambda x, s: np.cos(x) * s + x * x + np.sin(x * s),
                               np.arange(Mb) * (Lb / Mb), xi, xi_sym, Mb, 1)
    got = commutator_matrix(a, band, Lb, Mb)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_quantize2d_op_matrix_against_brute_force_sum():
    from microlocal.normalform import Quantize2D

    q = Quantize2D(M=16, band=3)
    x, y, s, t = (ex.var(i) for i in range(4))
    sym = ex.add(ex.mul(ex.cos(x), s, t), ex.mul(y, ex.powi(t, 2)), ex.mul(x, y, s), ex.sin(y))
    xs = np.arange(16) * (q.L / 16)
    xs = np.where(xs >= q.L / 2, xs - q.L, xs)  # centered sawtooth
    xi = 2 * np.pi * np.arange(-3, 4) / q.L
    want = _brute_force_matrix(
        lambda x1, x2, s1, s2: np.cos(x1) * s1 * s2 + x2 * s2**2 + x1 * x2 * s1 + np.sin(x2),
        xs, xi, xi, 16, 2)
    got = q.op_matrix(sym)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_dense_guards_fail_before_building_fields():
    import tracemalloc

    from microlocal.normalform import Quantize2D

    axi = FormalSymbol(1, 1.0, 0, (XI,))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            commutator_matrix(axi, BandLimit(3000), L, 8192)  # 6001 modes > 4096
        with pytest.raises(ValueError):
            Quantize2D(M=256, band=100)  # 201^2 modes > 4096
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def _moyal_eps_2d():
    """eps_k = max_v ||Op(a)Op(b)v - Op((a#b)_{<=k})v|| / ||v|| on the 2D grid,
    a_0 = xi1 xi2 + xi1^2, b_0 = sin(w x1) cos(w x2), over the windowed
    vectors of the 2D commutator check."""
    from microlocal.normalform import Quantize2D
    from microlocal.symbols import moyal_product

    q = Quantize2D()
    w = 2 * np.pi / q.L
    x1, x2, s1, s2 = (ex.var(i) for i in range(4))
    a = FormalSymbol(2, 2.0, 2, (ex.add(ex.mul(s1, s2), ex.powi(s1, 2)), ex.ZERO, ex.ZERO))
    b = FormalSymbol(2, 0.0, 2, (ex.mul(ex.sin(ex.mul(w, x1)), ex.cos(ex.mul(w, x2))),
                                 ex.ZERO, ex.ZERO))
    c = moyal_product(a, b, 2)
    A, B = q.op_matrix(a.coeffs[0]), q.op_matrix(b.coeffs[0])
    vecs = [q.windowed_vector(mx, my) for mx, my in ((1, 2), (-2, 1), (3, -1), (0, 3))]
    lhs = [A @ (B @ v) for v in vecs]
    rhs = [np.zeros_like(v) for v in vecs]
    eps = []
    for ck in c.coeffs:
        Ck = q.op_matrix(ck)
        rhs = [r + Ck @ v for r, v in zip(rhs, vecs)]
        eps.append(max(float(np.linalg.norm(p - r) / np.linalg.norm(v))
                       for p, r, v in zip(lhs, rhs, vecs)))
    return eps


def test_moyal_consistency_2d():
    eps = _moyal_eps_2d()
    assert eps[0] > eps[1] > eps[2]
    assert eps[2] <= 1e-12


def test_moyal_consistency_2d_catches_wrong_star_phase(monkeypatch):
    from microlocal import symbols
    from microlocal.multiindex import factorial_multi

    monkeypatch.setattr(symbols, "_weight",
                        lambda beta: ex.const(1j ** sum(beta) / factorial_multi(beta)))
    eps = _moyal_eps_2d()
    assert eps[2] > 1e-3
