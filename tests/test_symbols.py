import numpy as np
import pytest

from microlocal import expr as ex
from microlocal.symbols import (
    AmplitudeXYZ,
    FormalSymbol,
    NormParams,
    adjoint_symbol,
    dump_symbol,
    estimate_norm,
    left_total_symbol,
    load_symbol,
    make_grid,
    moyal_product,
    moyal_sqrt,
    neumann_invert,
    sample_coefficient,
    unit_symbol,
)

X, XI = ex.var(0), ex.var(1)
BOX = ((-1.0, 1.0), (1.0, 2.0))
BOX4 = ((-1.0, 1.0), (1.0, 4.0))


def grid_residual(sym_a, sym_b, box=BOX, n=7):
    g = make_grid(box, n)
    worst = 0.0
    for ca, cb in zip(sym_a.coeffs, sym_b.coeffs):
        va = sample_coefficient(ca, g)
        vb = sample_coefficient(cb, g)
        worst = max(worst, float(np.max(np.abs(va - vb))))
    return worst


def test_norm_constant_one():
    a = FormalSymbol(1, 0.0, 0, (ex.const(1.0),))
    p = NormParams(0.7, 1.3, 5.0, 1, BOX, grid_n=5, max_deriv=3)
    assert estimate_norm(a, p).value == pytest.approx(1.0)


def test_norm_xi_example():
    a = FormalSymbol(1, 1.0, 0, (XI,))
    p = NormParams(1.0, 1.0, 0.0, 1, BOX, grid_n=9, max_deriv=3)
    est = estimate_norm(a, p)
    assert est.value == pytest.approx(2.0)


def test_norm_zero_symbol():
    a = FormalSymbol(1, 0.0, 2, (ex.ZERO, ex.ZERO, ex.ZERO))
    p = NormParams(1.0, 1.0, 0.0, 1, BOX, grid_n=5, max_deriv=2)
    assert estimate_norm(a, p).value == 0.0


def test_norm_report_serialization():
    a = FormalSymbol(1, 1.0, 0, (XI,))
    p = NormParams(1.0, 1.0, 0.0, 1, BOX, grid_n=5, max_deriv=2)
    d = estimate_norm(a, p).to_dict()
    assert set(d) == {"rho", "R", "m", "value", "argmax"}


def test_params_validation():
    with pytest.raises(ValueError):
        NormParams(0.0, 1.0, 0.0, 1, BOX)
    with pytest.raises(ValueError):
        NormParams(1.0, 1.0, 0.0, 1, ((-1.0, 1.0), (-1.0, 1.0)))  # xi box hits 0


def test_moyal_unit_laws():
    a = FormalSymbol(1, 1.0, 2, (XI, ex.mul(X, XI), ex.ZERO))
    u = unit_symbol(1, 2)
    left = moyal_product(u, a, 2)
    right = moyal_product(a, u, 2)
    assert grid_residual(left, a) == 0.0
    assert grid_residual(right, a) == 0.0


def test_moyal_xi_x():
    a = FormalSymbol(1, 1.0, 1, (XI, ex.ZERO))
    b = FormalSymbol(1, 0.0, 1, (X, ex.ZERO))
    c = moyal_product(a, b, 1)
    assert c.coeffs[0] == ex.mul(X, XI)
    assert c.coeffs[1] == ex.const(-1j)
    c_rev = moyal_product(b, a, 1)
    assert c_rev.coeffs[1].is_zero()


def test_commutator_order1_term():
    a = FormalSymbol(1, 1.0, 1, (XI, ex.ZERO))
    b = FormalSymbol(1, 0.0, 1, (X, ex.ZERO))
    cab = moyal_product(a, b, 1)
    cba = moyal_product(b, a, 1)
    diff = ex.sub(cab.coeffs[1], cba.coeffs[1])
    assert diff == ex.const(-1j)


def test_commutator_principal_is_poisson():
    rng = np.random.default_rng(0)
    g = make_grid(BOX, 7)
    for _ in range(4):
        ca = [rng.standard_normal() for _ in range(4)]
        cb = [rng.standard_normal() for _ in range(4)]
        a0 = ex.add(ex.mul(ca[0], X), ex.mul(ca[1], ex.powi(X, 2)),
                    ex.mul(ca[2], ex.mul(X, XI)), ex.mul(ca[3], XI))
        b0 = ex.add(ex.mul(cb[0], XI), ex.mul(cb[1], ex.powi(XI, 2)),
                    ex.mul(cb[2], ex.mul(X, XI)), ex.mul(cb[3], X))
        a = FormalSymbol(1, 2.0, 1, (a0, ex.ZERO))
        b = FormalSymbol(1, 2.0, 1, (b0, ex.ZERO))
        comm1 = ex.sub(moyal_product(a, b, 1).coeffs[1],
                       moyal_product(b, a, 1).coeffs[1])
        poisson = ex.sub(ex.mul(ex.diff(a0, 1), ex.diff(b0, 0)),
                         ex.mul(ex.diff(a0, 0), ex.diff(b0, 1)))
        target = ex.mul(ex.const(-1j), poisson)
        resid = np.max(np.abs(sample_coefficient(ex.sub(comm1, target), g)))
        assert resid <= 1e-8


def test_moyal_associativity_sampled():
    rng = np.random.default_rng(1)
    g = make_grid(BOX, 7)
    for _ in range(3):
        syms = []
        for _s in range(3):
            c = rng.standard_normal(3)
            a0 = ex.add(ex.mul(c[0], X), ex.mul(c[1], XI), ex.mul(c[2], ex.mul(X, XI)))
            a1 = ex.mul(rng.standard_normal(), X)
            syms.append(FormalSymbol(1, 2.0, 2, (a0, a1, ex.ZERO)))
        a, b, c_ = syms
        left = moyal_product(moyal_product(a, b, 2), c_, 2)
        right = moyal_product(a, moyal_product(b, c_, 2), 2)
        assert grid_residual(left, right) <= 1e-8


def test_neumann_invert_examples():
    u = unit_symbol(1, 2)
    iu = neumann_invert(u, 2, BOX)
    assert grid_residual(iu, u) == 0.0
    two = FormalSymbol(1, 0.0, 2, (ex.const(2.0),) + (ex.ZERO,) * 2)
    inv = neumann_invert(two, 2, BOX)
    assert inv.coeffs[0] == ex.const(0.5)
    assert inv.coeffs[1].is_zero() and inv.coeffs[2].is_zero()


def test_neumann_invert_elliptic_chain():
    nx = ex.norm(XI)
    a = FormalSymbol(1, 0.0, 3, (ex.ONE, ex.div(ex.ONE, nx), ex.ZERO, ex.ZERO))
    b = neumann_invert(a, 3, BOX4)
    # b1 = -1/|xi|
    g = make_grid(BOX4, 7)
    v = sample_coefficient(b.coeffs[1], g) + sample_coefficient(ex.div(ex.ONE, nx), g)
    assert np.max(np.abs(v)) <= 1e-12
    chk = moyal_product(a, b, 3)
    assert grid_residual(chk, unit_symbol(1, 3), BOX4) <= 1e-9


def test_neumann_invert_rejects_nonelliptic():
    a = FormalSymbol(1, 0.0, 1, (X, ex.ZERO))  # vanishes inside the box
    with pytest.raises(ValueError):
        neumann_invert(a, 1, BOX)


def test_adjoint_examples():
    # real x-independent symbol is self-adjoint at all orders
    nx = ex.norm(XI)
    a = FormalSymbol(1, 0.0, 2, (ex.ONE, ex.div(ex.ONE, nx), ex.ZERO))
    astar = adjoint_symbol(a)
    assert grid_residual(a, astar, BOX4) <= 1e-14
    # a = x xi: (a*)_0 = x xi, (a*)_1 = -i (phase pinned by the operator
    # adjoint oracle; the +i variant belongs to the opposite-sign quantization)
    axxi = FormalSymbol(1, 1.0, 1, (ex.mul(X, XI), ex.ZERO))
    st = adjoint_symbol(axxi)
    assert st.coeffs[0] == ex.mul(X, XI)
    assert st.coeffs[1] == ex.const(-1j)


def test_adjoint_involution_sampled():
    rng = np.random.default_rng(2)
    g = make_grid(BOX, 7)
    for _ in range(3):
        c = rng.standard_normal(4)
        a0 = ex.add(ex.mul(c[0], ex.powi(X, 2)), ex.mul(c[1], ex.mul(X, XI)))
        a1 = ex.add(ex.mul(c[2], X), ex.mul(c[3], XI))
        a = FormalSymbol(1, 2.0, 2, (a0, a1, ex.ZERO))
        aa = adjoint_symbol(adjoint_symbol(a))
        assert grid_residual(a, aa) <= 1e-10


def test_left_total_symbol():
    Y = ex.var(2)
    a = AmplitudeXYZ(1, 1.0, 1, (ex.mul(Y, XI), ex.ZERO))
    b = left_total_symbol(a, 1)
    assert b.coeffs[0] == ex.mul(X, XI)
    assert b.coeffs[1] == ex.const(-1j)
    # y-independent amplitude: b_j = a_j
    a2 = AmplitudeXYZ(1, 1.0, 1, (ex.mul(X, XI), ex.ZERO))
    b2 = left_total_symbol(a2, 1)
    assert b2.coeffs[0] == ex.mul(X, XI)
    assert b2.coeffs[1].is_zero()


def test_moyal_sqrt_constants():
    one = FormalSymbol(1, 0.0, 2, (ex.const(1.0),) + (ex.ZERO,) * 2)
    r = moyal_sqrt(one, 2, BOX)
    assert not r.diverged
    assert r.symbol.coeffs[0] == ex.ONE
    four = FormalSymbol(1, 0.0, 2, (ex.const(4.0),) + (ex.ZERO,) * 2)
    r = moyal_sqrt(four, 2, BOX)
    assert r.symbol.coeffs[0] == ex.const(2.0)


def test_moyal_sqrt_selfconsistency():
    nx = ex.norm(XI)
    a = FormalSymbol(1, 0.0, 3, (ex.ONE, ex.div(ex.ONE, nx), ex.ZERO, ex.ZERO))
    r = moyal_sqrt(a, 3, BOX4)
    assert not r.diverged
    lhs = moyal_product(adjoint_symbol(r.symbol), r.symbol, 3)
    assert grid_residual(lhs, a, BOX4) <= 1e-8


# An order-0 elliptic symbol whose binomial series has term sups
# 0.525, 0.229, 0.244, 0.047: one bump, then convergence.
_BUMPY = """symbol d=1 d0=0.0 K=4
(+ 1.050059095420528 (* 0.22058762101163576 (sin (+ 2.1544354808865376 (* 0.9375544324645715 (v 0))))) (* 0.024411142321981952 (pow (v 0) 2)))
(/ (+ (* -0.3837868671905392 (cos (* 1.2121581051145334 (v 0)))) (* 0.3677957509039248 (v 0))) (norm (v 1)))
(/ (+ (* -0.283736683636978 (cos (* 0.932372551274836 (v 0)))) (* -0.26649045428193374 (v 0))) (pow (norm (v 1)) 2))
(/ (+ (* -0.2538147749424348 (cos (* 0.711807994567063 (v 0)))) (* -0.25827951996715526 (v 0))) (pow (norm (v 1)) 3))
(/ (+ (* -0.3341075880133887 (cos (* 0.92119367404592 (v 0)))) (* 0.1682047012024135 (v 0))) (pow (norm (v 1)) 4))
"""
BOX_BUMPY = ((-2.0, 2.0), (1.0, 2.0))


def test_moyal_sqrt_converging_series_with_a_bump_is_not_diverged():
    raw = load_symbol(_BUMPY)
    a = FormalSymbol(1, 0.0, 4, tuple(  # self-adjoint part (raw + raw*)/2
        ex.mul(0.5, ex.add(p, q)) for p, q in zip(raw.coeffs, adjoint_symbol(raw).coeffs)))
    r = moyal_sqrt(a, 4, BOX_BUMPY)
    assert np.allclose(r.term_sups, [0.5246969, 0.2294307, 0.2439526, 0.0473712], rtol=1e-6)
    assert not r.diverged
    lhs = moyal_product(adjoint_symbol(r.symbol), r.symbol, 2)
    a2 = FormalSymbol(1, 0.0, 2, a.coeffs[:3])
    assert grid_residual(lhs, a2, BOX_BUMPY) <= 1e-10


def test_moyal_sqrt_flags_growing_series():
    # r = 5/|xi| on |xi| in [1, 2]: the binomial terms grow with j
    a = FormalSymbol(1, 0.0, 4, (ex.ONE, ex.div(5.0, ex.norm(XI)), ex.ZERO, ex.ZERO, ex.ZERO))
    r = moyal_sqrt(a, 4, BOX)
    assert all(s1 > s0 for s0, s1 in zip(r.term_sups, r.term_sups[1:]))
    assert r.diverged


def test_moyal_sqrt_rejects_nonpositive():
    a = FormalSymbol(1, 0.0, 1, (ex.const(-1.0), ex.ZERO))
    with pytest.raises(ValueError):
        moyal_sqrt(a, 1, BOX)


def test_symbol_serialization_roundtrip():
    nx = ex.norm(XI)
    a = FormalSymbol(1, 0.5, 2, (ex.ONE, ex.div(ex.ONE, nx), ex.mul(X, XI)))
    text = dump_symbol(a)
    b = load_symbol(text)
    assert b.dim == a.dim and b.d0 == a.d0 and b.order == a.order
    assert all(x == y for x, y in zip(a.coeffs, b.coeffs))


def test_truncation_guards():
    a = FormalSymbol(1, 0.0, 1, (ex.ONE, ex.ZERO))
    b = FormalSymbol(1, 0.0, 2, (ex.ONE, ex.ZERO, ex.ZERO))
    with pytest.raises(ValueError):
        moyal_product(a, b, 2)
    c2 = FormalSymbol(2, 0.0, 1, (ex.ONE, ex.ZERO))
    with pytest.raises(ValueError):
        moyal_product(a, c2, 1)


def test_d2_star_and_adjoint_match_total_symbol():
    # the amplitude b(x, xi) c(y) is Op(b) Op(c), and conj(b)(y, xi) is Op(b)^dagger,
    # so two independent loops must agree, here with two-entry multi-indices
    x1, x2, xi1, xi2 = (ex.var(i) for i in range(4))
    nxi = ex.norm(xi1, xi2)
    K = 3
    b = FormalSymbol(2, 0.0, K, tuple(
        ex.div(ex.add(ex.mul(1.0 if k == 0 else 0.3, ex.cos(ex.add(x1, ex.mul(0.5, x2)))),
                      ex.mul(0.2j, x1, x2, xi1, xi2, ex.powi(nxi, -2)),
                      ex.mul(0.4, ex.sin(ex.mul(x2, xi1)), ex.powi(nxi, -1))),
               ex.powi(nxi, k))
        for k in range(K + 1)))
    c0 = ex.add(1.0, ex.mul(0.5, x1, ex.exp(ex.mul(0.3, x2))))
    c = FormalSymbol(2, 0.0, K, (c0,) + (ex.ZERO,) * K)
    x_to_y = {0: ex.var(4), 1: ex.var(5)}
    prod_amp = AmplitudeXYZ(2, 0.0, K, tuple(
        ex.mul(bk, ex.subst(c0, x_to_y)) for bk in b.coeffs))
    adj_amp = AmplitudeXYZ(2, 0.0, K, tuple(
        ex.subst(ex.conj(bk), x_to_y) for bk in b.coeffs))
    g = make_grid(((-1.0, 1.0), (-1.0, 1.0), (1.0, 2.0), (1.0, 2.0)), 4)
    for got, want in ((left_total_symbol(prod_amp, K), moyal_product(b, c, K)),
                      (left_total_symbol(adj_amp, K), adjoint_symbol(b))):
        for k in range(K + 1):
            vg = sample_coefficient(got.coeffs[k], g)
            vw = sample_coefficient(want.coeffs[k], g)
            assert np.max(np.abs(vw)) > 1e-3
            assert np.max(np.abs(vg - vw)) <= 1e-12 * np.max(np.abs(vw))
