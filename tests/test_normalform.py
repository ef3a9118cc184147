import numpy as np
import pytest

from microlocal import expr as ex
from microlocal.normalform import (
    JetSymbol,
    JSNormParams,
    Quantize2D,
    commutator_check,
    js_norm,
    model_symbol,
    order0_pde_residual,
    random_jet_rhs,
    solve_order0,
    stability_sweep,
    transport_recursion,
    transport_residuals,
)

PTS = np.vstack([
    np.random.default_rng(3).uniform(-0.3, 0.3, (2, 12)),
    np.random.default_rng(4).uniform(-0.5, 0.5, (2, 12)),
])


def test_model_symbol_forms_differ_by_i():
    a = model_symbol()
    # the paper's form x_j eta_1 + i xi_j, in the layout (x_j, y_1, xi_j, eta_1)
    b = ex.add(ex.mul(ex.var(0), ex.var(3)), ex.mul(ex.I, ex.var(2)))
    diff = ex.sub(ex.mul(ex.I, a), b)
    assert diff.is_zero()


def test_model_symbol_vanishing_set():
    # sigma = xi - i x eta vanishes iff xi = 0 and x*eta = 0 on real points
    sym = model_symbol()
    v = ex.evaluate(sym, [np.array([0.5]), np.array([0.0]),
                          np.array([0.0]), np.array([0.0])])
    assert abs(v[0]) == 0.0
    v2 = ex.evaluate(sym, [np.array([0.5]), np.array([0.0]),
                           np.array([0.2]), np.array([0.3])])
    assert abs(v2[0]) > 0.1


def test_order0_zero_rhs():
    assert solve_order0(ex.ZERO) == ex.ONE


def test_order0_constant_rhs():
    a0 = solve_order0(ex.const(2.5))
    v = ex.evaluate(a0, [np.array([0.3]), np.array([0.0]),
                         np.array([0.0]), np.array([0.0])])
    assert abs(v[0] - np.exp(1j * 2.5 * 0.3)) <= 1e-14


def test_order0_eta_rhs_and_pde():
    r0 = ex.var(3)
    a0 = solve_order0(r0)
    v = ex.evaluate(a0, [np.array([0.3]), np.array([0.1]),
                         np.array([0.2]), np.array([0.4])])
    assert abs(v[0] - np.exp(1j * 0.4 * 0.3)) <= 1e-14
    assert order0_pde_residual(a0, r0, PTS) <= 1e-9


def test_order0_pde_general_rhs():
    r0 = ex.add(ex.mul(0.7, ex.var(1)), ex.mul(0.3, ex.var(2), ex.var(3)),
                ex.mul(0.2, ex.powi(ex.var(0), 2)))
    a0 = solve_order0(r0)
    assert order0_pde_residual(a0, r0, PTS) <= 1e-9
    r0e = ex.mul(0.5, ex.exp(ex.mul(0.3, ex.var(1))))
    a0e = solve_order0(r0e)
    assert order0_pde_residual(a0e, r0e, PTS) <= 1e-9


def test_order0_cauchy_datum():
    r0 = ex.add(ex.var(1), ex.var(3))
    a0 = solve_order0(r0)
    v = ex.evaluate(a0, [np.array([0.0]), np.array([0.4]),
                         np.array([0.1]), np.array([0.2])])
    assert abs(v[0] - 1.0) <= 1e-14


def test_recursion_zero_rhs():
    g = JetSymbol(2, 3)
    b = transport_recursion(g, 2, 3)
    assert not b.coeffs


def test_recursion_single_seed():
    g = JetSymbol(2, 3)
    g.set(1, 1, ex.ONE)
    b = transport_recursion(g, 2, 3)
    assert b.get(1, 2) == ex.const(-1j)
    assert list(b.coeffs) == [(1, 2)]


def test_recursion_two_step():
    g = JetSymbol(2, 3)
    g.set(1, 1, ex.var(JetSymbol.XI))
    b = transport_recursion(g, 2, 3)
    assert b.get(1, 2) == ex.mul(ex.const(-1j), ex.var(JetSymbol.XI))
    assert b.get(1, 3) == ex.neg(ex.var(JetSymbol.ETA))


def test_recursion_rejects_nonzero_order0():
    g = JetSymbol(1, 2)
    with pytest.raises(ValueError):
        g.set(0, 0, ex.ONE)
    g.coeffs[(0, 0)] = ex.ONE  # force invalid state
    with pytest.raises(ValueError):
        transport_recursion(g, 1, 2)


def test_residuals_structurally_zero_random():
    rng = np.random.default_rng(7)
    g = random_jet_rhs(rng, 2, 4)
    b = transport_recursion(g, 2, 4)
    res = transport_residuals(b, g, 2, 4)
    pts = np.random.default_rng(0).uniform(0.1, 0.4, (3, 8))
    for r in res:
        if r.is_zero():
            continue
        # residual coefficient dust from float arithmetic only
        assert float(np.max(np.abs(ex.evaluate(r, list(pts))))) <= 1e-12


def test_js_norm_examples():
    b = JetSymbol(0, 1)
    b.set(0, 1, ex.ONE)
    p = JSNormParams(rho=1.0, R=1.0, m=0.0, max_deriv=2)
    got = js_norm(b, p)
    assert got["per_k"][0] == pytest.approx(1.0)
    empty = JetSymbol(0, 1)
    assert js_norm(empty, p)["max"] == 0.0


def test_js_norm_seed_stability():
    g = JetSymbol(1, 3)
    g.set(1, 1, ex.var(JetSymbol.XI))
    b = transport_recursion(g, 1, 3)
    m = 8.0
    rho = 12.0
    p = JSNormParams(rho=rho, R=2.0 ** 3 * rho, m=m, max_deriv=3)
    cg = js_norm(g, p)["per_k"]
    cb = js_norm(b, p)["per_k"]
    assert cb[1] <= cg[1]


def test_stability_sweep_20_seeds():
    rep = stability_sweep(range(20), K=3, N=6, m=8.0)
    assert rep["max_ratio"] <= 1.0 + 1e-6
    assert rep["rho"] == pytest.approx(6.0 * 1.5**8.0)


@pytest.fixture(scope="module")
def oracle():
    return Quantize2D()


def test_commutator_unit(oracle):
    rep = commutator_check(ex.ONE, oracle)
    assert rep["residual"] <= 1e-12


def test_commutator_x(oracle):
    rep = commutator_check(ex.var(0), oracle)
    assert rep["residual"] <= 1e-8
    assert rep["side_symbol"] == "(* -1 I)"


def test_commutator_xi(oracle):
    rep = commutator_check(ex.var(2), oracle)
    assert rep["residual"] <= 1e-8
    assert rep["side_symbol"] == "(v 3)"


def test_commutator_mixed(oracle):
    rep = commutator_check(ex.mul(ex.var(0), ex.var(3)), oracle)
    assert rep["residual"] <= 1e-8


def test_band_guards():
    with pytest.raises(ValueError):
        Quantize2D(M=64, band=40)
    with pytest.raises(ValueError):
        Quantize2D(M=256, band=100)  # 201^2 > 4096 dense guard
