import math
import re

import numpy as np
import pytest

from microlocal import expr as ex
from microlocal import jets
from microlocal.jets import jet_batch_from_expr, jet_from_expr
from microlocal.multiindex import count, factorial_multi, index_of, mul_table, multi_indices
from microlocal.symbols import FormalSymbol, moyal_sqrt


def _derivative(j, alpha, order):
    """d^alpha f(center) = alpha! * coeff(alpha)."""
    return complex(j[index_of(alpha, order)] * factorial_multi(alpha))


def test_multiindex_layout():
    idx = multi_indices(2, 2)
    assert idx == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    assert count(2, 2) == 6
    for i, a in enumerate(idx):
        assert index_of(a, 2) == i


def test_exp_jet():
    j = jet_from_expr(ex.exp(ex.var(0)), [0.0], 2)
    assert np.allclose(j, [1.0, 1.0, 0.5])


def test_polynomial_identity():
    e = ex.mul(ex.add(1, ex.var(0)), ex.sub(1, ex.var(0)))
    j = jet_from_expr(e, [0.0], 2)
    assert np.allclose(j, [1.0, 0.0, -1.0])


def test_sin_cos_derivative():
    e = ex.mul(ex.sin(ex.var(0)), ex.cos(ex.var(0)))
    j = jet_from_expr(e, [0.0], 1)
    assert abs(j[1] - 1.0) < 1e-14


def test_mul_exp_inverse():
    c = jet_from_expr(ex.mul(ex.exp(ex.var(0)), ex.exp(ex.neg(ex.var(0)))), [0.0], 4)
    expect = np.zeros(5)
    expect[0] = 1.0
    assert np.allclose(c, expect, atol=1e-15)


def test_div_geometric():
    c = jet_from_expr(ex.div(ex.ONE, ex.sub(1, ex.var(0))), [0.0], 3)
    assert np.allclose(c, [1.0, 1.0, 1.0, 1.0])


def test_derivative_at_examples():
    j = jet_from_expr(ex.powi(ex.var(0), 2), [0.0], 2)
    assert _derivative(j, (2,), 2) == pytest.approx(2.0)
    j2 = jet_from_expr(ex.exp(ex.mul(ex.var(0), ex.var(1))), [0.0, 0.0], 2)
    assert _derivative(j2, (1, 1), 2) == pytest.approx(1.0)
    z = jet_from_expr(ex.ZERO, [0.0], 2)
    assert _derivative(z, (1,), 2) == 0.0


def test_div_by_zero_constant_term():
    with pytest.raises(ex.DomainError):
        jet_from_expr(ex.div(ex.ONE, ex.var(0)), [0.0], 2)


def test_random_polynomial_exactness():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d, K = 2, 4
        coeffs = {}
        terms = []
        for alpha in multi_indices(d, K):
            c = rng.standard_normal()
            coeffs[alpha] = c
            factors = [ex.const(c)]
            for i, a in enumerate(alpha):
                if a:
                    factors.append(ex.powi(ex.var(i), a))
            terms.append(ex.mul(*factors))
        e = ex.add(*terms)
        j = jet_from_expr(e, [0.0, 0.0], K)
        for alpha, c in coeffs.items():
            got = j[index_of(alpha, K)]
            assert abs(got - c) <= 1e-12 * max(1.0, abs(c))


def test_leibniz_consistency():
    rng = np.random.default_rng(6)
    x, y = ex.var(0), ex.var(1)
    a = ex.add(ex.exp(ex.mul(0.3, x)), ex.mul(ex.sin(y), x))
    b = ex.add(ex.cos(ex.mul(0.5, x)), ex.mul(y, y, x))
    center = rng.uniform(-0.5, 0.5, 2)
    order = 4
    ja = jet_from_expr(a, center, order)
    jb = jet_from_expr(b, center, order)
    jab = jet_from_expr(ex.mul(a, b), center, order)
    for alpha in multi_indices(2, order):
        total = 0.0
        for beta in multi_indices(2, sum(alpha)):
            if any(bi > ai for bi, ai in zip(beta, alpha)):
                continue
            binom = 1.0
            for ai, bi in zip(alpha, beta):
                binom *= math.comb(ai, bi)
            rem = tuple(ai - bi for ai, bi in zip(alpha, beta))
            total += binom * _derivative(ja, beta, order) * _derivative(jb, rem, order)
        got = _derivative(jab, alpha, order)
        assert abs(got - total) <= 1e-10 * max(1.0, abs(total))


def test_chain_consistency_exp():
    rng = np.random.default_rng(7)
    x = ex.var(0)
    inner = ex.add(ex.mul(0.4, x), ex.mul(-0.7, ex.powi(x, 2)),
                   ex.mul(0.2, ex.powi(x, 3)))
    e = ex.exp(inner)
    center = rng.uniform(-0.3, 0.3, 1)
    j_direct = jet_from_expr(e, center, 5)
    # exp(g) = e^{g0} sum_k (g - g0)^k / k!, truncated exactly at order 5
    # because g - g0 vanishes at the center; the powers run through _jpowi
    g0 = jet_from_expr(inner, center, 5)[0]
    w = ex.sub(inner, ex.const(g0))
    total = np.zeros(6, dtype=complex)
    total[0] = 1.0
    for k in range(1, 6):
        total = total + jet_from_expr(ex.powi(w, k), center, 5) / math.factorial(k)
    total = total * np.exp(g0)
    assert np.max(np.abs(total - j_direct)) <= 1e-10


def test_radial_node_guard_near_origin():
    e = ex.norm(ex.var(0), ex.var(1))
    with pytest.raises(ex.DomainError):
        jet_from_expr(e, [1e-9, 0.0], 2)
    j = jet_from_expr(e, [3.0, 4.0], 2)
    assert abs(j[0] - 5.0) < 1e-14
    assert abs(_derivative(j, (1, 0), 2) - 0.6) < 1e-14


@pytest.mark.parametrize("e, center", [
    (ex.norm(ex.var(0), ex.var(1)), [1e-9, 0.0]),
    (ex.log(ex.var(0)), [0.0, 1.0]),
    (ex.div(1, ex.var(0)), [0.0, 1.0]),
    (ex.powr(ex.var(0), 0.5), [0.0, 1.0]),
    (ex.powi(ex.var(0), -2), [0.0, 1.0]),
], ids=["norm", "log", "div", "powr", "powi"])
def test_jet_errors_name_the_node(e, center):
    with pytest.raises(ex.DomainError, match=re.escape(ex.format_sexpr(e))):
        jet_from_expr(ex.add(ex.var(1), e), center, 2)


def _kind_cases():
    x, y = ex.var(0), ex.var(1)
    u = ex.add(1.0, ex.mul(0.3, x), ex.mul(-0.2, x, y), ex.mul(0.1, ex.powi(y, 2)))
    w = ex.add(ex.mul(0.4, y), ex.mul(0.25, ex.powi(x, 3)))
    cases = {k: getattr(ex, k)(u) for k in ex._ANALYTIC}
    cases.update(powr=ex.powr(u, 0.37), powi=ex.powi(u, -3), div=ex.div(w, u),
                 norm=ex.norm(u, w), mul=ex.mul(u, w, x), add=ex.add(u, w))
    return cases


@pytest.mark.parametrize("kind", sorted(_kind_cases()))
def test_jet_matches_diff_for_every_kind(kind):
    e = _kind_cases()[kind]
    assert e.kind == kind
    rng = np.random.default_rng(11)
    order = 4
    real = rng.uniform(-0.5, 0.5, 2)
    for center in (real, real + 1j * rng.uniform(-0.2, 0.2, 2)):
        j = jet_from_expr(e, center, order)
        for alpha in multi_indices(2, order):
            d = e
            for i, a in enumerate(alpha):
                for _ in range(a):
                    d = ex.diff(d, i)
            want = complex(ex.evaluate(d, list(center))) / factorial_multi(alpha)
            got = j[index_of(alpha, order)]
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (alpha, center)


# -- reference kernels: the scatter product and the triangular division loop --


def _jmul_scatter(a, b, dim, order):
    ia, ib, ic, _ = mul_table(dim, order)
    out = np.zeros_like(a)
    np.add.at(out, ic, a[ia] * b[ib])
    return out


def _div_lists(dim, order):
    """For each target index ic: list of (ibeta, ic_minus_beta) with beta != 0."""
    idx = multi_indices(dim, order)
    imap = {a: i for i, a in enumerate(idx)}
    out = []
    for c in idx:
        rows = []
        for b, ib in imap.items():
            if sum(b) == 0:
                continue
            if all(bb <= cc for bb, cc in zip(b, c)):
                rem = tuple(cc - bb for cc, bb in zip(c, b))
                rows.append((ib, imap[rem]))
        out.append(tuple(rows))
    return tuple(out)


def _jdiv_loop(a, b, dim, order):
    b0 = b[0]
    lists = _div_lists(dim, order)
    out = np.zeros_like(a)
    for ic, rows in enumerate(lists):
        acc = a[ic].copy()
        for ib, irem in rows:
            acc -= b[ib] * out[irem]
        out[ic] = acc / b0
    return out


@pytest.mark.parametrize("dim, order, batch", [(1, 6, 3), (2, 4, 25), (3, 4, 90), (3, 8, 1)])
def test_product_and_quotient_match_reference_kernels(dim, order, batch):
    rng = np.random.default_rng(dim * 100 + order)
    n = count(dim, order)

    def jet():
        return rng.standard_normal((n, batch)) + 1j * rng.standard_normal((n, batch))
    a, b = jet(), jet()
    b[0] += 4.0
    for got, want in ((jets._jmul(a, b, dim, order), _jmul_scatter(a, b, dim, order)),
                      (jets._jdiv(a, b, dim, order), _jdiv_loop(a, b, dim, order))):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    back = jets._jdiv(jets._jmul(a, b, dim, order), b, dim, order)
    assert np.max(np.abs(back - a)) <= 1e-12 * np.max(np.abs(a))


def _swollen_coeffs():
    x, nx = ex.var(0), ex.norm(ex.var(1))
    a = FormalSymbol(1, 0.0, 4, (ex.add(1.2, ex.mul(0.2, ex.sin(x))),
                                 ex.div(ex.mul(0.3, ex.cos(x)), nx),
                                 ex.div(x, ex.powi(nx, 2)), ex.ZERO, ex.ZERO))
    return moyal_sqrt(a, 4, ((-2.0, 2.0), (1.0, 2.0))).symbol.coeffs


_CENTERS = np.array([[0.3, -0.5, 1.1], [1.2, 1.7, -1.4]], dtype=complex)


def test_shared_subtrees_propagate_bit_identically():
    coeffs = _swollen_coeffs()
    memo = jets._shared(coeffs)
    assert memo  # the square root's coefficients share subtrees
    shared = [jets._propagate(e, _CENTERS, 2, 2, memo) for e in coeffs]
    assert memo == {}  # every counted use was taken, every jet dropped
    plain = [jets._propagate(e, _CENTERS, 2, 2, {}) for e in coeffs]
    seq = jet_batch_from_expr(coeffs, _CENTERS, 2)
    assert isinstance(seq, list) and len(seq) == len(coeffs)
    for s, p, q in zip(shared, plain, seq):
        assert s.tobytes() == p.tobytes() == q.tobytes()
    for e, q in zip(coeffs, seq):
        assert jet_batch_from_expr(e, _CENTERS, 2).tobytes() == q.tobytes()


def test_returned_jets_are_not_reused():
    x = ex.var(0)
    e = ex.add(ex.sin(x), ex.mul(ex.sin(x), ex.cos(x)))
    first = jet_batch_from_expr([e, ex.sin(x), x], _CENTERS[:1], 3)
    want = [j.copy() for j in jet_batch_from_expr([e, ex.sin(x), x], _CENTERS[:1], 3)]
    for j in first:
        j *= 7.0
    again = jet_batch_from_expr([e, ex.sin(x), x], _CENTERS[:1], 3)
    for j, w in zip(again, want):
        assert j.tobytes() == w.tobytes()


def test_deep_chain_propagates():
    # one frame per tree level in Expr.key and the propagation: a chain 800
    # deep stays below the default recursion limit of 1000
    e = ex.var(0)
    for _ in range(800):
        e = ex.sin(e)
    center = np.array([[0.1, 0.2]])
    j = jet_from_expr(e, [0.1], 2)
    assert j.shape == (3,)
    assert np.array_equal(jet_batch_from_expr(e, center, 2)[:, 0], j)
    assert np.array_equal(jet_batch_from_expr([e, e.children[0]], center, 2)[0][:, 0], j)
    assert ex.evaluate(e, [np.array([0.1])])[0] == j[0]
