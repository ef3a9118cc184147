"""Workload ``symbol-algebra``: building symbol trees and propagating jets.

Mirrors C4 (Banach bound of the star-product norm) and C9 (transport
recursion residuals and jet-norm stability) on seeded inputs.  Nearly all
of its time goes to tree building in ``symbols``/``expr`` and to jet
propagation, almost none to grid evaluation or Bessel calls.  The order K
is spread over 2..4, which gives both small trees and swollen ones
(``moyal_sqrt`` at K = 4 repeats most of its nodes), so memoisation or
hash-consing would show on one kind and not on the other.
"""

from __future__ import annotations

import math
import random

import numpy as np

from microlocal import expr as ex
from microlocal import normalform as nf
from microlocal import symbols as sy
from microlocal.jets import jet_batch_from_expr

import oracles as orc
from harness import Op, Workload, need

BOX = ((-2.0, 2.0), (1.0, 2.0))
KS = (2, 3, 4)
JET_CASES = ((2, 4), (3, 6))
# C4: rho = 1, m = 8, R = 2^{d+2} rho^2; the b factor is normed at (rho/2, R/4)
NORM_FULL = sy.NormParams(1.0, 8.0, 8.0, 1, BOX, grid_n=5, max_deriv=4)
NORM_HALF = sy.NormParams(0.5, 2.0, 8.0, 1, BOX, grid_n=5, max_deriv=4)
# C9 stability regime: rho = 6 (3/2)^m, R = 2^{d+1} rho with d = 2
_RHO = 6.0 * 1.5**8
JS = nf.JSNormParams(rho=_RHO, R=8.0 * _RHO, m=8.0)
# tolerances as shipped in the package's tests and acceptance battery
TOL_STAR = 1e-8        # Moyal identities on sampled points
TOL_INVERSE = 1e-9     # a # neumann_invert(a) = 1
TOL_ADJOINT = 1e-10    # (a*)* = a
TOL_TRANSPORT = 1e-12  # C9 residuals
TOL_STABILITY = 1.0 + 1e-6


def random_symbol(rng, K: int) -> sy.FormalSymbol:
    """Elliptic order-0 symbol with a positive principal part on BOX."""
    x, nx = ex.var(0), ex.norm(ex.var(1))
    c0, c1, c2 = rng.uniform(1.0, 1.5), rng.uniform(0.1, 0.4), rng.uniform(0.02, 0.08)
    w, ph = rng.uniform(0.5, 1.5), rng.uniform(0.0, 2 * math.pi)
    coeffs = [ex.add(c0, ex.mul(c1, ex.sin(ex.add(ex.mul(w, x), ph))),
                     ex.mul(c2, ex.powi(x, 2)))]
    for k in range(1, K + 1):
        b1, b2 = rng.uniform(0.1, 0.4, 2) * rng.choice([-1.0, 1.0], 2)
        wk = rng.uniform(0.5, 1.5)
        num = ex.add(ex.mul(b1, ex.cos(ex.mul(wk, x))), ex.mul(b2, x))
        coeffs.append(ex.div(num, ex.powi(nx, k)))
    return sy.FormalSymbol(1, 0.0, K, tuple(coeffs))


def random_amplitude(rng, K: int) -> sy.AmplitudeXYZ:
    """(x, xi, y) amplitude with trigonometric and polynomial y-dependence."""
    x, y, nx = ex.var(0), ex.var(2), ex.norm(ex.var(1))
    coeffs = []
    for j in range(K + 1):
        b = rng.uniform(0.1, 0.5, 3) * rng.choice([-1.0, 1.0], 3)
        w, v = rng.uniform(0.5, 1.5, 2)
        num = ex.add(1.0 if j == 0 else 0.0,
                     ex.mul(b[0], ex.cos(ex.mul(w, x))),
                     ex.mul(b[1], ex.sin(ex.mul(v, y))),
                     ex.mul(b[2], x, y))
        coeffs.append(num if j == 0 else ex.div(num, ex.powi(nx, j)))
    return sy.AmplitudeXYZ(1, 0.0, K, tuple(coeffs))


def sample_points(rng, n: int = 16) -> np.ndarray:
    return np.stack([rng.uniform(lo, hi, n) for lo, hi in BOX])


# -- ops ---------------------------------------------------------------------


def op_product(rng, K):
    a, b = random_symbol(rng, K), random_symbol(rng, K)
    pts = sample_points(rng)

    def check(c):
        want = orc.star_by_jets(orc.jets(a.coeffs, pts, K), orc.jets(b.coeffs, pts, K), K, K)
        return [(orc.max_dev(orc.values(c.coeffs, pts), want), TOL_STAR)]
    return Op(f"moyal_product.K{K}", lambda: sy.moyal_product(a, b, K), check)


def op_inverse(rng, K):
    a = random_symbol(rng, K)
    pts = sample_points(rng, 8)

    def check(b):
        got = orc.star_by_jets(orc.jets(a.coeffs, pts, K), orc.jets(b.coeffs, pts, K), K, K)
        unit = [np.ones(pts.shape[1])] + [np.zeros(pts.shape[1])] * K
        return [(orc.max_dev(got, unit), TOL_INVERSE)]
    return Op(f"neumann_invert.K{K}", lambda: sy.neumann_invert(a, K, BOX), check)


def self_adjoint_part(a: sy.FormalSymbol) -> sy.FormalSymbol:
    """(a + a*)/2; b* # b = a can only hold for a self-adjoint a."""
    st = sy.adjoint_symbol(a)
    return sy.FormalSymbol(a.dim, a.d0, a.order, tuple(
        ex.mul(0.5, ex.add(p, q)) for p, q in zip(a.coeffs, st.coeffs)))


def op_sqrt(rng, K):
    a = self_adjoint_part(random_symbol(rng, K))
    pts = sample_points(rng)
    kc = min(K, 2)  # b* # b = a checked through order 2 (jets of order 4)

    def check(res):
        jb = orc.jets(res.symbol.coeffs[:kc + 1], pts, 2 * kc)
        got = orc.adjoint_star_by_jets(jb, kc, 2 * kc)
        return [need(not res.diverged),
                (orc.max_dev(got, orc.values(a.coeffs[:kc + 1], pts)), TOL_STAR)]
    return Op(f"moyal_sqrt.K{K}", lambda: sy.moyal_sqrt(a, K, BOX), check)


def op_adjoint(rng, K):
    a = random_symbol(rng, K)
    pts = sample_points(rng)

    def check(st):
        back = sy.adjoint_symbol(st)
        return [(orc.max_dev(orc.values(back.coeffs, pts), orc.values(a.coeffs, pts)),
                 TOL_ADJOINT)]
    return Op(f"adjoint.K{K}", lambda: sy.adjoint_symbol(a), check)


def op_total(rng, K):
    amp = random_amplitude(rng, K)
    pts = sample_points(rng)
    kc = min(K, 2)  # checked through order 2 (jets of order 4 in three variables)

    def check(b):
        want = orc.total_symbol_by_jets(amp.coeffs[:kc + 1], pts[0], pts[1], kc)
        return [(orc.max_dev(orc.values(b.coeffs[:kc + 1], pts), want), TOL_INVERSE)]
    return Op(f"left_total.K{K}", lambda: sy.left_total_symbol(amp, K), check)


def op_norm(rng, K):
    a, b = random_symbol(rng, K), random_symbol(rng, K)
    ab = sy.moyal_product(a, b, K)

    def check(nab):
        bound = 12.0 * sy.estimate_norm(a, NORM_FULL).value * \
            sy.estimate_norm(b, NORM_HALF).value
        return [(nab.value, bound)]
    return Op(f"estimate_norm.K{K}", lambda: sy.estimate_norm(ab, NORM_FULL), check)


def op_roundtrip(rng, K):
    ab = sy.moyal_product(random_symbol(rng, K), random_symbol(rng, K), K)

    def check(back):
        same = (back.dim, back.d0, back.order) == (ab.dim, ab.d0, ab.order) and \
            all(p == q for p, q in zip(back.coeffs, ab.coeffs))
        return [need(same)]
    return Op(f"sexpr_roundtrip.K{K}", lambda: sy.load_symbol(sy.dump_symbol(ab)), check)


def op_transport(rng, K, N):
    g = nf.random_jet_rhs(rng, K, N)
    pts = rng.uniform(0.1, 0.4, (3, 8))

    def run():
        b = nf.transport_recursion(g, K, N)
        return nf.transport_residuals(b, g, K, N)

    def check(res):
        worst = max((float(np.max(np.abs(ex.evaluate(r, list(pts)))))
                     for r in res if not r.is_zero()), default=0.0)
        return [(worst, TOL_TRANSPORT)]
    return Op(f"transport.K{K}N{N}", run, check)


def op_js_norm(rng, K, N):
    g = nf.random_jet_rhs(rng, K, N)
    b = nf.transport_recursion(g, K, N)

    def check(cb):
        cg = nf.js_norm(g, JS)["per_k"]
        return [(cb["per_k"].get(k, 0.0), TOL_STABILITY * cgk) for k, cgk in cg.items()]
    return Op(f"js_norm.K{K}N{N}", lambda: nf.js_norm(b, JS), check)


_SYMBOL_OPS = (op_product, op_inverse, op_sqrt, op_adjoint, op_total, op_norm, op_roundtrip)
# One fixed, seed-independent interleaving of the pass's slots.  adjoint at
# K = 4 takes three slots so that the median falls inside one op class
# rather than on the gap between two.
_SLOTS = [(f, (K,)) for f in _SYMBOL_OPS for K in KS] + [(op_adjoint, (4,))] * 2 + \
    [(f, kn) for f in (op_transport, op_js_norm) for kn in JET_CASES]
random.Random(0).shuffle(_SLOTS)


def make_pass(seed: int, index: int) -> list:
    rng = np.random.default_rng([seed, index])
    return [f(rng, *args) for f, args in _SLOTS]


def warmup():
    """Fill the lazily built multi-index tables at every (dim, order) used."""
    e = ex.mul(ex.var(0), ex.var(1), ex.var(2))
    for dim, order in ((2, 2), (2, 3), (2, 4), (3, 4), (3, 8)):
        jet_batch_from_expr(e if dim == 3 else ex.mul(ex.var(0), ex.var(1)),
                            np.ones((dim, 1)), order)


WORKLOAD = Workload(make_pass, warmup)
