"""Workload ``grid-oracles``: small trees evaluated on large grids.

Mirrors C3 (quantization convention lock and Moyal consistency), C5
(cutoff certificate), C6 (Borel remainder), C7 (stationary-phase
certificate), C8 (wavefront classification) and the C9 commutator identity.
It uses the ``expr`` layer the other way round from ``symbol-algebra``:
small trees evaluated at up to millions of points.  Its time goes to
``expr.evaluate``, FFTs and quadrature, almost none to jets.  Heavy grid ops
(dense 2D commutator matrices, the 1D quantization at M = 512..2048) make
the tail; statphase, FBI and Borel ops of a few milliseconds make the median.
"""

from __future__ import annotations

import math
import random

import numpy as np

from microlocal import borel as bo
from microlocal import expr as ex
from microlocal import fbi
from microlocal import normalform as nf
from microlocal import quantize as qz
from microlocal import statphase as sp
from microlocal.symbols import FormalSymbol

from harness import Op, Workload, at_least, need, within

# tolerances as shipped in the acceptance battery, the CLI and the tests
TOL_LOCK = 1e-10            # C3 [Op(x), Op(xi)] = i Id
TOL_PAIR = 1e-8             # exact pair (xi, x): eps at order 1
TOL_TAIL = 1e-10            # spectral tail of the test function
TOL_COMMUTATOR_2D = 1e-8    # C9
TOL_CUTOFF_RANGE = 1e-12    # C5 chi = 1 on K and 0 on L
TOL_FIT = 0.25              # C6 factorial remainder model
TOL_FIBER = 1e-10           # fiber integral against a finer quadrature


def grid(M: int):
    """Period and band of the 1D grid of size M, scaled from C3's
    (L, M, F) = (48, 2048, 384) at fixed spacing."""
    L = 48.0 * M / 2048
    return L, qz.BandLimit(3 * M // 16)


def interior_mode(rng, M: int, band_limit: int) -> int:
    """A seeded mode whose windowed wave (spatial width 0.06 L, so spectral
    width 1 / (0.12 pi) modes) keeps 8 spectral widths from the |xi| < 1
    clamp and from the band edge."""
    L, _ = grid(M)
    lo = math.ceil((L + 8.0 / 0.06) / (2.0 * math.pi))
    hi = max(lo, int(band_limit - 8.0 / (0.12 * math.pi)))
    return int(rng.integers(lo, hi + 1)) * int(rng.choice([-1, 1]))


def op_lock(rng, M):
    L, band = grid(M)
    x, xi = ex.var(0), ex.var(1)
    c = rng.uniform(0.5, 2.0)
    modes = [interior_mode(rng, M, band.F // 2) for _ in range(2)]
    f = qz.mode_numbers(band)

    def run():
        X = qz.commutator_matrix(FormalSymbol(1, 0.0, 0, (ex.mul(c, x),)), band, L, M)
        XI = qz.commutator_matrix(FormalSymbol(1, 1.0, 0, (xi,)), band, L, M)
        vecs = [np.fft.fft(qz.windowed_mode(L, M, m0, qz.BandLimit(band.F // 2)).values)
                [np.mod(f, M)] for m0 in modes]
        return qz.commutator_residual(X, XI, 1j * c * np.eye(f.size), vecs)
    return Op(f"convention_lock.M{M}", run, lambda res: [(res, TOL_LOCK)])


def op_pair(rng, M):
    """Op(a)Op(b) = Op(a#b) for linear a(xi), b(x): exact at order 1."""
    L, band = grid(M)
    x, xi = ex.var(0), ex.var(1)
    al, be, ga, de = rng.uniform(0.5, 1.5, 4)
    a = FormalSymbol(1, 1.0, 1, (ex.add(ex.mul(al, xi), be), ex.ZERO))
    b = FormalSymbol(1, 0.0, 1, (ex.add(ex.mul(ga, x), de), ex.ZERO))
    u = qz.windowed_mode(L, M, interior_mode(rng, M, band.F // 4), qz.BandLimit(band.F // 4))
    return Op(f"moyal_pair.M{M}", lambda: qz.moyal_consistency(a, b, 1, u, band),
              lambda r: [(r["eps"][1], TOL_PAIR), (r["u_tail"], TOL_TAIL)])


def op_elliptic(rng, M):
    """C3's elliptic pair with seeded amplitudes and phases; the residuals
    must decay monotonically in the truncation order."""
    L, band = grid(M)
    x, nx = ex.var(0), ex.norm(ex.var(1))
    w = 2.0 * math.pi / L
    c = rng.uniform(0.1, 0.3, 5)
    ph = rng.uniform(0.0, 2.0 * math.pi, 5)

    def wave(k, j, fn):
        return ex.mul(c[j], fn(ex.add(ex.mul(k * w, x), ph[j])))
    a = FormalSymbol(1, 0.0, 4, (
        ex.add(1.0, wave(1, 0, ex.cos)), ex.div(wave(1, 1, ex.sin), nx),
        ex.div(wave(2, 2, ex.cos), ex.powi(nx, 2)), ex.ZERO, ex.ZERO))
    b = FormalSymbol(1, 0.0, 4, (
        ex.add(1.0, wave(1, 3, ex.sin)), ex.div(wave(1, 4, ex.cos), nx),
        ex.ZERO, ex.ZERO, ex.ZERO))
    u = qz.windowed_mode(L, M, interior_mode(rng, M, band.F // 4), qz.BandLimit(band.F // 4))

    def check(r):
        eps = r["eps"]
        return [(eps[i + 1], eps[i] * (1.0 + 1e-9) + 1e-12) for i in range(len(eps) - 1)] \
            + [(r["u_tail"], TOL_TAIL)]
    return Op(f"moyal_elliptic.M{M}", lambda: qz.moyal_consistency(a, b, 4, u, band), check)


def op_commutator_2d(rng):
    """C9: [Op(model), Op(b)] on the shipped 2D grid (nf^2 = 1681 modes)."""
    c = rng.uniform(0.5, 1.5, 3)
    b = ex.add(ex.mul(c[0], ex.var(0)), ex.mul(c[1], ex.var(2)),
               ex.mul(c[2], ex.var(0), ex.var(3)))
    return Op("commutator_2d.M64", lambda: nf.commutator_check(b, nf.Quantize2D()),
              lambda r: [(r["residual"], TOL_COMMUTATOR_2D)])


def _statphase_u(rng, d: int, kind: int):
    y = [ex.var(i) for i in range(d)]
    c = rng.uniform(0.3, 1.5, d)
    lin = ex.add(*[ex.mul(ci, yi) for ci, yi in zip(c, y)])
    if kind == 0:
        return ex.exp(lin)
    if kind == 1:
        return ex.cos(lin)
    return ex.div(1.0, ex.add(1.0, ex.mul(0.5, ex.powi(lin, 2))))


def op_certificate(rng, d, N, kind, lam):
    u = _statphase_u(rng, d, kind)
    return Op(f"statphase_cert.d{d}N{N}", lambda: sp.remainder_certificate(u, d, lam, N),
              lambda r: [(r["residual"], r["bound"])])


def op_oracle(rng, d, lam):
    """Ball quadrature of a polynomial against its full-space Gaussian
    moments; the difference is the Gaussian tail, <= 10 e^-lam (C7)."""
    y = [ex.var(i) for i in range(d)]
    c = rng.uniform(0.5, 2.0, d + 1)
    u = ex.add(1.0, *[ex.mul(ci, ex.powi(yi, 2)) for ci, yi in zip(c, y)],
               ex.mul(c[d], ex.powi(y[0], 4)))
    exact = (math.pi / lam) ** (d / 2) * (1.0 + sum(c[:d]) / (2 * lam) + 0.75 * c[d] / lam**2)
    return Op(f"statphase_oracle.d{d}", lambda: sp.gaussian_quadrature_oracle(u, d, lam),
              lambda v: [(abs(complex(v) - exact), 10.0 * math.exp(-lam))])


# C8's regular probe points.  Drawn from this set, not from an interval:
# the probe answers "inconclusive" for the heaviside jump at x in
# [-0.8, -0.65], a known limit of the classifier rather than of this op.
REGULAR = {"heaviside": ((0.5, 1.0), (0.5, -1.0), (-0.5, 1.0), (-0.5, -1.0), (0.8, 1.0)),
           "abs": ((1.5, 1.0), (1.5, -1.0), (-1.5, 1.0), (2.0, 1.0))}


def op_probe(rng, name, singular):
    u = fbi.builtin_function(name)
    if singular:
        om = float(rng.choice([-1.0, 1.0]))
        lo, hi = (0.8, 1.2) if name == "heaviside" else (1.5, 3.0)
        return Op(f"fbi_probe.{name}.singular", lambda: fbi.wavefront_probe(u, 0.0, om),
                  lambda fit: [need(fit.model == "polynomial"), within(fit.power, lo, hi)])
    x, om = REGULAR[name][int(rng.integers(len(REGULAR[name])))]
    return Op(f"fbi_probe.{name}.regular", lambda: fbi.wavefront_probe(u, x, om),
              lambda fit: [need(fit.model == "exponential"), at_least(fit.rate, 0.03)])


def op_fiber(rng):
    u = fbi.builtin_function(str(rng.choice(["heaviside", "abs"])))
    x, om = rng.uniform(-1.0, 1.0), float(rng.choice([-1.0, 1.0]))
    t = np.sort(rng.uniform(5.0, 60.0, 8))

    def check(F):
        # relative to the largest |F| on the grid: pointwise relative error is
        # ill-posed where F has decayed by orders of magnitude
        ref = fbi.fiber_integral(u, x, om, t, order=20)
        return [(float(np.max(np.abs(F - ref)) / np.max(np.abs(ref))), TOL_FIBER)]
    return Op("fbi_fiber_integral", lambda: fbi.fiber_integral(u, x, om, t), check)


def op_cutoffs(rng, n_max):
    k1 = rng.uniform(0.8, 1.2)
    l0 = k1 + rng.uniform(0.8, 1.2)

    def run():
        fam = bo.ehrenpreis_cutoffs((0.0, k1), (l0, l0 + 1.0), n_max)
        return fam, bo.cutoff_certificate(fam)

    def check(res):
        fam, cert = res
        s_k, s_l = np.linspace(0.0, k1, 21), np.linspace(l0, l0 + 1.0, 21)
        pairs = [(r["max_abs"], r["bound"]) for r in cert["rows"]]
        for N in range(1, n_max + 1):
            pairs.append((float(np.max(np.abs(fam.value(N, s_k) - 1.0))), TOL_CUTOFF_RANGE))
            pairs.append((float(np.max(np.abs(fam.value(N, s_l)))), TOL_CUTOFF_RANGE))
        in_range = all(np.all((v >= 0.0) & (v <= 1.0)) for v in fam.chi.values())
        return pairs + [need(cert["pass"] and in_range)]
    return Op(f"ehrenpreis_cutoffs.N{n_max}", run, check)


def factorial_symbol(sigma: float, K: int = 25) -> FormalSymbol:
    """a_k = k! sigma^k |xi|^-k: factorially divergent, Borel summable."""
    nx = ex.norm(ex.var(1))
    coeffs = [ex.ONE] + [ex.mul(math.factorial(k) * sigma**k, ex.powi(nx, -k))
                         for k in range(1, K + 1)]
    return FormalSymbol(1, 0.0, K, tuple(coeffs))


def op_borel(rng, family):
    a = factorial_symbol(rng.uniform(0.8, 1.2))
    theta = np.geomspace(rng.uniform(18.0, 22.0), rng.uniform(180.0, 220.0), 15)

    def run():
        r = bo.borel_sum(a, 1.0 / 8.0, family)
        return bo.remainder_profile(r, 10, theta)
    return Op("borel_sum", run, lambda prof: [(prof["fit_quality"], TOL_FIT)])


# The slot mix puts the median inside the 13-19 ms statphase group (as many
# ops below it as above it) and the 90th percentile inside the heavy 1D
# quantization ops, between the M = 1024 pair and the M = 2048 lock.  Kind
# and lambda are fixed per slot, so the cost of a pass does not depend on
# the seed; the seed draws coefficients, modes and points.  The pass is kept
# near 3 s, so that a run of 20 s samples each heavy class five or more
# times, and has 29 ops, so that it measures 100 or more ops.
_SLOTS = (
    [("commutator_2d", ()), ("elliptic", (512,)), ("pair", (1024,))]
    + [("lock", (M,)) for M in (512, 1024, 2048)]
    + [("certificate", (3, 2, 0, 10.0))]
    + [("certificate", (2, 8, kind, lam)) for kind, lam in ((0, 5.0), (1, 10.0), (2, 20.0),
                                                              (0, 10.0), (1, 20.0))]
    + [("oracle", (3, lam)) for lam in (8.0, 11.0, 14.0, 17.0, 20.0)]
    + [("certificate", (1, 8, 1, 10.0)), ("oracle", (1, 10.0)), ("oracle", (2, 14.0))]
    + [("probe", (name, sing)) for name in ("heaviside", "abs") for sing in (True, False)]
    + [("fiber", ())] * 2 + [("cutoffs", (8,))] + [("borel", ())] * 2
)
_SLOTS = random.Random(0).sample(_SLOTS, len(_SLOTS))
_BUILD = {"commutator_2d": op_commutator_2d, "elliptic": op_elliptic, "pair": op_pair,
          "lock": op_lock, "certificate": op_certificate, "oracle": op_oracle,
          "probe": op_probe, "fiber": op_fiber, "cutoffs": op_cutoffs}


def make_pass(seed: int, index: int) -> list:
    rng = np.random.default_rng([seed, index])
    family = bo.ehrenpreis_cutoffs((0.0, 1.0), (2.0, 3.0), 27, deriv_max=0)
    return [op_borel(rng, family) if kind == "borel" else _BUILD[kind](rng, *args)
            for kind, args in _SLOTS]


def warmup():
    """Touch the lazily built quadrature rules and FFT paths once."""
    np.polynomial.legendre.leggauss(12)
    qz.op_apply(FormalSymbol(1, 0.0, 0, (ex.ONE,)), qz.windowed_mode(8.0, 64, 3, qz.BandLimit(8)),
                qz.BandLimit(8))


WORKLOAD = Workload(make_pass, warmup)
