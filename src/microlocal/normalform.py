"""Quantum normal-form machinery at jet level.

Model operator: the vector of operators ``-i d/dx_j - x_j d/dy_1`` whose
left-quantization symbol is ``xi_j - i x_j eta_1`` (multiplying by ``i``
gives the equivalent form ``x_j eta_1 + i xi_j``; only the common vanishing
set matters).

Order 0: the conjugation factor solving

    d_{x_j} a + i x_j d_{y_1} a - i eta_1 d_{xi_j} a = i r0 a,  a|_{x_j=0}=1

is the exponential of a path integral of r0 along the complex characteristic
through (x, y, xi, eta):

    t in [0, x_j] |-> (x - (x_j - t) e_j,  y + i (t^2 - x_j^2)/2 e_1,
                       xi + i (x_j - t) eta_1 e_j,  eta),

which this module builds as an expression tree via Gauss-Legendre nodes, so
the PDE residual can be verified by exact jet differentiation.

Higher orders: expanding in powers of x_j (coefficient ``b^(n)`` means the
n-th x_j-derivative at x_j = 0), each degree k solves the algebraic
recursion

    i b_k^{(n+1)} - eta_1 d_{xi_j} b_k^{(n)} + n d_{y_1} b_k^{(n-1)} = g_k^{(n)}

with Cauchy datum b_k^{(0)} = 0.  The JS norm counts the x_j-power n as a
derivative:

    C(b_k, k) = sup |grad^alpha b_k^{(n)}| (1 + n + |alpha| + k)^m
                / (rho^{n+|alpha|} R^k (n + |alpha| + k)!)

sampled over Omega = {|eta_1| in [1/4, 1/2], other variables within 0.1}.
Stability C(b_k, k) <= C(g_k, k) holds for rho >= 6 (3/2)^m (the stricter
of the two printed conditions) and |eta_1| <= 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr as ex
from .jets import jet_batch_from_expr
from .multiindex import factorial_multi, multi_indices
from .quadrature import gauss_panels
from .quantize import DENSE_MODE_GUARD, commutator_residual, mode_matrix

__all__ = [
    "model_symbol",
    "JetSymbol",
    "solve_order0",
    "order0_pde_residual",
    "transport_recursion",
    "transport_residuals",
    "JSNormParams",
    "js_norm",
    "stability_sweep",
    "random_jet_rhs",
    "Quantize2D",
    "commutator_check",
]

# variable layout of the reduced model: (x_j, y_1, xi_j, eta_1)
VX, VY, VXI, VETA = 0, 1, 2, 3


def model_symbol() -> ex.Expr:
    """Left-quantization symbol xi_j - i x_j eta_1 of the model operator."""
    return ex.sub(ex.var(VXI), ex.mul(ex.I, ex.var(VX), ex.var(VETA)))


# ---------------------------------------------------------------------------
# order 0
# ---------------------------------------------------------------------------


def solve_order0(r0: ex.Expr, quad_order: int = 12) -> ex.Expr:
    """Order-0 conjugation factor as an expression tree.

    ``r0`` is an Expr in the layout (x_j, y_1, xi_j, eta_1).  Returns

        a0 = exp[ i x_j sum_q w_q r0(P(tau_q)) ],

    the Gauss-Legendre discretization (``quad_order`` nodes on [0, 1]) of the
    characteristic path integral; exact for polynomial r0 of t-degree below
    2 * quad_order along the path.
    """
    tau, wts = gauss_panels([0.0, 1.0], quad_order)
    xj, y1, xij, eta = ex.var(VX), ex.var(VY), ex.var(VXI), ex.var(VETA)
    terms = []
    for tq, wq in zip(tau, wts):
        mapping = {
            VX: ex.mul(ex.const(tq), xj),
            VY: ex.add(y1, ex.mul(ex.const(0.5j * (tq**2 - 1.0)), ex.powi(xj, 2))),
            VXI: ex.add(xij, ex.mul(ex.const(1j * (1.0 - tq)), xj, eta)),
        }
        terms.append(ex.mul(ex.const(wq), ex.subst(r0, mapping)))
    integral = ex.add(*terms)
    return ex.exp(ex.mul(ex.I, xj, integral))


def order0_pde_residual(a0: ex.Expr, r0: ex.Expr, points: np.ndarray) -> float:
    """Sampled residual of d_x a + i x d_y a - i eta d_xi a - i r0 a.

    ``points`` has shape (4, B); derivatives are exact via order-1 jets.
    """
    res = ex.add(
        ex.diff(a0, VX),
        ex.mul(ex.I, ex.var(VX), ex.diff(a0, VY)),
        ex.neg(ex.mul(ex.I, ex.var(VETA), ex.diff(a0, VXI))),
        ex.neg(ex.mul(ex.I, r0, a0)),
    )
    vals = ex.evaluate(res, list(points))
    return float(np.max(np.abs(vals)))


# ---------------------------------------------------------------------------
# jet symbols and the transport recursion
# ---------------------------------------------------------------------------


@dataclass
class JetSymbol:
    """Per-degree jet coefficients b_k^{(n)} at x_j = 0.

    ``coeffs[(k, n)]`` is an Expr in the remaining variables
    (y_1, xi_j, eta_1, extras) using the same indices as the full layout
    minus x_j; by convention the Exprs here use (y_1, xi_j, eta_1) at
    indices (0, 1, 2).  Absent keys mean zero.  The Cauchy datum forces
    b_k^{(0)} = 0 for every k.
    """

    K: int
    N: int
    coeffs: dict = field(default_factory=dict)

    Y1, XI, ETA = 0, 1, 2

    def get(self, k: int, n: int) -> ex.Expr:
        return self.coeffs.get((k, n), ex.ZERO)

    def set(self, k: int, n: int, e: ex.Expr):
        if n == 0 and not e.is_zero():
            raise ValueError("Cauchy datum requires the n = 0 coefficient to vanish")
        if not e.is_zero():
            self.coeffs[(k, n)] = e


def transport_recursion(g: JetSymbol, K: int, N: int) -> JetSymbol:
    """Solve the transport recursion degree by degree.

    b_k^{(0)} = 0 and, for 0 <= n <= N,

        b_k^{(n+1)} = -i (g_k^{(n)} + eta_1 d_{xi_j} b_k^{(n)}
                          - n d_{y_1} b_k^{(n-1)}).

    Purely algebraic; the output carries orders n <= N + 1.
    """
    for (k, n) in g.coeffs:
        if n == 0 and not g.coeffs[(k, n)].is_zero():
            raise ValueError("right-hand side must have vanishing n = 0 jet")
    b = JetSymbol(K, N + 1)
    eta = ex.var(JetSymbol.ETA)
    for k in range(K + 1):
        prev2 = ex.ZERO  # b_k^{(n-1)}
        prev1 = ex.ZERO  # b_k^{(n)}
        for n in range(N + 1):
            rhs_terms = []
            gkn = g.get(k, n)
            if not gkn.is_zero():
                rhs_terms.append(gkn)
            d_xi = ex.diff(prev1, JetSymbol.XI)
            if not d_xi.is_zero():
                rhs_terms.append(ex.mul(eta, d_xi))
            if n >= 1:
                d_y = ex.diff(prev2, JetSymbol.Y1)
                if not d_y.is_zero():
                    rhs_terms.append(ex.mul(ex.const(-float(n)), d_y))
            nxt = ex.mul(ex.const(-1j), ex.add(*rhs_terms)) if rhs_terms else ex.ZERO
            b.set(k, n + 1, nxt)
            prev2, prev1 = prev1, nxt
    return b


def transport_residuals(b: JetSymbol, g: JetSymbol, K: int, N: int) -> list:
    """Exprs i b_k^{(n+1)} - eta_1 d_xi b_k^{(n)} + n d_y b_k^{(n-1)} - g_k^{(n)}.

    Each entry simplifies to the literal zero constant when ``b`` solves the
    recursion; the smart constructors collect structurally equal terms.
    """
    eta = ex.var(JetSymbol.ETA)
    out = []
    for k in range(K + 1):
        for n in range(N + 1):
            res = ex.add(
                ex.mul(ex.I, b.get(k, n + 1)),
                ex.neg(ex.mul(eta, ex.diff(b.get(k, n), JetSymbol.XI))),
                ex.mul(ex.const(float(n)), ex.diff(b.get(k, n - 1), JetSymbol.Y1))
                if n >= 1 else ex.ZERO,
                ex.neg(g.get(k, n)),
            )
            out.append(res)
    return out


# ---------------------------------------------------------------------------
# JS norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JSNormParams:
    rho: float
    R: float
    m: float
    max_deriv: int = 4
    eps_other: float = 0.1
    n_eta: int = 5
    n_other: int = 3


def _omega_grid(p: JSNormParams) -> np.ndarray:
    """Sample grid for Omega: |eta_1| in [1/4, 1/2], others within eps."""
    eta_half = np.linspace(0.25, 0.5, p.n_eta)
    eta = np.concatenate([-eta_half[::-1], eta_half])
    other = np.linspace(-p.eps_other, p.eps_other, p.n_other)
    Y, XI, ETA = np.meshgrid(other, other, eta, indexing="ij")
    return np.stack([Y.ravel(), XI.ravel(), ETA.ravel()], axis=0)


def js_norm(b: JetSymbol, p: JSNormParams, k_list=None) -> dict:
    """Sampled JS norm constants C(b_k, k) per degree k, and their max.

    The x_j-power n counts as a derivative:

        C(b_k, k) = max over n, alpha, grid of
            |grad^alpha b_k^{(n)}| (1 + n + |alpha| + k)^m
            / (rho^{n + |alpha|} R^k (n + |alpha| + k)!).
    """
    grid = _omega_grid(p)
    if grid.shape[1] == 0:
        raise ValueError("empty grid")
    A = p.max_deriv
    idx = multi_indices(3, A)
    per_k = {}
    kn = [(k, n) for (k, n), e in b.coeffs.items()
          if (k_list is None or k in k_list) and not e.is_zero()]
    jets = jet_batch_from_expr([b.coeffs[key] for key in kn], grid, A)
    for (k, n), coeffs in zip(kn, jets):
        best = per_k.get(k, 0.0)
        for i, alpha in enumerate(idx):
            aa = sum(alpha)
            w = (1.0 + n + aa + k) ** p.m / (
                p.rho ** (n + aa) * p.R**k * math.factorial(n + aa + k)
            )
            v = float(np.max(np.abs(coeffs[i]))) * factorial_multi(alpha) * w
            best = max(best, v)
        per_k[k] = best
    return {"per_k": per_k, "max": max(per_k.values()) if per_k else 0.0}


def random_jet_rhs(rng, K: int, N: int, degree: int = 2) -> JetSymbol:
    """Random polynomial right-hand side g with g_k^{(0)} = 0."""
    g = JetSymbol(K, N)
    vars3 = [ex.var(i) for i in range(3)]
    monos = [m for m in multi_indices(3, degree)]
    for k in range(K + 1):
        for n in range(1, N + 1):
            terms = []
            for mono in monos:
                c = rng.standard_normal()
                if abs(c) < 0.3:
                    continue
                factors = [ex.const(c)]
                for i, mi in enumerate(mono):
                    if mi:
                        factors.append(ex.powi(vars3[i], mi))
                terms.append(ex.mul(*factors))
            if terms:
                g.set(k, n, ex.add(*terms))
    return g


def stability_sweep(seeds, K: int = 3, N: int = 6, m: float = 8.0,
                    rho: float | None = None, R: float | None = None,
                    max_deriv: int = 4, d: int = 2) -> dict:
    """Ratios C(b_k, k) / C(g_k, k) over a random corpus.

    Defaults follow the stability regime: rho = 6 (3/2)^m (stricter variant)
    and R = 2^{d+1} rho.
    """
    if rho is None:
        rho = 6.0 * 1.5**m
    if R is None:
        R = 2.0 ** (d + 1) * rho
    p = JSNormParams(rho=rho, R=R, m=m, max_deriv=max_deriv)
    rows = []
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        g = random_jet_rhs(rng, K, N)
        b = transport_recursion(g, K, N)
        cg = js_norm(g, p)["per_k"]
        cb = js_norm(b, p)["per_k"]
        ratios = {}
        for k, cgk in cg.items():
            cbk = cb.get(k, 0.0)
            ratios[k] = cbk / cgk if cgk > 0 else 0.0
            worst = max(worst, ratios[k])
        rows.append({"seed": int(seed), "ratios": ratios})
    return {"rho": rho, "R": R, "m": m, "rows": rows, "max_ratio": worst}


# ---------------------------------------------------------------------------
# two-variable quantization oracle for the commutator identity
# ---------------------------------------------------------------------------


class Quantize2D:
    """The 2D grid of :func:`microlocal.quantize.mode_matrix`, and the model
    operator's matrix on it, built on first use.

    Model plane (x_j, y_1) with dual modes (xi, eta); coordinates are
    centered (sawtooth x in [-L/2, L/2)) so interior test data sits at the
    origin.  Symbols are Exprs in the layout (x, y, xi, eta), evaluated with
    no low-frequency clamp; intended for polynomial jet symbols.
    """

    def __init__(self, period: float = 24.0, M: int = 64, band: int = 20):
        if band >= M // 2:
            raise ValueError("band exceeds Nyquist")
        self.L = period
        self.M = M
        self.F = band
        f = np.arange(-band, band + 1)
        if f.size**2 > DENSE_MODE_GUARD:
            raise ValueError(f"dense assembly capped at {DENSE_MODE_GUARD} modes")
        self.f = f
        self.xi = 2.0 * math.pi * f / period
        x1 = np.arange(M) * (period / M)
        x1 = np.where(x1 >= period / 2, x1 - period, x1)  # centered sawtooth
        self.x = x1

    def op_matrix(self, symbol: ex.Expr) -> np.ndarray:
        """Matrix of Op(symbol) on the retained 2D modes (row-major (f_x, f_y))."""
        x, xi = self.x, self.xi
        A = ex.evaluate(symbol, [x[:, None, None, None], x[None, :, None, None],
                                 xi[None, None, :, None], xi[None, None, None, :]])
        return mode_matrix(A, self.f, self.M, 2)

    @cached_property
    def model_matrix(self) -> np.ndarray:
        """Op(model_symbol()) on the retained modes, built once per grid."""
        return self.op_matrix(model_symbol())

    def windowed_vector(self, mode_x: int, mode_y: int,
                        rel_width: float = 1.0 / 15.0) -> np.ndarray:
        """Mode-coefficient vector of an interior 2D windowed wave."""
        M, L, F = self.M, self.L, self.F
        sigma = rel_width * L
        g1 = np.exp(-self.x**2 / (2.0 * sigma**2))
        u = (g1[:, None] * g1[None, :]) * np.exp(
            2j * math.pi * (mode_x * np.arange(M)[:, None]
                            + mode_y * np.arange(M)[None, :]) / M)
        hat = np.fft.fft2(u)
        f = self.f
        return hat[np.ix_(np.mod(f, M), np.mod(f, M))].ravel()


def commutator_check(b: ex.Expr, oracle: Quantize2D | None = None,
                     test_modes=((1, 2), (-2, 1), (3, -1), (0, 3))) -> dict:
    """Oracle check of [Op(model), Op(b)] = Op(-i d_x b - x d_y b + eta d_xi b).

    Assembles dense matrices in the 2-variable model and reports the worst
    relative residual over interior windowed test vectors.
    """
    q = oracle or Quantize2D()
    B = q.op_matrix(b)
    side = ex.add(
        ex.mul(ex.const(-1j), ex.diff(b, VX)),
        ex.neg(ex.mul(ex.var(VX), ex.diff(b, VY))),
        ex.mul(ex.var(VETA), ex.diff(b, VXI)),
    )
    S = q.op_matrix(side)
    vectors = [q.windowed_vector(mx, my) for mx, my in test_modes]
    worst = commutator_residual(q.model_matrix, B, S, vectors)
    return {"residual": worst, "band": q.F, "M": q.M, "period": q.L,
            "side_symbol": ex.format_sexpr(side)}
