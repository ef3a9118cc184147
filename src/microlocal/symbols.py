"""Formal homogeneous symbols, factorial norms and the Moyal algebra.

A :class:`FormalSymbol` is a finite sequence ``a_0 .. a_K`` of expression
trees in the variables ``(x_1..x_d, xi_1..xi_d)`` (variable indices
``0..d-1`` for x, ``d..2d-1`` for xi), where ``a_k`` is homogeneous of degree
``d0 - k`` in xi.

The star product follows left quantization
``Op(a)u(x) = (2pi)^-d  int e^{i x.xi} a(x, xi) u_hat(xi) d xi``:

    (a # b)_k = sum_{n<=k} sum_{l<=k-n} sum_{|beta|=n}
                ((-i)^n / beta!) d_xi^beta a_l . d_x^beta b_{k-n-l}.

The phase factor ``-i`` (with xi-derivatives on the left factor) is the
unique choice consistent with that quantization; the FFT oracle in
:mod:`microlocal.quantize` pins it via ``[Op(x), Op(xi)] = i Id``.

The norm estimator samples

    sup |d^alpha a_k| (1 + k + |alpha|)^m / (rho^|alpha| R^k (|alpha| + k)!)

on a finite phase-space grid, so it is a guaranteed LOWER bound of the true
supremum norm; all norm-based assertions in the test-suite account for the
one-sided nature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .jets import jet_batch_from_expr
from .multiindex import factorial_multi, multi_indices

__all__ = [
    "FormalSymbol",
    "AmplitudeXYZ",
    "NormParams",
    "NormEstimate",
    "unit_symbol",
    "make_grid",
    "estimate_norm",
    "moyal_product",
    "neumann_invert",
    "moyal_sqrt",
    "SqrtResult",
    "adjoint_symbol",
    "left_total_symbol",
    "sample_coefficient",
    "load_symbol",
    "dump_symbol",
]


@dataclass(frozen=True)
class FormalSymbol:
    """Truncated formal symbol with homogeneity bookkeeping.

    ``coeffs[k]`` is an Expr in 2*dim variables, homogeneous of degree
    ``d0 - k`` in the xi block.
    """

    dim: int
    d0: float
    order: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} coefficients, got {len(self.coeffs)}"
            )
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def nvars(self) -> int:
        return 2 * self.dim


@dataclass(frozen=True)
class AmplitudeXYZ:
    """Amplitude triple a(x, xi, y): Exprs in 3*dim variables."""

    dim: int
    d0: float
    order: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count mismatch")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))


def unit_symbol(dim: int, order: int) -> FormalSymbol:
    return FormalSymbol(dim, 0.0, order, (ex.ONE,) + (ex.ZERO,) * order)


# ---------------------------------------------------------------------------
# sampling grids and the norm estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormParams:
    """Parameters of the sampled S^{rho,R}_m norm.

    ``box`` lists one (lo, hi) interval per variable (x block then xi block);
    the xi block must exclude the origin.
    """

    rho: float
    R: float
    m: float
    dim: int
    box: tuple
    grid_n: int = 17
    max_deriv: int = 6
    k_max: int | None = None

    def __post_init__(self):
        if self.rho <= 0 or self.R <= 0:
            raise ValueError("rho and R must be positive")
        if self.m < 0:
            raise ValueError("m must be >= 0")
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        if len(box) != 2 * self.dim:
            raise ValueError("box must list one interval per variable")
        object.__setattr__(self, "box", box)
        ximin2 = 0.0
        for lo, hi in box[self.dim:]:
            if lo <= 0.0 <= hi:
                continue
            ximin2 += min(lo * lo, hi * hi)
        if ximin2 == 0.0:
            raise ValueError("xi block of the box must exclude the origin")


def make_grid(box, n: int) -> np.ndarray:
    """Uniform grid over a box, flattened to shape (nvars, B)."""
    if n < 1:
        raise ValueError("empty grid")
    axes = [np.linspace(lo, hi, n) if hi > lo else np.array([lo]) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=0)


@dataclass
class NormEstimate:
    value: float
    rho: float
    R: float
    m: float
    arg_k: int
    arg_alpha: tuple
    arg_point: tuple

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "R": self.R,
            "m": self.m,
            "value": self.value,
            "argmax": {
                "k": self.arg_k,
                "alpha": list(self.arg_alpha),
                "point": list(self.arg_point),
            },
        }


def estimate_norm(a: FormalSymbol, p: NormParams) -> NormEstimate:
    """Sampled lower bound of the S^{rho,R}_m symbol norm.

    Scans grid points of ``p.box``, derivative multi-indices with
    ``|alpha| <= p.max_deriv`` and coefficient indices ``k <= min(K, k_max)``.
    """
    if p.dim != a.dim:
        raise ValueError("dimension mismatch")
    grid = make_grid(p.box, p.grid_n)
    if grid.shape[1] == 0:
        raise ValueError("empty grid")
    kmax = a.order if p.k_max is None else min(a.order, p.k_max)
    A = p.max_deriv
    idx = multi_indices(a.nvars, A)
    best = NormEstimate(0.0, p.rho, p.R, p.m, 0, (0,) * a.nvars, tuple())
    ks = [k for k in range(kmax + 1) if not a.coeffs[k].is_zero()]
    jets = jet_batch_from_expr([a.coeffs[k] for k in ks], grid, A)
    for k, coeffs in zip(ks, jets):
        for i, alpha in enumerate(idx):
            aa = sum(alpha)
            weight = (1.0 + k + aa) ** p.m / (
                p.rho**aa * p.R**k * math.factorial(aa + k)
            )
            vals = np.abs(coeffs[i]) * factorial_multi(alpha) * weight
            j = int(np.argmax(vals))
            if vals[j] > best.value:
                best = NormEstimate(
                    float(vals[j]), p.rho, p.R, p.m, k, alpha,
                    tuple(float(x.real) for x in grid[:, j]),
                )
    return best


def sample_coefficient(e: ex.Expr, grid: np.ndarray) -> np.ndarray:
    """Evaluate one coefficient on a (nvars, B) grid."""
    return ex.evaluate(e, list(grid))


# ---------------------------------------------------------------------------
# Moyal product and derived operations
# ---------------------------------------------------------------------------


def _derive(e: ex.Expr, steps) -> ex.Expr:
    """``e`` differentiated by each variable index in ``steps``, in order."""
    for v in steps:
        e = ex.diff(e, v)
        if e.is_zero():
            break
    return e


def _weight(beta: tuple) -> ex.Expr:
    """The Moyal weight (-i)^|beta| / beta!."""
    return ex.const((-1j) ** sum(beta) / factorial_multi(beta))


class _DerivCache:
    """Caches iterated partials of the coefficient list of one symbol."""

    def __init__(self, coeffs, var_offset):
        self.coeffs = coeffs
        self.var_offset = var_offset
        self.cache = {}

    def get(self, l: int, beta: tuple) -> ex.Expr:
        key = (l, beta)
        if key not in self.cache:
            steps = [self.var_offset + i for i, b in enumerate(beta) for _ in range(b)]
            self.cache[key] = _derive(self.coeffs[l], steps)
        return self.cache[key]


def _star_terms(k: int, d: int):
    """(n, l, beta, weight) of every term of the order-k star coefficient."""
    for n in range(k + 1):
        betas = [(bb, _weight(bb)) for bb in multi_indices(d, n) if sum(bb) == n]
        for l in range(k - n + 1):
            for beta, weight in betas:
                yield n, l, beta, weight


def moyal_product(a: FormalSymbol, b: FormalSymbol, K: int) -> FormalSymbol:
    """Star product of left quantization, truncated at order K.

    c_k = sum_{n=0}^{k} sum_{l=0}^{k-n} sum_{|beta|=n}
          ((-i)^n / beta!) d_xi^beta a_l . d_x^beta b_{k-n-l}.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if K > min(a.order, b.order):
        raise ValueError("truncation order exceeds operand order")
    d = a.dim
    da = _DerivCache(a.coeffs, var_offset=d)   # xi derivatives of a
    db = _DerivCache(b.coeffs, var_offset=0)   # x derivatives of b
    out = []
    for k in range(K + 1):
        terms = []
        for n, l, beta, weight in _star_terms(k, d):
            fa = da.get(l, beta)
            if fa.is_zero():
                continue
            fb = db.get(k - n - l, beta)
            if fb.is_zero():
                continue
            terms.append(ex.mul(weight, fa, fb))
        out.append(ex.add(*terms) if terms else ex.ZERO)
    return FormalSymbol(d, a.d0 + b.d0, K, tuple(out))


def _check_elliptic(a0: ex.Expr, dim: int, box, grid_n: int, threshold: float):
    grid = make_grid(box, grid_n)
    vals = np.abs(sample_coefficient(a0, grid))
    mn = float(vals.min())
    if mn < threshold:
        raise ValueError(
            f"principal coefficient not elliptic: sampled min {mn:.3e} < {threshold:.1e}"
        )


def neumann_invert(a: FormalSymbol, K: int, box, grid_n: int = 9,
                   threshold: float = 1e-6) -> FormalSymbol:
    """Moyal inverse b with a # b = 1 up to order K.

    Solves order by order; requires a_0 bounded away from 0 on the working
    box (sampled check against ``threshold``).
    """
    if K > a.order:
        raise ValueError("truncation order exceeds operand order")
    d = a.dim
    _check_elliptic(a.coeffs[0], d, box, grid_n, threshold)
    b0 = ex.div(ex.ONE, a.coeffs[0]) if a.coeffs[0] != ex.ONE else ex.ONE
    bs = [b0]
    da = _DerivCache(a.coeffs, var_offset=d)
    db = _DerivCache(bs, var_offset=0)  # valid: bs[j] never changes once appended
    for k in range(1, K + 1):
        terms = []
        for n, l, beta, weight in _star_terms(k, d):
            if n == 0 and l == 0:
                continue  # the unknown b_k lives here
            fa = da.get(l, beta)
            if fa.is_zero():
                continue
            fb = db.get(k - n - l, beta)
            if fb.is_zero():
                continue
            terms.append(ex.mul(weight, fa, fb))
        if terms:
            bs.append(ex.mul(ex.neg(b0), ex.add(*terms)))
        else:
            bs.append(ex.ZERO)
    return FormalSymbol(d, -a.d0, K, tuple(bs))


def _mu_series(coeffs, K: int, d: int, first: int, finish) -> list:
    """[c_0 .. c_K] with

        c_j = sum_{|mu|<=j} ((-i)^|mu|/mu!) finish(d_v^mu d_xi^mu coeffs[j-|mu|]),

    where v is the block of d variables starting at index ``first``.
    """
    out = []
    for j in range(K + 1):
        terms = []
        for mu in multi_indices(d, j):
            steps = []
            for i, m in enumerate(mu):
                steps += [first + i] * m + [d + i] * m  # v_i before xi_i
            e = _derive(coeffs[j - sum(mu)], steps)
            if e.is_zero():
                continue
            terms.append(ex.mul(_weight(mu), finish(e)))
        out.append(ex.add(*terms) if terms else ex.ZERO)
    return out


def adjoint_symbol(a: FormalSymbol) -> FormalSymbol:
    """Formal adjoint of the left quantization:

    (a*)_k = sum_{|mu|<=k} ((-i)^|mu|/mu!) d_x^mu d_xi^mu conj(a_{k-|mu|}).

    The phase (-i)^|mu| is pinned by the operator identity
    Op(a*) = Op(a)^dagger under the same quantization that fixes the star
    product (dense-matrix oracle check in the test-suite); the opposite sign
    belongs to the e^{-i x.xi} convention.
    """
    conjugated = [ex.conj(c) for c in a.coeffs]
    out = _mu_series(conjugated, a.order, a.dim, 0, lambda e: e)
    return FormalSymbol(a.dim, a.d0, a.order, tuple(out))


def left_total_symbol(a: AmplitudeXYZ, K: int) -> FormalSymbol:
    """Left total symbol of an (x, xi, y) amplitude.

    b_j(x, xi) = sum_{|mu|<=j} ((-i)^|mu|/mu!) (d_y^mu d_xi^mu a_{j-|mu|})(x, xi, x),

    with the phase pinned by the kernel-quadrature oracle (Op of the
    amplitude equals Op of the total symbol on band-limited data).
    """
    if K > a.order:
        raise ValueError("truncation order exceeds amplitude order")
    d = a.dim
    y_to_x = {2 * d + i: ex.var(i) for i in range(d)}
    out = _mu_series(a.coeffs, K, d, 2 * d, lambda e: ex.subst(e, y_to_x))
    return FormalSymbol(d, a.d0, K, tuple(out))


# ---------------------------------------------------------------------------
# Moyal square root
# ---------------------------------------------------------------------------


@dataclass
class SqrtResult:
    symbol: FormalSymbol
    term_sups: list
    diverged: bool


def moyal_sqrt(a: FormalSymbol, K: int, box, grid_n: int = 9) -> SqrtResult:
    """Symbol b with b* # b = a up to order K, for self-adjoint a (a* = a).

    b* # b is always formally self-adjoint, so for any other a the identity
    cannot hold.  The precondition is not checked here.

    Construction: b0 = pointwise sqrt(a_0), r = (b0*)^#-1 # a # b0^#-1 - 1,
    then b = sqrt(1+r) # b0 with the square root given by the binomial Moyal
    power series.  Term norms are monitored; a non-decreasing tail (the last
    term sup not below the smallest earlier one) marks the result as
    diverged instead of silently truncating.
    """
    d = a.dim
    grid = make_grid(box, grid_n)
    a0 = sample_coefficient(a.coeffs[0], grid)
    if np.any(a0.real <= 0) or np.any(np.abs(a0.imag) > 1e-10 * np.abs(a0)):
        raise ValueError("principal coefficient must be positive on the box")
    b0_expr = ex.powr(a.coeffs[0], 0.5) if a.coeffs[0] != ex.ONE else ex.ONE
    b0 = FormalSymbol(d, a.d0 / 2.0, K, (b0_expr,) + (ex.ZERO,) * K)
    b0_inv = neumann_invert(b0, K, box, grid_n)
    b0_star = adjoint_symbol(b0)
    b0_star_inv = neumann_invert(b0_star, K, box, grid_n)

    r = moyal_product(moyal_product(b0_star_inv, a, K), b0_inv, K)
    r0 = sample_coefficient(r.coeffs[0], grid) - 1.0
    if np.max(np.abs(r0)) > 1e-9:
        raise ValueError("conjugated principal part is not the unit symbol")
    # r_0 is identically 1 by construction; drop the residual tree so the
    # binomial series stays order-graded.
    r = FormalSymbol(d, 0.0, K, (ex.ZERO,) + r.coeffs[1:])

    c_coeffs = [ex.ONE] + [ex.ZERO] * K
    power = unit_symbol(d, K)
    term_sups = []
    binom = 1.0
    for j in range(1, K + 1):
        binom *= (0.5 - (j - 1)) / j
        power = moyal_product(power, r, K)
        sup_j = 0.0
        for k in range(K + 1):
            e = power.coeffs[k]
            if e.is_zero():
                continue
            vals = np.abs(sample_coefficient(e, grid))
            sup_j = max(sup_j, abs(binom) * float(vals.max()))
            c_coeffs[k] = ex.add(c_coeffs[k], ex.mul(ex.const(binom), e))
        term_sups.append(sup_j)
    diverged = len(term_sups) > 1 and term_sups[-1] > min(term_sups[:-1]) + 1e-12
    c = FormalSymbol(d, 0.0, K, tuple(c_coeffs))
    b = moyal_product(c, b0, K)
    return SqrtResult(b, term_sups, diverged)


# ---------------------------------------------------------------------------
# homogeneity check and serialization
# ---------------------------------------------------------------------------


def dump_symbol(a: FormalSymbol) -> str:
    lines = [f"symbol d={a.dim} d0={a.d0!r} K={a.order}"]
    lines += [ex.format_sexpr(c) for c in a.coeffs]
    return "\n".join(lines) + "\n"


def load_symbol(text: str) -> FormalSymbol:
    """Parse the ``symbol d=.. d0=.. K=..`` header plus one S-expr per line."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("symbol"):
        raise ValueError("missing symbol header")
    fields = dict(tok.split("=") for tok in lines[0].split()[1:])
    d = int(fields["d"])
    d0 = float(fields["d0"])
    K = int(fields["K"])
    if len(lines) - 1 != K + 1:
        raise ValueError(f"expected {K + 1} coefficient lines, got {len(lines) - 1}")
    coeffs = tuple(ex.parse_sexpr(ln) for ln in lines[1:])
    return FormalSymbol(d, d0, K, coeffs)
