"""FFT-based left-quantization oracle on a periodic grid.

The oracle realizes ``Op(a)u(x_m) = sum_{|f|<=F} e^{i x_m xi_f} a(x_m, xi_f)
u_hat(xi_f) / M^d`` with ``xi_f = 2 pi f / L`` and validates the Moyal algebra
numerically; one d-dimensional kernel, :func:`mode_matrix`, builds its dense
matrices.  Only the 1D ``FormalSymbol`` path clamps: homogeneous symbols are
singular at ``xi = 0``, so frequencies with ``|xi| < 1`` take their value at
``|xi| = 1`` (sign kept, ``sign(0) = +1``); every check lives on a cone away
from the origin.

The model is periodic while the symbol calculus lives on the line, so matrix
identities such as ``[Op(x), Op(xi)] = i Id`` hold on *interior data*: test
vectors that are band-limited well inside the retained band and spatially
concentrated away from the wrap-around point.  Residuals quoted by
:func:`commutator_residual` and :func:`moyal_consistency` are measured
against such vectors; raw matrix entries inherit wrap-around contributions
of the periodic model (any true matrix commutator is trace-free, so a
literal ``i Id`` block is impossible on the torus).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .symbols import AmplitudeXYZ, FormalSymbol, moyal_product

__all__ = [
    "GridFunction",
    "BandLimit",
    "op_apply",
    "op_apply_amplitude",
    "commutator_matrix",
    "mode_matrix",
    "commutator_residual",
    "moyal_consistency",
    "windowed_mode",
    "mode_numbers",
]

DENSE_MODE_GUARD = 4096


@dataclass(frozen=True)
class GridFunction:
    """Complex samples u(x_m) on the uniform grid x_m = m L / M."""

    period: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        m = v.shape[0]
        if m < 2 or (m & (m - 1)) != 0:
            raise ValueError("sample count must be a power of two")
        if not np.all(np.isfinite(v)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def x(self) -> np.ndarray:
        return np.arange(self.size) * (self.period / self.size)

    def norm2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) / self.size))


@dataclass(frozen=True)
class BandLimit:
    """Retain Fourier modes f with |f| <= F."""

    F: int

    def __post_init__(self):
        if self.F < 1:
            raise ValueError("band limit must be >= 1")

    def check(self, M: int):
        if self.F >= M // 2:
            raise ValueError(f"band F={self.F} exceeds Nyquist of M={M}")


def mode_numbers(band: BandLimit) -> np.ndarray:
    return np.arange(-band.F, band.F + 1)


def _clamp(xi: np.ndarray) -> np.ndarray:
    """xi with |xi| < 1 replaced by its sign (sign(0) = +1)."""
    return np.where(np.abs(xi) >= 1.0, xi, np.where(xi >= 0.0, 1.0, -1.0))


def _symbol_fields(a: FormalSymbol, K: int, x: np.ndarray, xi: np.ndarray):
    """Yield a_{<=k}(x, xi), k = 0..K, as :func:`_symbol_field`, in one array summed in place."""
    if a.dim != 1:
        raise ValueError("oracle is one-dimensional")
    if K > a.order:
        raise ValueError("truncation order exceeds symbol order")
    args = [x[:, None], _clamp(xi)[None, :]]
    total = np.zeros((x.size, xi.size), dtype=complex)
    for k in range(K + 1):
        ck = a.coeffs[k]
        if not ck.is_zero():
            total += ex.evaluate(ck, args)
        yield total


def _symbol_field(a: FormalSymbol, K: int, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """a_{<=K}(x, xi) on the outer product grid, with the |xi|<1 clamp."""
    for total in _symbol_fields(a, K, x, xi):
        pass
    return total


def op_apply(a: FormalSymbol, u: GridFunction, band: BandLimit,
             K: int | None = None) -> GridFunction:
    """Apply the band-limited left quantization of ``a`` to ``u``."""
    M = u.size
    band.check(M)
    K = a.order if K is None else K
    f = mode_numbers(band)
    xi = 2.0 * np.pi * f / u.period
    x = u.x()
    uhat = np.fft.fft(u.values)
    uf = uhat[np.mod(f, M)]
    A = _symbol_field(a, K, x, xi)
    E = np.exp(1j * np.outer(x, xi))
    out = (A * E) @ uf / M
    return GridFunction(u.period, out)


def op_apply_amplitude(a3, u: GridFunction, band: BandLimit,
                       K: int | None = None) -> GridFunction:
    """Apply the kernel quantization of an (x, xi, y) amplitude.

    (Op(a) u)(x_m) = (1/M) sum_{|f|<=F} sum_{m'} e^{i (x_m - x_{m'}) xi_f}
                     a_{<=K}(x_m, xi_f, x_{m'}) u(x_{m'}),

    the discrete image of the kernel int e^{i(x-y) xi} a(x, xi, y) d xi.
    Kept as the oracle for :func:`microlocal.symbols.left_total_symbol`.
    """
    if not isinstance(a3, AmplitudeXYZ) or a3.dim != 1:
        raise ValueError("oracle needs a one-dimensional (x, xi, y) amplitude")
    M = u.size
    band.check(M)
    K = a3.order if K is None else K
    f = mode_numbers(band)
    xi = 2.0 * np.pi * f / u.period
    x = u.x()
    X = x[:, None, None]
    XI = _clamp(xi)[None, :, None]
    Y = x[None, None, :]
    total = np.zeros((M, f.size, M), dtype=complex)
    for k in range(K + 1):
        ck = a3.coeffs[k]
        if ck.is_zero():
            continue
        total = total + ex.evaluate(ck, [X, XI, Y])
    E_out = np.exp(1j * np.outer(x, xi))          # e^{i x xi_f}
    E_in = np.exp(-1j * np.outer(xi, x))          # e^{-i xi_f y}
    out = np.einsum("mf,mfy,fy,y->m", E_out, total, E_in, u.values) / M
    return GridFunction(u.period, out)


def mode_matrix(A: np.ndarray, f: np.ndarray, M: int, d: int) -> np.ndarray:
    """Dense matrix of a periodic left quantization on the retained modes.

    ``A`` broadcasts to ``(M,)*d + (n,)*d``, n = f.size: the symbol at grid
    point m and mode f.  Entry (g, f) = M^-d sum_m A(m, f) e^{2 pi i m.(f-g)/M}
    is the DFT of A(., f) at (g - f) mod M; rows and columns are mode
    multi-indices in row-major order.  One ``fftn`` per index of the first
    d - 1 mode axes, batched over the last, keeps the working set at M^d n.
    """
    n = f.size
    A = np.broadcast_to(A, (M,) * d + (n,) * d)
    shift = np.mod(f[:, None] - f[None, :], M)           # (g - f) mod M
    out = np.empty((n,) * (2 * d), dtype=complex)
    for lead in np.ndindex((n,) * (d - 1)):
        hat = np.fft.fftn(A[(Ellipsis,) + lead + (slice(None),)], axes=tuple(range(d)))
        ix = [shift[:, a].reshape((1,) * k + (n,) + (1,) * (d - k)) for k, a in enumerate(lead)]
        ix += [shift.reshape((1,) * (d - 1) + (n, n)), np.arange(n)]
        out[(slice(None),) * d + lead] = hat[tuple(ix)] / M**d
    return out.reshape(n**d, n**d)


def commutator_matrix(a: FormalSymbol, band: BandLimit, period: float,
                      M: int, K: int | None = None) -> np.ndarray:
    """Dense matrix of Op(a) on the retained modes.

    Entry (i, j) maps input mode f_j to output mode f_i; the mode list is
    :func:`mode_numbers`.
    """
    band.check(M)
    f = mode_numbers(band)
    if f.size > DENSE_MODE_GUARD:
        raise ValueError(f"dense assembly capped at {DENSE_MODE_GUARD} modes")
    K = a.order if K is None else K
    x = np.arange(M) * (period / M)
    return mode_matrix(_symbol_field(a, K, x, 2.0 * np.pi * f / period), f, M, 1)


def windowed_mode(period: float, M: int, mode: int, band: BandLimit,
                  x0: float | None = None, rel_width: float = 0.06) -> GridFunction:
    """Gaussian-windowed plane wave, re-band-limited exactly to ``band``.

    Spatially concentrated at ``x0`` (default mid-domain) with width
    ``rel_width * period``, so wrap-around tails sit at the 1e-12 level.
    """
    x0 = 0.5 * period if x0 is None else x0
    sigma = rel_width * period
    x = np.arange(M) * (period / M)
    dx = x - x0
    u = np.exp(-(dx**2) / (2.0 * sigma**2)) * np.exp(1j * 2.0 * np.pi * mode * x / period)
    uhat = np.fft.fft(u)
    f = np.fft.fftfreq(M, d=1.0 / M).astype(int)
    uhat[np.abs(f) > band.F] = 0.0
    return GridFunction(period, np.fft.ifft(uhat))


def commutator_residual(A: np.ndarray, B: np.ndarray, target: np.ndarray,
                        vectors: list) -> float:
    """max_v ||(AB - BA - target) v|| / ||v|| over mode-space test vectors."""
    return max((float(np.linalg.norm(A @ (B @ v) - B @ (A @ v) - target @ v)
                      / np.linalg.norm(v)) for v in vectors), default=0.0)


def moyal_consistency(a: FormalSymbol, b: FormalSymbol, K: int,
                      u: GridFunction, band: BandLimit) -> dict:
    """Residuals eps(k) = ||Op(a)Op(b)u - Op((a#b)_{<=k})u||_2 / ||u||_2.

    The test function should be band-limited to about F/4; the report records
    the actual spectral tail so violations are visible.
    """
    M = u.size
    band.check(M)
    uhat = np.fft.fft(u.values)
    f = np.fft.fftfreq(M, d=1.0 / M).astype(int)
    inner = np.abs(f) <= band.F // 4
    tail = float(np.linalg.norm(uhat[~inner]) / max(np.linalg.norm(uhat), 1e-300))

    lhs = op_apply(a, op_apply(b, u, band), band)
    c = moyal_product(a, b, K)
    u2 = u.norm2()
    f = mode_numbers(band)
    xi = 2.0 * np.pi * f / u.period
    x = u.x()
    uf = uhat[np.mod(f, M)]
    E = np.exp(1j * np.outer(x, xi))
    eps = []
    # the truncations Op(c_{<=k})u of op_apply, sharing fields and phases
    for A in _symbol_fields(c, K, x, xi):
        rhs = GridFunction(u.period, (A * E) @ uf / M)
        eps.append(float(
            np.sqrt(np.sum(np.abs(lhs.values - rhs.values) ** 2) / M) / u2
        ))
    return {"eps": eps, "K": K, "band": band.F, "M": M,
            "period": u.period, "u_tail": tail}
