"""Independent oracles for the benchmark's checks.

The symbol-calculus oracles rebuild star products, Moyal inverses and total
symbols from Taylor jets at sampled points (``microlocal.jets`` propagates
exact Taylor coefficients), never from the symbolic derivatives
(``expr.diff``) the kernels under test build their trees with.  The Szego
oracles are closed forms (n = 1, 3) and high-precision radial quadrature
(n = 2).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from microlocal import expr as ex
from microlocal.jets import jet_batch_from_expr
from microlocal.multiindex import index_of


def jets(coeffs, pts: np.ndarray, order: int) -> list:
    """Jet tables (n_idx, B) of each coefficient at the sample points."""
    return [jet_batch_from_expr(c, pts, order) for c in coeffs]


def star_by_jets(ja: list, jb: list, K: int, order: int) -> list:
    """(a#b)_k, k <= K, at the points of the jet tables (dim 1).

    (a#b)_k = sum_{n+l+m=k} (-i)^n/n! d_xi^n a_l d_x^n b_m, and a jet entry
    at alpha is d^alpha f / alpha!, so each term is (-i)^n n! A[(0,n)] B[(n,0)].
    """
    out = []
    for k in range(K + 1):
        acc = 0.0
        for n in range(k + 1):
            for l in range(k - n + 1):
                A = ja[l][index_of((0, n), order)]
                B = jb[k - n - l][index_of((n, 0), order)]
                acc = acc + (-1j) ** n * math.factorial(n) * A * B
        out.append(acc)
    return out


def adjoint_star_by_jets(jb: list, K: int, order: int) -> list:
    """(b* # b)_k at real sample points, k <= K, from jets of b of order 2K.

    (b*)_l = sum_mu (-i)^mu/mu! d_x^mu d_xi^mu conj(b_{l-mu}), so
    d_xi^n (b*)_l = sum_mu (-i)^mu (mu+n)! conj(B_{l-mu}[(mu, mu+n)]).
    """
    out = []
    for k in range(K + 1):
        acc = 0.0
        for n in range(k + 1):
            for l in range(k - n + 1):
                dstar = 0.0
                for mu in range(l + 1):
                    dstar = dstar + (-1j) ** mu * math.factorial(mu + n) * np.conj(
                        jb[l - mu][index_of((mu, mu + n), order)])
                acc = acc + (-1j) ** n * dstar * jb[k - n - l][index_of((n, 0), order)]
        out.append(acc)
    return out


def total_symbol_by_jets(amp_coeffs, x: np.ndarray, xi: np.ndarray, K: int) -> list:
    """Left total symbol b_j(x, xi), j <= K, of an (x, xi, y) amplitude.

    b_j = sum_m (-i)^m/m! (d_y^m d_xi^m a_{j-m})(x, xi, x); jets are taken at
    (x, xi, y = x), where the entry at (0, m, m) is that derivative / m!^2.
    """
    order = 2 * K
    pts = np.stack([x, xi, x])
    ja = jets(amp_coeffs, pts, order)
    out = []
    for j in range(K + 1):
        acc = 0.0
        for m in range(j + 1):
            acc = acc + (-1j) ** m * math.factorial(m) * ja[j - m][index_of((0, m, m), order)]
        out.append(acc)
    return out


def values(coeffs, pts: np.ndarray) -> list:
    return [ex.evaluate(c, list(pts)) for c in coeffs]


def max_dev(got: list, want: list) -> float:
    """Largest |got - want| over coefficients and points, relative to
    max(1, |want|)."""
    scale = max(1.0, max(float(np.max(np.abs(w))) for w in want))
    return max(float(np.max(np.abs(np.asarray(g) - w))) for g, w in zip(got, want)) / scale


# -- Szego kernel ---------------------------------------------------------------


def szego1_closed(v: complex) -> complex:
    """n = 1 kernel: the sech Fourier pair, K(v) = sech(pi v / 4) / 8."""
    return 0.125 / np.cosh(math.pi * v / 4.0)


def szego3_closed(s: np.ndarray, dps: int = 20) -> np.ndarray:
    """n = 3 kernel in closed form.  The radial integral is the image sum
    (2 pi)^-3 (4/s) sum_k [(2+4k-s)^-3 - (2+4k+s)^-3], and
    sum_k (a+4k)^-3 = -psi''(a/4)/128, so
    K = (2 pi)^-3 (4/s) (psi''((2+s)/4) - psi''((2-s)/4)) / 128."""
    out = []
    with mpmath.workdps(dps):
        for sv in np.asarray(s, dtype=complex).ravel():
            sm = mpmath.mpc(sv.real, sv.imag)
            val = (4 / sm) * (mpmath.psi(2, (2 + sm) / 4) - mpmath.psi(2, (2 - sm) / 4)) / 128
            out.append(complex(val / (2 * mpmath.pi) ** 3))
    return np.array(out)


def szego2_mpmath(s: complex, dps: int = 20) -> complex:
    """n = 2 kernel as the radial integral (2 pi)^-2 int_0^oo r I0(rs)/I0(2r) dr
    (m_2(z) = 2 pi I0(z) in the radial argument), by mpmath quadrature."""
    with mpmath.workdps(dps):
        sm = mpmath.mpc(s.real, s.imag)
        f = lambda r: r * mpmath.besseli(0, r * sm) / mpmath.besseli(0, 2 * r)
        nodes = [0, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, mpmath.inf]
        return complex(mpmath.quad(f, nodes) / (2 * mpmath.pi) ** 2)
