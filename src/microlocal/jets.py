"""Truncated multivariate Taylor jets with exact forward propagation.

A jet of order K at a center point stores the Taylor coefficients
``coeff[alpha] = d^alpha f(center) / alpha!`` for all ``|alpha| <= K`` in the
graded-lexicographic layout of :mod:`microlocal.multiindex`.  Jets of
expression trees are computed by propagating the arithmetic through the tree;
no finite differences are involved anywhere, so high-order derivatives keep
full double precision (up to truncated-series conditioning).

All arithmetic is complex.  :func:`jet_from_expr` returns the coefficient
array ``(n_idx,)`` of one center; :func:`jet_batch_from_expr` evaluates one
expression, or a sequence of them, at many centers at once, and its
coefficients carry a trailing batch axis.

A product is one gather and one segment sum over the target-sorted
:func:`microlocal.multiindex.mul_table`; a quotient solves that table degree
by degree.  A call propagates each subtree that recurs (by structural
equality, also across a sequence) once and drops its jet after its last use,
so one array may serve several nodes: jets are read-only once computed.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import expr as ex
from .multiindex import count, factorial_multi, index_of, mul_table, multi_indices

__all__ = ["jet_from_expr", "jet_batch_from_expr"]


# ---------------------------------------------------------------------------
# raw coefficient-array kernels; arrays have shape (n_idx,) + batch
# ---------------------------------------------------------------------------


def _zero(dim, order, batch):
    return np.zeros((count(dim, order),) + batch, dtype=complex)


def _jmul(a, b, dim, order):
    ia, ib, _, starts = mul_table(dim, order)
    return np.add.reduceat(a[ia] * b[ib], starts[:-1], axis=0)


def _jdiv(a, b, dim, order):
    # b_0 c_q = a_q - sum_{beta != 0} b_beta c_{q-beta}, one degree's run of the product
    # table at a time (its beta = 0 triples meet c_q still zero); the caller checked b_0.
    ia, ib, _, starts = mul_table(dim, order)
    out = np.zeros_like(a)
    for deg in range(order + 1):
        lo, hi = count(dim, deg - 1), count(dim, deg)
        t0, t1 = starts[lo], starts[hi]
        s = np.add.reduceat(out[ia[t0:t1]] * b[ib[t0:t1]], starts[lo:hi] - t0, axis=0)
        out[lo:hi] = (a[lo:hi] - s) / b[0]
    return out


def _jpowi(a, n, dim, order):
    if n == 0:
        out = np.zeros_like(a)
        out[0] = 1.0
        return out
    if n < 0:
        inv = _jdiv(_const_like(a, 1.0), a, dim, order)
        return _jpowi(inv, -n, dim, order)
    result = None
    base = a
    while n:
        if n & 1:
            result = base if result is None else _jmul(result, base, dim, order)
        n >>= 1
        if n:
            base = _jmul(base, base, dim, order)
    return result


def _const_like(a, c):
    out = np.zeros_like(a)
    out[0] = c
    return out


def _compose_series(fk, w, dim, order):
    """Horner evaluation of sum_k fk[k] * w^k with w[0] == 0.

    ``fk`` has shape (order+1,) + batch and holds f^(k)(w0)/k!.
    """
    out = _const_like(w, 0.0)
    out[0] = fk[order]
    for k in range(order - 1, -1, -1):
        out = _jmul(out, w, dim, order)
        out[0] += fk[k]
    return out


def _univariate_coeffs(kind, w0, order, p):
    """Taylor coefficients f^(k)(w0)/k!, k = 0..order, vectorised over w0.

    ``f`` is the analytic primitive ``kind``, or w**p for ``powr``.  Every
    primitive but log follows its derivative chain in ``expr._ANALYTIC``.
    """
    fk = np.zeros((order + 1,) + w0.shape, dtype=complex)
    if kind == "powr":
        falling = 1.0
        for k in range(order + 1):
            fk[k] = falling * w0 ** (p - k) / math.factorial(k)
            falling *= p - k
        return fk
    fn, deriv = ex._ANALYTIC[kind]
    if deriv is None:  # log: f^(k)(w0)/k! = (-1)^(k-1) / (k w0^k)
        fk[0] = fn(w0)
        ipow = np.ones_like(w0)
        for k in range(1, order + 1):
            ipow = ipow / w0
            fk[k] = ((-1.0) ** (k - 1)) / k * ipow
        return fk
    sign = 1
    for k in range(order + 1):
        v = fn(w0)
        fk[k] = (v if sign > 0 else -v) / math.factorial(k)
        step, kind = deriv
        sign *= step
        fn, deriv = ex._ANALYTIC[kind]
    return fk


def _compose_unary(kind, a, dim, order, p):
    fk = _univariate_coeffs(kind, a[0].copy(), order, p)
    w = a.copy()
    w[0] = 0.0
    return _compose_series(fk, w, dim, order)


def _shared(roots) -> dict:
    """``{subtree: [uses, None]}`` for each subtree reached more than once:
    per root occurrence and per child slot of each distinct parent (a shared
    parent is propagated once).  Iterative, so it adds no depth."""
    uses = {}
    stack = list(roots)
    while stack:
        e = stack.pop()
        n = uses.get(e, 0)
        uses[e] = n + 1
        if not n:
            stack.extend(e.children)
    return {e: [n, None] for e, n in uses.items() if n > 1}


def _propagate(e: ex.Expr, centers: np.ndarray, dim: int, order: int, memo: dict):
    """Forward jet propagation; centers has shape (dim,) + batch.  ``memo``
    (:func:`_shared`'s, or ``{}`` for none) holds a shared subtree's jet from
    its first use to its last, looked up here to keep one frame per level."""
    hit = memo.get(e) if memo else None
    if hit is not None:
        hit[0] -= 1
        if hit[1] is not None:
            if not hit[0]:
                del memo[e]
            return hit[1]
    batch = centers.shape[1:]
    k = e.kind
    if k == "const":
        out = _zero(dim, order, batch)
        out[0] = e.payload
    elif k == "var":
        ex.check_var(e, dim)
        i = e.payload
        out = _zero(dim, order, batch)
        out[0] = centers[i]
        if order >= 1:
            unit = tuple(1 if j == i else 0 for j in range(dim))
            out[index_of(unit, order)] = 1.0
    elif k == "add":
        out = _propagate(e.children[0], centers, dim, order, memo)
        for c in e.children[1:]:
            out = out + _propagate(c, centers, dim, order, memo)
    elif k == "mul":
        out = _propagate(e.children[0], centers, dim, order, memo)
        for c in e.children[1:]:
            out = _jmul(out, _propagate(c, centers, dim, order, memo), dim, order)
    elif k == "norm":
        s = None
        for c in e.children:
            jc = _propagate(c, centers, dim, order, memo)
            sq = _jmul(jc, jc, dim, order)
            s = sq if s is None else s + sq
        ex.check_domain(e, np.sqrt(s[0]))
        out = _compose_unary("powr", s, dim, order, 0.5)
    else:
        a = _propagate(e.children[0], centers, dim, order, memo)
        if k == "div":
            b = _propagate(e.children[1], centers, dim, order, memo)
            ex.check_domain(e, b[0])
            out = _jdiv(a, b, dim, order)
        else:
            ex.check_domain(e, a[0])
            out = (_jpowi(a, e.payload, dim, order) if k == "powi"
                   else _compose_unary(k, a, dim, order, e.payload))
    if hit is not None:
        hit[1] = out
    return out


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def jet_from_expr(e: ex.Expr, center, order: int) -> np.ndarray:
    """Order-``order`` Taylor jet of ``e`` at one ``center``.

    Returns the (n_idx,) coefficient array in the graded-lexicographic
    layout.  The center must lie in the domain of ``e``; singular nodes raise
    :class:`microlocal.expr.DomainError` naming the offending node.
    """
    center = np.asarray(center, dtype=complex).reshape(-1, 1)
    return _propagate(e, center, center.shape[0], int(order), _shared([e]))[:, 0]


def jet_batch_from_expr(e: ex.Expr | Sequence[ex.Expr], centers,
                        order: int) -> np.ndarray | list[np.ndarray]:
    """Jet coefficients of ``e`` at many centers.

    ``centers`` has shape (dim, B); the result has shape (n_idx, B) in the
    graded-lexicographic layout.  ``e`` may also be a sequence of Exprs:
    the result is then a list with one such array per expression, and a
    subtree they share is propagated once for all of them.
    """
    centers = np.asarray(centers, dtype=complex)
    if centers.ndim != 2:
        raise ValueError("centers must have shape (dim, B)")
    roots = [e] if isinstance(e, ex.Expr) else list(e)
    memo = _shared(roots)
    out = [_propagate(r, centers, centers.shape[0], int(order), memo) for r in roots]
    return out[0] if isinstance(e, ex.Expr) else out


def gradient_norms(coeffs: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Euclidean derivative norms |grad^j f| for j = 0..order.

    Uses the convention |grad^j f| = sqrt(sum_{|alpha|=j} |d^alpha f|^2).
    ``coeffs`` has shape (n_idx,) + batch; result (order+1,) + batch.
    """
    idx = multi_indices(dim, order)
    batch = coeffs.shape[1:]
    out = np.zeros((order + 1,) + batch)
    for i, alpha in enumerate(idx):
        j = sum(alpha)
        d = coeffs[i] * factorial_multi(alpha)
        out[j] += np.abs(d) ** 2
    return np.sqrt(out)
