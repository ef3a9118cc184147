"""Composite Gauss-Legendre quadrature on a list of panel edges."""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["gauss_rule", "gauss_panels"]


@functools.lru_cache(maxsize=32)
def gauss_rule(order: int) -> tuple:
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on [-1, 1],
    as ``np.polynomial.legendre.leggauss`` gives them, built once per order.

    The arrays are shared between callers, so they are read-only.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_panels(edges, order: int) -> tuple:
    """Nodes and weights of the ``order``-point Gauss-Legendre rule mapped onto
    every panel [edges[i], edges[i+1]], flattened in panel order.

    Exact for polynomials of degree below 2 * order on each panel.
    """
    nodes, weights = gauss_rule(order)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * nodes).ravel(), (half * weights).ravel()
