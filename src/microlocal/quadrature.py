"""Composite Gauss-Legendre quadrature on a list of panel edges."""

from __future__ import annotations

import numpy as np

__all__ = ["gauss_panels"]


def gauss_panels(edges, order: int) -> tuple:
    """Nodes and weights of the ``order``-point Gauss-Legendre rule mapped onto
    every panel [edges[i], edges[i+1]], flattened in panel order.

    Exact for polynomials of degree below 2 * order on each panel.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * nodes).ravel(), (half * weights).ravel()
