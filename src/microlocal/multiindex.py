"""Graded-lexicographic multi-index enumeration.

The coefficient layout of every jet in this package follows this module:
multi-indices alpha in N^d with |alpha| <= K are listed by increasing total
degree and, within a degree, in ascending lexicographic order of the tuple.
This map is part of the public contract so stored coefficient tables remain
portable.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["multi_indices", "index_of", "count", "factorial_multi"]


@lru_cache(maxsize=None)
def multi_indices(dim: int, order: int) -> tuple:
    """All alpha in N^dim with |alpha| <= order, graded lexicographic."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    out = []
    for total in range(order + 1):
        out.extend(_fixed_degree(dim, total))
    return tuple(out)


def _fixed_degree(dim: int, total: int) -> list:
    if dim == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _fixed_degree(dim - 1, total - first):
            out.append((first,) + rest)
    return out


@lru_cache(maxsize=None)
def _index_map(dim: int, order: int) -> dict:
    return {a: i for i, a in enumerate(multi_indices(dim, order))}


def index_of(alpha: tuple, order: int) -> int:
    """Position of alpha in multi_indices(len(alpha), order)."""
    return _index_map(len(alpha), order)[tuple(int(a) for a in alpha)]


def count(dim: int, order: int) -> int:
    """C(order + dim, dim), the table length."""
    return math.comb(order + dim, dim)


def factorial_multi(alpha) -> float:
    """alpha! = prod(alpha_i!)."""
    out = 1.0
    for a in alpha:
        out *= math.factorial(int(a))
    return out


@lru_cache(maxsize=None)
def mul_table(dim: int, order: int):
    """Index triples (ia, ib, ic) with alpha_ia + alpha_ib = alpha_ic, and starts.

    Used for truncated Taylor multiplication: c[ic] = sum of a[ia] * b[ib]
    over the segment starts[ic]:starts[ic + 1] of target ic.  The triples
    are stably sorted by ic, so a segment lists its pairs by ascending ia and
    ends with the pair (ic, 0).  Returned as four int arrays.
    """
    idx = multi_indices(dim, order)
    imap = _index_map(dim, order)
    ia, ib, ic = [], [], []
    for i, a in enumerate(idx):
        da = sum(a)
        for j, b in enumerate(idx):
            if da + sum(b) > order:
                continue
            c = tuple(x + y for x, y in zip(a, b))
            ia.append(i)
            ib.append(j)
            ic.append(imap[c])
    perm = np.argsort(ic, kind="stable")
    ic = np.array(ic)[perm]
    starts = np.searchsorted(ic, np.arange(len(idx) + 1))
    return np.array(ia)[perm], np.array(ib)[perm], ic, starts
