"""Host-speed calibration: a fixed kernel that uses no package code.

The benchmark runs on shared hosts where other tenants slow the whole CPU by
up to 60% for stretches of seconds to minutes, often for a whole run (one
fixed kernel's time went from 0.65 to 1.09 ms between consecutive runs).
Timings taken as they are then follow the host more than the code.  So
before every op the benchmark times this kernel, which does the same thing
every time and never calls into ``microlocal``, and divides the op's
latency by how slow the kernel ran around it (see ``harness.end_to_end``).
A change to the package moves the ops and not the kernel, so it shows in
full; a slow stretch of the host moves both and cancels.

The kernel has four parts, one for each kind of work the workloads do:
interpreter arithmetic, dict and tuple traffic over a few MiB of Python
objects, building a small tree of slotted nodes with memoised structural
keys (as expression trees are built), and numpy array streaming with an
FFT.  Each part's time is divided by its nominal time; the host's slowness
at that moment is the geometric mean of the four ratios.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Each part's median time between ops in benchmark runs on a 2-vCPU x86_64
# VM (Intel Xeon, Python 3.11, numpy 2).  Timings are reported in this unit:
# milliseconds as that machine gives them at its typical speed.
NOMINAL_S = (1.8e-4, 7.7e-4, 1.3e-4, 8.7e-4)


class _Node:
    __slots__ = ("kind", "children", "_key")

    def __init__(self, kind, children=()):
        self.kind = kind
        self.children = children
        self._key = None

    def key(self):
        if self._key is None:
            self._key = (self.kind, tuple(c.key() for c in self.children))
        return self._key


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._objs = [(i, str(i), [i]) for i in range(20000)]
        self._idx = rng.permutation(len(self._objs))[:1000].tolist()
        self._wave = np.linspace(0.0, 1.0, 8192)
        self._block = np.linspace(0.0, 1.0, 1 << 18)
        for _ in range(5):
            self.sample()

    def _arith(self):
        s = 0
        for i in range(3000):
            s += i * i
        return s

    def _objects(self):
        d = {}
        for j in self._idx:
            o = self._objs[j]
            d[o[1]] = (o[0], o[2][0])
        t = None
        for i in range(200):
            t = (t, i, i * 0.5)
        return len(d)

    def _tree(self):
        level = [_Node(i % 5) for i in range(40)]
        for depth in range(4):
            kind = "add" if depth % 2 else "mul"
            level = [_Node(kind, tuple(level[j:j + 3])) for j in range(0, len(level), 2)]
        groups = {}
        for node in level:
            groups.setdefault(hash(node.key()), []).append(node)
        return len(groups)

    def _arrays(self):
        w = self._wave
        np.fft.fft(np.sin(3.0 * w) + np.exp(-w))
        return float((1.5 * self._block + 0.5).sum())

    def sample(self) -> float:
        """Time each part once; the host's slowness relative to nominal."""
        log_ratio = 0.0
        parts = (self._arith, self._objects, self._tree, self._arrays)
        for part, nominal in zip(parts, NOMINAL_S):
            t0 = time.perf_counter()
            part()
            log_ratio += math.log((time.perf_counter() - t0) / nominal)
        return math.exp(log_ratio / len(NOMINAL_S))
