"""Workload ``szego``: Szego kernel batches and CLI experiment runs.

Mirrors C1 (sphere-moment asymptotics through ``mn-asym``), C2 (Szego
reproduction) and C10-style artifact writes.  Nearly all of its time goes to
``cylinder``'s ``ive`` radial quadrature, none to ``expr`` or jets.  The
n = 2 cost of a batch is set by its point with the smallest Re(2 - s), so the
batches come in two kinds: polar grids around a seeded tube point, drawn
like C2's n = 2 reproduction grid, which mix near-diagonal and far points;
and far-only batches, where a chunking or asymptotic-tail change should
show no effect.  The experiment ops (``mn-asym``, ``szego-fio``,
``szego-reproduce`` at n = 1) run through ``cli.run_subcommand`` into a
scratch directory and exercise ``cli`` and ``reports`` beside the kernels.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

from microlocal import cli
from microlocal import cylinder as cy

import oracles as orc
from harness import Op, Workload, need

SCRATCH = Path(__file__).resolve().parent / "out" / "tmp"
TOL_SECH = 1e-8          # n = 1 against the sech Fourier pair
TOL_CONJ = 1e-9          # K(w, z) = conj K(z, w)
TOL_SERIES = 1e-8        # n = 3 against its closed form (the series test's)
SYMMETRY_POINTS = 4
TOL_QUAD = 1e-6          # against high-precision radial quadrature
_dirs = itertools.count()


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def polar_batch(rng, n: int, points: int, r_lo: float, r_hi: float):
    """z and w's around a seeded tube point z = x + i beta omega.

    Radii are log-uniform in [r_lo, r_hi] (C2 grades its radial nodes toward
    the centre the same way); w = x' + i omega' with omega' uniform on the
    sphere.  Returns z, the (n, B) array of w, and v = z - conj(w).
    """
    omega = _unit(rng, n)
    z = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(0.88, 0.92) * omega
    r = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), points))
    dirs = np.stack([_unit(rng, n) for _ in range(points)], axis=1)
    om2 = np.stack([_unit(rng, n) for _ in range(points)], axis=1)
    w = z.real[:, None] + r * dirs + 1j * om2
    return z, w, z[:, None] - np.conj(w)


def _symmetry_pairs(n, z, w, K, js):
    """K(w_j, z) = conj K(z, w_j) at seeded points of the batch; each point
    is evaluated on its own, so its quadrature nodes differ from the batch's."""
    out = []
    for j in js:
        Kt = cy.szego_kernel(n, w[:, j], z)
        out.append((abs(Kt - np.conj(K[j])), TOL_CONJ * max(abs(K[j]), 1.0)))
    return out


def _quad_check(v, K, j):
    s = complex(cy.radial_s(v[:, j:j + 1])[0])
    return lambda: [(abs(K[j] - orc.szego2_mpmath(s)) / abs(K[j]), TOL_QUAD)]


def _peak_rel(K, ref) -> float:
    """Largest |K - ref| relative to the batch's largest |ref|: far points
    carry kernel values many orders below the near-diagonal ones."""
    return float(np.max(np.abs(K - ref)) / np.max(np.abs(ref)))


def op_kernel(rng, n, kind, points, late_quad):
    r_lo, r_hi = (0.02, 9.0) if kind == "polar" else (3.0, 9.0)
    z, w, v = polar_batch(rng, n, points, r_lo, r_hi)
    js = rng.choice(points, SYMMETRY_POINTS, replace=False)

    def check(K):
        pairs = [need(bool(np.all(np.isfinite(K))))]
        if n == 1:
            ref = orc.szego1_closed(v[0])
            pairs.append((float(np.max(np.abs(K - ref) / np.abs(ref))), TOL_SECH))
        elif n == 3:
            pairs.append((_peak_rel(K, orc.szego3_closed(cy.radial_s(v))), TOL_SERIES))
        else:
            pairs.extend(_symmetry_pairs(n, z, w, K, js))
        return pairs

    def late(K):
        # the batch's point nearest the diagonal s = 2, where C2's
        # reproduction lives and the radial integrand does not oscillate
        return _quad_check(v, K, int(np.argmin(np.abs(2.0 - cy.radial_s(v)))))
    return Op(f"szego.n{n}.{kind}", lambda: cy.szego_kernel_batch(n, v), check,
              late if late_quad else None)


def _artifacts(out_dir: Path) -> dict:
    return {p.name: json.loads(p.read_text()) if p.suffix == ".json" else p.read_bytes()
            for p in sorted(out_dir.iterdir())}


def op_experiment(rng, sub, n=1):
    if sub == "mn-asym":
        cfg = {"n": str(n), "r_min": repr(rng.uniform(19.5, 20.5)),
               "r_max": repr(rng.uniform(98.0, 102.0)), "r_count": "25"}
    elif sub == "szego-fio":
        cfg = {"n": "1"}
    else:
        cfg = {"n": "1", "beta": repr(rng.uniform(0.95, 0.995)),
               "zeta1": repr(rng.uniform(0.3, 0.7)), "tol": "1e-4"}
    seed = int(rng.integers(1 << 30))
    out_dir = SCRATCH / f"{sub}-{next(_dirs)}"

    def run():
        return cli.run_subcommand(sub, cfg, out_dir, seed)

    def check(passed):
        arts = _artifacts(out_dir)
        shutil.rmtree(out_dir)
        man = arts["manifest.json"]
        pairs = [need(passed and man["pass"] and man["outputs"] ==
                      sorted(k for k in arts if k != "manifest.json"))]
        if sub == "szego-reproduce":
            rep = arts["szego_reproduce.json"]
            pairs.append((rep["max_rel_err"], rep["tol"]))
        elif sub == "szego-fio":
            rep = arts["szego_fio.json"]
            pairs.append((rep["rel_diff_at_0.3"], 0.05))
            pairs.append((abs(rep["scaling_ratio"] / rep["scaling_target"] - 1.0), 0.1))
        elif arts["mn_asym_fit.json"]["n_samples"] > 0:
            pairs.append((arts["mn_asym_fit.json"]["fit_quality"], 0.25))
        return pairs
    return Op(f"cli.{sub}" + (f".n{n}" if sub == "mn-asym" else ""), run, check)


# The median falls in the middle of the 50-80 ms group (n = 3 batches and
# szego-reproduce, six slots with seven slower and seven faster ones) and
# the 90th percentile inside the n = 2 polar batches.
_SLOTS = ([("kernel", (2, "polar", 64))] * 4 + [("kernel", (2, "far", 64))] * 3
          + [("kernel", (3, "polar", 64))] * 3 + [("experiment", ("szego-reproduce",))] * 3
          + [("kernel", (1, "polar", 512))] * 3
          + [("experiment", ("mn-asym", n)) for n in (1, 2, 3)]
          + [("experiment", ("szego-fio",))])
_SLOTS = random.Random(0).sample(_SLOTS, len(_SLOTS))


def make_pass(seed: int, index: int) -> list:
    """One pass; on the first, the first two n = 2 polar batches also get an
    mpmath check of their nearest-diagonal point after the timed loop."""
    rng = np.random.default_rng([seed, index])
    quad_left = 2 if index == 0 else 0
    ops = []
    for kind, args in _SLOTS:
        if kind == "kernel":
            late = quad_left > 0 and args[:2] == (2, "polar")
            quad_left -= late
            ops.append(op_kernel(rng, *args, late_quad=late))
        else:
            ops.append(op_experiment(rng, *args))
    return ops


def warmup():
    """One point per kernel dimension: fills the panel rules and Bessel paths."""
    for n in (1, 2, 3):
        v = np.zeros((n, 1), dtype=complex)
        v[-1, 0] = 1.9j
        cy.szego_kernel_batch(n, v)


WORKLOAD = Workload(make_pass, warmup)
