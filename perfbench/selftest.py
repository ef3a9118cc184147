#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gates.

    python3 perfbench/selftest.py

For each workload, one pass runs with one result corrupted before its
oracle check: a Moyal coefficient gains an extra term (symbol-algebra), a
fiber integral is scaled by 1 + 1e-3 (grid-oracles), a Szego kernel batch
is scaled by 1 + 1e-3 (szego).  The test passes when exactly that op fails
its check, every other op passes, and the failure shows in the run's
verified fraction (``failed_frac`` = 1 - ``verified_frac``).  Exits 1
otherwise.
"""

from __future__ import annotations

import sys

import run


def _extra_term(sym):
    from microlocal import expr as ex
    from microlocal.symbols import FormalSymbol

    coeffs = list(sym.coeffs)
    coeffs[1] = ex.add(coeffs[1], ex.mul(1e-3, ex.var(0)))
    return FormalSymbol(sym.dim, sym.d0, sym.order, tuple(coeffs))


CASES = {
    "symbol-algebra": ("moyal_product.K2", _extra_term),
    "grid-oracles": ("fbi_fiber_integral", lambda F: F * (1.0 + 1e-3)),
    "szego": ("szego.n1.polar", lambda K: K * (1.0 + 1e-3)),
}


def main() -> int:
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import harness

    ok = True
    for name, (target, corrupt_fn) in CASES.items():
        workload = run.load_workload(name)
        hit = []

        def corrupt(index, op, out):
            if op.cls == target and not hit:
                hit.append(index)
                return corrupt_fn(out)
            return out

        records, _, classes = harness.run_ops(workload, seed=0, budget_s=0.0, corrupt=corrupt)
        failed = [i for i, r in enumerate(records) if not r.ok]
        frac = 1.0 - harness.end_to_end(records, classes)["verified_frac"][0]
        good = failed == hit and len(hit) == 1 and frac > 0
        ok &= good
        print(f"{name}: corrupted {target} at op {hit}, failed ops {failed}, "
              f"failed_frac {frac:.4f} -> {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
