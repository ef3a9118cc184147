"""Batch command-line front end.

Every experiment is a subcommand producing CSV/JSON artifacts plus a
``manifest.json`` tying the run to its inputs:

    microlocal run <subcommand> [--config file] [--out dir] [--seed int]
    microlocal verify [--suite fast|full] [--out dir]

Config files are flat ``key=value`` text (one pair per line, ``#`` comments);
unknown keys are rejected.  All outputs are reproducible from
(config, seed): summation orders are fixed and floats are printed with 17
significant digits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import expr as ex
from .acceptance import (TOLERANCES, borel_realisation_gap, mn_fit_verdict, verify_all,
                         worst_transport_residual)
from .reports import write_csv, write_json


class ConfigError(ValueError):
    pass


def parse_config(path: str | None) -> dict:
    if path is None:
        return {}
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _typed(config: dict, schema: dict) -> dict:
    unknown = set(config) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, (typ, default) in schema.items():
        if key in config:
            raw = config[key]
            try:
                out[key] = typ(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        else:
            out[key] = default
    return out


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------


def _run_mn_asym(params, out, seed):
    from .cylinder import eval_mn_scaled, fit_mn_remainder, mn_partial_sum_scaled

    n, J = params["n"], params["J"]
    r = np.geomspace(params["r_min"], params["r_max"], params["r_count"])
    exact = eval_mn_scaled(n, r.astype(complex)).real
    rows = []
    for i, ri in enumerate(r):
        row = [ri, exact[i]]
        for j in range(J + 1):
            p = float(mn_partial_sum_scaled(n, j, np.array([ri + 0j]))[0].real)
            row.extend([p, abs(exact[i] - p)])
        rows.append(row)
    header = ["r", "exact"]
    for j in range(J + 1):
        header.extend([f"partial_J{j}", f"residual_J{j}"])
    write_csv(out / "mn_asym.csv", header, rows)
    fit = fit_mn_remainder(n, J, r)
    passed, _ = mn_fit_verdict(fit)
    write_json(out / "mn_asym_fit.json", {
        "n": n, "J": J, "C": fit["C"], "rho": fit["rho"],
        "fit_quality": fit["fit_quality"], "n_samples": fit["n_samples"],
        "pass": passed,
    })
    return passed, {"fit_quality": fit["fit_quality"]}


def _run_szego_reproduce(params, out, seed):
    from .cylinder import reproduce_test

    n = params["n"]
    if n == 1:
        pts = [(np.array([0.0]), np.array([1.0]), params["beta"]),
               (np.array([0.7]), np.array([-1.0]), params["beta"])]
        zeta = [params["zeta1"]]
    elif n == 2:
        pts = [(np.array([0.0, 0.0]), np.array([0.0, 1.0]), params["beta"])]
        zeta = [params["zeta1"], params["zeta2"]]
    else:
        raise ConfigError("szego-reproduce supports n in {1, 2}")
    rep = reproduce_test(n, zeta, pts, tol=params["tol"])
    rows = [[i, r["rel_err"], r["tail_estimate"], r["beta"]]
            for i, r in enumerate(rep["rows"])]
    write_csv(out / "szego_reproduce.csv",
              ["point", "rel_err", "tail_estimate", "beta"], rows)
    write_json(out / "szego_reproduce.json", {
        "n": n, "max_rel_err": rep["max_rel_err"], "tol": rep["tol"],
        "x_cut": rep["x_cut"], "decay_rate": rep["decay_rate"], "pass": rep["pass"],
    })
    return rep["pass"], {"max_rel_err": rep["max_rel_err"]}


def _run_szego_fio(params, out, seed):
    from .cylinder import szego_fio_form, szego_kernel

    n = params["n"]
    omega = np.zeros(n)
    omega[-1] = 1.0
    rows = []
    for dist in (0.3, 0.2, 0.1):
        z = np.zeros(n) + 1j * omega
        w = dist * omega + 1j * omega
        rep = szego_fio_form(n, z, w)
        rows.append([dist, rep["rel_diff"], rep["im_psi"],
                     rep["kernel"].real, rep["model"].real])
    vals = []
    for dist in (0.1, 0.05):
        z = np.zeros(n) + 1j * omega
        w = dist * omega + 1j * omega
        vals.append(abs(szego_kernel(n, z, w)))
    ratio = vals[1] / vals[0]
    write_csv(out / "szego_fio.csv",
              ["dist", "rel_diff", "im_psi", "kernel_re", "model_re"], rows)
    passed = (rows[0][1] <= TOLERANCES["rel_diff"]
              and abs(ratio / 2.0**n - 1.0) <= TOLERANCES["scaling_ratio"])
    write_json(out / "szego_fio.json", {
        "n": n, "rel_diff_at_0.3": rows[0][1],
        "scaling_ratio": ratio, "scaling_target": 2.0**n, "pass": passed,
    })
    return passed, {"rel_diff": rows[0][1], "ratio": ratio}


def _run_moyal_check(params, out, seed):
    from .quantize import BandLimit, moyal_consistency, windowed_mode
    from .symbols import FormalSymbol

    L, M, F = params["L"], params["M"], params["F"]
    band = BandLimit(F)
    x, xi = ex.var(0), ex.var(1)
    a = FormalSymbol(1, 1.0, 1, (xi, ex.ZERO))
    b = FormalSymbol(1, 0.0, 1, (x, ex.ZERO))
    u = windowed_mode(L, M, params["u_mode"], BandLimit(F // 4))
    rep = moyal_consistency(a, b, 1, u, band)
    passed = rep["eps"][1] <= TOLERANCES["eps1"]
    write_json(out / "moyal_check.json", {
        "pair": "xi,x", "eps": rep["eps"], "band": F, "M": M,
        "u_tail": rep["u_tail"], "pass": passed,
    })
    rows = [[k, e] for k, e in enumerate(rep["eps"])]
    write_csv(out / "moyal_check.csv", ["K", "eps"], rows)
    return passed, {"eps1": rep["eps"][1]}


def _run_borel_demo(params, out, seed):
    from .borel import cutoff_csv_rows, ehrenpreis_cutoffs

    fam_cert = ehrenpreis_cutoffs((0.0, 1.0), (2.0, 3.0), 8)
    header, grid_rows = cutoff_csv_rows(fam_cert, 8, stride=4)
    write_csv(out / "cutoff_grid.csv", header, grid_rows)
    theta = np.geomspace(params["theta_min"], params["theta_max"], params["theta_count"])
    prof, gap_rate, passed = borel_realisation_gap(params["c"], params["N"], theta)
    rows = []
    for n in range(params["N"] + 1):
        for i, t in enumerate(theta):
            rows.append([n, t, prof["residuals"][n, i]])
    write_csv(out / "borel_residuals.csv", ["N", "theta", "residual"], rows)
    write_json(out / "borel_fit.json", {
        "C": prof["C"], "rho": prof["rho"], "fit_quality": prof["fit_quality"],
        "gap_rate": gap_rate, "pass": passed,
    })
    return passed, {"fit_quality": prof["fit_quality"], "gap_rate": gap_rate}


def _run_statphase_cert(params, out, seed):
    from .statphase import remainder_certificate

    u = ex.parse_sexpr(params["u"])
    rep = remainder_certificate(u, params["d"], params["lam"], params["N"],
                                bound_scale=params["bound_scale"])
    write_json(out / "statphase_cert.json", {
        "d": rep["d"], "lam": rep["lam"], "N": rep["N"],
        "expansion": rep["expansion"], "oracle": rep["oracle"],
        "residual": rep["residual"], "bound": rep["bound"],
        "pass": rep["pass"],
    })
    return rep["pass"], {"residual": rep["residual"], "bound": rep["bound"]}


def _load_fbi_data(spec: str):
    """Named builtin, or a path to a two-column samples file (y, value)."""
    from .fbi import PiecewiseFunction, builtin_function

    try:
        return builtin_function(spec)
    except ValueError:
        pass
    path = Path(spec)
    if not path.exists():
        raise ConfigError(f"u must be a builtin name or a samples file, got {spec!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return PiecewiseFunction.from_samples(data[:, 0], data[:, 1])


def _run_fbi_wavefront(params, out, seed):
    from .fbi import fiber_integral, wavefront_probe

    u = _load_fbi_data(params["u"])
    probes = [(0.0, 1.0), (0.0, -1.0), (0.5, 1.0), (-0.5, 1.0), (1.5, 1.0)]
    t = np.geomspace(params["t_min"], params["t_max"], params["t_count"])
    rows = []
    summary = []
    for (xp, om) in probes:
        F = fiber_integral(u, xp, om, t)
        for ti, fi in zip(t, np.abs(F)):
            rows.append([xp, om, ti, fi])
        fit = wavefront_probe(u, xp, om, (params["t_min"], params["t_max"]))
        summary.append({"x": xp, "omega": om, **fit.to_dict()})
    write_csv(out / "fbi_wavefront.csv", ["x", "omega", "t", "absF"], rows)
    write_json(out / "fbi_classify.json", {"u": params["u"], "probes": summary})
    return True, {"probes": len(probes)}


def _parse_jet_rhs(spec: str, K: int, N: int):
    """Parse 'k,n:SEXPR;k,n:SEXPR;...' into a JetSymbol right-hand side."""
    from .normalform import JetSymbol

    g = JetSymbol(K, N)
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, _, body = chunk.partition(":")
        try:
            k_s, n_s = head.split(",")
            g.set(int(k_s), int(n_s), ex.parse_sexpr(body))
        except ValueError as exc:
            raise ConfigError(f"bad g entry {chunk!r}: {exc}") from exc
    return g


def _run_normalform_demo(params, out, seed):
    from .normalform import (Quantize2D, commutator_check, order0_pde_residual,
                             random_jet_rhs, solve_order0)

    r0 = ex.parse_sexpr(params["r0"])
    a0 = solve_order0(r0)
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.uniform(-0.3, 0.3, (2, 10)), rng.uniform(-0.5, 0.5, (2, 10))])
    pde_res = order0_pde_residual(a0, r0, pts)
    if params["g"]:
        g = _parse_jet_rhs(params["g"], params["K"], params["N"])
    else:
        g = random_jet_rhs(rng, params["K"], params["N"])
    worst = worst_transport_residual(g, params["K"], params["N"],
                                     rng.uniform(0.1, 0.4, (3, 8)))
    comm = commutator_check(ex.var(0), Quantize2D())
    passed = (pde_res <= TOLERANCES["order0_pde_residual"]
              and worst <= TOLERANCES["transport_residual"]
              and comm["residual"] <= TOLERANCES["commutator_residual"])
    write_json(out / "normalform_demo.json", {
        "order0_pde_residual": pde_res, "transport_residual": worst,
        "commutator_residual": comm["residual"], "pass": passed,
    })
    return passed, {"order0": pde_res, "transport": worst}


def _run_stability_sweep(params, out, seed):
    from .normalform import stability_sweep

    seeds = [seed + i for i in range(params["n_seeds"])]
    rep = stability_sweep(seeds, K=params["K"], N=params["N"], m=params["m"])
    rows = []
    for row in rep["rows"]:
        for k, ratio in sorted(row["ratios"].items()):
            rows.append([row["seed"], k, ratio])
    write_csv(out / "stability.csv", ["seed", "k", "ratio"], rows)
    passed = rep["max_ratio"] <= TOLERANCES["stability_max_ratio"]
    write_json(out / "stability.json", {
        "rho": rep["rho"], "R": rep["R"], "m": rep["m"],
        "max_ratio": rep["max_ratio"], "pass": passed,
    })
    return passed, {"max_ratio": rep["max_ratio"]}


# name -> (driver, anchor, config schema); the anchor is a self-describing
# formula for the manifest
_SUBCOMMANDS = {
    "mn-asym": (
        _run_mn_asym,
        "large-r expansion of e^{-r} m_n(r), m_n(z) = int_{S^{n-1}} e^{z.y} dy",
        {"n": (int, 2), "J": (int, 6), "r_min": (float, 20.0),
         "r_max": (float, 100.0), "r_count": (int, 25)}),
    "szego-reproduce": (
        _run_szego_reproduce,
        "reproducing identity f(z) = int K(z,w) f(w) dw on R^n x S^{n-1}",
        {"n": (int, 1), "beta": (float, 0.99), "tol": (float, TOLERANCES["n1_max_rel_err"]),
         "zeta1": (float, 0.5), "zeta2": (float, 0.25)}),
    "szego-fio": (
        _run_szego_fio,
        "kernel versus fiber-integral model int_0^oo e^{t(s-2)} b(t) t^{n-1} dt",
        {"n": (int, 1)}),
    "moyal-check": (
        _run_moyal_check,
        "Op(a)Op(b) = Op(a#b) with (a#b)_k = sum (-i)^n/beta! d_xi^beta a_l d_x^beta b_{k-n-l}",
        {"L": (float, 48.0), "M": (int, 2048), "F": (int, 384), "u_mode": (int, 30)}),
    "borel-demo": (
        _run_borel_demo,
        "lowest-term summation a = sum_l a_l (1 - chi_{l+1}(c|theta|/(l+1)))",
        {"c": (float, 0.125), "N": (int, 10), "theta_min": (float, 20.0),
         "theta_max": (float, 200.0), "theta_count": (int, 25)}),
    "statphase-cert": (
        _run_statphase_cert,
        "int e^{-lam y^2} u = pi^{d/2} lam^{-d/2} sum_j Lap^j u(0)/((4 lam)^j j!) + remainder",
        {"u": (str, "(exp (v 0))"), "d": (int, 1), "lam": (float, 20.0),
         "N": (int, 8), "bound_scale": (float, 1.0)}),
    "fbi-wavefront": (
        _run_fbi_wavefront,
        "decay dichotomy of F(t) = int e^{it((x-y).w + i|x-y|^2/2)} u(y) dy",
        {"u": (str, "heaviside"), "t_min": (float, 10.0),
         "t_max": (float, 80.0), "t_count": (int, 50)}),
    "normalform-demo": (
        _run_normalform_demo,
        "transport recursion i b^(n+1) - eta d_xi b^(n) + n d_y b^(n-1) = g^(n)",
        {"r0": (str, "(+ (v 3) (* 0.5 (v 1)))"), "K": (int, 2), "N": (int, 4),
         "g": (str, "")}),
    "stability-sweep": (
        _run_stability_sweep,
        "jet-norm stability C(b_k,k) <= C(g_k,k) for rho >= 6 (3/2)^m",
        {"n_seeds": (int, 20), "K": (int, 3), "N": (int, 6), "m": (float, 8.0)}),
}


def run_subcommand(name: str, config: dict, out_dir: Path, seed: int = 0) -> bool:
    """Execute one experiment; writes artifacts plus manifest.json."""
    if name not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {name!r}; "
                          f"choose from {sorted(_SUBCOMMANDS)}")
    fn, anchor, schema = _SUBCOMMANDS[name]
    params = _typed(config, schema)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    passed, summary = fn(params, out_dir, seed)
    outputs = sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.json")
    write_json(out_dir / "manifest.json", {
        "subcommand": name,
        "parameters": params,
        "seed": seed,
        "anchor": anchor,
        "pass": bool(passed),
        "summary": summary,
        "outputs": outputs,
    })
    return bool(passed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="microlocal",
        description="numerical experiments for the analytic symbol-calculus kernels",
    )
    sub = parser.add_subparsers(dest="mode")
    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    p_run.add_argument("--config", default=None, help="flat key=value file")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=0)
    p_ver = sub.add_parser("verify", help="run the acceptance battery")
    p_ver.add_argument("--suite", default="fast", choices=("fast", "full"))
    p_ver.add_argument("--out", default=None, help="write summary JSON here")
    p_ver.add_argument("--statphase-scale", type=float, default=1.0,
                       help="rescale the stationary-phase bound (negative test)")
    args = parser.parse_args(argv)

    if args.mode == "run":
        try:
            config = parse_config(args.config)
            ok = run_subcommand(args.subcommand, config, Path(args.out), args.seed)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            # numerical guard violations propagate the module's message
            print(f"{args.subcommand}: error: {exc}", file=sys.stderr)
            return 1
        print(f"{args.subcommand}: {'pass' if ok else 'FAIL'}")
        return 0 if ok else 1
    if args.mode == "verify":
        summary = verify_all(args.suite, statphase_scale=args.statphase_scale)
        if args.out:
            outp = Path(args.out)
            outp.mkdir(parents=True, exist_ok=True)
            write_json(outp / "verify_summary.json", summary)
        if summary["failed"]:
            print("failed criteria: " + ", ".join(summary["failed"]))
            return 1
        return 0
    parser.print_usage()
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
