"""Which package functions the traced run wraps, and the per-layer metrics.

Layers are the package modules.  Span names are ``<module>.<function>``;
several functions of one module may share a span name where the metric is
about the module's role rather than one function (``borel.cutoffs`` covers
building the family and its certificate).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from microlocal import borel, cli, cylinder, expr, fbi, jets, normalform, quantize, reports
from microlocal import statphase, symbols

from spans import ROOT, Tracer


def _count_eval(tr, args, kwargs):
    tr.counters["expr.evaluate.arg_elems"] += sum(np.size(a) for a in args[1])


def _count_eval_out(tr, args, kwargs, out, top):
    tr.counters["expr.evaluate.out_elems"] += np.size(out)


def _count_sexpr_out(tr, args, kwargs, out, top):
    tr.counters["expr.sexpr.bytes"] += len(out)


def _count_sexpr_in(tr, args, kwargs):
    tr.counters["expr.sexpr.bytes"] += len(args[0])


def _count_jets(tr, args, kwargs, out, top):
    tr.counters["jets.propagate.coeffs"] += np.size(getattr(out, "coeffs", out))


def _keep_symbol(tr, args, kwargs, out, top):
    if top:
        sym = getattr(out, "symbol", out)
        tr.pending_trees.extend(sym.coeffs)


def _keep_jetsymbol(tr, args, kwargs, out, top):
    if top:
        tr.pending_trees.extend(out.coeffs.values())


def _count_op_apply(tr, args, kwargs):
    u, band = args[1], args[2]
    tr.counters["quantize.op_apply.grid_elems"] += u.size * (2 * band.F + 1)


def _szego_name(args, kwargs):
    return f"cylinder.szego.n{args[0]}"


def _count_szego(tr, args, kwargs):
    n = args[0]
    v = np.asarray(args[1], dtype=complex).reshape(n, -1)
    tr.counters[f"cylinder.szego.n{n}.points"] += v.shape[1]
    if n == 2:
        u0 = 2.0 - cylinder.radial_s(v)
        tr.counters["cylinder.szego.n2.small_u0"] += int(np.sum(u0.real < 0.1))


def _count_fft2(tr, args, kwargs):
    if tr.innermost() == "normalform.op_matrix":
        tr.counters["normalform.op_matrix.fft2_calls"] += 1


def _count_write(tr, args, kwargs, out, top):
    tr.counters["reports.bytes_written"] += Path(out).stat().st_size


def install(tr: Tracer) -> None:
    """Wrap every measured function; ``tr.uninstall()`` undoes it."""
    w = tr.wrap
    w(expr, "evaluate", "expr.evaluate", _count_eval, _count_eval_out)
    w(expr, "format_sexpr", "expr.sexpr", after=_count_sexpr_out)
    w(expr, "parse_sexpr", "expr.sexpr", before=_count_sexpr_in)
    w(jets, "jet_batch_from_expr", "jets.propagate", after=_count_jets)
    w(jets, "jet_from_expr", "jets.propagate", after=_count_jets)
    w(symbols, "moyal_product", "symbols.moyal_product", after=_keep_symbol)
    w(symbols, "neumann_invert", "symbols.neumann_invert", after=_keep_symbol)
    w(symbols, "moyal_sqrt", "symbols.moyal_sqrt", after=_keep_symbol)
    w(symbols, "adjoint_symbol", "symbols.adjoint", after=_keep_symbol)
    w(symbols, "left_total_symbol", "symbols.left_total_symbol", after=_keep_symbol)
    w(symbols, "estimate_norm", "symbols.estimate_norm")
    w(normalform, "transport_recursion", "normalform.transport", after=_keep_jetsymbol)
    w(normalform, "transport_residuals", "normalform.transport")
    w(normalform, "js_norm", "normalform.js_norm")
    w(normalform, "commutator_check", "normalform.commutator_check")
    w(normalform.Quantize2D, "op_matrix", "normalform.op_matrix")
    w(np.fft, "fft2", "numpy.fft2", before=_count_fft2)
    w(quantize, "op_apply", "quantize.op_apply", _count_op_apply)
    w(quantize, "commutator_matrix", "quantize.commutator_matrix")
    w(quantize, "commutator_residual", "quantize.commutator_residual")
    w(quantize, "moyal_consistency", "quantize.moyal_consistency")
    w(statphase, "remainder_certificate", "statphase.certificate")
    w(statphase, "gaussian_quadrature_oracle", "statphase.oracle")
    w(statphase, "gaussian_expansion", "statphase.expansion")
    w(borel, "ehrenpreis_cutoffs", "borel.cutoffs")
    w(borel, "cutoff_certificate", "borel.cutoffs")
    w(borel, "borel_sum", "borel.sum")
    w(borel, "remainder_profile", "borel.profile")
    w(fbi, "fiber_integral", "fbi.fiber_integral")
    w(fbi, "wavefront_probe", "fbi.probe")
    w(cylinder, "szego_kernel_batch", _szego_name, _count_szego)
    w(cylinder, "reproduce_test", "cylinder.reproduce")
    for fn in ("eval_mn", "eval_mn_scaled", "fit_mn_remainder", "mn_partial_sum_scaled"):
        w(cylinder, fn, "cylinder.mn")
    w(cylinder, "szego_fio_form", "cylinder.fio")
    w(cylinder, "szego_fio_model", "cylinder.fio")
    w(cli, "run_subcommand", "cli.run_subcommand")
    w(reports, "write_json", "reports.write", after=_count_write)
    w(reports, "write_csv", "reports.write", after=_count_write)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def metrics(tr: Tracer, traced_wall_s: float, overhead_frac: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    s, c, n = tr.self_s, tr.counters, tr.calls
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    put("expr.evaluate.calls", n["expr.evaluate"], "count")
    put("expr.evaluate.self_s", s["expr.evaluate"], "s")
    put("expr.evaluate.arg_elems", c["expr.evaluate.arg_elems"], "count")
    put("expr.evaluate.out_elems", c["expr.evaluate.out_elems"], "count")
    put("expr.evaluate.ns_per_elem",
        _ratio(s["expr.evaluate"], c["expr.evaluate.out_elems"], 1e9), "ns")
    put("expr.tree_nodes", c["expr.tree_nodes"], "count")
    put("expr.distinct_nodes", c["expr.distinct_nodes"], "count")
    put("expr.distinct_ratio", _ratio(c["expr.distinct_nodes"], c["expr.tree_nodes"]), "1")
    put("expr.sexpr.self_s", s["expr.sexpr"], "s")
    put("expr.sexpr.bytes", c["expr.sexpr.bytes"], "B")
    put("jets.propagate.calls", n["jets.propagate"], "count")
    put("jets.propagate.self_s", s["jets.propagate"], "s")
    put("jets.propagate.coeffs", c["jets.propagate.coeffs"], "count")
    put("jets.propagate.ns_per_coeff",
        _ratio(s["jets.propagate"], c["jets.propagate.coeffs"], 1e9), "ns")
    for fn in ("moyal_product", "neumann_invert", "moyal_sqrt", "adjoint",
               "left_total_symbol", "estimate_norm"):
        put(f"symbols.{fn}.self_s", s[f"symbols.{fn}"], "s")
    for fn in ("transport", "js_norm", "op_matrix", "commutator_check"):
        put(f"normalform.{fn}.self_s", s[f"normalform.{fn}"], "s")
    put("normalform.op_matrix.fft2_calls", c["normalform.op_matrix.fft2_calls"], "count")
    put("quantize.op_apply.calls", n["quantize.op_apply"], "count")
    put("quantize.op_apply.self_s", s["quantize.op_apply"], "s")
    put("quantize.op_apply.grid_elems", c["quantize.op_apply.grid_elems"], "count")
    for fn in ("commutator_matrix", "commutator_residual", "moyal_consistency"):
        put(f"quantize.{fn}.self_s", s[f"quantize.{fn}"], "s")
    for fn in ("certificate", "oracle", "expansion"):
        put(f"statphase.{fn}.self_s", s[f"statphase.{fn}"], "s")
    for fn in ("cutoffs", "sum", "profile"):
        put(f"borel.{fn}.self_s", s[f"borel.{fn}"], "s")
    for fn in ("fiber_integral", "probe"):
        put(f"fbi.{fn}.self_s", s[f"fbi.{fn}"], "s")
    for k in (1, 2, 3):
        put(f"cylinder.szego.n{k}.self_s", s[f"cylinder.szego.n{k}"], "s")
        put(f"cylinder.szego.n{k}.points", c[f"cylinder.szego.n{k}.points"], "count")
    put("cylinder.szego.n2.us_per_point",
        _ratio(s["cylinder.szego.n2"], c["cylinder.szego.n2.points"], 1e6), "us")
    put("cylinder.szego.n2.small_u0_share",
        _ratio(c["cylinder.szego.n2.small_u0"], c["cylinder.szego.n2.points"]), "1")
    for fn in ("reproduce", "mn", "fio"):
        put(f"cylinder.{fn}.self_s", s[f"cylinder.{fn}"], "s")
    put("cli.run_subcommand.calls", n["cli.run_subcommand"], "count")
    put("cli.run_subcommand.self_s", s["cli.run_subcommand"], "s")
    put("reports.write.self_s", s["reports.write"], "s")
    put("reports.bytes_written", c["reports.bytes_written"], "B")
    layer_self = sum(v for k, v in s.items() if k != ROOT)
    put("trace.wall_s", traced_wall_s, "s")
    put("trace.layer_self_s", layer_self, "s")
    put("trace.unattributed_s", s[ROOT], "s")
    put("trace.overhead_frac", overhead_frac, "1")
    return out
