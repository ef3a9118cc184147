"""Deterministic CSV/JSON emission for experiment artifacts.

Floats are rendered with 17 significant digits, lists and dicts in fixed
(sorted-key) order, so identical inputs produce byte-identical files; CSV
uses '.' decimal points, ',' separators, and a header row.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["fmt_float", "canonical_json", "write_json", "write_csv"]


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats.

    ``indent`` is the nesting depth of ``obj`` in the enclosing document.
    """
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return '{"im": %s, "re": %s}' % (fmt_float(obj.imag), fmt_float(obj.real))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + " " + canonical_json(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ",\n".join(
            pad + " " + json.dumps(str(k)) + ": " + canonical_json(v, indent + 1)
            for k, v in items
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)}")


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(canonical_json(obj) + "\n", encoding="utf-8")
    return path


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    if isinstance(v, (complex, np.complexfloating)):
        return fmt_float(v.real) + "+" + fmt_float(v.imag) + "j"
    return str(v)


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
