"""Small immutable expression trees over indexed variables.

Expressions are built from constants, variables ``v0, v1, ...``, the
arithmetic operations ``+ * /``, integer and real powers, the analytic
primitives ``exp log sin cos sinh cosh`` and a radial node
``norm(e_1, ..., e_m) = sqrt(e_1^2 + ... + e_m^2)`` (principal branch, so it
agrees with the Euclidean norm on real input and extends holomorphically to
the cone where ``Re`` dominates ``Im``).

All evaluation is complex and vectorised over numpy arrays.  The trees are
deliberately *not* a computer-algebra system: constructors only fold
constants, flatten sums/products and collect structurally identical terms,
which is enough to make algebraically forced cancellations (as in the
transport recursion) produce a literal zero.

Every node is hashable and structurally comparable; ``diff`` and ``subst``
are deterministic, so rebuilding the same derivative twice yields
structurally equal trees.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "Expr",
    "DomainError",
    "const",
    "var",
    "add",
    "sub",
    "neg",
    "mul",
    "div",
    "powi",
    "powr",
    "exp",
    "log",
    "sin",
    "cos",
    "sinh",
    "cosh",
    "norm",
    "diff",
    "subst",
    "conj",
    "evaluate",
    "parse_sexpr",
    "format_sexpr",
    "ZERO",
    "ONE",
    "I",
]

# distance below which the radial node refuses to evaluate
NORM_GUARD = 1e-8


class DomainError(ValueError):
    """Evaluation hit the declared singular set of a node."""


class Expr:
    """Immutable expression node.

    Attributes
    ----------
    kind : str
        One of ``const var add mul div powi powr exp log sin cos sinh cosh
        norm``.
    payload : complex | int | float | None
        Constant value, variable index, or power exponent.
    children : tuple[Expr, ...]
    """

    __slots__ = ("kind", "payload", "children", "_hash", "_key")

    def __init__(self, kind: str, payload=None, children: tuple = ()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Expr is immutable")

    # -- structural identity -------------------------------------------------
    def key(self):
        k = self._key
        if k is None:
            pl = self.payload
            if isinstance(pl, complex):
                pl = ("c", pl.real, pl.imag)
            k = (self.kind, pl, tuple(c.key() for c in self.children))
            object.__setattr__(self, "_key", k)
        return k

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.key())
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return self.key() == other.key()

    # -- convenience operators ----------------------------------------------
    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return sub(self, _as_expr(other))

    def __rsub__(self, other):
        return sub(_as_expr(other), self)

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Expr({format_sexpr(self)})"

    def is_zero(self) -> bool:
        return self.kind == "const" and self.payload == 0

    def is_const(self) -> bool:
        return self.kind == "const"

    def const_value(self) -> complex:
        if self.kind != "const":
            raise ValueError("not a constant")
        return self.payload

    def variables(self) -> set:
        """Set of variable indices occurring in the tree."""
        out = set()
        stack = [self]
        while stack:
            e = stack.pop()
            if e.kind == "var":
                out.add(e.payload)
            stack.extend(e.children)
        return out


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, complex, np.integer, np.floating, np.complexfloating)):
        return const(complex(x))
    raise TypeError(f"cannot coerce {type(x)} to Expr")


def _clean_const(c: complex) -> complex:
    c = complex(c)
    if c.imag == 0.0:
        c = complex(c.real, 0.0)
    return c


def const(c) -> Expr:
    return Expr("const", _clean_const(c))


ZERO = const(0.0)
ONE = const(1.0)
I = const(1j)


def var(i: int) -> Expr:
    if i < 0:
        raise ValueError("variable index must be >= 0")
    return Expr("var", int(i))


# -- smart constructors -------------------------------------------------------


def _term_split(e: Expr):
    """Decompose e as (coefficient, monomial factor tuple) for collection."""
    if e.kind == "const":
        return e.payload, ()
    if e.kind == "mul":
        cs = [c for c in e.children if c.kind == "const"]
        rest = tuple(c for c in e.children if c.kind != "const")
        coeff = 1.0 + 0.0j
        for c in cs:
            coeff *= c.payload
        return coeff, rest
    return 1.0 + 0.0j, (e,)


def _term_join(coeff: complex, factors: tuple) -> Expr:
    if coeff == 0:
        return ZERO
    if not factors:
        return const(coeff)
    if coeff == 1:
        if len(factors) == 1:
            return factors[0]
        return Expr("mul", None, factors)
    return Expr("mul", None, (const(coeff),) + factors)


def add(*terms) -> Expr:
    """Sum with flattening, constant folding and like-term collection."""
    flat: list[Expr] = []
    stack = [_as_expr(t) for t in reversed(terms)]
    while stack:
        t = stack.pop()
        if t.kind == "add":
            stack.extend(reversed(t.children))
        else:
            flat.append(t)
    cval = 0.0 + 0.0j
    groups: dict = {}
    order: list = []
    for t in flat:
        coeff, factors = _term_split(t)
        if not factors:
            cval += coeff
            continue
        k = tuple(f.key() for f in factors)
        if k in groups:
            c0, _ = groups[k]
            groups[k] = (c0 + coeff, factors)
        else:
            groups[k] = (coeff, factors)
            order.append(k)
    out = []
    for k in order:
        coeff, factors = groups[k]
        if coeff != 0:
            out.append(_term_join(coeff, factors))
    if cval != 0:
        out.insert(0, const(cval))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Expr("add", None, tuple(out))


def neg(e) -> Expr:
    return mul(const(-1.0), _as_expr(e))


def sub(a, b) -> Expr:
    return add(_as_expr(a), neg(b))


def mul(*factors) -> Expr:
    """Product with flattening and constant folding."""
    flat: list[Expr] = []
    stack = [_as_expr(f) for f in reversed(factors)]
    while stack:
        f = stack.pop()
        if f.kind == "mul":
            stack.extend(reversed(f.children))
        else:
            flat.append(f)
    cval = 1.0 + 0.0j
    rest = []
    for f in flat:
        if f.kind == "const":
            cval *= f.payload
        else:
            rest.append(f)
    if cval == 0:
        return ZERO
    # distribute a lone constant over a sum so term collection sees monomials
    if len(rest) == 1 and rest[0].kind == "add" and cval != 1:
        c = const(_clean_const(cval))
        return add(*[mul(c, t) for t in rest[0].children])
    # canonical factor order makes structurally equal products identical
    # regardless of construction order (keys are totally ordered within the
    # grammar, so the sort is deterministic across runs)
    rest.sort(key=Expr.key)
    return _term_join(_clean_const(cval), tuple(rest))


def div(a, b) -> Expr:
    a = _as_expr(a)
    b = _as_expr(b)
    if b.kind == "const":
        if b.payload == 0:
            raise ZeroDivisionError("division by constant zero")
        return mul(const(1.0 / b.payload), a)
    if a.is_zero():
        return ZERO
    return Expr("div", None, (a, b))


def powi(e, n: int) -> Expr:
    e = _as_expr(e)
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return e
    if e.kind == "const":
        return const(e.payload**n)
    if e.kind == "powi":
        return powi(e.children[0], e.payload * n)
    return Expr("powi", n, (e,))


def powr(e, p: float) -> Expr:
    e = _as_expr(e)
    p = float(p)
    if p == round(p) and abs(p) < 64:
        return powi(e, int(round(p)))
    if e.kind == "const":
        return const(np.power(complex(e.payload), p))
    return Expr("powr", p, (e,))


def _unary(kind: str, fn: Callable) -> Callable[[Expr], Expr]:
    def ctor(e) -> Expr:
        e = _as_expr(e)
        if e.kind == "const":
            return const(fn(e.payload))
        return Expr(kind, None, (e,))

    ctor.__name__ = kind
    return ctor


exp = _unary("exp", np.exp)
log = _unary("log", np.log)
sin = _unary("sin", np.sin)
cos = _unary("cos", np.cos)
sinh = _unary("sinh", np.sinh)
cosh = _unary("cosh", np.cosh)


def norm(*parts) -> Expr:
    """Radial node sqrt(sum of squares), principal branch."""
    parts = tuple(_as_expr(p) for p in parts)
    if not parts:
        raise ValueError("norm needs at least one argument")
    if all(p.kind == "const" for p in parts):
        s = sum(p.payload**2 for p in parts)
        return const(np.sqrt(complex(s)))
    return Expr("norm", None, parts)


# -- differentiation ----------------------------------------------------------


def diff(e: Expr, i: int) -> Expr:
    """Exact partial derivative with respect to variable ``i``."""
    k = e.kind
    if k == "const":
        return ZERO
    if k == "var":
        return ONE if e.payload == i else ZERO
    if k == "add":
        return add(*[diff(c, i) for c in e.children])
    if k == "mul":
        terms = []
        cs = e.children
        for j, cj in enumerate(cs):
            dj = diff(cj, i)
            if dj.is_zero():
                continue
            terms.append(mul(*(cs[:j] + (dj,) + cs[j + 1:])))
        return add(*terms) if terms else ZERO
    if k == "div":
        a, b = e.children
        da, db = diff(a, i), diff(b, i)
        if db.is_zero():
            return div(da, b) if not da.is_zero() else ZERO
        return sub(div(da, b), div(mul(a, db), mul(b, b)))
    if k == "powi":
        n = e.payload
        base = e.children[0]
        d = diff(base, i)
        if d.is_zero():
            return ZERO
        return mul(const(n), powi(base, n - 1), d)
    if k == "powr":
        p = e.payload
        base = e.children[0]
        d = diff(base, i)
        if d.is_zero():
            return ZERO
        return mul(const(p), powr(base, p - 1.0), d)
    if k in ("exp", "log", "sin", "cos", "sinh", "cosh"):
        (c,) = e.children
        d = diff(c, i)
        if d.is_zero():
            return ZERO
        outer = {
            "exp": lambda u: exp(u),
            "log": lambda u: div(ONE, u),
            "sin": lambda u: cos(u),
            "cos": lambda u: neg(sin(u)),
            "sinh": lambda u: cosh(u),
            "cosh": lambda u: sinh(u),
        }[k](c)
        return mul(outer, d)
    if k == "norm":
        num = []
        for c in e.children:
            dc = diff(c, i)
            if not dc.is_zero():
                num.append(mul(c, dc))
        if not num:
            return ZERO
        return div(add(*num), e)
    raise ValueError(f"unknown node kind {k!r}")


# -- substitution and conjugation ---------------------------------------------


_CTORS = {"add": add, "mul": mul, "div": div, "norm": norm, "exp": exp, "log": log,
          "sin": sin, "cos": cos, "sinh": sinh, "cosh": cosh}


def _rebuild(e: Expr, ch: tuple) -> Expr:
    """Node ``e`` rebuilt over the new children ``ch`` by its smart constructor."""
    k = e.kind
    if k == "powi":
        return powi(ch[0], e.payload)
    if k == "powr":
        return powr(ch[0], e.payload)
    return _CTORS[k](*ch)


def subst(e: Expr, mapping: Mapping[int, Expr]) -> Expr:
    """Simultaneous substitution of variables by expressions."""
    k = e.kind
    if k == "const":
        return e
    if k == "var":
        return mapping.get(e.payload, e)
    return _rebuild(e, tuple(subst(c, mapping) for c in e.children))


def conj(e: Expr) -> Expr:
    """Structural conjugation (valid as complex conjugate on real input)."""
    k = e.kind
    if k == "const":
        return const(e.payload.conjugate())
    if k == "var":
        return e
    return _rebuild(e, tuple(conj(c) for c in e.children))


# -- evaluation ----------------------------------------------------------------


def evaluate(e: Expr, args) -> np.ndarray:
    """Evaluate over numpy arrays (complex); ``args[i]`` feeds variable i.

    Raises
    ------
    DomainError
        If an argument holds a non-finite value, a quotient/log/power hits
        its singular set, a radial node is evaluated within ``NORM_GUARD`` of
        the origin, or a node overflows or produces an invalid value.
    """
    args = [np.asarray(a, dtype=complex) for a in args]
    for i, a in enumerate(args):
        if not np.isfinite(a).all():
            raise DomainError(f"non-finite value in argument v{i} evaluating {_describe(e)}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            out = np.asarray(_eval(e, args), dtype=complex)
    except FloatingPointError as exc:
        raise DomainError(f"{exc} evaluating {_describe(e)}") from exc
    if args:
        shape = np.broadcast_shapes(*[a.shape for a in args])
        out = np.broadcast_to(out, np.broadcast_shapes(out.shape, shape)).copy()
    return out


def _describe(e: Expr) -> str:
    """S-expression of ``e`` for an error message, cut after 200 characters."""
    text = format_sexpr(e)
    return text if len(text) <= 200 else text[:200] + "..."


def _eval(e: Expr, args) -> np.ndarray:
    k = e.kind
    if k == "const":
        return np.asarray(e.payload)
    if k == "var":
        i = e.payload
        if i >= len(args):
            raise DomainError(f"variable v{i} not supplied (got {len(args)} slots)")
        return args[i]
    if k == "add":
        out = _eval(e.children[0], args)
        for c in e.children[1:]:
            out = out + _eval(c, args)
        return out
    if k == "mul":
        out = _eval(e.children[0], args)
        for c in e.children[1:]:
            out = out * _eval(c, args)
        return out
    if k == "div":
        a = _eval(e.children[0], args)
        b = _eval(e.children[1], args)
        if np.any(np.abs(b) < 1e-300):
            raise DomainError(f"quotient singular at sampled point: {_describe(e)}")
        return a / b
    if k == "powi":
        base = _eval(e.children[0], args)
        n = e.payload
        if n < 0 and np.any(np.abs(base) < 1e-300):
            raise DomainError(f"negative power singular: {_describe(e)}")
        return base ** n
    if k == "powr":
        base = _eval(e.children[0], args)
        if np.any(np.abs(base) < 1e-300):
            raise DomainError(f"real power at origin: {_describe(e)}")
        return base ** e.payload
    if k == "exp":
        return np.exp(_eval(e.children[0], args))
    if k == "log":
        a = _eval(e.children[0], args)
        if np.any(np.abs(a) < 1e-300):
            raise DomainError(f"log singular: {_describe(e)}")
        return np.log(a)
    if k == "sin":
        return np.sin(_eval(e.children[0], args))
    if k == "cos":
        return np.cos(_eval(e.children[0], args))
    if k == "sinh":
        return np.sinh(_eval(e.children[0], args))
    if k == "cosh":
        return np.cosh(_eval(e.children[0], args))
    if k == "norm":
        s = _eval(e.children[0], args) ** 2
        for c in e.children[1:]:
            s = s + _eval(c, args) ** 2
        r = np.sqrt(s)
        if np.any(np.abs(r) <= NORM_GUARD):
            raise DomainError(f"radial node {_describe(e)} evaluated within 1e-8 of the origin")
        return r
    raise ValueError(f"unknown node kind {k!r}")


# -- S-expression text format ---------------------------------------------------
#
# Grammar (whitespace separated):
#   expr := NUMBER | I | (v INDEX)
#         | (+ expr expr ...) | (- expr expr) | (neg expr)
#         | (* expr expr ...) | (/ expr expr)
#         | (pow expr NUMBER)
#         | (exp expr) | (log expr) | (sin expr) | (cos expr)
#         | (sinh expr) | (cosh expr)
#         | (norm expr expr ...)
# NUMBER is any Python float literal; I is the imaginary unit.


def _tokenize(s: str):
    return s.replace("(", " ( ").replace(")", " ) ").split()


def parse_sexpr(text: str) -> Expr:
    """Parse the documented S-expression grammar into an Expr."""
    toks = _tokenize(text)
    pos = 0

    def parse() -> Expr:
        nonlocal pos
        if pos >= len(toks):
            raise ValueError("unexpected end of input")
        t = toks[pos]
        pos += 1
        if t == "(":
            if pos >= len(toks):
                raise ValueError("unexpected end of input after '('")
            op = toks[pos]
            pos += 1
            args = []
            while pos < len(toks) and toks[pos] != ")":
                args.append(parse_item(op, len(args)))
            if pos >= len(toks):
                raise ValueError("missing ')'")
            pos += 1  # consume ')'
            return build(op, args)
        if t == ")":
            raise ValueError("unexpected ')'")
        return atom(t)

    def parse_item(op, idx):
        nonlocal pos
        t = toks[pos]
        if op == "v" and idx == 0:
            pos += 1
            return int(t)
        if op == "pow" and idx == 1:
            pos += 1
            return float(t)
        return parse()

    def atom(t: str) -> Expr:
        if t in ("I", "i"):
            return I
        if t == "pi":
            return const(math.pi)
        try:
            return const(float(t))
        except ValueError:
            raise ValueError(f"unknown atom {t!r}")

    def build(op: str, args: list) -> Expr:
        if op == "v":
            if len(args) != 1 or not isinstance(args[0], int):
                raise ValueError("(v INDEX) expects one integer")
            return var(args[0])
        if op == "+":
            return add(*args)
        if op == "-":
            if len(args) == 1:
                return neg(args[0])
            if len(args) != 2:
                raise ValueError("(- a b) expects two arguments")
            return sub(args[0], args[1])
        if op == "neg":
            (a,) = args
            return neg(a)
        if op == "*":
            return mul(*args)
        if op == "/":
            if len(args) != 2:
                raise ValueError("(/ a b) expects two arguments")
            return div(args[0], args[1])
        if op == "pow":
            if len(args) != 2:
                raise ValueError("(pow e p) expects two arguments")
            return powr(args[0], args[1])
        if op in ("exp", "log", "sin", "cos", "sinh", "cosh"):
            (a,) = args
            return {"exp": exp, "log": log, "sin": sin, "cos": cos,
                    "sinh": sinh, "cosh": cosh}[op](a)
        if op == "norm":
            return norm(*args)
        raise ValueError(f"unknown operator {op!r}")

    out = parse()
    if pos != len(toks):
        raise ValueError(f"trailing tokens: {' '.join(toks[pos:])}")
    return out


def _fmt_num(c: complex) -> str:
    if c.imag == 0:
        r = c.real
        if r == int(r) and abs(r) < 1e15:
            return str(int(r))
        return repr(r)
    if c.real == 0 and c.imag == 1:
        return "I"
    if c.real == 0:
        return f"(* {_fmt_num(complex(c.imag))} I)"
    return f"(+ {_fmt_num(complex(c.real))} (* {_fmt_num(complex(c.imag))} I))"


def format_sexpr(e: Expr) -> str:
    """Inverse of :func:`parse_sexpr` (round-trips structurally)."""
    k = e.kind
    if k == "const":
        return _fmt_num(e.payload)
    if k == "var":
        return f"(v {e.payload})"
    ch = [format_sexpr(c) for c in e.children]
    if k == "add":
        return "(+ " + " ".join(ch) + ")"
    if k == "mul":
        return "(* " + " ".join(ch) + ")"
    if k == "div":
        return f"(/ {ch[0]} {ch[1]})"
    if k == "powi":
        return f"(pow {ch[0]} {e.payload})"
    if k == "powr":
        return f"(pow {ch[0]} {e.payload!r})"
    if k == "norm":
        return "(norm " + " ".join(ch) + ")"
    return f"({k} {ch[0]})"
