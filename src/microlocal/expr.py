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

# distance below which the radial node refuses to evaluate
NORM_GUARD = 1e-8

# -- node kinds -----------------------------------------------------------------
#
# Each analytic primitive: its numpy function and its derivative, written as
# (sign, primitive) for f' = sign * g.  The derivative 1/u of log has no such
# form (None); it is written out where it is used.
_ANALYTIC = {
    "exp": (np.exp, (1, "exp")),
    "log": (np.log, None),
    "sin": (np.sin, (1, "cos")),
    "cos": (np.cos, (-1, "sin")),
    "sinh": (np.sinh, (1, "cosh")),
    "cosh": (np.cosh, (1, "sinh")),
}

# S-expression operator of each interior node kind.  Read back, "pow" means
# powr (the later entry), which folds integral exponents into powi.
_TOKEN = {"add": "+", "mul": "*", "div": "/", "powi": "pow", "powr": "pow",
          "norm": "norm", **{k: k for k in _ANALYTIC}}
_KIND = {tok: k for k, tok in _TOKEN.items()}

# Singular set of each guarded kind, as (floor, message): the node refuses to
# evaluate where its divisor, base (negative exponents only for powi), log
# argument or radius has magnitude below the floor.
_SINGULAR = {
    "div": (1e-300, "quotient singular at sampled point: {}"),
    "powi": (1e-300, "negative power singular: {}"),
    "powr": (1e-300, "real power at origin: {}"),
    "log": (1e-300, "log singular: {}"),
    "norm": (NORM_GUARD, "radial node {} evaluated within 1e-8 of the origin"),
}

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
    *_ANALYTIC,
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
            k = (self.kind, pl, tuple(map(Expr.key, self.children)))
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


def _unary(kind: str) -> Callable[[Expr], Expr]:
    fn = _ANALYTIC[kind][0]

    def ctor(e) -> Expr:
        e = _as_expr(e)
        if e.kind == "const":
            return const(fn(e.payload))
        return Expr(kind, None, (e,))

    ctor.__name__ = kind
    return ctor


# bound in the order of _ANALYTIC
exp, log, sin, cos, sinh, cosh = map(_unary, _ANALYTIC)


def norm(*parts) -> Expr:
    """Radial node sqrt(sum of squares), principal branch."""
    parts = tuple(_as_expr(p) for p in parts)
    if not parts:
        raise ValueError("norm needs at least one argument")
    if all(p.kind == "const" for p in parts):
        s = sum(p.payload**2 for p in parts)
        return const(np.sqrt(complex(s)))
    return Expr("norm", None, parts)


# smart constructor of each interior node kind; a power takes its exponent last
_CTORS = {f.__name__: f for f in (add, mul, div, powi, powr, norm,
                                  exp, log, sin, cos, sinh, cosh)}


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
    if k == "norm":
        num = []
        for c in e.children:
            dc = diff(c, i)
            if not dc.is_zero():
                num.append(mul(c, dc))
        if not num:
            return ZERO
        return div(add(*num), e)
    # one child: chain rule, outer derivative at the child times its derivative
    (c,) = e.children
    d = diff(c, i)
    if d.is_zero():
        return ZERO
    if k in ("powi", "powr"):
        p = e.payload
        return mul(const(p), _CTORS[k](c, p - 1), d)
    deriv = _ANALYTIC[k][1]
    if deriv is None:  # log
        return mul(div(ONE, c), d)
    sign, prim = deriv
    return mul(const(sign), _CTORS[prim](c), d)


# -- substitution and conjugation ---------------------------------------------


def _rebuild(e: Expr, ch: tuple) -> Expr:
    """Node ``e`` rebuilt over the new children ``ch`` by its smart constructor."""
    if e.payload is not None:  # a power's exponent
        ch += (e.payload,)
    return _CTORS[e.kind](*ch)


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
        raise DomainError(f"{exc} evaluating {_describe(_raising_node(e, args))}") from exc
    if args:
        shape = np.broadcast_shapes(*[a.shape for a in args])
        out = np.broadcast_to(out, np.broadcast_shapes(out.shape, shape)).copy()
    return out


def _raising_node(e: Expr, args) -> Expr:
    """Innermost node of ``e`` whose own operation raises a FloatingPointError.

    Runs only after ``e`` raised; children are tried in evaluation order.
    """
    with np.errstate(over="raise", invalid="raise"):
        for c in e.children:
            try:
                _eval(c, args)
            except FloatingPointError:
                return _raising_node(c, args)
    return e


def _describe(e: Expr) -> str:
    """S-expression of ``e`` for an error message, cut after 200 characters."""
    text = format_sexpr(e)
    return text if len(text) <= 200 else text[:200] + "..."


def check_var(node: Expr, slots: int) -> None:
    """Raise DomainError if variable ``node`` indexes none of ``slots`` inputs."""
    if node.payload >= slots:
        raise DomainError(f"variable v{node.payload} not supplied (got {slots} slots)")


def check_domain(node: Expr, value) -> None:
    """Raise DomainError where ``value`` meets the singular set of ``node``.

    ``value`` is the node's divisor, base or log argument, or a radial node's
    radius, at the sample points or jet centers.  Kinds without a singular
    set, and integral powers with positive exponent, always pass.
    """
    guard = _SINGULAR.get(node.kind)
    if guard is None or (node.kind == "powi" and node.payload > 0):
        return
    floor, text = guard
    if np.any(np.abs(value) < floor):
        raise DomainError(text.format(_describe(node)))


def _eval(e: Expr, args) -> np.ndarray:
    k = e.kind
    if k == "const":
        return np.asarray(e.payload)
    if k == "var":
        check_var(e, len(args))
        return args[e.payload]
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
    if k == "norm":
        s = _eval(e.children[0], args) ** 2
        for c in e.children[1:]:
            s = s + _eval(c, args) ** 2
        r = np.sqrt(s)
        check_domain(e, r)
        return r
    a = _eval(e.children[0], args)
    if k == "div":
        b = _eval(e.children[1], args)
        check_domain(e, b)
        return a / b
    check_domain(e, a)
    if k in _ANALYTIC:
        return _ANALYTIC[k][0](a)
    return a ** e.payload


# -- S-expression text format ---------------------------------------------------
#
# Grammar (whitespace separated):
#   expr := NUMBER | I | i | pi | (v INDEX)
#         | (+ expr ...) | (- expr) | (- expr expr) | (neg expr)
#         | (* expr ...) | (/ expr expr)
#         | (pow expr NUMBER)
#         | (exp expr) | (log expr) | (sin expr) | (cos expr)
#         | (sinh expr) | (cosh expr)
#         | (norm expr ...)
# NUMBER is any Python float literal; I and i are the imaginary unit;
# pi is math.pi.


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
        if op == "-" and len(args) == 2:
            return sub(*args)
        ctor = neg if op in ("-", "neg") else _CTORS.get(_KIND.get(op))
        if ctor is None:
            raise ValueError(f"unknown operator {op!r}")
        try:
            return ctor(*args)
        except TypeError:  # wrong arity
            raise ValueError(f"({op} ...) does not take {len(args)} arguments") from None

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
    parts = [_TOKEN[k]] + [format_sexpr(c) for c in e.children]
    if e.payload is not None:  # a power's exponent
        parts.append(repr(e.payload))
    return "(" + " ".join(parts) + ")"
