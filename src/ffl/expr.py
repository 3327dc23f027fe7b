"""Small symbolic expression trees for the maps handled by the workbench.

Node kinds: constants, variables, sums, products, powers, quotients.
Composition is performed by substitution, which keeps differentiation a
purely structural operation. Trees support

  * numeric evaluation (scalars or numpy arrays),
  * exact symbolic differentiation,
  * natural interval extension over a box,
  * polynomial coefficient extraction when the tree is polynomial,
  * parsing from prefix notation, e.g. ``(add (pow x 2) (mul 0.5 x))``.

Non-integer exponents are allowed (needed for inverse maps such as square
roots); they evaluate only where the base is nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

Number = Union[int, float]


class ExprError(ValueError):
    pass


class Expr:
    """Base class. Instances are immutable and safe to share."""

    def eval(self, env: Mapping[str, object]):
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def interval(self, box: Mapping[str, tuple]) -> tuple:
        raise NotImplementedError

    def variables(self) -> frozenset:
        raise NotImplementedError

    def subst(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        raise NotImplementedError

    def to_prefix(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.to_prefix()


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def eval(self, env):
        return self.value

    def diff(self, var):
        return Const(0.0)

    def interval(self, box):
        return (self.value, self.value)

    def variables(self):
        return frozenset()

    def subst(self, mapping):
        return self

    def to_prefix(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def eval(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise ExprError(f"unbound variable {self.name!r}") from None

    def diff(self, var):
        return Const(1.0 if var == self.name else 0.0)

    def interval(self, box):
        try:
            lo, hi = box[self.name]
        except KeyError:
            raise ExprError(f"no box for variable {self.name!r}") from None
        return (float(lo), float(hi))

    def variables(self):
        return frozenset({self.name})

    def subst(self, mapping):
        return mapping.get(self.name, self)

    def to_prefix(self):
        return self.name


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple

    def eval(self, env):
        acc = self.terms[0].eval(env)
        for t in self.terms[1:]:
            acc = acc + t.eval(env)
        return acc

    def diff(self, var):
        return add(*(t.diff(var) for t in self.terms))

    def interval(self, box):
        lo = hi = 0.0
        for t in self.terms:
            a, b = t.interval(box)
            lo, hi = lo + a, hi + b
        return (lo, hi)

    def variables(self):
        return frozenset().union(*(t.variables() for t in self.terms))

    def subst(self, mapping):
        return add(*(t.subst(mapping) for t in self.terms))

    def to_prefix(self):
        return "(add " + " ".join(t.to_prefix() for t in self.terms) + ")"


@dataclass(frozen=True)
class Prod(Expr):
    factors: tuple

    def eval(self, env):
        acc = self.factors[0].eval(env)
        for f in self.factors[1:]:
            acc = acc * f.eval(env)
        return acc

    def diff(self, var):
        terms = []
        for i, f in enumerate(self.factors):
            rest = self.factors[:i] + self.factors[i + 1:]
            terms.append(mul(f.diff(var), *rest))
        return add(*terms)

    def interval(self, box):
        lo, hi = 1.0, 1.0
        for f in self.factors:
            a, b = f.interval(box)
            cands = (lo * a, lo * b, hi * a, hi * b)
            lo, hi = min(cands), max(cands)
        return (lo, hi)

    def variables(self):
        return frozenset().union(*(f.variables() for f in self.factors))

    def subst(self, mapping):
        return mul(*(f.subst(mapping) for f in self.factors))

    def to_prefix(self):
        return "(mul " + " ".join(f.to_prefix() for f in self.factors) + ")"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float

    def eval(self, env):
        b = self.base.eval(env)
        e = self.exponent
        if float(e).is_integer():
            return b ** int(e)
        return np.power(b, e) if isinstance(b, np.ndarray) else math.pow(b, e)

    def diff(self, var):
        e = self.exponent
        if e == 0:
            return Const(0.0)
        return mul(Const(float(e)), Pow(self.base, e - 1), self.base.diff(var))

    def interval(self, box):
        lo, hi = self.base.interval(box)
        e = self.exponent
        if float(e).is_integer() and e >= 0:
            n = int(e)
            if n == 0:
                return (1.0, 1.0)
            if n % 2 == 1 or lo >= 0:
                return (lo ** n, hi ** n)
            if hi <= 0:
                return (hi ** n, lo ** n)
            return (0.0, max(lo ** n, hi ** n))
        if lo < 0:
            raise ExprError(f"pow with exponent {e} needs a nonnegative base interval")
        return tuple(sorted((lo ** e, hi ** e)))

    def variables(self):
        return self.base.variables()

    def subst(self, mapping):
        return pow_(self.base.subst(mapping), self.exponent)

    def to_prefix(self):
        e = self.exponent
        etxt = repr(int(e)) if float(e).is_integer() else repr(e)
        return f"(pow {self.base.to_prefix()} {etxt})"


@dataclass(frozen=True)
class Quot(Expr):
    num: Expr
    den: Expr

    def eval(self, env):
        return self.num.eval(env) / self.den.eval(env)

    def diff(self, var):
        n, d = self.num, self.den
        return Quot(add(mul(n.diff(var), d), mul(Const(-1.0), n, d.diff(var))),
                    Pow(d, 2))

    def interval(self, box):
        nlo, nhi = self.num.interval(box)
        dlo, dhi = self.den.interval(box)
        if dlo <= 0.0 <= dhi:
            return (-math.inf, math.inf)
        cands = (nlo / dlo, nlo / dhi, nhi / dlo, nhi / dhi)
        return (min(cands), max(cands))

    def variables(self):
        return self.num.variables() | self.den.variables()

    def subst(self, mapping):
        return div(self.num.subst(mapping), self.den.subst(mapping))

    def to_prefix(self):
        return f"(div {self.num.to_prefix()} {self.den.to_prefix()})"


# ---------------------------------------------------------------------------
# smart constructors (light simplification: flatten, fold constants)
# ---------------------------------------------------------------------------

def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(float(x))
    raise ExprError(f"cannot coerce {x!r} to an expression")


def add(*terms) -> Expr:
    flat, const = [], 0.0
    for t in map(_as_expr, terms):
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    keep = []
    for t in flat:
        if isinstance(t, Const):
            const += t.value
        else:
            keep.append(t)
    if const != 0.0 or not keep:
        keep.append(Const(const))
    return keep[0] if len(keep) == 1 else Sum(tuple(keep))


def mul(*factors) -> Expr:
    flat, const = [], 1.0
    for f in map(_as_expr, factors):
        if isinstance(f, Prod):
            flat.extend(f.factors)
        else:
            flat.append(f)
    keep = []
    for f in flat:
        if isinstance(f, Const):
            const *= f.value
        else:
            keep.append(f)
    if const == 0.0:
        return Const(0.0)
    if const != 1.0 or not keep:
        keep.insert(0, Const(const))
    return keep[0] if len(keep) == 1 else Prod(tuple(keep))


def sub(a, b) -> Expr:
    return add(a, mul(Const(-1.0), b))


def neg(a) -> Expr:
    return mul(Const(-1.0), a)


def pow_(base, exponent) -> Expr:
    base = _as_expr(base)
    e = float(exponent)
    if e == 0:
        return Const(1.0)
    if e == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** e if not e.is_integer() else base.value ** int(e))
    return Pow(base, e)


def div(num, den) -> Expr:
    num, den = _as_expr(num), _as_expr(den)
    if isinstance(den, Const):
        if den.value == 0:
            raise ExprError("division by constant zero")
        return mul(Const(1.0 / den.value), num)
    return Quot(num, den)


def compose(outer: Expr, inner: Expr, var: str | None = None) -> Expr:
    """Substitute ``inner`` for the (single) variable of ``outer``."""
    outer = _as_expr(outer)
    if var is None:
        free = outer.variables()
        if len(free) != 1:
            raise ExprError(f"compose needs a single-variable outer expression, got {sorted(free)}")
        (var,) = free
    return outer.subst({var: _as_expr(inner)})


# ---------------------------------------------------------------------------
# polynomial extraction
# ---------------------------------------------------------------------------

def poly_coeffs(expr: Expr, var: str, max_degree: int = 64) -> np.ndarray:
    """Return ascending coefficients of ``expr`` as a polynomial in ``var``.

    Raises ExprError when the tree is not polynomial in ``var`` (quotients
    with ``var`` in the denominator, fractional powers, foreign variables).
    """
    foreign = expr.variables() - {var}
    if foreign:
        raise ExprError(f"not univariate: extra variables {sorted(foreign)}")

    def rec(e: Expr) -> np.ndarray:
        if isinstance(e, Const):
            return np.array([e.value])
        if isinstance(e, Var):
            return np.array([0.0, 1.0])
        if isinstance(e, Sum):
            parts = [rec(t) for t in e.terms]
            n = max(len(p) for p in parts)
            out = np.zeros(n)
            for p in parts:
                out[:len(p)] += p
            return out
        if isinstance(e, Prod):
            out = np.array([1.0])
            for f in e.factors:
                out = np.convolve(out, rec(f))
                if len(out) > max_degree + 1:
                    raise ExprError("polynomial degree budget exceeded")
            return out
        if isinstance(e, Pow):
            if not float(e.exponent).is_integer() or e.exponent < 0:
                raise ExprError("non-natural exponent is not polynomial")
            out, base = np.array([1.0]), rec(e.base)
            for _ in range(int(e.exponent)):
                out = np.convolve(out, base)
                if len(out) > max_degree + 1:
                    raise ExprError("polynomial degree budget exceeded")
            return out
        if isinstance(e, Quot):
            den = rec(e.den)
            if np.any(den[1:] != 0.0):
                raise ExprError("variable in denominator is not polynomial")
            return rec(e.num) / den[0]
        raise ExprError(f"unknown node {type(e).__name__}")

    coeffs = rec(expr)
    nz = np.nonzero(coeffs)[0]
    return coeffs[: nz[-1] + 1] if len(nz) else np.array([0.0])


# ---------------------------------------------------------------------------
# prefix-notation parser
# ---------------------------------------------------------------------------

_OPS = {"add", "sub", "mul", "div", "neg", "pow", "compose"}


def _tokenize(text: str):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_tokens(tokens: list, pos: int):
    if pos >= len(tokens):
        raise ExprError("unexpected end of expression")
    tok = tokens[pos]
    if tok == ")":
        raise ExprError("unexpected ')'")
    if tok != "(":
        pos += 1
        try:
            return Const(float(tok)), pos
        except ValueError:
            if not tok.isidentifier():
                raise ExprError(f"bad token {tok!r}") from None
            return Var(tok), pos
    if pos + 1 >= len(tokens):
        raise ExprError("missing operator after '('")
    op = tokens[pos + 1]
    if op not in _OPS:
        raise ExprError(f"unknown operator {op!r}")
    args, pos = [], pos + 2
    while pos < len(tokens) and tokens[pos] != ")":
        node, pos = _parse_tokens(tokens, pos)
        args.append(node)
    if pos >= len(tokens):
        raise ExprError("missing ')'")
    pos += 1
    if op == "add":
        return add(*args), pos
    if op == "mul":
        return mul(*args), pos
    if op == "sub":
        if len(args) != 2:
            raise ExprError("sub takes exactly 2 arguments")
        return sub(*args), pos
    if op == "div":
        if len(args) != 2:
            raise ExprError("div takes exactly 2 arguments")
        return div(*args), pos
    if op == "neg":
        if len(args) != 1:
            raise ExprError("neg takes exactly 1 argument")
        return neg(args[0]), pos
    if op == "pow":
        if len(args) != 2 or not isinstance(args[1], Const):
            raise ExprError("pow takes (pow base numeric-exponent)")
        return pow_(args[0], args[1].value), pos
    if op == "compose":
        if len(args) != 2:
            raise ExprError("compose takes exactly 2 arguments")
        return compose(args[0], args[1]), pos
    raise ExprError(f"unhandled operator {op!r}")


def parse(text: str) -> Expr:
    """Parse a prefix-notation expression string."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExprError("empty expression")
    node, pos = _parse_tokens(tokens, 0)
    if pos != len(tokens):
        raise ExprError(f"trailing tokens: {' '.join(tokens[pos:])}")
    return node
