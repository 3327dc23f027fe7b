"""Small symbolic expression trees for the maps handled by the workbench.

Node kinds: constants, variables, sums, products, powers, quotients.
Composition is performed by substitution, which keeps differentiation a
purely structural operation. Trees support

  * numeric evaluation (scalars or numpy arrays),
  * exact symbolic differentiation,
  * natural interval extension over a box, rounded outward, and certified
    enclosures by adaptive bisection of the box,
  * polynomial coefficient extraction when the tree is polynomial,
  * parsing from prefix notation, e.g. ``(add (pow x 2) (mul 0.5 x))``.

Non-integer exponents are allowed (needed for inverse maps such as square
roots); they evaluate only where the base is nonnegative.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

ENCLOSE_BOXES = 1 << 10  # the most sub-boxes one enclosure bisects its box into
ENCLOSE_SLACK = 1e-12    # the overshoot, relative to the sampled values, a sub-box keeps
POLY_DEGREE = 64         # the highest degree ``poly_coeffs`` expands


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

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ExprError(f"constant {self.value!r} is not finite")

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
        lo, hi = self.terms[0].interval(box)
        for t in self.terms[1:]:
            a, b = t.interval(box)
            lo, hi = _out(lo + a, -math.inf), _out(hi + b, math.inf)
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
        lo, hi = self.factors[0].interval(box)
        for f in self.factors[1:]:
            a, b = f.interval(box)
            # 0 times an unbounded end is 0: the values it bounds are finite
            cands = [_kept(x * y, x, y) if x and y else 0.0 for x in (lo, hi) for y in (a, b)]
            lo, hi = _out(min(cands), -math.inf), _out(max(cands), math.inf)
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
            if e == 0:
                return (1.0, 1.0)
            if e % 2 == 0 and lo < 0:  # an even power is one of |x|
                lo, hi = (-hi, -lo) if hi <= 0 else (0.0, max(-lo, hi))
            return (_power(lo, e, -math.inf), _power(hi, e, math.inf))
        if lo < 0:
            raise ExprError(f"pow with exponent {e} needs a nonnegative base interval")
        if e < 0:
            lo, hi = hi, lo
        return (_power(lo, e, -math.inf), _power(hi, e, math.inf))

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
        if dlo <= 0.0 <= dhi or not all(map(math.isfinite, (nlo, nhi, dlo, dhi))):
            return (-math.inf, math.inf)
        cands = [_kept(x / y, x, y) for x in (nlo, nhi) for y in (dlo, dhi)]
        return (_out(min(cands), -math.inf), _out(max(cands), math.inf))

    def variables(self):
        return self.num.variables() | self.den.variables()

    def subst(self, mapping):
        return div(self.num.subst(mapping), self.den.subst(mapping))

    def to_prefix(self):
        return f"(div {self.num.to_prefix()} {self.den.to_prefix()})"


# ---------------------------------------------------------------------------
# outward rounding (Moore, Interval Analysis, 1966) and certified enclosures
# ---------------------------------------------------------------------------
# An IEEE operation rounds to nearest, so the exact result lies within one
# float of it: each interval end steps one float outward. An exact 0 needs
# no step, and ``_kept`` keeps an underflow off 0.

def _out(x: float, toward: float) -> float:
    """x one float toward ``toward`` (-inf or inf); 0 stays, and an
    undefined (NaN) end becomes ``toward``."""
    if x != x:
        return toward
    return math.nextafter(x, toward) if x else x


def _kept(r: float, x: float, y: float) -> float:
    """r = x*y or x/y; an underflow of nonzero x, y to 0 becomes the least
    float of the exact result's sign."""
    return r if r or not (x and y) else math.copysign(math.ulp(0.0), x) * math.copysign(1.0, y)


def _power(x: float, e: float, toward: float) -> float:
    """x ** e two floats toward ``toward``: C libraries keep pow's error
    below one ulp without rounding it correctly, and two steps cover one
    ulp also at a binade edge."""
    try:
        r = x ** e
    except OverflowError:  # one step in from inf is the largest float
        r = math.copysign(math.inf, x) if e % 2 == 1 else math.inf
    except ZeroDivisionError:  # 0 to a negative power; the base is >= 0 there
        return math.inf
    if x and not r:  # an underflow, kept off 0 as in _kept
        r = math.copysign(math.ulp(0.0), x if e % 2 == 1 else 1.0)
    return _out(_out(r, toward), toward)


def enclose(expr: Expr, box: Mapping[str, tuple]) -> tuple:
    """A certified enclosure (lo, hi) of ``expr`` over ``box``: the hull of
    its natural interval extensions over an adaptive bisection of the box.

    The values at the corners and centre of every sub-box bound the range
    from inside. While a sub-box's extension overshoots them by more than
    ENCLOSE_SLACK of their magnitude, the sub-box that overshot most is
    halved on its widest side, up to ENCLOSE_BOXES sub-boxes.
    """
    names, seen = list(box), [math.inf, -math.inf]  # the range of the samples

    def overshoot(ext):
        if seen[0] > seen[1]:  # no finite value sampled yet
            return math.inf
        slack = ENCLOSE_SLACK * max(abs(seen[0]), abs(seen[1]))
        return max(seen[0] - ext[0], ext[1] - seen[1]) - slack

    def visit(sub):
        points = np.array([*itertools.product(*sub), [(a + b) / 2 for a, b in sub]])
        try:
            with np.errstate(all="ignore"):
                vals = np.asarray(expr.eval(dict(zip(names, points.T))), dtype=float)
            vals = vals[np.isfinite(vals)].tolist()
            seen[:] = min([seen[0], *vals]), max([seen[1], *vals])
        except ArithmeticError:  # a constant subtree, such as 1/0, outside numpy
            pass
        ext = expr.interval(dict(zip(names, sub)))
        return (-overshoot(ext), sub, ext)

    heap, kept = [visit(tuple((float(a), float(b)) for a, b in box.values()))], []
    while heap and len(heap) + len(kept) < ENCLOSE_BOXES:
        _, sub, ext = heapq.heappop(heap)
        k = max(range(len(sub)), key=lambda i: sub[i][1] - sub[i][0])
        (a, b), mid = sub[k], 0.5 * (sub[k][0] + sub[k][1])
        if overshoot(ext) <= 0 or not a < mid < b:
            kept.append(ext)
            continue
        for half in ((a, mid), (mid, b)):
            heapq.heappush(heap, visit(sub[:k] + (half,) + sub[k + 1:]))
    ends = kept + [ext for _, _, ext in heap]
    return (min(e[0] for e in ends), max(e[1] for e in ends))


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
        try:
            return Const(math.pow(base.value, e))
        except (OverflowError, ValueError):
            raise ExprError(f"{base.value!r} ** {e!r} has no finite real value") from None
    return Pow(base, e)


def div(num, den) -> Expr:
    num, den = _as_expr(num), _as_expr(den)
    if isinstance(den, Const):
        if den.value == 0:
            raise ExprError("division by constant zero")
        return mul(Const(1.0 / den.value), num)
    return Quot(num, den)


def compose(outer: Expr, inner: Expr) -> Expr:
    """Substitute ``inner`` for the (single) variable of ``outer``."""
    outer = _as_expr(outer)
    free = outer.variables()
    if len(free) != 1:
        raise ExprError(f"compose needs a single-variable outer expression, got {sorted(free)}")
    (var,) = free
    return outer.subst({var: _as_expr(inner)})


# ---------------------------------------------------------------------------
# polynomial extraction
# ---------------------------------------------------------------------------

def poly_coeffs(expr: Expr, var: str) -> np.ndarray:
    """Return ascending coefficients of ``expr`` as a polynomial in ``var``,
    of degree at most POLY_DEGREE.

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
                if len(out) > POLY_DEGREE + 1:
                    raise ExprError("polynomial degree budget exceeded")
            return out
        if isinstance(e, Pow):
            if not float(e.exponent).is_integer() or e.exponent < 0:
                raise ExprError("non-natural exponent is not polynomial")
            out, base = np.array([1.0]), rec(e.base)
            for _ in range(int(e.exponent)):
                out = np.convolve(out, base)
                if len(out) > POLY_DEGREE + 1:
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
            value = float(tok)
        except ValueError:
            if not tok.isidentifier():
                raise ExprError(f"bad token {tok!r}") from None
            return Var(tok), pos
        return Const(value), pos
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
    if not isinstance(text, str):
        raise ExprError(f"an expression must be a string, not {type(text).__name__}")
    tokens = _tokenize(text)
    if not tokens:
        raise ExprError("empty expression")
    node, pos = _parse_tokens(tokens, 0)
    if pos != len(tokens):
        raise ExprError(f"trailing tokens: {' '.join(tokens[pos:])}")
    return node
