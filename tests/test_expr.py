import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffl import expr as ex


def test_parse_eval_basic():
    e = ex.parse("(add (pow x 2) (mul 0.5 x))")
    assert e.eval({"x": 2.0}) == pytest.approx(5.0)
    xs = np.array([0.0, 1.0, 3.0])
    np.testing.assert_allclose(e.eval({"x": xs}), xs ** 2 + 0.5 * xs)


def test_parse_rejects_garbage():
    for bad in ("", "(frob x 1)", "(add x", "(pow x y)", "x )", "(div 1 0)"):
        with pytest.raises(ex.ExprError):
            ex.parse(bad)


def test_unbound_variable_errors():
    with pytest.raises(ex.ExprError):
        ex.parse("(add x y)").eval({"x": 1.0})


def test_diff_product_quotient_power():
    e = ex.parse("(div (pow x 3) (add x 1))")
    d = e.diff("x")
    for x in (0.0, 0.5, 2.0):
        truth = (3 * x ** 2 * (x + 1) - x ** 3) / (x + 1) ** 2
        assert d.eval({"x": x}) == pytest.approx(truth, rel=1e-12)


def test_diff_fractional_power():
    e = ex.parse("(pow x 0.5)")
    d = e.diff("x")
    assert d.eval({"x": 4.0}) == pytest.approx(0.25)


def test_compose_is_substitution():
    f = ex.parse("(pow x 2)")
    g = ex.parse("(add (mul 0.25 y) 0.75)")
    h = ex.compose(f, g)
    assert h.eval({"y": 1.0}) == pytest.approx(1.0)
    # chain rule falls out of substitution
    assert h.diff("y").eval({"y": 1.0}) == pytest.approx(2 * 1.0 * 0.25)


def test_interval_extension_contains_range():
    e = ex.parse("(add (pow x 2) (mul -1 x))")  # x^2 - x on [0,1], range [-1/4, 0]
    lo, hi = e.interval({"x": (0.0, 1.0)})
    xs = np.linspace(0, 1, 1001)
    vals = xs ** 2 - xs
    assert lo <= vals.min() and hi >= vals.max()


def test_interval_even_power_through_zero():
    lo, hi = ex.parse("(pow x 2)").interval({"x": (-2.0, 1.0)})
    assert lo == 0.0 and 4.0 <= hi <= 4.0 + 4 * math.ulp(4.0)


def test_interval_rounds_outward():
    # 0.1 + 0.2 rounds up to 0.30000000000000004, above the exact sum
    lo, hi = ex.parse("(add x y)").interval({"x": (0.1, 0.1), "y": (0.2, 0.2)})
    exact = Fraction(0.1) + Fraction(0.2)
    assert lo <= exact <= hi and hi - lo <= 4 * math.ulp(0.3)


def exact_value(e, env):
    """The exact rational value of a tree without fractional powers."""
    if isinstance(e, ex.Const):
        return Fraction(e.value)
    if isinstance(e, ex.Var):
        return Fraction(env[e.name])
    if isinstance(e, ex.Sum):
        return sum((exact_value(t, env) for t in e.terms), Fraction(0))
    if isinstance(e, ex.Prod):
        return math.prod((exact_value(f, env) for f in e.factors), start=Fraction(1))
    if isinstance(e, ex.Pow):
        return exact_value(e.base, env) ** int(e.exponent)
    return exact_value(e.num, env) / exact_value(e.den, env)


def tree_strategy(constants):
    return st.recursive(
        st.sampled_from([ex.Var("x"), ex.Var("y")]) | constants.map(ex.Const),
        lambda kids: (st.tuples(kids, kids).map(ex.Sum)
                      | st.tuples(kids, kids).map(ex.Prod)
                      | st.tuples(kids, st.integers(0, 4)).map(lambda t: ex.Pow(t[0], float(t[1])))
                      | st.tuples(kids, kids).map(lambda t: ex.Quot(*t))),
        max_leaves=8)


trees = tree_strategy(st.floats(-4, 4, allow_subnormal=False))
# with integer constants the constant folding of ``diff`` stays exact
integer_trees = tree_strategy(st.integers(-4, 4).map(float))
sides = st.tuples(st.floats(-3, 3), st.floats(-3, 3)).map(sorted)


@settings(max_examples=60, deadline=None)
@given(trees, sides, sides, st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                                     min_size=1, max_size=4))
def test_enclosure_holds_every_sampled_value(e, bx, by, fractions):
    box = {"x": tuple(bx), "y": tuple(by)}
    lo, hi = ex.enclose(e, box)
    corners = [(a, b) for a in bx for b in by]
    inside = [(bx[0] + s * (bx[1] - bx[0]), by[0] + t * (by[1] - by[0]))
              for s, t in fractions]
    for x, y in corners + inside:
        x, y = min(max(x, bx[0]), bx[1]), min(max(y, by[0]), by[1])
        try:
            value = exact_value(e, {"x": x, "y": y})
        except ZeroDivisionError:
            continue
        assert lo <= value <= hi
        plo, phi = e.interval({"x": (x, x), "y": (y, y)})
        assert plo <= value <= phi


@settings(max_examples=100, deadline=None)
@given(integer_trees, st.sampled_from(["x", "y"]), st.floats(-3, 3), st.floats(-3, 3))
def test_diff_matches_central_differences(e, var, x, y):
    # in exact arithmetic the central difference at step h is within
    # h^2 / 6 sup|f'''| over [p - h, p + h] of f'(p), for the first partial
    # f = e and the second, f = de/dvar
    h = Fraction(1, 1 << 20)
    point = {"x": Fraction(x), "y": Fraction(y)}
    box = {"x": (x, x), "y": (y, y)}
    box[var] = (math.nextafter(float(point[var] - h), -math.inf),
                math.nextafter(float(point[var] + h), math.inf))
    for f in (e, e.diff(var)):
        slope = f.diff(var)
        lo, hi = slope.diff(var).diff(var).interval(box)
        if not math.isfinite(lo) or not math.isfinite(hi):
            continue  # a pole within h, or an overflow
        try:
            up = exact_value(f, {**point, var: point[var] + h})
            down = exact_value(f, {**point, var: point[var] - h})
            exact = exact_value(slope, point)
        except ZeroDivisionError:
            continue
        assert abs((up - down) / (2 * h) - exact) <= h * h / 6 * Fraction(max(-lo, hi))


def test_enclosure_tightens_by_bisection():
    # x (1 - x) repeats x: its natural extension on [0, 1] is [0, 1]
    e = ex.parse("(mul x (add 1 (neg x)))")
    assert e.interval({"x": (0.0, 1.0)})[1] >= 1.0
    lo, hi = ex.enclose(e, {"x": (0.0, 1.0)})
    assert -1e-12 <= lo <= 0.0 and 0.25 <= hi <= 0.2501


atoms = st.sampled_from(["x", "y", "0", "1", "-2", "0.5", "3", "1e308", "1e-320",
                         "nan", "inf", "1x", "foo", ")"])
prefix = st.recursive(
    atoms, lambda kids: st.tuples(
        st.sampled_from(["add", "sub", "mul", "div", "neg", "pow", "compose", "frob"]),
        st.lists(kids, max_size=3),
    ).map(lambda t: "(" + " ".join((t[0], *t[1])) + ")"), max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(prefix | st.lists(atoms | st.just("("), max_size=12).map(" ".join) | st.none()
       | st.text(max_size=24))
def test_parse_returns_a_tree_or_raises_expr_error(text):
    try:
        tree = ex.parse(text)
    except ex.ExprError:
        return
    assert isinstance(tree, ex.Expr)


def test_interval_quotient_with_zero_denominator():
    lo, hi = ex.parse("(div 1 x)").interval({"x": (-1.0, 1.0)})
    assert lo == -math.inf and hi == math.inf


def test_poly_coeffs():
    e = ex.parse("(mul (add x 1) (add x -1))")  # x^2 - 1
    np.testing.assert_allclose(ex.poly_coeffs(e, "x"), [-1.0, 0.0, 1.0])
    with pytest.raises(ex.ExprError):
        ex.poly_coeffs(ex.parse("(pow x 0.5)"), "x")
    with pytest.raises(ex.ExprError):
        ex.poly_coeffs(ex.parse("(div 1 (add x 1))"), "x")


def test_prefix_round_trip():
    e = ex.parse("(add (pow y 2) (mul 0.5 y) -1)")
    again = ex.parse(e.to_prefix())
    for y in (0.0, 0.3, 1.0):
        assert again.eval({"y": y}) == e.eval({"y": y})
