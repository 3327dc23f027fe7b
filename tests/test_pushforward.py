import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from conftest import cylinder_decomposition, unit_systems

from ffl.ifs import (CIFS, AffineMap, BudgetExhausted, SmoothMap, ValidationError,
                     build_fibre_product, cantor_system, fold)
from ffl.measure import (TWO_PI, FourierValue, character, exact_sweep, fourier_exact,
                         sample_points)
from ffl.pushforward import (SmoothMapF, map_norms, pushforward_fourier, conjugate_ifs,
                             ks_distance, _curvature)
from ffl import expr as ex, measure
from ffl.decay import _band_frequencies


def quadrature_transform(fn, xi, lip):
    """Oscillatory-integral oracle: adaptive quadrature on short panels."""
    panels = max(8, int(4 * abs(xi) * lip))
    edges = np.linspace(0.0, 1.0, min(panels, 4000) + 1)
    re = im = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        re += quad(lambda x: math.cos(2 * math.pi * xi * fn(x)), a, b)[0]
        im += quad(lambda x: -math.sin(2 * math.pi * xi * fn(x)), a, b)[0]
    return complex(re, im)


# -- derivative norms --------------------------------------------------------

def test_norms_square_in_two_variables():
    F = SmoothMapF.parse("(pow y 2)", {"x": (0, 1), "y": (0, 1)}, "y")
    n = map_norms(F)
    few = 4 * math.ulp(2.0)
    assert 2.0 <= n.sup_first <= 2.0 + few and 2.0 <= n.sup_second <= 2.0 + few
    assert 2.0 - few <= n.min_second <= 2.0
    assert n.sign_definite


def test_norms_cubic_flags_hypothesis_violation():
    n = map_norms(SmoothMapF.parse("(pow x 3)"))
    assert n.min_second == 0.0
    assert not n.sign_definite
    # away from 0 the second partial 6x keeps its sign
    away = map_norms(SmoothMapF.parse("(pow x 3)", {"x": (0.5, 1.0)}))
    assert away.sign_definite and 3.0 - 1e-12 <= away.min_second <= 3.0


def test_norms_quadratic_plus_linear():
    n = map_norms(SmoothMapF.parse("(add (pow x 2) (mul 0.5 x))"))
    assert n.sup_first == pytest.approx(2.5, abs=1e-9)
    assert n.sup_second == pytest.approx(2.0, abs=1e-9)
    assert n.min_second == pytest.approx(2.0, abs=1e-9)


def test_norms_certification_widens():
    # the enclosures cover the true extrema 2, 2, 2 of x^2 on [0, 1]
    cert = map_norms(SmoothMapF.parse("(pow x 2)"))
    assert cert.sup_first >= 2.0 and cert.sup_second >= 2.0
    assert cert.min_second <= 2.0


def test_certified_base_slope_covers_the_true_sup():
    # dF/dx = 1 - (x - 1/3)^2 peaks at 1 between any grid's points
    F = SmoothMapF.parse("(add y x (mul -0.3333333333333333 "
                         "(pow (add x -0.3333333333333333) 3)))")
    assert 1.0 <= map_norms(F).sup_base <= 1.0 + 1e-9
    assert map_norms(SmoothMapF.parse("(pow x 2)")).sup_base == 0.0


def test_base_and_cross_curvature_cover_sampled_partials():
    # F = x y + y^2 + x^2 y - x^2 / 2: F_xx = 2y - 1, F_xy = 1 + 2x and F_yy = 2
    F = SmoothMapF.parse("(add (mul x y) (pow y 2) (mul (pow x 2) y) (mul -0.5 (pow x 2)))")
    n = map_norms(F)
    grid = np.linspace(0.0, 1.0, 101)
    x, y = np.meshgrid(grid, grid)
    assert n.sup_base_second >= np.abs(2 * y - 1).max() == 1.0
    assert n.sup_cross >= np.abs(1 + 2 * x).max() == 3.0
    assert n.sup_base_second <= 1.0 + 1e-9 and n.sup_cross <= 3.0 + 1e-9
    assert n.sup_second >= 2.0 and n.sup_base >= np.abs(y + 2 * x * y - x).max()
    # a function of one variable pays for two enclosures only
    with mock.patch("ffl.pushforward.ex.enclose", wraps=ex.enclose) as spy:
        one = map_norms(SmoothMapF.parse("(pow x 2)"))
    assert spy.call_count == 2
    assert one.sup_base == one.sup_base_second == one.sup_cross == 0.0


# -- pushforward transforms ---------------------------------------------------

def test_identity_pushforward_matches_plain(cantor):
    F = SmoothMapF.parse("x")
    for xi in (2.0, 9.5):
        a = pushforward_fourier(F, cantor, [xi], tol=1e-7)[0]
        b = fourier_exact(cantor, xi, tol=1e-7)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound


def test_translation_map_pushforward(cantor):
    c = 0.21
    F = SmoothMapF.parse(f"(add x {c})")
    for xi in (1.5, 7.0):
        a = pushforward_fourier(F, cantor, [xi], tol=1e-7)[0]
        b = fourier_exact(cantor, xi, tol=1e-7)
        target = np.exp(-2j * np.pi * xi * c) * b.value
        assert abs(a.value - target) <= a.error_bound + b.error_bound


def test_affine_covariance(cantor):
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b = rng.uniform(0.2, 1.0), rng.uniform(-0.3, 0.3)
        xi = rng.uniform(0.5, 30.0)
        F = SmoothMapF.parse(f"(add (mul {a} x) {b})")
        lhs = pushforward_fourier(F, cantor, [xi], tol=1e-7)[0]
        rhs = fourier_exact(cantor, a * xi, tol=1e-7)
        target = np.exp(-2j * np.pi * xi * b) * rhs.value
        assert abs(lhs.value - target) <= lhs.error_bound + rhs.error_bound


def test_square_pushforward_against_quadrature(dyadic):
    F = SmoothMapF.parse("(pow x 2)")
    xi = 10.0
    fv = pushforward_fourier(F, dyadic, [xi], tol=1e-6, budget=300_000_000)[0]
    oracle = quadrature_transform(lambda x: x * x, xi, 2.0)
    assert abs(fv.value - oracle) <= 1e-6


def first_order_word_sum(system, coeffs, xi, words=1 << 17):
    """Sum of weight * e(xi F(anchor)) over every word of one length, with
    the first-order bound 2 pi |xi| Lip(F) sum weight * |ratio| (the
    attractor lies in [0, 1], so |y| <= 1 on it)."""
    ratios = np.array([system.maps[a].ratio for a in system.alphabet])
    translates = np.array([system.maps[a].translate for a in system.alphabet])
    weights = np.array([system.weights[a] for a in system.alphabet])
    a, rho, w = np.zeros(1), np.ones(1), np.ones(1)
    for _ in range(int(math.log(words) / math.log(len(ratios)))):
        a = (a[:, None] + rho[:, None] * translates).ravel()
        rho = (rho[:, None] * ratios).ravel()
        w = (w[:, None] * weights).ravel()
    value = complex(np.sum(w * np.exp(-2j * np.pi * xi * np.polyval(coeffs[::-1], a))))
    lip = sum(k * abs(c) for k, c in enumerate(coeffs))
    return value, 2 * math.pi * abs(xi) * lip * float(np.sum(w * np.abs(rho)))


@settings(max_examples=12, deadline=None)
@given(unit_systems(max_ratio=0.4),
       st.lists(st.integers(-8, 8).map(lambda k: k / 8), max_size=3),
       st.integers(-8, 8).filter(bool).map(lambda k: k / 8),
       st.floats(0.5, 12.0) | st.floats(-12.0, -0.5), st.sampled_from([1e-2, 1e-3, 1e-4]))
def test_second_order_rule_against_a_first_order_word_sum(system, lower, top, xi, tol):
    coeffs = lower + [top]  # a polynomial of degree len(lower) <= 3
    F = SmoothMapF.parse("(add 0 " + " ".join(
        f"(mul {c!r} (pow x {k}))" for k, c in enumerate(coeffs)) + ")")
    fv, = pushforward_fourier(F, system, [xi], tol=tol)
    value, err = first_order_word_sum(system, np.array(coeffs), xi)
    assert abs(fv.value - value) <= fv.error_bound + err + 1e-12
    assert fv.error_bound <= tol * (1 + 1e-12)  # rounding of the stopping ratio
    assert fv.kind == "rigorous"


def test_square_pushforward_on_cantor_against_quadrature_of_selfsim(cantor):
    # cross-check at moderate frequency against direct sampling quadrature
    F = SmoothMapF.parse("(pow x 2)")
    xi = 4.0
    fv = pushforward_fourier(F, cantor, [xi], tol=1e-6)[0]
    pts = sample_points(cantor, 2_000_000, seed=17).points
    mc = np.exp(-2j * np.pi * xi * pts ** 2).mean()
    assert abs(fv.value - mc) <= fv.error_bound + 4 / math.sqrt(len(pts))


def test_pushforward_label_follows_norm_rigor(cantor):
    F = SmoothMapF.parse("(pow x 2)")
    assert pushforward_fourier(F, cantor, [7.0], tol=1e-4)[0].kind == "rigorous"
    smooth = CIFS((0, 1), {0: SmoothMap.from_expr("(mul 0.3 x)"),
                           1: SmoothMap.from_expr("(add 0.6 (mul 0.3 x))")},
                  {0: 0.5, 1: 0.5})
    assert pushforward_fourier(F, smooth, [7.0], tol=1e-4)[0].kind == "rigorous"
    declared = CIFS((0, 1), {0: SmoothMap.from_expr("(mul 0.3 x)", declared_bound=0.3),
                             1: SmoothMap.from_expr("(add 0.6 (mul 0.3 x))")},
                    {0: 0.5, 1: 0.5})
    assert pushforward_fourier(F, declared, [7.0], tol=1e-4)[0].kind == "estimate"


def centre_word_sum(maps, weights, F, lip, xi, depth=16):
    """Sum of weight * e(xi F(centre)) over the cylinder intervals f_w([0, 1])
    of every word of one length, for increasing maps of [0, 1], with the
    first-order bound 2 pi |xi| Lip(F) sum weight * diameter / 2."""
    lo, hi, w = np.zeros(1), np.ones(1), np.ones(1)
    for _ in range(depth):
        lo = np.concatenate([f(lo) for f in maps])
        hi = np.concatenate([f(hi) for f in maps])
        w = np.concatenate([p * w for p in weights])
    value = complex(np.sum(w * np.exp(-2j * np.pi * xi * F(0.5 * (lo + hi)))))
    return value, math.pi * abs(xi) * lip * float(np.sum(w * (hi - lo)))


@st.composite
def smooth_pairs(draw):
    """Two increasing maps t + k (x + c x^2) of [0, 1] with certified
    contraction bounds at least 0.05 apart, and random weights."""
    maps = {}
    for i in range(2):
        c = draw(st.floats(0.0, 1.0))
        r = draw(st.floats(0.15, 0.45))  # the slope at x = 1
        k = r / (1 + 2 * c)
        t = draw(st.floats(0.0, 1.0 - k * (1 + c)))
        maps[i] = SmoothMap.from_expr(f"(add {t!r} (mul {k!r} (add x (mul {c!r} (pow x 2)))))")
    assume(abs(maps[0].contraction_bound - maps[1].contraction_bound) >= 0.05)
    p = draw(st.floats(0.2, 0.8))
    return CIFS((0, 1), maps, {0: p, 1: 1.0 - p})


@settings(max_examples=25, deadline=None)
@given(smooth_pairs(), st.floats(0.5, 12.0) | st.floats(-12.0, -0.5),
       st.sampled_from([1e-2, 1e-3]))
def test_smooth_system_values_hold_their_bounds(system, xi, tol):
    F = SmoothMapF.parse("(add (pow x 2) (mul -0.5 x))")
    fv, = pushforward_fourier(F, system, [xi], tol=tol)
    value, err = centre_word_sum([system.maps[0], system.maps[1]],
                                 [system.weights[0], system.weights[1]],
                                 lambda x: x ** 2 - 0.5 * x, 1.5, xi)
    assert abs(fv.value - value) <= fv.error_bound + err + 1e-12
    assert fv.error_bound <= tol and fv.kind == "rigorous"


def test_smooth_system_with_a_tail_mass():
    # the walk renormalises the kept weights and adds the tail's effect;
    # a sum over raw weights held mass 0.9^depth and reported 1e-4 here
    F = SmoothMapF.parse("(pow x 2)")
    maps = {0: SmoothMap.from_expr("(mul 0.3 x)"),
            1: SmoothMap.from_expr("(add 0.6 (mul 0.3 x))")}
    tail = CIFS((0, 1), maps, {0: 0.45, 1: 0.45}, tail_mass=0.1)
    fv, = pushforward_fourier(F, tail, [7.0], tol=1e-4)
    assert fv.error_bound >= 2 * math.pi * 7.0 * 0.1
    kept, = pushforward_fourier(F, CIFS((0, 1), maps, {0: 0.5, 1: 0.5}), [7.0], tol=1e-4)
    assert fv.value == kept.value


def test_pushforward_on_a_smooth_base_fibre_product():
    fp = build_fibre_product(
        {"L": SmoothMap.from_expr("(mul 0.3 (add x (mul 0.2 (pow x 2))))"),
         "R": AffineMap(0.3, 0.6)},
        {"L": {0: AffineMap(1 / 3, 0.0), 1: AffineMap(1 / 3, 2 / 3)},
         "R": {0: AffineMap(1 / 3, 1 / 3)}},
        {("L", 0): 1 / 3, ("L", 1): 1 / 3, ("R", 0): 1 / 3})
    F = SmoothMapF.parse("(add (mul 0.5 x) (pow y 2))", {"x": (0, 1), "y": (0, 1)}, "y")
    fv, = pushforward_fourier(F, fp, [5.0], tol=1e-2)
    assert fv.kind == "rigorous"
    pts = sample_points(fp, 200_000, seed=13).points
    mc = np.exp(-2j * np.pi * 5.0 * (0.5 * pts[:, 0] + pts[:, 1] ** 2)).mean()
    assert abs(fv.value - mc) <= fv.error_bound + 4 / math.sqrt(len(pts))


def test_folded_smooth_words_keep_certified_bounds():
    # the n-fold composition of a certified smooth base map is certified
    # too, so the fibre product's pushforward values stay rigorous
    curved = SmoothMap.from_expr("(mul 0.3 (add x (mul 0.2 (pow x 2))))")
    fp = build_fibre_product(
        {"L": curved, "R": AffineMap(0.3, 0.6)},
        {"L": {0: AffineMap(1 / 3, 0.0), 1: AffineMap(0.25, 2 / 3)},
         "R": {0: AffineMap(0.25, 1 / 3)}},
        {("L", 0): 1 / 3, ("L", 1): 1 / 3, ("R", 0): 1 / 3})
    assert fp.fold == 2
    smooth = [m for m in fp.base_maps.values() if isinstance(m, SmoothMap)]
    assert smooth and all(m.bound_kind == "certified" for m in smooth)
    for m in smooth:  # the rounded-up product dominates the derivative
        lo, hi = ex.enclose(m.expr.diff(m.var), {m.var: m.domain})
        assert max(-lo, hi) <= m.contraction_bound < 1.0
    F = SmoothMapF.parse("(add (mul 0.5 x) (pow y 2))", {"x": (0, 1), "y": (0, 1)}, "y")
    fv, = pushforward_fourier(F, fp, [3.0], tol=1e-2)
    assert fv.kind == "rigorous"
    # a declared member keeps the whole word declared
    loose = SmoothMap.from_expr("(mul 0.3 x)", declared_bound=0.5)
    assert fold([loose, curved]).bound_kind == "declared"
    assert fold([curved, AffineMap(0.3, 0.6), curved]).bound_kind == "certified"
    # so does a product clipped below 1
    near = SmoothMap(curved.expr, "x", (0.0, 1.0), 1.0 - 1e-16, "certified")
    clipped = fold([near, near])
    assert clipped.bound_kind == "declared" and clipped.contraction_bound == 1.0 - 1e-15


def test_pushforward_zero_frequency(cantor):
    fv = pushforward_fourier(SmoothMapF.parse("(pow x 2)"), cantor, [0.0])[0]
    assert fv.value == 1.0 + 0.0j


def test_pushforward_rejects_a_system_that_leaves_the_box():
    # {x/2, x/2 + 4} has attractor [0, 8], but the norms of x^3 hold on its
    # box [0, 1] only: the value there lay 0.167 from a Monte Carlo
    # estimate, 5.6 times its bound 0.0295
    far = CIFS((0, 1), {0: AffineMap(0.5, 0.0), 1: AffineMap(0.5, 4.0)}, {0: 0.5, 1: 0.5})
    with pytest.raises(ValidationError, match="outside itself"):
        pushforward_fourier(SmoothMapF.parse("(pow x 3)"), far, [0.05], tol=3e-2)
    # a box beyond [-1, 1], and one without the anchor 0
    wide = SmoothMapF.parse("(pow x 3)", {"x": (0.0, 8.0)})
    with pytest.raises(ValidationError, match=r"\[-1, 1\]"):
        pushforward_fourier(wide, far, [0.05], tol=3e-2)
    off = SmoothMapF.parse("(pow x 3)", {"x": (0.5, 1.0)})
    with pytest.raises(ValidationError, match="hold 0"):
        pushforward_fourier(off, cantor_system(), [0.05], tol=3e-2)


def test_pushforward_box_allows_rounding_only(cantor):
    F = SmoothMapF.parse("(pow x 2)")
    # an affine image 5e-10 past the box passed the old 1e-9 slack
    for t in (0.5000000005, -0.0000000005):
        over = CIFS((0, 1), {0: AffineMap(0.5, 0.0), 1: AffineMap(0.5, t)}, {0: 0.5, 1: 0.5})
        with pytest.raises(ValidationError, match="outside itself"):
            pushforward_fourier(F, over, [3.0], tol=1e-2)
    # an image one ulp past the edge, as a rounded translate may leave it
    edge = CIFS((0, 1), {0: AffineMap(0.5, 0.0), 1: AffineMap(0.5, 0.5 + 2.0 ** -52)},
                {0: 0.5, 1: 0.5})
    assert edge.maps[1](1.0) > 1.0
    assert pushforward_fourier(F, edge, [3.0], tol=1e-2)[0].kind == "rigorous"


def test_pushforward_fibre_product():
    fp = build_fibre_product(
        {"L": AffineMap(0.5, 0.0), "R": AffineMap(0.5, 0.5)},
        {"L": {0: AffineMap(1 / 3, 0.0), 1: AffineMap(1 / 3, 2 / 3)},
         "R": {0: AffineMap(1 / 3, 1 / 3)}},
        {("L", 0): 1 / 3, ("L", 1): 1 / 3, ("R", 0): 1 / 3})
    F = SmoothMapF.parse("(pow y 3)", {"x": (0, 1), "y": (0, 1)}, "y")
    fv = pushforward_fourier(F, fp, [5.0], tol=1e-4)[0]
    assert abs(fv.value) <= 1.0 + fv.error_bound
    # cross-check against direct planar sampling
    pts = sample_points(fp, 1_000_000, seed=9).points
    mc = np.exp(-2j * np.pi * 5.0 * pts[:, 1] ** 3).mean()
    assert abs(fv.value - mc) <= fv.error_bound + 4 / math.sqrt(len(pts))


@st.composite
def unit_fibre_products(draw):
    """Affine fibre products over two base maps that send [0, 1]^2 into
    itself, with ratios of both signs: family "a" holds the separated pair
    {r y, r y + 1 - r}, family "b" one more map."""
    def unit_map():
        r = draw(st.floats(0.15, 0.45)) * draw(st.sampled_from([-1.0, 1.0]))
        return AffineMap(r, draw(st.floats(*((0.0, 1.0 - r) if r > 0 else (-r, 1.0)))))

    r = draw(st.floats(0.15, 0.45))
    p = draw(st.floats(0.1, 0.45))
    return build_fibre_product(
        {"a": unit_map(), "b": unit_map()},
        {"a": {0: AffineMap(r, 0.0), 1: AffineMap(r, 1.0 - r)}, "b": {2: unit_map()}},
        {("a", 0): p, ("a", 1): p, ("b", 2): 1.0 - 2.0 * p})


def first_order_fibre_sum(system, F, lips, xi, depth=11):
    """Sum of weight * e(xi F(anchor)) over every word of one length of a
    fibre product of [0, 1]^2, with the first-order bound
    2 pi |xi| sum weight * (Lip_x |rho_x| + Lip_y |rho_y|)."""
    r = np.array([[f.ratio for f in column] for column in system.coordinates])
    t = np.array([[f.translate for f in column] for column in system.coordinates])
    w = np.array([system.weights[s] for s in system.alphabet])
    a, rho, p = np.zeros((2, 1)), np.ones((2, 1)), np.ones(1)
    for _ in range(depth):
        a = (a[:, :, None] + rho[:, :, None] * t[:, None, :]).reshape(2, -1)
        rho = (rho[:, :, None] * r[:, None, :]).reshape(2, -1)
        p = (p[:, None] * w).ravel()
    value = complex(np.sum(p * np.exp(-2j * np.pi * xi * F(*a))))
    return value, 2 * math.pi * abs(xi) * float(np.sum(p * (lips @ np.abs(rho))))


quarter = st.integers(-4, 4).map(lambda k: k / 4)
curvature = st.integers(1, 4).flatmap(lambda k: st.sampled_from([k / 4, -k / 4]))


@settings(max_examples=15, deadline=None)
@given(unit_fibre_products(), st.tuples(curvature, curvature, curvature), st.tuples(quarter, quarter),
       st.floats(0.5, 8.0) | st.floats(-8.0, -0.5), st.sampled_from([1e-2, 1e-3]))
def test_fibre_second_order_rule_against_a_first_order_word_sum(system, curved, linear,
                                                                xi, tol):
    (a, b, c), (d, e) = curved, linear  # F = a x^2 + b x y + c y^2 + d x + e y
    F = SmoothMapF.parse(f"(add (mul {a!r} (pow x 2)) (mul {b!r} (mul x y)) "
                         f"(mul {c!r} (pow y 2)) (mul {d!r} x) (mul {e!r} y))",
                         {"x": (0.0, 1.0), "y": (0.0, 1.0)}, "y")
    fv, = pushforward_fourier(F, system, [xi], tol=tol)
    lips = np.array([2 * abs(a) + abs(b) + abs(d), abs(b) + 2 * abs(c) + abs(e)])
    value, err = first_order_fibre_sum(
        system, lambda x, y: a * x * x + b * x * y + c * y * y + d * x + e * y, lips, xi)
    assert abs(fv.value - value) <= fv.error_bound + err + 1e-12
    assert fv.error_bound <= tol * (1 + 1e-12)  # rounding of the stopping rule
    assert fv.kind == "rigorous"


def test_fibre_product_rejects_a_first_variable_fibre():
    # anchors bind the fibre coordinate to the second domain variable
    fp = build_fibre_product(
        {"L": AffineMap(0.5, 0.0), "R": AffineMap(0.5, 0.5)},
        {"L": {0: AffineMap(1 / 3, 0.0), 1: AffineMap(1 / 3, 2 / 3)},
         "R": {0: AffineMap(1 / 3, 1 / 3)}},
        {("L", 0): 1 / 3, ("L", 1): 1 / 3, ("R", 0): 1 / 3})
    F = SmoothMapF.parse("(add (mul 0.5 x) (pow y 2))", fibre_var="x")
    with pytest.raises(ValidationError):
        pushforward_fourier(F, fp, [4.0], tol=1e-2)


def per_frequency_pushforward(F, system, xis, tol, budget):
    """``pushforward_fourier`` as it summed before its per-set blocks: the
    same tree, selection and sweep, with each frequency's terms summed on
    their own and the first frequency over budget found in frequency order."""
    names, norms = list(F.domain), map_norms(F)
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    live = [i for i in np.argsort(np.abs(xis), kind="stable").tolist() if xis[i] != 0]
    scales = [abs(float(xis[i])) for i in live]
    if system.is_affine:
        curvature, c2, lips = _curvature(F, norms)
        thetas = [min(1.0, math.sqrt(tol / 2 / (c2 * s))) if c2 * s > 0 else 1.0
                  for s in scales]
    else:
        lips = tuple(c * system.diam_constant
                     for c in (norms.sup_base, norms.sup_first)[-len(names):])
        thetas = [tol / (TWO_PI * s) for s in scales]
    tree, over = system.tree(thetas, lips, budget)
    out = [FourierValue(0.0, 1.0 + 0.0j, 0.0) if xi == 0 else None for xi in xis.tolist()]
    cut = next((k for k, past in enumerate(over) if past), len(live))
    exhausted = BudgetExhausted(f"stopping-set budget {budget} exhausted at frequency "
                                f"{float(xis[live[cut]])}") if cut < len(live) else None
    for i in live[cut:]:
        out[i] = exhausted
    if not cut:
        return out
    nodes, sets, keys = tree.select(thetas[:cut])
    anchors = dict(zip(names, tree.anchors[:, nodes]))
    at = lambda e: np.broadcast_to(np.asarray(e.eval(anchors), dtype=float), nodes.shape)
    w, rho, f = tree.weights[nodes], tree.ratios[:, nodes], at(F.expr)
    if not system.is_affine:
        kind = "estimate" if any(isinstance(m, SmoothMap) and m.bound_kind == "declared"
                                 for column in system.coordinates for m in column) else "rigorous"
        sets = [(w[s], f[s], float(np.sum(w[s] * tree.bounds[nodes[s]]))) for s in sets]
        for i, k in zip(live, keys):
            xi, (ws, fs, spread) = float(xis[i]), sets[k]
            out[i] = FourierValue(xi, complex(np.sum(ws * character(xi * fs))),
                                  min(TWO_PI * abs(xi) * spread, tol)
                                  + TWO_PI * abs(xi) * system.tail_mass, kind=kind)
        return out
    grad = np.array([at(F.expr.diff(v)) for v in names[:-1]] + [at(F.first)])
    sets = [(w[s], rho[:, s], f[s], grad[:, s]) for s in sets]
    rows = [(float(xis[i]), i, *sets[k]) for i, k in zip(live, keys)]
    args = np.concatenate([xi * g * r for xi, _, _, r, _, g in rows], axis=1)
    mu, achieved = exact_sweep(system, args.T, tol / 2, budget)
    start, exhausted = 0, None
    for xi, i, w, rho, f, _ in rows:
        m, leaf = mu[start:start + w.size], achieved[start:start + w.size]
        start += w.size
        size = np.abs(rho)
        err = sum(C * abs(xi) * float(np.sum(w * size[c] * size[d])) for c, d, C in curvature)
        tail = TWO_PI * abs(xi) * system.tail_mass
        if exhausted is None and np.isnan(m).any():
            exhausted = BudgetExhausted(
                f"stopping-set budget {budget} exhausted at frequency {xi}",
                achieved=err + float(np.sum(w * np.where(np.isnan(m), leaf, tol / 2))) + tail)
        out[i] = exhausted or FourierValue(xi, complex(np.sum(w * character(xi * f) * m)),
                                           err + tol / 2 + tail)
    return out


def entry_bits(entry):
    """An entry's fields, floats as hex: equal tuples are equal bit for bit."""
    if isinstance(entry, BudgetExhausted):
        return ("over", str(entry), None if entry.achieved is None else entry.achieved.hex())
    return (entry.frequency.hex(), entry.value.real.hex(), entry.value.imag.hex(),
            entry.error_bound.hex(), entry.kind)


@st.composite
def frequency_batches(draw):
    """Frequencies with some |xi| of both signs, and sometimes 0, in any order."""
    xis = draw(st.lists(st.floats(0.5, 60.0) | st.floats(60.0, 1000.0), min_size=1, max_size=6))
    xis += [-xi for xi in xis[:draw(st.integers(0, len(xis)))]]
    xis += [0.0] * draw(st.integers(0, 2))
    return draw(st.permutations(xis))


line_curves = st.sampled_from(["(pow x 2)", "(add (pow x 3) (mul -0.5 x))", "(mul 0.7 x)"])
plane_curves = st.sampled_from(["(add (mul 0.5 x) (pow y 2))",
                                "(add (mul x y) (mul -0.25 (pow y 2)) (pow x 2))"])


@settings(max_examples=80, deadline=None)
@given(st.one_of(
           st.tuples(unit_systems(max_ratio=0.4), line_curves, st.just({"x": (0.0, 1.0)})),
           st.tuples(unit_fibre_products(), plane_curves,
                     st.just({"x": (0.0, 1.0), "y": (0.0, 1.0)})),
           st.tuples(smooth_pairs(), line_curves, st.just({"x": (0.0, 1.0)}))),
       frequency_batches(), st.sampled_from([1e-2, 1e-3, 1e4, 1e4]),
       st.sampled_from([8, 30, 200, 50_000_000]))
def test_per_set_sums_match_the_per_frequency_loop(case, xis, tol, budget):
    # tol 1e4 stops every word at length 1, so one set holds the batch and
    # its larger |xi| take sweeps past the smaller budgets
    system, expr, domain = case
    F = SmoothMapF.parse(expr, domain, list(domain)[-1])
    got = pushforward_fourier(F, system, xis, tol=tol, budget=budget)
    want = per_frequency_pushforward(F, system, xis, tol, budget)
    assert [entry_bits(e) for e in got] == [entry_bits(e) for e in want]


@settings(max_examples=40, deadline=None)
@given(st.one_of(
           st.tuples(unit_systems(max_ratio=0.4), line_curves, st.just({"x": (0.0, 1.0)})),
           st.tuples(unit_fibre_products(), plane_curves,
                     st.just({"x": (0.0, 1.0), "y": (0.0, 1.0)})),
           st.tuples(smooth_pairs(), line_curves, st.just({"x": (0.0, 1.0)}))),
       frequency_batches(), st.sampled_from([1e-2, 1e-3, 1e4]),
       st.sampled_from([8, 30, 200, 50_000_000]))
def test_row_blocks_do_not_move_a_bit(case, xis, tol, budget):
    # blocks of 1 and 7 cells cut each set's frequencies x cylinders, and
    # their sweeps, into single rows or a few: every value, bound and
    # BudgetExhausted stays the one of the default blocks, bit for bit
    system, expr, domain = case
    F = SmoothMapF.parse(expr, domain, list(domain)[-1])
    got = [entry_bits(e) for e in pushforward_fourier(F, system, xis, tol=tol, budget=budget)]
    for block in (1, 7):
        with mock.patch.object(measure, "ROW_BLOCK", block):
            assert [entry_bits(e) for e in pushforward_fourier(
                F, system, xis, tol=tol, budget=budget)] == got


def test_a_large_batch_streams_its_cells(cantor):
    # bands 3^3..3^8 of 64 samples at tol 1e-6: stopping sets of up to 4,096
    # cylinders, about 890,000 frequency x cylinder cells in all, which the
    # pushforward takes ROW_BLOCK cells at a time; arrays of the whole
    # batch's arguments, transforms and characters would take about 84 MiB
    bands = list(range(3, 9))
    xis = _band_frequencies([3.0 ** j for j in bands], 64, 1, bands).ravel()
    F = SmoothMapF.parse("(pow x 2)")
    pushforward_fourier(F, cantor, xis[:64], tol=1e-6)  # the norms and moments, built once
    tracemalloc.start()
    try:
        entries = pushforward_fourier(F, cantor, xis, tol=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(isinstance(e, FourierValue) for e in entries)
    assert peak < 8 * 2 ** 20


def test_a_sweep_budget_cut_inside_a_stopping_set(two_ratio):
    # the larger frequencies of a stopping set go over the sweep's budget:
    # those and every frequency at least as large report the achieved of
    # the first in order of |xi|. At tol 1e4 every word stops at length 1,
    # so one set holds the batch; at tol 1e2 six sets do, and the sets of
    # larger |xi| than the first over budget report it too
    F = SmoothMapF.parse("(pow x 2)")
    _, c2, lips = _curvature(F, F.norms)
    for tol, budget, xis, over, first in (
            (1e4, 10, [12.0, 1.0, -15.0, 0.0, 25.0, 15.0, 5.0],
             [False, False, True, False, True, True, False], "-15.0"),
            (1e2, 20, [71.0, 5.0, -597.0, 0.0, 206.0, -71.0, 5000.0, 25.0, 1728.0],
             [True, False, True, False, True, True, True, False, True], "71.0")):
        thetas = [min(1.0, math.sqrt(tol / 2 / (c2 * abs(xi)))) for xi in xis if xi]
        tree, _ = two_ratio.tree(thetas, lips, 10 ** 6)
        assert len(set(tree.select(thetas)[2])) == (1 if tol == 1e4 else 6)
        got = pushforward_fourier(F, two_ratio, xis, tol=tol, budget=budget)
        assert [entry_bits(e) for e in got] == [
            entry_bits(e) for e in per_frequency_pushforward(F, two_ratio, xis, tol, budget)]
        assert [isinstance(e, BudgetExhausted) for e in got] == over
        # past the sweep's cut; the largest may be past the tree's, with no achieved
        cut = [e for e in got if isinstance(e, BudgetExhausted) and e.achieved is not None]
        assert all(e is cut[0] for e in cut) and str(cut[0]).endswith(f"frequency {first}")
        assert cut[0].achieved > 0


# -- stopping sets -------------------------------------------------------------

def test_stopping_set_homogeneous_exact_depth(dyadic):
    dec = cylinder_decomposition(dyadic, 64.0 ** -0.5)
    assert all(len(w) == 3 for w in dec.words)
    assert len(dec.words) == 8
    assert (dec.ratios == 0.125).all()


def test_stopping_set_two_ratio_cases():
    sys = CIFS(("a", "b"), {"a": AffineMap(0.5, 0.0), "b": AffineMap(1 / 3, 0.5)},
               {"a": 0.5, "b": 0.5})
    dec = cylinder_decomposition(sys, 64.0 ** -0.5)
    symbols = set(dec.words)
    assert ("a", "a", "a") in symbols
    assert ("a", "b") not in symbols
    assert ("a", "b", "b") in symbols


def test_stopping_set_invariants(two_ratio):
    threshold = 37.0 ** -0.4
    dec = cylinder_decomposition(two_ratio, threshold)
    assert dec.mass() == pytest.approx(1.0, abs=1e-9)
    for w, ratio in zip(dec.words, dec.ratios):
        assert abs(ratio) <= threshold
        parent = 1.0
        for s in w[:-1]:
            parent *= two_ratio.maps[s].ratio
        assert abs(parent) > threshold
    symbols = set(dec.words)
    for w in symbols:  # prefix-freeness
        for cut in range(1, len(w)):
            assert w[:cut] not in symbols


def test_stopping_set_boundary_small_delta(two_ratio):
    # threshold above every single-letter ratio: single letters exactly
    dec = cylinder_decomposition(two_ratio, 1.2 ** -0.05)
    assert sorted(dec.words) == [(0,), (1,)]


def test_stopping_set_of_smooth_maps():
    # products of contraction bounds stand in for the ratios
    smooth = CIFS((0, 1), {0: SmoothMap.from_expr("(mul 0.3 x)"),
                           1: SmoothMap.from_expr("(add 0.6 (mul 0.3 x))")},
                  {0: 0.5, 1: 0.5})
    dec = cylinder_decomposition(smooth, 0.1)
    assert all(len(w) == 2 for w in dec.words)
    assert dec.ratios == pytest.approx(0.09, rel=1e-12)


def test_split_reconstruction_random_frequencies(cantor):
    # the first-order word sum that the proof splits into good and bad words,
    # against the second-order rule: over the stopping set at
    # theta = slack / (2 pi |xi| sup|F'|), each term weight * e(xi F(a_w)) is
    # within weight * slack of its cylinder's share of the transform. (At the
    # split's own scale |xi|^-0.25 that allowance exceeds 2 and checks nothing.)
    F = SmoothMapF.parse("(add (pow x 2) x)")
    sup_first, slack = map_norms(F).sup_first, 0.02
    xis = 10.0 ** np.random.default_rng(5).uniform(1, 4, size=10)
    for xi, ref in zip(xis.tolist(), pushforward_fourier(F, cantor, xis, tol=1e-6)):
        dec = cylinder_decomposition(cantor, slack / (TWO_PI * xi * sup_first))
        total = (dec.weights * character(xi * F.expr.eval({"x": dec.anchors}))).sum()
        assert abs(total - ref.value) <= slack + ref.error_bound


def test_chain_rule_identity(cantor):
    F = SmoothMapF.parse("(add (pow x 3) (mul 0.25 x))")
    rng = np.random.default_rng(11)
    for a in cantor.alphabet:
        m = cantor.maps[a]
        comp = F.expr.subst({"x": ex.add(ex.mul(m.ratio, ex.Var("x")), m.translate)})
        d1 = comp.diff("x")
        d2 = d1.diff("x")
        for x in rng.random(10):
            lhs1 = d1.eval({"x": x})
            rhs1 = F.first.eval({"x": m(x)}) * m.ratio
            assert abs(lhs1 - rhs1) <= 1e-9
            lhs2 = d2.eval({"x": x})
            rhs2 = F.second.eval({"x": m(x)}) * m.ratio ** 2
            assert abs(lhs2 - rhs2) <= 1e-9


# -- conjugation -------------------------------------------------------------------

def quarter_system():
    return CIFS((0, 1), {0: AffineMap(0.25, 0.0), 1: AffineMap(0.25, 0.75)},
                {0: 0.5, 1: 0.5})


def test_conjugate_identity_returns_same_system():
    psi = quarter_system()
    res = conjugate_ifs(psi, SmoothMapF.parse("x"), "x", verify=False)
    assert res.system is psi


def test_conjugate_square_ks(cantor):
    psi = quarter_system()
    res = conjugate_ifs(psi, SmoothMapF.parse("(pow x 2)"), "(pow x 0.5)",
                        draws=100_000, seed=4)
    assert res.ks_statistic <= 0.02


def test_conjugate_affine_preserves_ratios():
    psi = quarter_system()
    res = conjugate_ifs(psi, SmoothMapF.parse("(mul 0.5 x)"), "(mul 2 x)",
                        verify=False)
    assert [res.system.maps[a].ratio for a in res.system.alphabet] == [0.25, 0.25]


def test_conjugate_rejects_non_monotone():
    psi = quarter_system()
    bump = SmoothMapF.parse("(mul 4 (mul x (sub 1 x)))")  # 4x(1-x)
    with pytest.raises(ValidationError):
        conjugate_ifs(psi, bump, "x", verify=False)


def test_conjugate_rejects_bad_inverse():
    psi = quarter_system()
    with pytest.raises(ValidationError):
        conjugate_ifs(psi, SmoothMapF.parse("(pow x 2)"), "(mul 0.5 x)",
                      verify=False)


def test_ks_distance_basics():
    rng = np.random.default_rng(0)
    a = rng.random(50_000)
    b = rng.random(50_000)
    assert ks_distance(a, a) == 0.0
    assert ks_distance(a, b) <= 0.02
    assert ks_distance(a, a + 0.5) >= 0.45


# -- decay direction ----------------------------------------------------------------

def test_curved_pushforward_band_maxima_eventually_decrease(cantor):
    from ffl.decay import band_maxima
    F = SmoothMapF.parse("(add (pow x 2) x)")
    ev = lambda xis: pushforward_fourier(F, cantor, xis, tol=1e-4)
    bands = band_maxima(ev, range(3, 11), 64, seed=1, band_base=2.0)
    early = max(b.peak for b in bands[:2])
    late = max(b.peak for b in bands[-2:])
    assert late < early


def test_conjugacy_fourier_route():
    # the transform of a smooth system's stationary law, computed through
    # its affine model: conjugate, then push the model measure forward
    psi = quarter_system()
    F = SmoothMapF.parse("(pow x 2)")
    res = conjugate_ifs(psi, F, "(pow x 0.5)", verify=False)
    fv = pushforward_fourier(F, psi, [3.0], tol=1e-6)[0]
    pts = sample_points(res.system, 500_000, tol=1e-9, seed=29).points
    mc = np.exp(-2j * np.pi * 3.0 * pts).mean()
    assert abs(fv.value - mc) <= fv.error_bound + 4 / math.sqrt(len(pts))


def _entry(e):
    """An entry of a pushforward batch as comparable values, bit for bit."""
    if isinstance(e, BudgetExhausted):
        return "budget", str(e), repr(e.achieved)
    return repr(e.frequency), repr(e.value), repr(e.error_bound), e.kind


@settings(max_examples=60, deadline=None)
@given(unit_systems(max_ratio=0.5),
       # steep maps give the sweep wide arguments, which its budget may cut
       st.sampled_from(["(pow x 2)", "(add (mul -0.7 (pow x 3)) (mul 0.4 x))",
                        "(add (mul 40 x) (mul 0.01 (pow x 2)))", "(mul -30 x)"]),
       st.lists(st.floats(-2000.0, 2000.0), min_size=1, max_size=12),
       st.sampled_from([1e-2, 1e-4, 1e-7]), st.sampled_from([8, 40, 10 ** 6]))
def test_the_one_row_listing_is_the_every_row_listing(system, expr, xis, tol, budget):
    # on the line the sweep listing reads each stopping set's largest |xi|
    # row; fed every row the sweep sees, it gives the same entries, over
    # budget or not, bit for bit
    F = SmoothMapF.parse(expr)
    rows = []

    def seen(listing, etas, *rest):
        rows.append(etas.copy())
        return measure.sweep_rows(listing, etas, *rest)

    def every_row(system, tol, budget, blocks):
        for _ in blocks:  # the one-row feed still runs
            pass
        return measure.sweep_listing(system, tol, budget, rows)

    with mock.patch("ffl.pushforward.sweep_rows", side_effect=seen):
        got = pushforward_fourier(F, system, xis, tol=tol, budget=budget)
    with mock.patch("ffl.pushforward.sweep_listing", side_effect=every_row):
        want = pushforward_fourier(F, system, xis, tol=tol, budget=budget)
    assert [_entry(e) for e in got] == [_entry(e) for e in want]
