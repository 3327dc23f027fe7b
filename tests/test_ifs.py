import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import fibre_systems, unit_systems
from ffl.ifs import (CIFS, AffineMap, FibreProductCIFS, SmoothMap, ValidationError,
                     SeparationError, fold, lyapunov,
                     build_fibre_product, fibre_product_from_1d,
                     cantor_system, dyadic_uniform_system)


def word_map(system, word):
    """f_w for the word w of ``system``: the fold of its maps."""
    return fold(system.maps[s] for s in word)


def ab_system():
    return CIFS(("a", "b"), {"a": AffineMap(0.5, 0.0), "b": AffineMap(1 / 3, 2 / 3)},
                {"a": 0.5, "b": 0.5})


# -- composition ------------------------------------------------------------

def test_compose_two_maps():
    m = word_map(ab_system(), ("a", "b"))
    assert m.ratio == pytest.approx(1 / 6)
    assert m.translate == pytest.approx(1 / 3)
    # x -> ((x+2)/3)/2 pointwise
    for x in (0.0, 0.4, 1.0):
        assert m(x) == pytest.approx(((x + 2) / 3) / 2)


def test_compose_empty_word_is_flagged_identity():
    m = word_map(ab_system(), ())
    assert m.ratio == 1.0 and m.translate == 0.0


def test_compose_power_word():
    m = word_map(CIFS(("a",), {"a": AffineMap(0.5, 0.0)}, {"a": 1.0}), ("a",) * 3)
    assert m.ratio == pytest.approx(1 / 8) and m.translate == 0.0


def test_compose_matches_right_to_left_fold():
    sys = ab_system()
    rng = np.random.default_rng(0)
    for _ in range(20):
        word = tuple(rng.choice(["a", "b"], size=rng.integers(1, 9)))
        m = word_map(sys, word)
        for x in rng.random(3):
            folded = x
            for s in reversed(word):
                folded = sys.maps[s](folded)
            assert abs(m(x) - folded) <= 1e-12


def test_compose_smooth_matches_fold():
    smooth = SmoothMap.from_expr("(add (mul 0.2 (pow x 2)) (mul 0.5 x))")
    sys = CIFS((0, 1), {0: smooth, 1: AffineMap(0.4, 0.6)}, {0: 0.5, 1: 0.5})
    m = word_map(sys, (0, 1, 0))
    for x in (0.0, 0.3, 1.0):
        folded = x
        for s in (0, 1, 0)[::-1]:
            folded = sys.maps[s](folded)
        assert abs(m(x) - folded) <= 1e-9


FOLD_MAPS = [AffineMap(0.5, 0.25), AffineMap(-1 / 3, 0.9), AffineMap(0.2, 0.0),
             SmoothMap.from_expr("(add (mul 0.2 (pow x 2)) (mul 0.5 x))"),
             SmoothMap.from_expr("(mul 0.3 (add x (mul 0.2 (pow x 2))))")]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, len(FOLD_MAPS) - 1), max_size=6))
def test_fold_matches_nested_evaluation(word):
    maps = [FOLD_MAPS[i] for i in word]
    m = fold(maps)
    affine = all(isinstance(f, AffineMap) for f in maps)
    assert isinstance(m, AffineMap) == affine
    if not word:
        assert (m.ratio, m.translate) == (1.0, 0.0)
    if not affine:  # rounded up past the exact product of the bounds, by a few ulps
        exact = math.prod(Fraction(f.contraction_bound) for f in maps)
        assert exact <= m.contraction_bound <= float(exact) * (1 + 1e-15 * len(maps))
        assert m.bound_kind == "certified"
    for x in (0.0, 0.37, 1.0):
        nested = x
        for f in reversed(maps):
            nested = f(nested)
        assert abs(m(x) - nested) <= 1e-12


def test_word_ratio_multiplies_exactly_for_dyadic():
    # dyadic ratios make float products exact, so concatenation is exact
    sys = dyadic_uniform_system()
    w1 = word_map(sys, (0, 1, 1))
    w2 = word_map(sys, (1, 0))
    w12 = word_map(sys, (0, 1, 1, 1, 0))
    assert w12.ratio == w1.ratio * w2.ratio
    assert w12.translate == w1.translate + w1.ratio * w2.translate


# -- validation -------------------------------------------------------------

def test_cifs_rejects_bad_weights():
    with pytest.raises(ValidationError):
        CIFS((0, 1), {0: AffineMap(0.5, 0.0), 1: AffineMap(0.5, 0.5)},
             {0: 0.5, 1: 0.6})
    with pytest.raises(ValidationError):
        CIFS((0,), {0: AffineMap(0.5, 0.0)}, {0: -1.0})


def test_cifs_rejects_expansion():
    with pytest.raises(ValidationError):
        CIFS((0,), {0: AffineMap(1.5, 0.0)}, {0: 1.0})


def test_smooth_map_certification():
    m = SmoothMap.from_expr("(add (mul 0.2 (pow x 2)) (mul 0.5 x))")
    # the enclosure of f' = 0.4 x + 0.5 covers its sup 0.9
    assert 0.9 <= m.contraction_bound <= 0.9 + 1e-12 and m.bound_kind == "certified"
    with pytest.raises(ValidationError):
        SmoothMap.from_expr("(mul 1.5 x)")  # expands
    with pytest.raises(ValidationError):
        SmoothMap.from_expr("(add x 0.5)")  # leaves the box


def test_smooth_map_box_allows_rounding_only():
    # the enclosure of x/2 + 0.5 reaches 1 + 2^-52 by outward rounding alone
    assert SmoothMap.from_expr("(add (mul 0.5 x) 0.5)").bound_kind == "certified"
    # 5e-10 past the edge passed the old 1e-9 slack and read "certified"
    with pytest.raises(ValidationError, match="into itself"):
        SmoothMap.from_expr("(add (mul 0.5 x) 0.5000000005)")
    with pytest.raises(ValidationError, match="into itself"):
        SmoothMap.from_expr("(add (mul 0.5 x) -0.0000000005)")


def test_smooth_map_rejects_a_slope_no_grid_sees():
    # f' = 1 - (x - 1/3)^2 reaches 1 at x = 1/3, between grid points; f
    # sends [0, 1] into [0.012, 0.902]
    with pytest.raises(ValidationError, match="not < 1"):
        SmoothMap.from_expr("(add x (mul -0.3333333333333333 "
                            "(pow (add x -0.3333333333333333) 3)))")


def test_tail_mass_accounting():
    sys = CIFS((0,), {0: AffineMap(0.5, 0.0)}, {0: 0.9}, tail_mass=0.1)
    assert sys.tail_mass == 0.1


def test_tail_mass_outside_the_unit_interval_is_rejected():
    # tail_mass -0.2 with weights 0.6, 0.6 gave fourier_exact a negative
    # "rigorous" error bound
    maps = {0: AffineMap(0.3, 0.0), 1: AffineMap(0.3, 0.7)}
    fp = fibre_product_from_1d(ab_system())
    for tail in (-0.2, 1.0, math.nan):
        with pytest.raises(ValidationError, match="tail_mass"):
            CIFS((0, 1), maps, {0: 0.6, 1: 0.6}, tail_mass=tail)
        with pytest.raises(ValidationError, match="tail_mass"):
            dataclasses.replace(fp, tail_mass=tail)


# -- Lyapunov exponent ------------------------------------------------------

def test_lyapunov_values(cantor, dyadic):
    assert lyapunov(cantor) == pytest.approx(math.log(3.0))
    assert lyapunov(dyadic) == pytest.approx(math.log(2.0))
    single = CIFS((0,), {0: AffineMap(1 / math.e, 0.0)}, {0: 1.0})
    assert lyapunov(single) == pytest.approx(1.0)


def test_lyapunov_relabeling_invariance(cantor):
    relabeled = CIFS(("q", "p"), {"q": cantor.maps[1], "p": cantor.maps[0]},
                     {"q": 0.5, "p": 0.5})
    assert lyapunov(relabeled) == lyapunov(cantor)


# -- fibre products ----------------------------------------------------------

def test_fibre_product_direct_pair():
    fp = build_fibre_product(
        {"j": AffineMap(0.5, 0.0)},
        {"j": {"l0": AffineMap(1 / 3, 0.0), "l1": AffineMap(1 / 3, 2 / 3)}},
        {("j", "l0"): 0.5, ("j", "l1"): 0.5})
    assert fp.fold == 1
    assert fp.pair.gap == pytest.approx(2 / 3)
    assert fp.pair.ratio == pytest.approx(1 / 3)


def test_fibre_product_touching_images_need_iteration():
    fp = build_fibre_product(
        {"j": AffineMap(0.5, 0.0)},
        {"j": {0: AffineMap(0.5, 0.0), 1: AffineMap(0.5, 0.5)}},
        {("j", 0): 0.5, ("j", 1): 0.5})
    assert fp.fold == 2
    ga = fp.fibre_maps[fp.pair.base_id][fp.pair.fibre_a]
    gb = fp.fibre_maps[fp.pair.base_id][fp.pair.fibre_b]
    (alo, ahi), (blo, bhi) = ga.image(), gb.image()
    assert ahi < blo or bhi < alo


def test_fibre_product_figure_carpet():
    # three planar maps with base ratio 1/2 and fibre ratio 1/3
    fp = build_fibre_product(
        {"left": AffineMap(0.5, 0.0), "right": AffineMap(0.5, 0.5)},
        {"left": {0: AffineMap(1 / 3, 0.0), 1: AffineMap(1 / 3, 2 / 3)},
         "right": {0: AffineMap(1 / 3, 1 / 3)}},
        {("left", 0): 1 / 3, ("left", 1): 1 / 3, ("right", 0): 1 / 3})
    assert fp.fold == 1
    assert fp.pair.base_id == "left"
    assert {abs(fp.base_map(s).ratio) for s in fp.alphabet} == {0.5}
    fibre_ratios = sorted(abs(fp.fibre_map(s).ratio) for s in fp.alphabet)
    assert fibre_ratios == pytest.approx([1 / 3] * 3)


def test_fibre_product_rejects_common_fixed_point():
    with pytest.raises(ValidationError):
        build_fibre_product(
            {"j": AffineMap(0.5, 0.0)},
            {"j": {0: AffineMap(0.5, 0.0), 1: AffineMap(0.25, 0.0)}},
            {("j", 0): 0.5, ("j", 1): 0.5})


def test_fibre_product_separation_failure():
    # touching images cannot separate when iteration is disallowed
    with pytest.raises(SeparationError):
        build_fibre_product(
            {"j": AffineMap(0.5, 0.0)},
            {"j": {0: AffineMap(0.5, 0.0), 1: AffineMap(0.5, 0.5)}},
            {("j", 0): 0.5, ("j", 1): 0.5}, n_max=1)


def test_separated_pair_invariants(two_ratio):
    fp = fibre_product_from_1d(two_ratio)
    p = fp.pair
    wa, wb = fp.weights[(p.base_id, p.fibre_a)], fp.weights[(p.base_id, p.fibre_b)]
    assert wa == wb == p.weight
    ga = fp.fibre_maps[p.base_id][p.fibre_a]
    gb = fp.fibre_maps[p.base_id][p.fibre_b]
    assert ga.ratio == pytest.approx(gb.ratio)
    (alo, ahi), (blo, bhi) = ga.image(), gb.image()
    assert ahi < blo or bhi < alo
    assert abs(gb.translate - ga.translate) >= p.gap > 0


# -- the system's arrays -------------------------------------------------------

@st.composite
def line_variants(draw):
    """A unit system with a tail mass drawn in, and sometimes a smooth first
    map whose contraction bound is declared."""
    system, tail = draw(unit_systems()), draw(st.sampled_from([0.0, 0.25]))
    maps = dict(system.maps)
    if draw(st.booleans()):
        maps[0] = SmoothMap.from_expr("(mul 0.5 (pow x 2))",
                                      declared_bound=draw(st.floats(0.1, 0.9)))
    weights = {s: (1.0 - tail) * w for s, w in system.weights.items()}
    return CIFS(system.alphabet, maps, weights, tail_mass=tail)


NEGATIVE_TAIL = CIFS((0, 1), {0: AffineMap(-0.5, 1.0), 1: AffineMap(0.25, -0.3)},
                     {0: 0.3, 1: 0.6}, tail_mass=0.1)
DECLARED = CIFS((0, 1), {0: SmoothMap.from_expr("(mul 0.5 (pow x 2))", declared_bound=0.7),
                         1: AffineMap(-0.4, 0.6)}, {0: 0.5, 1: 0.5})


def symbol_maps(system, s):
    """The maps of the symbol ``s``, one per coordinate, from the system's dicts."""
    if isinstance(system, FibreProductCIFS):
        return system.base_map(s), system.fibre_map(s)
    return (system.maps[s],)


@settings(max_examples=60, deadline=None)
@given(st.one_of(unit_systems(), fibre_systems(), line_variants()), st.data())
def test_every_system_kind_rejects_a_nonpositive_weight(system, data):
    # a fibre product took the fibre weights 0.6, 0.6 and -0.2, and its
    # pushforwards were labelled "rigorous"
    bad, other = data.draw(st.permutations(system.alphabet))[:2]
    w = data.draw(st.floats(max_value=0.0) | st.just(math.nan))
    weights = dict(system.weights)
    if math.isfinite(w):  # the weights still sum to 1 - tail_mass
        weights[other] += weights[bad] - w
    weights[bad] = w
    with pytest.raises(ValidationError, match=re.escape(f"weight of {bad!r} must be finite")):
        dataclasses.replace(system, weights=weights)


@settings(max_examples=60, deadline=None)
@given(st.one_of(unit_systems(), fibre_systems(), line_variants()))
@example(NEGATIVE_TAIL)
@example(DECLARED)
def test_system_arrays_are_the_per_map_values_bit_for_bit(system):
    bits = lambda a: [float(x).hex() for x in np.ravel(a)]
    per_symbol = [symbol_maps(system, s) for s in system.alphabet]
    total = np.sum([system.weights[s] for s in system.alphabet])
    assert bits(system.ratios) == bits(np.transpose([
        [m.ratio if isinstance(m, AffineMap) else m.contraction_bound for m in maps]
        for maps in per_symbol]))
    assert bits(system.translates) == bits(np.transpose([
        [m.translate if isinstance(m, AffineMap) else 0.0 for m in maps]
        for maps in per_symbol]))
    assert bits(system.probs) == bits([system.weights[s] / total for s in system.alphabet])
    assert not any(a.flags.writeable for a in (system.ratios, system.translates, system.probs))
    every = [m for maps in per_symbol for m in maps]
    if all(isinstance(m, AffineMap) for m in every):
        assert system.radius.hex() == max(
            1.0, max(abs(m.translate) / (1.0 - abs(m.ratio)) for m in every)).hex()
    else:
        with pytest.raises(ValidationError, match="affine"):
            system.radius
