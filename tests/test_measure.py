import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cylinder_decomposition, lebesgue_transform, unit_systems
from ffl import ifs, measure
from ffl.ifs import (CIFS, AffineMap, BudgetExhausted, SmoothMap, ValidationError,
                     build_fibre_product)
from ffl.rng import stream_rng
from ffl.measure import (fourier_exact, fourier_exact_batch, fourier_product_homogeneous,
                         fourier_montecarlo, sample_points)


# -- sampling ----------------------------------------------------------------

def test_dirac_samples_collapse(dirac):
    pts = sample_points(dirac, 200, tol=1e-9, seed=1).points
    assert np.abs(pts).max() <= 1e-9


def test_dyadic_sample_mean(dyadic):
    pts = sample_points(dyadic, 100_000, tol=1e-9, seed=2).points
    # mean of the uniform law with a 3-sigma CLT allowance
    assert abs(pts.mean() - 0.5) <= 3 * pts.std() / math.sqrt(len(pts)) + 1e-6


def test_cantor_samples_avoid_middle_third(cantor):
    pts = sample_points(cantor, 50_000, tol=1e-9, seed=3).points
    assert not np.any((pts > 1 / 3 + 1e-9) & (pts < 2 / 3 - 1e-9))


def test_sampling_deterministic(cantor):
    a = sample_points(cantor, 1000, seed=5).points
    b = sample_points(cantor, 1000, seed=5).points
    c = sample_points(cantor, 1000, seed=6).points
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_depth_cap_reports_achieved(dirac):
    res = sample_points(dirac, 10, tol=1e-300, depth=40, seed=0)
    assert res.accuracy == pytest.approx(0.5 ** 40)


def smooth_base_fibre_product():
    return build_fibre_product(
        {"L": SmoothMap.from_expr("(mul 0.4 (add x (mul 0.3 (pow x 2))))"),
         "R": AffineMap(0.5, 0.5)},
        {"L": {"a": AffineMap(1 / 3, 0.0), "b": AffineMap(1 / 3, 2 / 3)},
         "R": {"c": AffineMap(1 / 3, 1 / 3)}},
        {("L", "a"): 0.25, ("L", "b"): 0.25, ("R", "c"): 0.5})


def test_smooth_base_fibre_product_samples_follow_the_coding_map():
    fp = smooth_base_fibre_product()
    res = sample_points(fp, 200, depth=6, seed=3, stream=2)
    assert res.points.shape == (200, 2) and res.depth == 6
    # the same words, drawn from the sampler's stream, applied map by map
    probs = np.array([fp.weights[s] for s in fp.alphabet])
    words = stream_rng(3, 0x5A17, 2).choice(len(fp.alphabet), size=(200, 6),
                                            p=probs / probs.sum())
    for point, word in zip(res.points, words):
        expect = (0.0, 0.0)
        for k in word[::-1]:
            s = fp.alphabet[k]
            expect = (fp.base_map(s)(expect[0]), fp.fibre_map(s)(expect[1]))
        np.testing.assert_allclose(point, np.array(expect, dtype=float),
                                   rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("cells", [1, 7, 60, 601])
def test_sliced_words_equal_one_draw(cantor, monkeypatch, cells):
    # slices of max(1, cells // depth) words, cut anywhere in the draw
    systems = (cantor, smooth_base_fibre_product())
    whole = [sample_points(s, 301, depth=12, seed=8, stream=3).points for s in systems]
    monkeypatch.setattr(measure, "WORD_CELLS", cells)
    for system, points in zip(systems, whole):
        sliced = sample_points(system, 301, depth=12, seed=8, stream=3).points
        np.testing.assert_array_equal(sliced, points, strict=True)


@pytest.mark.parametrize("words", [1, 7])
def test_smooth_anchors_in_slices_keep_their_bits(monkeypatch, words):
    # the tree applies the words of max(1, WORD_CELLS // depth) nodes at a
    # time: slices of 1 and 7 words give the anchors of one slice, bit for bit
    smooth = CIFS((0, 1), {0: SmoothMap.from_expr("(mul 0.3 (add x (mul 0.2 (pow x 2))))"),
                           1: SmoothMap.from_expr("(add 0.6 (mul 0.3 x))")}, {0: 0.5, 1: 0.5})
    for system, thetas, lips in ((smooth, [1e-3, 4e-3], (1.0,)),
                                 (smooth_base_fibre_product(), [0.05, 0.08], (1.0, 1.0))):
        whole, _ = system.tree(thetas, lips, 10 ** 6)
        depth = whole.codes(np.arange(whole.weights.size)).shape[0]
        assert whole.weights.size > 7 * depth  # more than one slice of 7 words
        monkeypatch.setattr(ifs, "WORD_CELLS", words * depth)
        sliced, _ = system.tree(thetas, lips, 10 ** 6)
        monkeypatch.undo()
        np.testing.assert_array_equal(sliced.anchors, whole.anchors, strict=True)


# -- rigorous evaluator -------------------------------------------------------

@pytest.mark.parametrize("xi", [0.5, 1.0, 7.25, 100.0])
def test_exact_matches_lebesgue_closed_form(dyadic, xi):
    fv = fourier_exact(dyadic, xi, tol=1e-8)
    assert abs(fv.value - lebesgue_transform(xi)) <= fv.error_bound


def test_exact_at_zero_is_one(cantor):
    fv = fourier_exact(cantor, 0.0)
    assert fv.value == 1.0 + 0.0j and fv.error_bound == 0.0


def test_exact_conjugate_symmetry(cantor):
    for xi in (0.7, 3.3, 12.0):
        a = fourier_exact(cantor, xi, tol=1e-9)
        b = fourier_exact(cantor, -xi, tol=1e-9)
        assert abs(b.value - np.conj(a.value)) <= 2e-9


def test_cantor_self_similarity_oracle(cantor):
    # both sides of the scale-3 refinement identity, evaluated independently
    for xi in (1.0, 2.0, 3.0 ** 5):
        lhs = fourier_exact(cantor, 3 * xi, tol=1e-10).value
        rhs = 0.5 * (1 + np.exp(-4j * np.pi * xi)) * fourier_exact(cantor, xi, tol=1e-10).value
        assert abs(lhs - rhs) <= 1e-8


def test_cantor_triadic_powers_equal(cantor):
    vals = [fourier_exact(cantor, 3.0 ** n, tol=5e-7).value for n in range(11)]
    mags = [abs(v) for v in vals]
    assert max(mags) - min(mags) <= 2 * 5e-7
    assert mags[0] > 0.1


def test_exact_budget_exhaustion(two_ratio):
    with pytest.raises(BudgetExhausted):
        fourier_exact(two_ratio, 1e6, tol=1e-12, budget=50)


def test_exact_requires_affine():
    from ffl.ifs import SmoothMap
    smooth = CIFS((0,), {0: SmoothMap.from_expr("(mul 0.5 x)")}, {0: 1.0})
    with pytest.raises(ValidationError):
        fourier_exact(smooth, 1.0)


# -- product evaluator --------------------------------------------------------

def test_product_agrees_with_exact(cantor):
    a, = fourier_product_homogeneous(cantor, [1.0], 40)
    b = fourier_exact(cantor, 1.0, tol=1e-9)
    assert abs(a.value - b.value) <= 1e-8


def test_product_at_zero_and_integer(dyadic):
    zero, fv = fourier_product_homogeneous(dyadic, [0.0, 2.0], 40)
    assert zero.value == 1.0 + 0.0j
    assert abs(fv.value) <= 1e-8


def test_product_needs_equal_ratios(two_ratio):
    with pytest.raises(ValidationError):
        fourier_product_homogeneous(two_ratio, [1.0], 10)


# -- Monte Carlo ---------------------------------------------------------------

def test_montecarlo_dirac(dirac):
    fv = fourier_montecarlo(dirac, [0.7], 1000, seed=1)[0]
    assert abs(fv.value - 1.0) <= 1e-6


def test_montecarlo_dyadic_integer_freq(dyadic):
    fv = fourier_montecarlo(dyadic, [1.0], 1_000_000, seed=2)[0]
    assert abs(fv.value) <= 4 / math.sqrt(1_000_000)


def test_montecarlo_matches_exact(cantor):
    m = 1_000_000
    fv = fourier_montecarlo(cantor, [1.0], m, seed=3)[0]
    target = fourier_exact(cantor, 1.0, tol=1e-9).value
    assert abs(fv.value - target) <= 4 / math.sqrt(m)


def test_montecarlo_value_does_not_depend_on_the_batch(cantor):
    alone = fourier_montecarlo(cantor, [5.0], 1000, seed=3)[0]
    behind = fourier_montecarlo(cantor, [2.0, 5.0], 1000, seed=3)[1]
    assert alone.value == behind.value


def test_product_value_does_not_depend_on_the_batch(cantor):
    # each frequency's factors are one row of the batch's array, 0 and a
    # subnormal included
    xis = [0.0, 5e-324, -7.25, 1.0, 333.3, 1e6]
    batch = fourier_product_homogeneous(cantor, xis, 50)
    for xi, fv in zip(xis, batch):
        alone, = fourier_product_homogeneous(cantor, [xi], 50)
        assert (fv.frequency, fv.value, fv.error_bound) == (
            alone.frequency, alone.value, alone.error_bound)
    assert batch[0].value == 1.0 and batch[0].error_bound == 0.0


def test_montecarlo_bias_covers_the_accuracy_of_capped_words(cantor, monkeypatch):
    # words cut at DEPTH_CAP letters place each point only within the
    # accuracy they achieve; the bound assumed SAMPLE_ACCURACY, about 4e6
    # times too little here
    monkeypatch.setattr(measure, "DEPTH_CAP", 5)
    accuracy = sample_points(cantor, 1, tol=measure.SAMPLE_ACCURACY).accuracy
    assert accuracy == pytest.approx(3.0 ** -5)
    for xi in (1.0, 10.0, -30.0):
        fv, = fourier_montecarlo(cantor, [xi], 1000, seed=3)
        assert fv.error_bound >= measure.TWO_PI * abs(xi) * accuracy
        exact = fourier_exact(cantor, xi, tol=1e-9)
        assert abs(fv.value - exact.value) <= fv.error_bound + exact.error_bound


def test_montecarlo_rejects_tiny_runs(cantor):
    with pytest.raises(ValidationError):
        fourier_montecarlo(cantor, [1.0], 10, seed=0)


# -- cross-method and structural invariants -----------------------------------

@settings(max_examples=25, deadline=None)
@given(unit_systems(),
       st.lists(st.floats(0.5, 40.0) | st.floats(-40.0, -0.5), min_size=1, max_size=3),
       st.integers(0, 99))
def test_evaluators_agree_on_generated_systems(system, xis, seed):
    exact = fourier_exact_batch(system, xis, tol=1e-6)
    sampled = fourier_montecarlo(system, xis, 2000, seed=seed)
    for e, mc in zip(exact, sampled):
        # 4 standard errors on top of the statistical bound, which holds 4
        # and the points' bias
        bias = measure.TWO_PI * abs(mc.frequency) * measure.SAMPLE_ACCURACY
        assert abs(e.value - mc.value) <= e.error_bound + 2 * mc.error_bound - bias
    if len(set(system.ratios[0].tolist())) == 1:
        for e, p in zip(exact, fourier_product_homogeneous(system, xis)):
            assert abs(e.value - p.value) <= e.error_bound + p.error_bound


def test_cross_method_agreement(cantor):
    rng = np.random.default_rng(7)
    for xi in rng.uniform(-100, 100, size=20):
        a = fourier_exact(cantor, xi, tol=1e-8)
        b, = fourier_product_homogeneous(cantor, [xi], 60)
        c = fourier_montecarlo(cantor, [xi], 200_000, seed=int(abs(xi) * 100))[0]
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound
        assert abs(a.value - c.value) <= a.error_bound + c.error_bound
        assert abs(b.value - c.value) <= b.error_bound + c.error_bound
        for fv in (a, b, c):
            assert abs(fv.value) <= 1.0 + fv.error_bound


def test_translation_covariance():
    # support [0, 1/2] system, then the same system shifted by c
    base = CIFS((0, 1), {0: AffineMap(1 / 3, 0.0), 1: AffineMap(1 / 3, 1 / 3)},
                {0: 0.5, 1: 0.5})
    c = 1 / 3
    shifted = CIFS((0, 1),
                   {0: AffineMap(1 / 3, c * (2 / 3)),
                    1: AffineMap(1 / 3, 1 / 3 + c * (2 / 3))},
                   {0: 0.5, 1: 0.5})
    for xi in (0.8, 4.0, 21.5):
        a = fourier_exact(base, xi, tol=1e-9)
        b = fourier_exact(shifted, xi, tol=1e-9)
        target = np.exp(-2j * np.pi * xi * c) * a.value
        assert abs(b.value - target) <= a.error_bound + b.error_bound


def test_cylinder_decomposition_invariants(two_ratio):
    dec = cylinder_decomposition(two_ratio, 0.1)
    assert dec.mass() == pytest.approx(1.0, abs=1e-10)
    assert np.all(dec.diameters <= 0.1)
    # prefix-free: stopping only at first crossing, so every parent ratio > 0.1
    for word in dec.words:
        parent = 1.0
        for s in word[:-1]:
            parent *= two_ratio.maps[s].ratio
        assert abs(parent) > 0.1


def test_cylinder_decomposition_scales_declared_bounds_into_diameters():
    # {x/4, x/4 + 3/4} conjugated by x^2 contracts by 1/4 in the square-root
    # coordinate only; diam_constant = Lip(x^2) = 2 turns bounds into diameters
    from ffl.ifs import fold
    from ffl.pushforward import SmoothMapF, conjugate_ifs
    psi = CIFS((0, 1), {0: AffineMap(0.25, 0.0), 1: AffineMap(0.25, 0.75)}, {0: 0.5, 1: 0.5})
    system = conjugate_ifs(psi, SmoothMapF.parse("(pow x 2)"), "(pow x 0.5)", verify=False).system
    dec = cylinder_decomposition(system, 1e-3)
    maps = [fold(system.maps[s] for s in w) for w in dec.words]
    spans = [abs(m(1.0) - m(0.0)) for m in maps]
    assert np.all(np.array(spans) <= dec.diameters * (1 + 1e-12))
    assert max(s / d for s, d in zip(spans, dec.diameters)) > 0.5  # the word 11...1 needs the 2


# -- Frostman bound -------------------------------------------------------------

def test_frostman_cantor_matches_counting_oracle(cantor):
    # triadic cylinder counting gives mass 2^-k on scale 3^-k
    srt = np.sort(sample_points(cantor, 200_000, seed=13).points)
    starts = np.arange(0, 1, 1 / 64)
    for k in (4, 6, 8):
        r = 3.0 ** -k / 2
        masses = (np.searchsorted(srt, starts + r) - np.searchsorted(srt, starts - r)) / len(srt)
        assert masses.max() <= 3 * 2.0 ** -k


def test_smooth_system_sampling_stays_in_image():
    from ffl.ifs import SmoothMap
    curved = SmoothMap.from_expr("(add (mul 0.2 (pow x 2)) (mul 0.5 x))")
    sys = CIFS((0, 1), {0: curved, 1: AffineMap(0.3, 0.7)}, {0: 0.5, 1: 0.5})
    pts = sample_points(sys, 5000, tol=1e-6, seed=21).points
    assert pts.min() >= 0.0 and pts.max() <= 1.0
    # the two first-level images cover everything
    lo, hi = curved.image(0.0, 1.0)
    assert np.all(((pts >= lo - 1e-6) & (pts <= hi + 1e-6))
                  | ((pts >= 0.7 - 1e-6) & (pts <= 1.0 + 1e-6)))


def luroth_truncated(n_max=30):
    """Truncation of the countable interval-filling system with harmonic
    ratio decay; the omitted weight is recorded as tail mass."""
    maps = {n: AffineMap(1.0 / (n * (n + 1)), 1.0 / (n + 1))
            for n in range(1, n_max + 1)}
    weights = {n: 1.0 / (n * (n + 1)) for n in range(1, n_max + 1)}
    tail = 1.0 / (n_max + 1)
    return CIFS(tuple(maps), maps, weights, tail_mass=tail)


def test_truncated_countable_tail_propagates():
    sys = luroth_truncated(30)
    fv = fourier_exact(sys, 2.0, tol=1e-9)
    assert fv.error_bound >= 2 * math.pi * 2.0 * sys.tail_mass


def test_truncated_countable_cross_method():
    sys = luroth_truncated(30)
    m = 400_000
    for xi in (1.0, 6.5):
        a = fourier_exact(sys, xi, tol=1e-7)
        b = fourier_montecarlo(sys, [xi], m, seed=33)[0]
        # both evaluators see the same renormalised truncation, so they
        # agree within statistical error alone
        assert abs(a.value - b.value) <= 1e-7 + b.error_bound
