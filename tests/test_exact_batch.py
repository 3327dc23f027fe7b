"""The batched exact evaluator against a per-frequency depth-first oracle."""

import dataclasses
import itertools
import json
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import fibre_systems, unit_systems
from ffl import ifs, measure
from ffl.cli import main
from ffl.decay import _band_frequencies, band_maxima
from ffl.ifs import (CIFS, EPS, AffineMap, BudgetExhausted, ValidationError, _contract,
                     _gamma, affine_moments, cantor_system, fibre_product_from_1d)
from ffl.measure import (TWO_PI, character, exact_sweep, fourier_exact,
                         fourier_exact_batch, fourier_product_homogeneous, sample_points)


def dfs_oracle(cifs, xi, tol=1e-9, budget=50_000_000):
    """The memoised depth-first evaluator that ``fourier_exact_batch``
    replaced, kept verbatim: (value, error bound) at one frequency for a
    system whose attractor lies in [-1, 1]."""
    if xi == 0:
        return 1.0 + 0.0j, 0.0
    theta = tol / (TWO_PI * abs(xi))
    ratios = np.array([cifs.maps[a].ratio for a in cifs.alphabet])
    translates = np.array([cifs.maps[a].translate for a in cifs.alphabet])
    weights = np.array([cifs.weights[a] for a in cifs.alphabet])
    weights = weights / weights.sum()

    memo: dict = {}
    visits = 0
    stack = [1.0]
    while stack:
        rho = stack[-1]
        if rho in memo:
            stack.pop()
            continue
        children = rho * ratios
        pending = [c for c in children if abs(c) > theta and c not in memo]
        if pending:
            visits += len(pending)
            if visits > budget:
                raise BudgetExhausted("oracle budget")
            stack.extend(pending)
            continue
        phase = character(xi * rho * translates)
        sub = np.array([1.0 + 0j if abs(c) <= theta else memo[c] for c in children])
        memo[rho] = complex(np.sum(weights * phase * sub))
        stack.pop()
    return memo[1.0], tol + TWO_PI * abs(xi) * cifs.tail_mass


def distinct_above(cifs, theta):
    """Distinct non-root composed ratios above ``theta``, by plain search."""
    ratios = np.array([cifs.maps[a].ratio for a in cifs.alphabet])
    seen, stack = set(), [1.0]
    while stack:
        rho = stack.pop()
        for c in (rho * ratios).tolist():
            if abs(c) > theta and c not in seen:
                seen.add(c)
                stack.append(c)
    return len(seen)


def two_ratio():
    return CIFS((0, 1), {0: AffineMap(0.5, 0.0), 1: AffineMap(1 / 3, 2 / 3)},
                {0: 0.5, 1: 0.5})


ratio = st.floats(0.15, 0.6).flatmap(lambda r: st.sampled_from([r, -r]))


@st.composite
def line_systems(draw):
    """Affine systems of 1 to 12 maps with ratios of both signs, translates
    of both signs inside [-(1 - |r|), 1 - |r|] (so [-1, 1] is invariant)
    and, sometimes, a recorded tail mass. Systems of more than 3 maps draw
    their ratios from two, so that the DAG stays small while a node sums
    up to 12 terms."""
    n = draw(st.integers(1, 12))
    pool = [draw(ratio) for _ in range(n if n <= 3 else 2)]
    maps = {}
    for k in range(n):
        r = pool[k] if n <= 3 else draw(st.sampled_from(pool)) * draw(st.sampled_from([1, -1]))
        maps[k] = AffineMap(r, draw(st.floats(-1.0, 1.0)) * (1.0 - abs(r)))
    raw = [draw(st.floats(0.1, 1.0)) for _ in range(n)]
    tail = draw(st.sampled_from([0.0, 0.05]))
    weights = {k: (1.0 - tail) * x / math.fsum(raw) for k, x in enumerate(raw)}
    weights[n - 1] = (1.0 - tail) - math.fsum(weights[k] for k in range(n - 1))
    return CIFS(tuple(range(n)), maps, weights, tail_mass=tail)


frequencies = st.lists(st.floats(-60.0, 60.0) | st.just(0.0), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(system=line_systems(), xis=frequencies,
       tol=st.sampled_from([1e-2, 1e-6, 1e-10]))
def test_batch_agrees_with_the_depth_first_oracle(system, xis, tol):
    assert system.radius == 1.0
    fine = tol * 1e-3
    # the whole batch is evaluated; the first two frequencies are checked, as
    # a deep oracle costs up to a second per frequency at tol 1e-13
    for xi, fv in zip(xis[:2], fourier_exact_batch(system, xis, tol=tol)):
        value, _ = dfs_oracle(system, xi, tol=fine)
        assert fv.frequency == float(xi)
        assert abs(fv.value - value) <= tol + fine
        assert fv.error_bound == (tol + TWO_PI * abs(xi) * system.tail_mass if xi else 0.0)


def test_value_does_not_depend_on_batch_or_chunking():
    system = two_ratio()
    xis = [0.0, -3.5, 7.25, 40.0, 41.0, 199.0, 0.125]
    alone = [fourier_exact(system, xi, tol=1e-7).value for xi in xis]
    together = [fv.value for fv in fourier_exact_batch(system, xis, tol=1e-7)]
    shuffled = [fv.value for fv in fourier_exact_batch(system, xis[::-1], tol=1e-7)][::-1]
    with mock.patch.object(measure, "BATCH_CELLS", 3):
        chunked = [fv.value for fv in fourier_exact_batch(system, xis, tol=1e-7)]
    assert alone == together == shuffled == chunked
    # the sweep's rows, on the line and on a fibre product: every row stops
    # at the root (its series alone), none does, or some do; each row's
    # value and achieved are its one-row call's, bit for bit. On the line a
    # budget cuts the largest rows too
    plane = fibre_product_from_1d(system)
    for kernel, m, budget in ((system, 1, 12), (system, 1, measure.DEFAULT_BUDGET),
                              (plane, 2, measure.DEFAULT_BUDGET)):
        tol = 1e-7
        root = measure.series_order(kernel, tol)[1] / (TWO_PI * kernel.radius)
        low = root * np.array([[0.0, 0.0], [0.1, -0.6], [-0.99, 0.3], [0.5, 0.5], [1e-300, 0.0]])
        high = root * np.array([[1.5, 0.2], [-7.0, 3.0], [40.0, -40.0], [300.0, 1.0], [2e4, 1e3]])
        mixed = np.concatenate([high[::2], low, high[1::2]])
        for rows, stops in ((low, {True}), (high, {False}), (mixed, {True, False})):
            rows = rows[:, :m]
            assert set((np.abs(rows).max(axis=1) <= root).tolist()) == stops
            values, achieved = exact_sweep(kernel, rows, tol, budget)
            one = [exact_sweep(kernel, row[None], tol, budget) for row in rows]
            with mock.patch.object(measure, "BATCH_CELLS", 3):
                chunked = exact_sweep(kernel, rows[::-1], tol, budget)
            assert bits(values) == bits(np.concatenate([v for v, _ in one]))
            assert bits(achieved) == bits(np.concatenate([a for _, a in one]))
            assert bits(chunked[0][::-1]) == bits(values)
            assert bits(chunked[1][::-1]) == bits(achieved)
            over = np.isnan(values)
            assert over.any() == (budget == 12 and False in stops) and not over.all()
            assert (achieved[~over] == 0).all() and (achieved[over] > 0).all()


@settings(max_examples=40, deadline=None)
@given(system=unit_systems() | fibre_systems(), data=st.data(),
       tol=st.sampled_from([1e-3, 1e-7, 1e-12]), budget=st.sampled_from([3, 12, 200, 10 ** 6]))
def test_row_blocks_do_not_move_a_bit(system, data, tol, budget):
    # rows at the root, past it and, under the small budgets, over budget:
    # a sweep in blocks of 1 or 7 rows gives each row's value and achieved,
    # and each BudgetExhausted, of the sweep in blocks of the default
    m = len(system.coordinates)
    root = measure.series_order(system, tol)[1] / (TWO_PI * system.radius)
    rows = root * np.array(data.draw(st.lists(
        st.lists(st.sampled_from([0.0, 0.3, -0.9]) | st.floats(-4000.0, 4000.0),
                 min_size=m, max_size=m), min_size=1, max_size=20)))
    swept = [exact_sweep(system, rows, tol, budget)]
    for block in (1, 7):
        with mock.patch.object(measure, "ROW_BLOCK", block):
            swept.append(exact_sweep(system, rows, tol, budget))
    assert len({(bits(v), bits(a)) for v, a in swept}) == 1
    if m == 1:
        entries = []
        for block in (measure.ROW_BLOCK, 1, 7):
            with mock.patch.object(measure, "ROW_BLOCK", block):
                entries.append([(str(e), e.achieved.hex()) if isinstance(e, BudgetExhausted)
                                else (e.value.real.hex(), e.value.imag.hex(), e.error_bound.hex())
                                for e in fourier_exact_batch(system, rows[:, 0], tol, budget)])
        assert entries[0] == entries[1] == entries[2]


@pytest.mark.xfail(strict=True, reason="on a fibre product the budget cut of a row depends "
                   "on the other rows of its batch")
def test_fibre_budget_cut_does_not_depend_on_the_batch():
    # the sweep lists the first budget + 1 tuples that reach past the
    # batch's smallest theta under its largest weights, so another row's
    # larger weights move the cut: this row has a value alone and is over
    # budget beside (300, 1)
    plane, tol = fibre_product_from_1d(two_ratio()), 1e-7
    root = measure.series_order(plane, tol)[1] / (TWO_PI * plane.radius)
    row, other = root * np.array([40.0, -40.0]), root * np.array([300.0, 1.0])
    alone = exact_sweep(plane, row[None], tol, 12)[0][0]
    beside = exact_sweep(plane, np.array([row, other]), tol, 12)[0][0]
    assert bits(alone) == bits(beside)


def bits(a):
    """The bytes of an array's values, so that equality is bit for bit
    (NaN included)."""
    return np.ascontiguousarray(a).tobytes()


def threshold(system, tol, xi):
    """The sweep's stopping threshold on |rho| at frequency xi."""
    return measure.series_order(system, tol)[1] / (TWO_PI * system.radius * abs(xi))


def test_budget_fires_exactly_past_the_distinct_ratio_count():
    system, tol = two_ratio(), 1e-6
    low, high = 3.0, 400.0
    nodes = distinct_above(system, threshold(system, tol, high))
    assert distinct_above(system, threshold(system, tol, low)) < nodes - 1
    ok = fourier_exact_batch(system, [high, low], tol=tol, budget=nodes)
    assert [type(e) for e in ok] == [measure.FourierValue] * 2
    short = fourier_exact_batch(system, [high, low], tol=tol, budget=nodes - 1)
    assert isinstance(short[0], BudgetExhausted)
    assert short[1].value == ok[1].value == fourier_exact(system, low, tol=tol).value
    with pytest.raises(BudgetExhausted):
        fourier_exact(system, high, tol=tol, budget=nodes - 1)


def test_band_maxima_counts_exhausted_entries_as_excluded():
    system, tol, budget = two_ratio(), 1e-6, 30
    (band,) = band_maxima(
        lambda xis: fourier_exact_batch(system, xis, tol=tol, budget=budget),
        [6], 64, seed=2)
    (freqs,) = _band_frequencies([64.0], 64, seed=2, band_ids=[6])
    over = sum(distinct_above(system, threshold(system, tol, xi)) > budget for xi in freqs)
    assert 0 < over < 64  # the budget cuts through this band
    assert band.excluded == over and band.samples == 64 - over


# -- attractors outside [0, 1] -------------------------------------------------

def far_system():
    """{x/2, x/2 + 1000}: its attractor is [0, 2000]."""
    return CIFS((0, 1), {0: AffineMap(0.5, 0.0), 1: AffineMap(0.5, 1000.0)},
                {0: 0.5, 1: 0.5})


def test_radius_bounds_the_attractor():
    assert far_system().radius == 2000.0
    assert two_ratio().radius == 1.0
    negative = CIFS((0,), {0: AffineMap(-0.5, -3.0)}, {0: 1.0})
    assert negative.radius == 6.0


def test_exact_bound_holds_for_a_far_attractor():
    system = far_system()
    xis = np.concatenate([np.linspace(0.001, 0.3, 600), np.geomspace(1e-6, 1e-3, 20)])
    for fv, ref in zip(fourier_exact_batch(system, xis, tol=0.1),
                       fourier_product_homogeneous(system, xis, 300)):
        assert abs(fv.value - ref.value) <= fv.error_bound + ref.error_bound


def test_sampler_accuracy_covers_a_far_attractor():
    # the depth is that of the words the sampler applies
    with mock.patch.object(measure, "apply_words", wraps=measure.apply_words) as apply:
        res = sample_points(far_system(), 10, tol=1e-6, seed=1)
    depth = apply.call_args.args[2].shape[0]
    assert 2000.0 * 0.5 ** depth <= res.accuracy <= 1e-6


def test_subnormal_frequency_stops_at_the_root_without_a_warning():
    # tol / (2 pi R |xi|) overflows to inf for a subnormal xi
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tiny, one = fourier_exact_batch(two_ratio(), [5e-324, 1.0], tol=1e-6)
    assert abs(tiny.value - 1.0) <= tiny.error_bound
    assert one.value == fourier_exact(two_ratio(), 1.0, tol=1e-6).value


# -- moment-series leaves -----------------------------------------------------

def exact_moments(system, degree):
    """{alpha: E[(x / R)^alpha]} for |alpha| < degree, in exact rationals of
    the float maps, weights and radius, by the moment recursion."""
    columns = system.coordinates
    m, R = len(columns), Fraction(system.radius)
    w = [Fraction(system.weights[s]) for s in system.alphabet]
    p = [x / sum(w) for x in w]
    r = [[Fraction(f.ratio) for f in column] for column in columns]
    t = [[Fraction(f.translate) / R for f in column] for column in columns]
    M = {(0,) * m: Fraction(1)}
    for alpha in sorted(itertools.product(range(degree), repeat=m), key=sum):
        if not 0 < sum(alpha) < degree:
            continue
        rhs, den = Fraction(0), Fraction(1)
        for a, pa in enumerate(p):
            den -= pa * math.prod(r[c][a] ** alpha[c] for c in range(m))
            for beta in itertools.product(*(range(k + 1) for k in alpha)):
                if beta != alpha:
                    rhs += pa * M[beta] * math.prod(
                        math.comb(alpha[c], beta[c]) * r[c][a] ** beta[c]
                        * t[c][a] ** (alpha[c] - beta[c]) for c in range(m))
        M[alpha] = rhs / den
    return M


@settings(max_examples=25, deadline=None)
@given(system=line_systems() | fibre_systems(), degree=st.integers(2, 12))
def test_float_moments_lie_within_their_bound(system, degree):
    moments = system.moments(degree)
    for alpha, exact in exact_moments(system, degree).items():
        gap = abs(Fraction(float(moments.values[alpha])) - exact)
        assert gap <= Fraction(float(moments.errors[sum(alpha)]))
    assert moments.errors[degree - 1] < 1e-13


def stacked_moments(system, degree):
    """The moment build that ``affine_moments`` replaced, kept as its
    reference: one contraction per degree of three stacked tables, signed
    coefficients on the moments, absolute ones on their absolute values and
    on the indicator of lower degrees, with the error of each degree taken
    inside the loop."""
    m, D = len(system.coordinates), degree
    p, r = system.probs, system.ratios  # r: (m, n)
    n = p.size
    tau = system.translates / system.radius
    rp, tp = (np.cumprod(np.concatenate([np.ones(x.shape + (1,)),
                                         np.repeat(x[..., None], D - 1, axis=-1)], axis=-1),
                         axis=-1) for x in (r, tau))
    binom = np.zeros((D, D))
    binom[:, 0] = 1.0
    for i in range(1, D):
        binom[i, 1:] = binom[i - 1, 1:] + binom[i - 1, :-1]
    j = np.arange(D)
    B = binom * rp[:, :, None, :] * tp[:, :, np.maximum(j[:, None] - j, 0)]  # (m, n, D, D)
    grid = np.indices((D,) * m)
    deg = grid.sum(axis=0)
    r_alpha = np.prod([rp[c][:, grid[c]] for c in range(m)], axis=0)  # (n, D, ..., D)
    den = 1.0 - np.tensordot(p, r_alpha, 1)
    den_err = (_gamma(deg + m + 2 * n + 1) * np.tensordot(p, np.abs(r_alpha), 1)
               + EPS * np.abs(den))
    B3 = np.stack([B, np.abs(B), np.abs(B)], axis=1)  # (m, 3, n, D, D)
    M, errors = np.zeros((D,) * m), np.zeros(D)
    M[(0,) * m] = 1.0
    for k in range(1, D):
        view = (slice(k + 1),) * m
        low, at = M[view], deg[view] == k
        tables = np.stack([low, np.abs(low), (deg[view] < k) * 1.0])[:, None]
        sums = p @ _contract(B3[..., :k + 1, :k + 1], tables).reshape(3, n, -1)
        signed, spread, carried = sums.reshape((3,) + low.shape)[(slice(None), at)]
        value = signed / den[view][at]
        err = ((_gamma(3 * k + 2 * m + 2 * n) * spread + carried * errors[k - 1]
                + den_err[view][at]) / den[view][at] + EPS * np.abs(value))
        low[at] = value
        errors[k] = max(errors[k - 1], float(err.max()) * (1.0 + 2.0 ** -40))
    return M, errors


@settings(max_examples=60, deadline=None)
@given(case=st.tuples(line_systems(), st.integers(2, 24))
       | st.tuples(fibre_systems(), st.integers(2, 14)))
def test_moment_build_is_the_per_degree_loop_bit_for_bit(case):
    system, degree = case
    values, errors = stacked_moments(system, degree)
    moments = affine_moments(system, degree)
    assert np.array_equal(moments.values, values)
    assert (np.abs(moments.errors - errors) <= 2.0 ** -49 * errors).all()


def test_cantor_mean_and_second_moment():
    moments = cantor_system().moments(3)
    assert abs(moments.values[1] - 0.5) <= moments.errors[1]
    assert abs(moments.values[2] - 0.375) <= moments.errors[2]


@pytest.mark.parametrize("system", [cantor_system(), two_ratio(), far_system(),
                                    fibre_product_from_1d(two_ratio())],
                         ids=["cantor", "two_ratio", "far", "fibre"])
def test_a_row_within_reach_is_its_moment_series(system):
    m, R = len(system.coordinates), system.radius
    rng = np.random.default_rng(3)
    for tol in (1e-3, 1e-9):
        degree, reach = measure.series_order(system, tol)[:2]
        moments = exact_moments(system, degree)
        rows = rng.uniform(-1.0, 1.0, (6, m))
        rows *= reach * rng.uniform(0.2, 1.0, (6, 1)) / (TWO_PI * R * np.abs(rows).sum(axis=1))[:, None]
        values, _ = exact_sweep(system, rows if m > 1 else rows[:, 0], tol)
        for eta, value in zip(rows, values):
            series = sum(float(M) * math.prod((-2j * math.pi * R * e) ** a / math.factorial(a)
                                              for e, a in zip(eta, alpha))
                         for alpha, M in moments.items())
            assert abs(value - series) <= 1e-14


def test_cantor_at_the_rounding_floor_against_the_product_formula():
    cantor = cantor_system()
    assert measure.series_order(cantor, 1e-13)[0] > 1
    assert measure.series_order(cantor, 1e-15)[:2] == (1, 1e-15)  # the first-order fallback
    xis = np.concatenate([np.linspace(-40.3, 40.3, 40), np.geomspace(0.01, 1e5, 60)])
    for tol in (1e-13, 1e-15):
        for fv, ref in zip(fourier_exact_batch(cantor, xis, tol=tol),
                           fourier_product_homogeneous(cantor, xis, 80)):
            # neither bound counts the rounding of the phase arguments
            # xi * rho * t, nor of the characters and their products
            rounding = TWO_PI * abs(fv.frequency) * 2.0 ** -48 + 2.0 ** -46
            assert abs(fv.value - ref.value) <= fv.error_bound + ref.error_bound + rounding


def one_degree_at_a_time(system, tol):
    """The degree search that ``series_order`` replaced: each degree in
    turn, the moments built at every degree that fits without their error."""
    z = measure.SERIES_REACH * (1.0 + 2.0 ** -40)
    for k in range(2, measure.SERIES_DEGREES + 1):
        if (measure._leaf_error(system, k, z, 0.0) <= tol and measure._leaf_error(
                system, k, z, affine_moments(system, k).errors[k - 1]) <= tol):
            return k, measure.SERIES_REACH
    return 1, tol


def counting_builds(monkeypatch):
    """The degrees ``system.moments`` builds from now on."""
    builds, real = [], ifs.affine_moments
    monkeypatch.setattr(ifs, "affine_moments",
                        lambda system, degree: builds.append(degree) or real(system, degree))
    return builds


def test_the_degree_search_builds_the_moments_once_near_the_rounding_floor(monkeypatch):
    builds = counting_builds(monkeypatch)
    # every degree from 20 fits without the moments' error; none fits with it
    assert measure.series_order(cantor_system(), 2e-14)[:2] == (1, 2e-14)
    assert builds == [20]  # 20 to 24, one build each, before
    builds.clear()
    assert measure.series_order(cantor_system(), 1e-9)[:2] == (15, measure.SERIES_REACH)
    assert builds == [15]


@pytest.mark.parametrize("system", [cantor_system(), two_ratio(), far_system()],
                         ids=["cantor", "two_ratio", "far"])
def test_the_degree_search_is_the_one_degree_at_a_time_search(system, monkeypatch):
    # the band just above the floor is where a first fit without the
    # moments' error can fail with it and a higher degree fit
    builds = counting_builds(monkeypatch)
    for tol in np.concatenate([np.geomspace(1e-15, 0.1, 40), np.linspace(1.5e-14, 4e-14, 60)]):
        fresh = dataclasses.replace(system)
        degree, reach = measure.series_order(fresh, float(tol))[:2]
        assert (degree, reach) == one_degree_at_a_time(system, float(tol))
        assert len(builds) <= 2  # the first degree that fits, then SERIES_DEGREES
        builds.clear()
        # the coefficients come from the moments of a build at that degree
        built = dataclasses.replace(system)
        built.moments(degree)
        builds.clear()
        assert all(np.array_equal(a, b) for a, b in zip(
            measure.series_order(fresh, float(tol))[2],
            measure._series_coefficients(built, degree)))


def test_a_sweep_makes_one_series_call_per_chunk(tmp_path, monkeypatch):
    calls, real = [], measure._series
    monkeypatch.setattr(measure, "_series",
                        lambda coefficients, v: calls.append(v.shape[1:]) or real(coefficients, v))
    cantor, tol = cantor_system(), 1e-9
    root = measure.series_order(cantor, tol)[1] / (TWO_PI * cantor.radius)
    xis = np.geomspace(300.0, 3e5, 40)  # rows stop at nodes of many bands
    exact_sweep(cantor, xis, tol)
    assert len(calls) == 1  # a root call on no row and one per band with stops, before
    calls.clear()
    exact_sweep(cantor, np.concatenate([xis, root * np.array([0.5, -0.25])]), tol)
    assert calls[0] == (2,) and len(calls) == 2  # the rooted rows add one
    calls.clear()
    with mock.patch.object(measure, "BATCH_CELLS", 1):  # one row per chunk
        exact_sweep(cantor, xis, tol)
    assert len(calls) == xis.size
    builds = counting_builds(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": {"kind": "named", "name": "cantor"}, "scan": {
        "xi_min": 300.0, "xi_max": 1200.0, "points": 64, "tol": tol, "method": "exact"}}))
    assert main(["fourier-scan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert builds == [15]


# -- affine systems of several coordinates -----------------------------------

def stopping_word_sum(system, eta, tol):
    """The transform at the row ``eta`` of a two-coordinate affine system,
    expanded word by word with no shared subproblems: the sum of weight
    times the character at the anchor over the words that first stop,
    u_x |rho_x| + u_y |rho_y| <= theta, the sweep's rule written out."""
    r = np.array([[f.ratio for f in column] for column in system.coordinates])
    t = np.array([[f.translate for f in column] for column in system.coordinates])
    w = np.array([system.weights[s] for s in system.alphabet])
    w = w / w.sum()
    top = float(np.abs(eta).max())
    theta, u = tol / (TWO_PI * system.radius * top), np.abs(eta) / top
    rho, anchor, p, total = np.ones((2, 1)), np.zeros((2, 1)), np.ones(1), 0j
    while p.size:  # the root is always expanded
        anchor = (anchor[:, :, None] + rho[:, :, None] * t[:, None, :]).reshape(2, -1)
        rho = (rho[:, :, None] * r[:, None, :]).reshape(2, -1)
        p = (p[:, None] * w).ravel()
        stop = u[0] * np.abs(rho[0]) + u[1] * np.abs(rho[1]) <= theta
        total += np.sum(p[stop] * character(eta @ anchor[:, stop]))
        rho, anchor, p = rho[:, ~stop], anchor[:, ~stop], p[~stop]
    return total


@st.composite
def negative_products(draw):
    """``fibre_product_from_1d`` of a unit system with a negative ratio, and
    that system: the product's measure is (Dirac at 0) x its measure."""
    line = draw(unit_systems(max_ratio=0.45))
    assume(any(line.maps[a].ratio < 0 for a in line.alphabet))
    try:
        return fibre_product_from_1d(line, n_max=3), line
    except ValidationError:  # no separated pair within three folds
        assume(False)


# derandomized: the Monte Carlo check holds each example to 4 sigma
@settings(max_examples=30, deadline=None, derandomize=True)
@given(systems=fibre_systems().map(lambda fp: (fp, None)) | negative_products(),
       etas=st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                     min_size=1, max_size=4),
       tol=st.sampled_from([0.1, 0.05]))
def test_fibre_sweep_against_a_word_sum_and_monte_carlo(systems, etas, tol):
    system, line = systems
    values, achieved = exact_sweep(system, etas, tol)
    assert not achieved.any()
    pts = sample_points(system, 20_000, seed=5).points
    for eta, value in zip(np.array(etas), values):
        assert value == exact_sweep(system, [eta], tol)[0][0]  # whatever the batch
        if not eta.any():
            assert value == 1.0
            continue
        # word by word at a finer tol would take ~1e11 words: the word sum
        # checks the first-order rule at tol, and the sweep's first-order
        # rule (no series degree at all) is the reference at tol * 1e-3
        assert abs(value - stopping_word_sum(system, eta, tol)) <= 2 * tol
        fine = tol * 1e-3
        with mock.patch.object(measure, "SERIES_DEGREES", 1):
            first = exact_sweep(system, [eta], fine)[0][0]
        assert abs(first - stopping_word_sum(system, eta, tol)) <= tol + fine
        assert abs(value - first) <= tol + fine
        z = character(pts @ eta)
        stderr = math.sqrt((z.real.var(ddof=1) + z.imag.var(ddof=1)) / z.size)
        assert abs(value - z.mean()) <= tol + 4 * stderr + 1e-6
        if line is not None:  # the base is a Dirac at 0
            fv = fourier_exact(line, eta[1], tol=tol)
            assert abs(value - fv.value) <= tol + fv.error_bound


def test_sweep_checks_the_shape_of_its_rows():
    fp = fibre_product_from_1d(two_ratio())
    for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]]):
        with pytest.raises(ValidationError, match="rows of 2"):
            exact_sweep(fp, bad, 1e-3)
    with pytest.raises(ValidationError, match="1-D"):
        fourier_exact_batch(fp, [1.0], 1e-3)


@st.composite
def map_terms(draw):
    """A rows x maps complex array for 1-70 maps, as likely below 4, to 8,
    to 64 and past 64: normal parts of mixed scales, each a signed zero
    with a drawn chance (none, some or all)."""
    k = draw(st.integers(1, 3) | st.integers(4, 8) | st.integers(9, 64) | st.integers(65, 70))
    rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = rng.standard_normal((rows, k, 2)) * 10.0 ** rng.integers(-3, 4, (rows, k, 2))
    zero = rng.random(parts.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    parts[zero] = rng.choice([0.0, -0.0], np.count_nonzero(zero))
    return parts.view(complex)[..., 0]


@settings(max_examples=200, deadline=None)
@given(map_terms())
def test_the_map_sum_is_numpys_reduce_to_the_bit(terms):
    # the sweep sums a node's children map by map; its values stay those of
    # the reduce over the maps axis that it replaced, signed zeros included
    want = np.add.reduce(terms, axis=-1)
    got = measure._map_sum(np.ascontiguousarray(terms.T), np.empty(len(terms), complex), True)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
