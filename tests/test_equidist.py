import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import constant_rate, exact_hit_count, sample_rational_points
from ffl import equidist as eq
from ffl.ifs import ValidationError
from ffl.equidist import (RateFn, EquidistSpec, GridPoint, random_grid_point,
                          grid_point_for, count_hits, weyl_sums,
                          digit_freq, TIE_BAND, ORBIT_BLOCK, SUM_BLOCK)
from ffl.rng import spawn_seed


# -- rate sums -----------------------------------------------------------------

def rate_sum(rate, horizon):
    return EquidistSpec.geometric(2, 0.0, rate, horizon).rate_sum


def test_sigma_values():
    assert rate_sum(constant_rate(0.5), 10) == pytest.approx(5.0)
    assert rate_sum(RateFn.parse("(div 1 (mul 2 n))"), 4) == pytest.approx(25 / 24)
    assert rate_sum(constant_rate(0.0), 100) == 0.0


rate_values = st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 2.0 ** -1022),
                        st.floats(0.0, 0.5))


@settings(max_examples=60, deadline=None)
@given(st.lists(rate_values, min_size=1, max_size=40), st.integers(1, 5000),
       st.integers(0, 2 ** 32 - 1))
def test_rate_sum_is_the_fsum_of_the_list_bit_for_bit(pool, n, seed):
    # n values drawn from a pool of zeros, subnormals, 1/2 and values in [0, 1/2]
    vals = np.random.default_rng(seed).choice(np.array(pool), size=n)
    rate = RateFn(lambda _: vals)
    want = math.fsum(vals.tolist()).hex()
    assert rate_sum(rate, n).hex() == want
    assert math.fsum(rate.values(n)).hex() == want


def fsum_hex(vals):
    return math.fsum(list(vals)).hex()


def listed_rate(vals):
    """The rate n -> vals[n - 1], at any horizon up to len(vals)."""
    return RateFn(lambda n: vals[n.astype(int) - 1])


@pytest.mark.parametrize("n", [SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1, 2 * SUM_BLOCK + 1])
def test_rate_sum_at_extraction_block_edges(n):
    # values over every binade, subnormals and zeros included, so that the
    # extraction runs many rounds in each block
    rng = np.random.default_rng(n)
    vals = 0.5 * rng.random(n) * 2.0 ** -rng.integers(0, 1080, n).astype(float)
    vals[rng.integers(0, n, 5)] = 0.5
    assert rate_sum(listed_rate(vals), n).hex() == fsum_hex(vals)


H, TINY = 2.0 ** -53, 2.0 ** -1074
GAP = [0.0] * SUM_BLOCK   # moves what follows into the next extraction block


@pytest.mark.parametrize("vals, want", [
    ([0.5, 0.5, H], 1.0),                                 # halfway: to even, down
    ([0.5, 0.5, 2 * H, H], 1.0 + 4 * H),                  # halfway: to even, up
    ([0.5, 0.5] + GAP + [H], 1.0),
    ([0.5, 0.5] + GAP + [H] + GAP + [TINY], 1.0 + 2 * H),  # just past halfway
    ([0.5, 0.5, H] + GAP + [-0.0, TINY], 1.0 + 2 * H),
    ([TINY] * 3, 3 * TINY),                               # subnormal totals, exact
    ([2.0 ** -1070] * (SUM_BLOCK + 1), (SUM_BLOCK + 1) * 2.0 ** -1070),
    ([2.0 ** -1023, 2.0 ** -1023], 2.0 ** -1022),         # the smallest normal
    ([0.5] * (2 * SUM_BLOCK + 1), SUM_BLOCK + 0.5),
    ([0.2, 0.5], 0.7),              # 0.2's first remainder is negative
])
def test_rate_sum_rounds_halfway_and_subnormal_totals(vals, want):
    vals = np.array(vals)
    got = rate_sum(listed_rate(vals), len(vals))
    assert got.hex() == fsum_hex(vals) == want.hex()
    assert got == float(sum(map(Fraction, vals.tolist())))


def test_rate_range_check_reports_offender():
    with pytest.raises(ValidationError, match="n=1"):
        rate_sum(constant_rate(0.7), 5)
    with pytest.raises(ValidationError, match="n=3"):
        rate_sum(RateFn.parse("(mul 0.2 n)"), 10)  # 0.6 at n=3


def test_rate_values_in_blocks_keep_their_bits_and_name_the_first_offender():
    # psi is evaluated ORBIT_BLOCK values at a time: blocks of 1, 7 and the
    # default give the same bits, and the first n out of range is named
    # wherever the block boundaries fall
    rate = RateFn.parse("(div 1 (add (mul 2 n) (div 3 n)))")
    want = rate.values(20_000).tobytes()
    for block in (1, 7):
        with mock.patch.object(eq, "ORBIT_BLOCK", block):
            assert rate.values(20_000).tobytes() == want
    for block in (1, 7, eq.ORBIT_BLOCK):
        with mock.patch.object(eq, "ORBIT_BLOCK", block):
            with pytest.raises(ValidationError, match=r"0\.50005 at n=10001 "):
                RateFn.parse("(mul 0.00005 n)").values(20_000)
            with pytest.raises(ValidationError, match="nan at n=9 "):
                RateFn.parse("(div (sub n 9) (mul 40 (sub n 9)))").values(20)


def test_rate_rejects_foreign_variables():
    with pytest.raises(ValidationError):
        RateFn.parse("(mul 0.1 x)")


# -- sequence specs ---------------------------------------------------------------

def test_geometric_spec_validation():
    with pytest.raises(ValidationError):
        EquidistSpec.geometric(1, 0.0, constant_rate(0.1), 10)
    with pytest.raises(ValidationError):
        EquidistSpec.geometric(2, 1.5, constant_rate(0.1), 10)


def test_specs_reject_targets_outside_the_unit_interval():
    # an explicit spec took gamma 5 and then counted every step as a hit
    for gamma in (5.0, -2.0, math.nan):
        with pytest.raises(ValidationError, match="target"):
            EquidistSpec.explicit([1, 2, 3, 5, 8], gamma, constant_rate(0.01))
        with pytest.raises(ValidationError, match="target"):
            EquidistSpec.geometric(2, gamma, constant_rate(0.01), 10)


def test_explicit_spec_needs_increasing_integers():
    spec = EquidistSpec.explicit([1, 2, 4, 8, 16], 0.0, constant_rate(0.1))
    assert spec.terms.tolist() == [1, 2, 4, 8, 16] and spec.horizon == 5
    with pytest.raises(ValidationError):
        EquidistSpec.explicit([3, 3, 4], 0.0, constant_rate(0.1))
    with pytest.raises(ValidationError):
        EquidistSpec.explicit([1.5, 2.5], 0.0, constant_rate(0.1))


# -- hit counting -------------------------------------------------------------------

def test_count_zero_point_always_hits():
    spec = EquidistSpec.geometric(2, 0.0, constant_rate(0.1), 100)
    assert count_hits(Fraction(0), spec).count == 100


def test_count_third_periodic_orbit_never_hits():
    spec = EquidistSpec.geometric(2, 0.0, constant_rate(0.25), 100)
    assert count_hits(Fraction(1, 3), spec).count == 0


def test_count_monotone_in_rate_and_horizon():
    x = random_grid_point(2064, seed=3)
    lo = count_hits(x, EquidistSpec.geometric(2, 0.3, constant_rate(0.05), 2000))
    hi = count_hits(x, EquidistSpec.geometric(2, 0.3, constant_rate(0.2), 2000))
    assert lo.count <= hi.count
    short = count_hits(x, EquidistSpec.geometric(2, 0.3, constant_rate(0.05), 800))
    assert short.count <= lo.count


def periodic_count_oracle(p, q, b, gamma, psi, N):
    """Closed-form count via the eventual cycle of b^n p mod q."""
    seen = {}
    orbit = []
    r = p % q
    n = 0
    while True:
        r = (b * r) % q
        n += 1
        if r in seen:
            start = seen[r]
            break
        seen[r] = n
        orbit.append(r)
        if n > N:  # horizon shorter than the cycle: count directly
            start = None
            break
    def hit(rv):
        y = Fraction(rv, q)
        d = abs(y - Fraction(gamma))
        return min(d, 1 - d) <= Fraction(psi)
    if start is None or N <= len(orbit):
        return sum(hit(rv) for rv in orbit[:N])
    head = orbit[:start - 1]
    cycle = orbit[start - 1:]
    full, rem = divmod(N - len(head), len(cycle))
    return (sum(hit(rv) for rv in head) + full * sum(hit(rv) for rv in cycle)
            + sum(hit(rv) for rv in cycle[:rem]))


def test_count_matches_periodic_oracle():
    rng = np.random.default_rng(12)
    rate = constant_rate(0.2)
    for _ in range(20):
        q = int(rng.integers(3, 200))
        p = int(rng.integers(1, q))
        b = int(rng.choice([2, 3, 5]))
        gamma = float(rng.choice([0.0, 0.25, 0.5]))
        N = int(rng.integers(50, 400))
        spec = EquidistSpec.geometric(b, gamma, rate, N)
        got = count_hits(Fraction(p, q), spec).count
        want = periodic_count_oracle(p, q, b, gamma, 0.2, N)
        assert got == want


def test_count_rate_converges_for_uniform_points():
    # hit fraction tends to twice a constant rate
    psi0 = 0.05
    N = 100_000
    spec = EquidistSpec.geometric(2, 0.0, constant_rate(psi0), N)
    band = 3 * math.sqrt(2 * psi0 / N) * 3
    for i in range(3):
        gp = grid_point_for(spec, seed=spawn_seed(77, i))
        res = count_hits(gp, spec)
        assert abs(res.count / N - 2 * psi0) <= band


def test_precision_budget_rejection():
    spec = EquidistSpec.geometric(2, 0.0, constant_rate(0.1), 100_000)
    gp = random_grid_point(128, seed=0)
    with pytest.raises(ValidationError, match="max admissible"):
        count_hits(gp, spec)


# base 2 reads its windows from 64-bit words, ORBIT_BLOCK steps at a time:
# horizons at the word and block edges
WORD_EDGES = (1, 2, 63, 64, 65, 127, 128, 129, 130)   # 2 and 130 end at a row start
BLOCK_EDGES = (ORBIT_BLOCK - 1, ORBIT_BLOCK, ORBIT_BLOCK + 1, 2 * ORBIT_BLOCK + 63)
EDGE_IDS = ["2", "3", "10"] + [f"2-N{N}" for N in WORD_EDGES]


def edge_points(base, N):
    """x = 0, a point whose bits are all one (every window rounds to 1.0),
    and two non-dyadic rationals."""
    bits = math.ceil(N * math.log2(base)) + 128
    return [Fraction(0), GridPoint((1 << bits) - 1, bits), Fraction(1, 7),
            Fraction(2 ** 70 + 1, 3 ** 45)]


@pytest.mark.parametrize("base, N", [(b, 800) for b in (2, 3, 10)]
                         + [(2, N) for N in WORD_EDGES + BLOCK_EDGES],
                         ids=EDGE_IDS + [f"2-N{N}" for N in BLOCK_EDGES])
def test_fast_and_slow_paths_agree(base, N):
    rate = RateFn.parse("(div 1 (mul 2 n))")
    points = [grid_point_for(EquidistSpec.geometric(base, 0.3, rate, N), seed=4)]
    # the same orbit as explicit terms runs the modular loop, not the digit engine
    terms = [base ** n for n in range(1, N + 1)]
    for gamma in (0.3, 0.0):
        fast = EquidistSpec.geometric(base, gamma, rate, N)
        slow = EquidistSpec.explicit(terms, gamma, rate)
        for x in points + edge_points(base, N):
            assert count_hits(x, fast).count == count_hits(x, slow).count, (x, gamma)


@pytest.mark.parametrize("base, N", [(b, 300) for b in (2, 3, 10)]
                         + [(2, N) for N in WORD_EDGES], ids=EDGE_IDS)
def test_every_window_is_within_2_to_minus_51_of_the_exact_orbit(base, N):
    spec = EquidistSpec.geometric(base, 0.0, constant_rate(0.1), N)
    points = [grid_point_for(spec, seed=s) for s in (1, 2)] + [Fraction(12345, 99991)]
    for x in points + edge_points(base, N):
        y0 = x.fraction if isinstance(x, GridPoint) else x
        blocks, _ = eq._orbit(x, spec)
        ys = np.concatenate([ys for _, ys in blocks])
        assert ys.shape == (N,)
        for n in range(1, N + 1):
            exact = base ** n * y0 % 1
            assert abs(Fraction(float(ys[n - 1])) - exact) <= Fraction(1, 2 ** 51), (x, n)


@pytest.mark.parametrize("N", WORD_EDGES + (1000,) + BLOCK_EDGES)
def test_base2_words_give_the_digit_chunk_sum_bit_for_bit(N):
    # the chunks every other base reads, 62 digits and then 4, summed
    # smallest first: the word kernel must keep every float, so that Weyl
    # sums in base 2 do not move
    spec = EquidistSpec.geometric(2, 0.0, constant_rate(0.1), N)
    for x in edge_points(2, N) + [grid_point_for(spec, seed=s) for s in (1, 2)]:
        p, q = eq._residue(x)
        digits = eq._digits(p, q, 2, N + 66)[1:]
        chunks = (eq._sliding(digits[62:], 2, 4, N) / 2.0 ** 66
                  + eq._sliding(digits, 2, 62, N) / 2.0 ** 62)
        blocks = list(eq._orbit_blocks(p, q, 2, N))
        assert [start for start, _ in blocks] == list(range(0, N, ORBIT_BLOCK))
        assert np.array_equal(np.concatenate([ys for _, ys in blocks]), chunks), x


def dyadic_points(N):
    """Binary fractions: short ones, whose orbit reaches 0, and GridPoints
    with just the bits the horizon needs."""
    return st.one_of(
        st.integers(1, 80).flatmap(lambda k: st.builds(
            Fraction, st.integers(0, 2 ** k - 1), st.just(2 ** k))),
        st.builds(GridPoint, st.integers(0, 2 ** (N + 64) - 1), st.just(N + 64)))


def rational_points():
    return st.integers(2, 2 ** 80).flatmap(
        lambda q: st.builds(Fraction, st.integers(0, q - 1), st.just(q)))


targets = st.sampled_from([0.0, 1.0, 1e-30, 1.0 - 2.0 ** -53]) | st.sampled_from(
    [1, 10, 53]).flatmap(lambda e: st.integers(0, 2 ** e).map(lambda k: k / 2.0 ** e))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WORD_EDGES + BLOCK_EDGES).flatmap(
           lambda N: st.tuples(st.just(N), dyadic_points(N) | rational_points())),
       targets, st.sampled_from([0.0, 0.5]))
def test_base2_count_matches_an_exact_rational_count(case, gamma, psi):
    # the fixed-point distances against the integer recount, at the word and
    # block edges: rate 0 counts exact hits only, and 1/2 counts every n
    N, x = case
    spec = EquidistSpec.geometric(2, gamma, constant_rate(psi), N)
    p, q = eq._residue(x)
    assert count_hits(x, spec).count == exact_hit_count(p, q, 2, gamma, psi, N)


def nudge_orbits(monkeypatch):
    """Move every distance to the target 2^-51 up, inside TIE_BAND, and
    record the n of every call to the exact fallback."""
    engine, calls = eq._distances, []

    def nudged(x, s):
        blocks, exact = engine(x, s)

        def spy(n):
            calls.append(n)
            return exact(n)
        return ((start, dist + 2.0 ** -51) for start, dist in blocks), spy
    monkeypatch.setattr(eq, "_distances", nudged)
    assert 2.0 ** -51 < TIE_BAND
    return calls


def test_tie_is_decided_by_the_exact_fallback(monkeypatch):
    # frac(3^n / 12) alternates 1/4 and 3/4, so the distance to 0 equals the
    # rate 1/4 at every step and every step is a hit
    N = 40
    spec = EquidistSpec.geometric(3, 0.0, constant_rate(0.25), N)
    assert count_hits(Fraction(1, 12), spec).count == N
    calls = nudge_orbits(monkeypatch)
    # the floats alone now miss, so only the fallback can count the hits
    assert count_hits(Fraction(1, 12), spec).count == N
    assert calls == list(range(1, N + 1))


def test_ties_past_the_first_block_reach_the_fallback(monkeypatch):
    # frac(2^n / 2^k) is 2^(n - k) below n = k and 0 from n = k on. With the
    # target 0 and the rate 0, n >= k are exact ties and hits, and n <= k - 51
    # stay within TIE_BAND after the nudge and miss; both runs of ties cross
    # the first block's end
    k, N = ORBIT_BLOCK + 800, 2 * ORBIT_BLOCK + 63
    x = Fraction(1, 2 ** k)
    spec = EquidistSpec.geometric(2, 0.0, constant_rate(0.0), N)
    want = count_hits(x, spec).count
    assert want == N - k + 1
    calls = nudge_orbits(monkeypatch)
    assert count_hits(x, spec).count == want
    assert calls == list(range(1, k - 50)) + list(range(k, N + 1))


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of the allocations fn() makes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_memory_stays_within_a_few_blocks():
    # psi and the rate sum belong to the spec; a base-2 count holds D's bytes
    # and O(ORBIT_BLOCK) words, not arrays over the whole horizon
    rate = RateFn.parse("(div 1 (mul 2 n))")
    spec = EquidistSpec.geometric(2, 0.3, rate, 100_000)
    spec.psi, spec.rate_sum
    gp = grid_point_for(spec, seed=1)
    assert traced_peak(lambda: count_hits(gp, spec)) < 2 ** 20
    # the rate sum reads psi in place, with no list of floats
    fresh = EquidistSpec.geometric(2, 0.3, rate, 100_000)
    fresh.psi
    assert traced_peak(lambda: fresh.rate_sum) < 0.1 * 2 ** 20


def test_count_result_normalisations():
    spec = EquidistSpec.geometric(2, 0.0, constant_rate(0.1), 2000)
    gp = grid_point_for(spec, seed=5)
    res = count_hits(gp, spec, epsilon=1.0)
    s = math.fsum(spec.rate.values(2000))
    dev = res.count - 2 * s
    assert res.deviation_half == pytest.approx(
        dev / (math.sqrt(s) * math.log(s + 2) ** 3))


# -- Weyl sums ---------------------------------------------------------------------

def test_weyl_zero_point_is_one():
    spec = EquidistSpec.geometric(2, 0.0, constant_rate(0.1), 500)
    sums = weyl_sums(Fraction(0), spec, 4)
    np.testing.assert_allclose(sums, 1.0)


def test_weyl_arithmetic_sequence_closed_form_bound():
    spec = EquidistSpec.explicit(list(range(1, 100_001)), 0.0, constant_rate(0.1))
    x = random_grid_point(256, seed=8)
    assert weyl_sums(x, spec, 1)[0] <= 0.05


def test_weyl_lacunary_band_over_seeds():
    terms = [2 ** n for n in range(1, 1001)]
    spec = EquidistSpec.explicit(terms, 0.0, constant_rate(0.1))
    small = 0
    for i in range(40):
        x = random_grid_point(1100, seed=spawn_seed(5, i))
        if weyl_sums(x, spec, 5).max() <= 0.1:
            small += 1
    assert small / 40 >= 0.9


# -- digit statistics -----------------------------------------------------------------

def digits(x, base, count):
    """The first ``count`` base-``base`` digits of x from the digit engine
    that ``digit_freq`` counts."""
    return eq._digits(*eq._residue(x), base, count)


def test_digits_of_half_and_third():
    np.testing.assert_array_equal(digits(Fraction(1, 2), 2, 8), [1, 0, 0, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(digits(Fraction(1, 3), 3, 8), [1, 0, 0, 0, 0, 0, 0, 0])


def test_digits_of_triadic_samples_avoid_one():
    pts = sample_rational_points(
        [(Fraction(1, 3), Fraction(0)), (Fraction(1, 3), Fraction(2, 3))],
        [0.5, 0.5], 5, 1000, seed=6)
    for p in pts:
        assert np.mean(digits(p, 3, 1000) == 1) <= 0.01


def test_digits_uniform_chi_square_reasonable():
    gp = random_grid_point(10_128, seed=7)
    d = digit_freq(gp, 2, 10_000)
    assert d.chi_square <= 15.0  # 1 dof, very generous


def test_digits_reject_bad_count_and_base():
    # count 0 gave chi_square nan, count -1 leaked numpy's message
    for count in (0, -1):
        with pytest.raises(ValidationError, match="count"):
            digit_freq(Fraction(1, 3), 3, count)
    for base in (2.5, 1, True, 2 ** 63):
        with pytest.raises(ValidationError, match="base"):
            digit_freq(Fraction(1, 3), base, 10)


def digits_by_steps(x, base, count):
    """The reference: one exact multiply, divide and remainder per digit."""
    y = x.fraction if isinstance(x, GridPoint) else x
    p, q = y.numerator % y.denominator, y.denominator
    out = []
    for _ in range(count):
        p *= base
        out.append(p // q)
        p %= q
    return out


points = st.one_of(
    st.integers(1, 4000).flatmap(
        lambda bits: st.builds(GridPoint, st.integers(0, 2 ** bits - 1), st.just(bits))),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)))


@settings(max_examples=60, deadline=None)
@given(points, st.integers(2, 16), st.integers(1, 3000))
def test_digit_freq_matches_a_per_step_loop(x, base, count):
    want = digits_by_steps(x, base, count)
    assert digits(x, base, count).tolist() == want
    d = digit_freq(x, base, count)
    np.testing.assert_array_equal(d.histogram, np.bincount(want, minlength=base))


# -- composition with nonlinear images --------------------------------------------------

def test_pushforward_samples_through_counting_harness():
    # sample the triadic measure exactly, push through x -> x^2, count hits
    pts = sample_rational_points(
        [(Fraction(1, 3), Fraction(0)), (Fraction(1, 3), Fraction(2, 3))],
        [0.5, 0.5], 20, 400, seed=9)
    psi0 = 0.05
    N = 300
    spec = EquidistSpec.geometric(2, 0.0, constant_rate(psi0), N)
    fracs = []
    for y in pts:
        res = count_hits(y * y, spec)
        fracs.append(res.count / N)
    # hits concentrate near twice the constant rate
    assert abs(np.mean(fracs) - 2 * psi0) <= 0.05
