import math

import numpy as np
import pytest

from ffl import decay
from ffl.ifs import CIFS, AffineMap, BudgetExhausted, ValidationError
from ffl.measure import FourierValue, fourier_exact, fourier_exact_batch
from ffl.pushforward import SmoothMapF, pushforward_fourier
from ffl.rng import stream_rng
from ffl.decay import (band_maxima, fit_eta, sparse_cover, rajchman_probe,
                       BandMax, _band_frequencies)


def exact_eval(system, tol=1e-6):
    return lambda xis: fourier_exact_batch(system, xis, tol=tol)


# -- band maxima -------------------------------------------------------------

def test_band_maxima_dirac_all_one(dirac):
    bands = band_maxima(exact_eval(dirac), range(2, 8), 64, seed=0)
    assert all(b.peak == pytest.approx(1.0, abs=1e-6) for b in bands)


def test_band_maxima_dyadic_sinc_envelope(dyadic):
    bands = band_maxima(exact_eval(dyadic), range(3, 10), 64, seed=0)
    peaks = [b.peak for b in bands]
    assert all(a > b for a, b in zip(peaks, peaks[1:]))
    fit = fit_eta(bands)
    assert abs(fit.exponent - 1.0) <= 0.1


def test_band_maxima_cantor_triadic_lower_bound(cantor):
    bands = band_maxima(exact_eval(cantor), range(3, 9), 64, seed=0, band_base=3.0)
    anchor = abs(fourier_exact(cantor, 1.0, tol=1e-8).value)
    for b in bands:
        assert b.peak >= anchor - 1e-5
        assert b.peak_frequency >= b.lower


def test_band_maxima_includes_band_edge():
    rows = _band_frequencies([27.0, 81.0], 64, seed=3, band_ids=[3, 4])
    assert rows.shape == (2, 64)
    for lower, band_id, freqs in zip((27.0, 81.0), (3, 4), rows):
        assert freqs[0] == lower
        assert np.all((freqs >= lower) & (freqs < 2 * lower))
        # the per-sample reference, bit for bit: the radical inverse of i plus
        # the first uniform of stream (seed, 0xBA4D, band_id, i) times i's
        # dyadic cell
        for i in range(1, 64):
            radical = sum(((i >> k) & 1) / 2.0 ** (k + 1) for k in range(i.bit_length()))
            jitter = stream_rng(3, 0xBA4D, band_id, i).random()
            assert freqs[i] == lower + (radical + jitter * 2.0 ** -i.bit_length()) * lower


@pytest.mark.parametrize("method, budget", [("exact", 10 ** 6), ("pushforward", 10 ** 6),
                                            ("pushforward", 128)])
def test_band_maxima_of_several_bands_match_one_band_at_a_time(cantor, method, budget):
    # all bands are one evaluator call; on the line every record is the one
    # its band alone gives, at budget 128 too, where band 3 is cut partway
    if method == "exact":
        evaluate = lambda xis: fourier_exact_batch(cantor, xis, tol=1e-6, budget=budget)
    else:
        F = SmoothMapF.parse("(pow x 2)")
        evaluate = lambda xis: pushforward_fourier(F, cantor, xis, tol=1e-3, budget=budget)
    calls = []
    together = band_maxima(lambda xis: calls.append(len(xis)) or evaluate(xis),
                           range(3, 6), 64, seed=4, band_base=3.0)
    assert calls == [3 * 64]
    alone = [band_maxima(evaluate, [j], 64, seed=4, band_base=3.0)[0] for j in range(3, 6)]
    assert together == alone  # field by field: peak, peak_frequency, max_error_bound, ...
    if budget == 128:
        assert 0 < together[0].excluded < 64


def test_pushforward_cut_runs_across_bands(cantor):
    # the bands are one batch, so every sample at least as large as the first
    # over budget is excluded, in its own band and in every later one; the
    # records come back in the order of the band indices
    F, xis, entries = SmoothMapF.parse("(pow x 2)"), [], []

    def evaluate(batch):
        xis.extend(batch)
        entries.extend(pushforward_fourier(F, cantor, batch, tol=1e-3, budget=128))
        return entries[-len(batch):]
    bands = band_maxima(evaluate, [5, 3, 4], 64, seed=0, band_base=3.0)
    over = [xi for xi, e in zip(xis, entries) if isinstance(e, BudgetExhausted)]
    first = min(over)
    assert sorted(over) == sorted(xi for xi in xis if xi >= first)
    assert [b.index for b in bands] == [5, 3, 4]
    assert [b.excluded for b in bands] == [sum(xi >= first for xi in xis[n:n + 64])
                                           for n in (0, 64, 128)]
    assert [b.excluded for b in bands] == [64, bands[1].excluded, 64]
    assert 0 < bands[1].excluded < 64 and bands[1].lower <= first < bands[1].upper


def test_band_maxima_doubling_is_superset(cantor):
    ev = exact_eval(cantor)
    small = band_maxima(ev, range(3, 7), 64, seed=5, band_base=3.0)
    big = band_maxima(ev, range(3, 7), 128, seed=5, band_base=3.0)
    for s, b in zip(small, big):
        assert b.peak >= s.peak - 1e-15


def test_band_maxima_excludes_budget_failures(cantor):
    calls = {"n": 0}

    def flaky(xis):
        entries = []
        for xi in xis:
            calls["n"] += 1
            entries.append(BudgetExhausted("synthetic") if calls["n"] % 3 == 0
                           else fourier_exact(cantor, xi, tol=1e-4))
        return entries
    bands = band_maxima(flaky, [4, 5], 66, seed=1)
    assert all(b.excluded == 22 for b in bands)
    assert all(b.samples == 44 for b in bands)


def test_band_maxima_needs_64_samples(cantor):
    with pytest.raises(ValidationError):
        band_maxima(exact_eval(cantor), [3], 32)


def test_band_maxima_rejects_bands_whose_lower_edge_underflows(cantor):
    # 2^-1075 rounds to 0: a band from 0 has no log for the fit
    with pytest.raises(ValidationError, match="band_min"):
        band_maxima(exact_eval(cantor), range(-1075, -1070))
    assert band_maxima(exact_eval(cantor), [-1074])[0].lower == 5e-324


# -- exponent fits -------------------------------------------------------------

def synthetic_bands(exponent, prefactor=0.8, jitter=0.0, n=8, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for j in range(2, 2 + n):
        T = 2.0 ** j
        peak = prefactor * T ** (-exponent) * math.exp(jitter * rng.normal())
        out.append(BandMax(j, T, 2 * T, peak, T, 64, 0.0))
    return out


def test_fit_recovers_exact_power_law():
    fit = fit_eta(synthetic_bands(0.5))
    assert abs(fit.exponent - 0.5) <= 1e-9
    assert fit.stderr <= 1e-9
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.prefactor == pytest.approx(0.8)


def test_fit_reports_noise():
    fit = fit_eta(synthetic_bands(0.3, jitter=0.1, n=12, seed=4))
    assert abs(fit.exponent - 0.3) <= 3 * fit.stderr + 0.05
    assert fit.stderr > 0


def test_fit_excludes_zero_bands():
    bands = synthetic_bands(0.5)
    bands[3].peak = 0.0
    bands[5].peak = bands[5].peak_frequency = None  # every sample over budget
    fit = fit_eta(bands)
    assert fit.bands_used == len(bands) - 2
    assert abs(fit.exponent - 0.5) <= 1e-9


def test_fit_needs_four_bands():
    with pytest.raises(ValidationError):
        fit_eta(synthetic_bands(0.5)[:3])


def test_cantor_triadic_fit_is_flat(cantor):
    bands = band_maxima(exact_eval(cantor), range(4, 13), 64, seed=0, band_base=3.0)
    fit = fit_eta(bands)
    assert abs(fit.exponent) <= 0.02


# -- sparse covers ---------------------------------------------------------------

def test_sparse_cover_dirac_marks_everything(dirac):
    cov = sparse_cover(exact_eval(dirac), 16.0, 0.5)
    assert cov.count == 2 * 16 + 1


def test_sparse_cover_dyadic_concentrates_at_zero(dyadic):
    # sinc modulus clears 64^(-1/2) only below 1/(pi 0.125) ~ 2.55, and the
    # half-integer peak at 2.5 sits just above it, so exactly -3..2 mark
    cov = sparse_cover(exact_eval(dyadic), 64.0, 0.5)
    assert list(cov.marked) == [-3, -2, -1, 0, 1, 2]
    assert cov.count == 6


def test_sparse_cover_monotone(cantor):
    ev = exact_eval(cantor, tol=1e-4)
    c1 = sparse_cover(ev, 81.0, 0.1)
    c2 = sparse_cover(ev, 81.0, 0.3)
    assert c2.count >= c1.count  # lower threshold marks more
    c3 = sparse_cover(ev, 243.0, 0.1)
    assert c3.count >= c1.count  # larger window marks more


def test_sparse_cover_feeds_the_grid_in_slices(cantor, monkeypatch):
    whole = sparse_cover(exact_eval(cantor, tol=1e-4), 81.0, 0.1, 0.125)
    seen = []

    def recorded(xis):
        seen.append(list(xis))
        return fourier_exact_batch(cantor, xis, tol=1e-4)

    monkeypatch.setattr(decay, "SPARSE_SLICE", 100)
    sliced = sparse_cover(recorded, 81.0, 0.1, 0.125)
    assert [len(xis) for xis in seen] == [100] * 6 + [49]
    assert sum(seen, []) == np.arange(0.0, 81.0 + 0.0625, 0.125).tolist()
    assert list(sliced.marked) == list(whole.marked) and sliced.count == whole.count


def test_sparse_cover_validation(cantor):
    with pytest.raises(ValidationError):
        sparse_cover(exact_eval(cantor), 64.0, 0.1, grid_step=0.5)
    with pytest.raises(ValidationError):
        sparse_cover(exact_eval(cantor), 2.0, 0.1)


def test_sparse_cover_conservative_marking():
    # a value just under the threshold still marks once its error crosses
    def ev(xis):
        return [FourierValue(xi, 0.5 + 0.0j, 0.2) for xi in xis]
    cov = sparse_cover(ev, 8.0, 0.5)  # threshold ~ 0.354 < 0.5: marks anyway
    assert cov.count == 17
    def ev2(xis):
        return [FourierValue(xi, 0.3 + 0.0j, 0.1) for xi in xis]
    cov2 = sparse_cover(ev2, 8.0, 0.5)  # 0.4 >= 0.354: error pushes it over
    assert cov2.count == 17


# -- probes -----------------------------------------------------------------------

def test_probe_cantor_triadic_constant(cantor):
    vals = rajchman_probe(exact_eval(cantor, tol=1e-7), ("geometric", 3.0), 11)
    mags = [abs(v.value) for v in vals]
    assert max(mags) - min(mags) <= 2e-7


def test_probe_cantor_dyadic_bounded(cantor):
    vals = rajchman_probe(exact_eval(cantor), ("geometric", 2.0), 12)
    assert all(abs(v.value) <= 1.0 + v.error_bound for v in vals)


def test_probe_explicit_list(cantor):
    vals = rajchman_probe(exact_eval(cantor), [1.0, 4.0, 9.0])
    assert [v.frequency for v in vals] == [1.0, 4.0, 9.0]


def test_probe_geometric_needs_count(cantor):
    with pytest.raises(ValidationError):
        rajchman_probe(exact_eval(cantor), ("geometric", 2.0))
    with pytest.raises(ValidationError, match="count"):
        rajchman_probe(exact_eval(cantor), ("geometric", 2.0), 0)
