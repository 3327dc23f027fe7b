"""Decay-exponent fits, sparse-frequency covers, and non-decay probes.

An evaluator is a callable xis -> list with one entry per frequency: a
FourierValue, or the BudgetExhausted of a frequency over its budget. Every
consumer makes one call per batch of frequencies. Band maxima use a
nested low-discrepancy frequency set (radical-inverse points plus seeded
jitter inside each point's dyadic cell), so enlarging the sample count
only ever adds frequencies; the left band edge is always included exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ifs import DEFAULT_BUDGET, BudgetExhausted, ValidationError
from .measure import require_values
from .rng import uniforms


# ---------------------------------------------------------------------------
# band maxima
# ---------------------------------------------------------------------------

@dataclass
class BandMax:
    index: int
    lower: float
    upper: float
    peak: float | None  # None when every sample is over budget
    peak_frequency: float | None
    samples: int
    max_error_bound: float
    excluded: int = 0


def _band_frequencies(lowers, count: int, seed: int, band_ids) -> np.ndarray:
    """Nested stratified points in every band [lower, 2*lower), one row per
    band; index 0 is the band edge itself, later indices never move as
    count grows.

    Point i >= 1 is the base-2 radical inverse of i plus a jitter inside its
    dyadic cell of width 2^-bit_length(i); the jitter is the first uniform
    of the stream (seed, 0xBA4D, band_id, i). The radical inverses are built
    once for all bands, and the jitters of all bands come from one
    ``uniforms`` call.
    """
    lowers = np.asarray(lowers, dtype=float)[:, None]
    i = np.arange(1, count)
    bits = np.frexp(i)[1]  # bit lengths, exact below 2^53
    radical = np.zeros(i.size)
    for k in range(int(bits.max(initial=0))):  # sums of distinct powers of 2: exact
        radical += ((i >> k) & 1) * 2.0 ** -(k + 1)
    jitter = uniforms(seed, (0xBA4D,), [(j, n) for j in band_ids for n in range(1, count)], 1)
    xs = radical + jitter.reshape(lowers.shape[0], count - 1) * np.ldexp(1.0, -bits)
    return lowers + np.hstack((np.zeros_like(lowers), xs)) * lowers


def band_maxima(evaluator, band_indices, samples_per_band: int = 64,
                seed: int = 0, band_base: float = 2.0) -> list:
    """Per band [base^j, 2*base^j): the largest |value| over the sample set.

    The samples of all bands go to the evaluator in one call, band after
    band in the order of ``band_indices``; budget failures are excluded
    from the maximum and counted, and a band with no sample left has no
    peak. An evaluator whose budget cut depends on the batch (the
    pushforward excludes every frequency at least as large as one over
    budget) may thus exclude a band's samples for another band's. The band
    range must not be empty, and its edges must neither overflow nor
    underflow to 0.
    """
    band_indices = [int(j) for j in band_indices]
    if not band_indices:
        raise ValidationError("need at least one band: band_min must not exceed band_max")
    if samples_per_band < 64:
        raise ValidationError("need at least 64 samples per band")
    if not band_base > 1:  # a base <= 1 repeats or shrinks the band [1, 2]
        raise ValidationError("band base must exceed 1")
    first, last = min(band_indices), max(band_indices)  # checked before any band is evaluated
    try:
        top = 2.0 * band_base ** last
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise ValidationError(f"band {last} is past the float range: "
                              f"2 * {band_base}^{last} overflows")
    if band_base ** first == 0.0:  # a band from 0 has no log for the fit
        raise ValidationError(f"band {first} is below the float range: {band_base}^{first} "
                              f"underflows to 0; raise band_min")
    lowers = [band_base ** j for j in band_indices]
    freqs = _band_frequencies(lowers, samples_per_band, seed, band_indices).tolist()
    entries = evaluator([xi for row in freqs for xi in row])
    out = []
    for n, (j, lower, row) in enumerate(zip(band_indices, lowers, freqs)):
        peak, arg, err, excluded = -1.0, None, 0.0, 0
        for xi, fv in zip(row, entries[n * samples_per_band:(n + 1) * samples_per_band]):
            if isinstance(fv, BudgetExhausted):
                excluded += 1
                continue
            if abs(fv.value) > peak:
                peak, arg = abs(fv.value), xi
            err = max(err, fv.error_bound)
        out.append(BandMax(j, lower, 2.0 * lower, None if arg is None else peak, arg,
                           samples_per_band - excluded, err, excluded))
    return out


# ---------------------------------------------------------------------------
# decay-exponent fit
# ---------------------------------------------------------------------------

@dataclass
class DecayFit:
    """Least-squares fit of log(peak) against log(band edge).

    ``exponent`` is the negated slope; positive means decay.
    """

    exponent: float
    prefactor: float
    stderr: float
    r_squared: float
    bands_used: int


def fit_eta(bands) -> DecayFit:
    """Fit peak ~ C * T^(-exponent) over band maxima; zero peaks (their logs
    are undefined) and bands without a peak are excluded."""
    usable = [b for b in bands if b.peak]
    if len(usable) < 4:
        raise ValidationError("need at least 4 bands with positive maxima")
    x = np.log([b.lower for b in usable])
    y = np.log([b.peak for b in usable])
    n = len(x)
    xbar, ybar = x.mean(), y.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope = float(((x - xbar) * (y - ybar)).sum()) / sxx
    intercept = ybar - slope * xbar
    resid = y - slope * x - intercept
    dof = n - 2
    sigma2 = float((resid ** 2).sum()) / dof if dof else 0.0
    stderr = math.sqrt(sigma2 / sxx)
    sst = float(((y - ybar) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / sst if sst > 0 else 1.0
    return DecayFit(-slope, math.exp(intercept), stderr, r2, n)


# ---------------------------------------------------------------------------
# sparse-frequency covering
# ---------------------------------------------------------------------------

SPARSE_SLICE = 1 << 14  # grid frequencies per evaluator call


@dataclass
class SparseCover:
    limit: float
    threshold_exponent: float
    threshold: float
    count: int
    grid_step: float
    marked: np.ndarray  # sorted starts of marked unit intervals


def sparse_cover(evaluator, limit: float, threshold_exponent: float,
                 grid_step: float = 0.25, budget: int = DEFAULT_BUDGET) -> SparseCover:
    """Count unit intervals in [-limit, limit] holding a grid frequency
    with |value| + error above limit^(-threshold_exponent).

    The transform of a real measure has even modulus, so only nonnegative
    grid frequencies are evaluated; marks are mirrored. Marking uses
    |value| + error so a rigorous error can only overcount, never hide a
    crossing. The grid goes to the evaluator in calls of ``SPARSE_SLICE``
    frequencies, so memory grows with the marks, not with the grid; a grid
    of more than ``budget`` points is a budget failure.
    """
    if not 0.0 < grid_step <= 0.25:
        raise ValidationError("grid step must lie in (0, 1/4]")
    if not 4 <= limit < math.inf:
        raise ValidationError("limit must be finite and at least 4")
    if not math.isfinite(threshold_exponent):
        raise ValidationError("the threshold exponent must be finite")
    points = math.ceil((limit + grid_step / 2) / grid_step)  # the grid is i * grid_step
    if points > budget:
        raise BudgetExhausted(f"the sparse grid of limit {limit} and grid_step {grid_step} "
                              f"has {points:.6g} points, over the budget {budget}")
    threshold = limit ** (-threshold_exponent)
    marked = set()
    for lo in range(0, points, SPARSE_SLICE):
        xis = (np.arange(lo, min(points, lo + SPARSE_SLICE)) * grid_step).tolist()
        for xi, fv in zip(xis, require_values(evaluator(xis))):
            if abs(fv.value) + fv.error_bound >= threshold:
                marked.add(math.floor(xi))
                marked.add(math.floor(-xi))
    marks = np.array(sorted(marked), dtype=int)
    return SparseCover(float(limit), float(threshold_exponent), threshold,
                       len(marks), float(grid_step), marks)


# ---------------------------------------------------------------------------
# non-decay probe along a frequency family
# ---------------------------------------------------------------------------

def rajchman_probe(evaluator, family, count: int | None = None) -> list:
    """Evaluate along a frequency family: either ("geometric", b) with
    ``count`` terms, or an explicit list of at least one frequency."""
    if isinstance(family, tuple) and family and family[0] == "geometric":
        if count is None or count < 1:
            raise ValidationError("geometric family needs a count of at least 1")
        base = float(family[1])
        if not base > 1:
            raise ValidationError("geometric family base must exceed 1")
        try:  # a float power past the float range raises; none is evaluated then
            freqs = [base ** n for n in range(count)]
        except OverflowError:
            raise ValidationError("the geometric family overflows a float: "
                                  f"family_base^(count - 1) = {base}^{count - 1}") from None
    else:
        freqs = [float(f) for f in family][:count]
        if not freqs:
            raise ValidationError("the probe family holds no frequency")
    return require_values(evaluator(freqs))
