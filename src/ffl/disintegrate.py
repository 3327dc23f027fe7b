"""Random-convolution disintegration of stationary measures.

Words of a fixed block length are grouped into equivalence classes: two
words are equivalent when they agree outside the distinguished separated
pair of fibre symbols and use pair symbols in the same slots. Drawing an
i.i.d. sequence of classes and, inside each class, a uniformly random
member produces an infinite convolution of finitely supported measures
whose average over class sequences reproduces the stationary measure.

This module builds class tables, samples class sequences, evaluates the
convolution Fourier products, checks the large-deviation membership
conditions used to control typical sequences, and computes the
near-integer (carry-propagation) diagnostics behind sparse-frequency
decay counting.

A class table is one record of arrays. ``build_classes`` takes all block
words as one index matrix and composes their fibre maps column by column
in ``ifs.fold``'s order, so no word is folded on its own; classes come from
one integer key per word. ``sample_omegas`` draws the class sequences of
many streams from one ``rng.uniforms`` call. ``mu_omega_fourier_batch``
evaluates the convolution transforms of many sequences of one class table
at many frequencies in one sweep per frequency: one character evaluation
and one segmented sum over the distinct factors, keyed by class and scale,
that the sequences read, each evaluated once however many sequences share
it. It has one truncation rule: each sequence stops at the first factor
count whose tail bound is within the tolerance, and factors past it are
not evaluated. The consistency check and ``calibrate_alpha`` read a built
class table: the check compares its sequences against its system's fibre
marginal in one batch call for its whole grid, the calibration sums the
weight of its small classes exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .ifs import AffineMap, FibreProductCIFS, BudgetExhausted, ValidationError, fold, lyapunov
from . import measure
from .measure import DEFAULT_BUDGET, character, fourier_exact_batch, require_values, TWO_PI
from .rng import uniforms

CLASS_BUDGET = 1_000_000
ALPHA_CANDIDATES = (0.2, 0.1, 0.05)  # the rates ``calibrate_alpha`` tries, largest first


# ---------------------------------------------------------------------------
# equivalence classes
# ---------------------------------------------------------------------------

@dataclass
class ClassTable:
    """All equivalence classes on words of one block length, as arrays.

    Class i has ``sizes[i]`` members, the signed composed fibre ratio
    ``ratios[i]`` and the total weight ``weights[i]``. Its representative
    ``representatives[i]`` is its word as alphabet indices, with every pair
    slot set to the first pair symbol. ``members`` holds the composed fibre
    translates of all members, class after class and ascending within a
    class; distinct members have disjoint fibre images. ``pair_deltas[i]``
    is the translate difference of the two members that differ only in the
    first pair slot (NaN for a class without pair slots).
    """

    system: FibreProductCIFS
    block_length: int
    representatives: np.ndarray
    sizes: np.ndarray
    ratios: np.ndarray
    weights: np.ndarray
    pair_deltas: np.ndarray
    members: np.ndarray

    def __len__(self):
        return len(self.sizes)

    @cached_property
    def starts(self) -> np.ndarray:
        """The index in ``members`` of each class's first member."""
        return np.cumsum(self.sizes) - self.sizes

    def translates(self, cls) -> np.ndarray:
        """The member translates of the class ``cls``, or of the classes
        ``cls`` concatenated in order: one gather from ``members``."""
        sizes = self.sizes[cls]
        shift = self.starts[cls] - np.cumsum(sizes) + sizes
        return self.members[np.arange(sizes.sum()) + np.repeat(shift, sizes)]


def build_classes(fp: FibreProductCIFS, block_length: int,
                  budget: int = CLASS_BUDGET) -> ClassTable:
    """Partition all words of the given block length into classes.

    Within the enumeration budget this is a full partition: class weights
    sum to 1 and sizes follow 2^(number of pair slots). The words form one
    index matrix, a column per word in ``itertools.product`` order; ratios,
    translates and weights compose letter by letter as ``ifs.fold`` does,
    so each is the same bit for bit. Classes are numbered in the order of
    their first word.
    """
    if block_length < 1:
        raise ValidationError("block length must be >= 1")
    n, k = len(fp.alphabet), block_length
    if n ** k > budget:
        raise BudgetExhausted(f"{n}^{k} words exceed the class budget {budget}; "
                              "reduce the block length or truncate the alphabet")
    R, T = fp.ratios[-1], fp.translates[-1]
    W = np.array([fp.weights[s] for s in fp.alphabet])  # raw: classes.json prints their products
    a, b = (fp.alphabet.index(s) for s in fp.special_symbols)

    words = np.indices((n,) * k).reshape(k, -1)  # row c: the c-th letter of each word
    ratio, translate, weight = np.ones(n ** k), np.zeros(n ** k), np.ones(n ** k)
    for col in words:
        translate = translate + ratio * T[col]
        ratio = ratio * R[col]
        weight = weight * W[col]

    # a word's key marks its pair slots with n; one base-(n+1) code per key
    pair = (words == a) | (words == b)
    codes = (n + 1) ** np.arange(k - 1, -1, -1) @ np.where(pair, n, words)
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)  # classes in the order of their first word
    cls, first = np.argsort(order)[inverse], first[order]
    sizes = np.bincount(cls)
    if np.max(np.abs(ratio - ratio[first][cls])) > 1e-12:
        raise ValidationError("class members disagree on the composed ratio")
    if np.max(np.abs(weight - weight[first][cls])) > 1e-12:
        raise ValidationError("class members disagree on the weight")
    slots = pair[:, first]
    if np.any(sizes != 2 ** slots.sum(axis=0)):
        raise ValidationError("class size does not match 2^(pair slots)")

    reps = np.where(slots, a, words[:, first])
    place = n ** np.arange(k - 1, -1, -1)
    paired = slots.any(axis=0)
    rep = place @ reps  # the representative's word, and the member differing
    other = rep + paired * (b - a) * place[slots.argmax(axis=0)]  # in the first pair slot
    deltas = np.where(paired, np.abs(translate[rep] - translate[other]), np.nan)
    return ClassTable(fp, k, reps.T, sizes, ratio[first], weight[first] * sizes, deltas,
                      translate[np.lexsort((translate, cls))])


# ---------------------------------------------------------------------------
# sampled class sequences and their convolution measures
# ---------------------------------------------------------------------------

@dataclass
class OmegaSample:
    """A finite prefix of an i.i.d. class sequence with derived data.

    ``cum_ratios[m]`` is the signed product of the first m+1 class ratios.
    Each is derived on first use.
    """

    table: ClassTable
    indices: np.ndarray

    def __len__(self):
        return len(self.indices)

    @cached_property
    def cum_ratios(self) -> np.ndarray:
        return np.cumprod(self.table.ratios[self.indices])

    @cached_property
    def log_abs_ratios(self) -> np.ndarray:
        return np.log(np.abs(self.table.ratios[self.indices]))

    @cached_property
    def base_point(self):
        """The prefix approximation of the base coordinate (the image of 0
        under the composed base maps); None for a smooth base."""
        system = self.table.system
        maps = [system.base_maps[system.alphabet[j][0]]
                for j in self.table.representatives[self.indices].ravel()]
        if not all(isinstance(m, AffineMap) for m in maps):
            return None
        return fold(maps).translate


def sample_omegas(table: ClassTable, length: int, seed: int, streams) -> list:
    """Draw one i.i.d. class sequence of the given length per stream id.

    The sequence of stream s is keyed by (seed, 0xD15, s) alone: it equals
    ``stream_rng(seed, 0xD15, s).choice(len(table), size=length, p=probs)``
    with probs the normalised class weights. The uniforms of all streams
    come from one ``uniforms`` call and the classes from one search in the
    weights' cumulative sum, as ``Generator.choice`` does it.
    """
    if length < 1:
        raise ValidationError("prefix length must be >= 1")
    streams = list(streams)
    cdf = np.cumsum(table.weights / table.weights.sum())
    cdf /= cdf[-1]
    rows = np.searchsorted(cdf, uniforms(seed, (0xD15,), streams, length), side="right")
    return [OmegaSample(table, idx) for idx in rows]


def mu_omega_fourier_batch(omegas, xis, tol: float):
    """Evaluate the convolution transform of every sequence of ``omegas`` at
    every frequency of ``xis``, each as a finite product of factor sums.

    Stopping after m factors costs at most
    2*pi*|xi| * |prod of the first m ratios| / (1 - max |class ratio|).
    A sequence takes the first count m below its prefix length whose tail
    bound is at most ``tol``, else its whole prefix. Returns
    ``(values, bounds)``, complex and float arrays of shape
    (len(xis), len(omegas)); xi = 0 gives 1 within 0.

    The sequences, all of one class table, go in chunks of at most
    ``measure.BATCH_CELLS`` atoms (one sequence at least), the most one
    frequency's character call holds. A chunk stacks its class indices as
    rows; its ratio products and scales come from that matrix and the
    table's arrays. A factor's key is its class and the float bits of its
    scale; factors of one key have the same atoms bit for bit. Per
    frequency a chunk evaluates each distinct key that some sequence reads
    before its count once: one character evaluation over those keys' atoms
    and one segmented sum. Each factor takes its key's mean, factors past a
    sequence's count take 1, and each row is their product. Each value is
    the same, bit for bit, whatever else is in the batch.
    """
    if not tol > 0:
        raise ValidationError("need a positive truncation tolerance")
    omegas = list(omegas)
    if not omegas or any(om.table is not omegas[0].table for om in omegas):
        raise ValidationError("a batch takes one or more sequences of one class table")
    table = omegas[0].table
    denom = 1.0 - np.abs(table.ratios).max()
    # the tails multiply |xi| by at most 1 / denom, the phases by the largest |atom|
    xis = measure.frequencies(xis, max(1.0 / denom, np.abs(table.members).max()))
    lengths = np.array([len(om) for om in omegas], dtype=int)
    values = np.ones((xis.size, len(omegas)), dtype=complex)
    bounds = np.zeros((xis.size, len(omegas)))
    live = np.flatnonzero(xis != 0)
    if not live.size:
        return values, bounds

    cls = np.concatenate([om.indices for om in omegas])
    first = np.concatenate(([0], np.cumsum(lengths)))  # first factor of each sequence
    edges = np.concatenate(([0], np.cumsum(table.sizes[cls])))[first]
    lo = 0
    while lo < len(omegas):
        hi = max(lo + 1, int(np.searchsorted(edges, edges[lo] + measure.BATCH_CELLS,
                                             side="right")) - 1)
        length, part = lengths[lo:hi], cls[first[lo]:first[hi]]
        n, width = hi - lo, int(length.max())
        # factor j of sequence row[j] sits at column col[j] of the row
        row = np.repeat(np.arange(n), length)
        col = np.arange(row.size) - np.repeat(np.cumsum(length) - length, length)
        # ratios padded with 1.0: each row's running product is formed in the
        # order of the sequence's own cum_ratios, so it is the same bit for bit
        ratios = np.ones((n, width))
        ratios[row, col] = table.ratios[part]
        cum = np.cumprod(ratios, axis=1)
        mags = np.abs(cum)
        scales = np.concatenate((np.ones((n, 1)), cum[:, :-1]), axis=1)[row, col]
        # a factor's atoms are its class translates times its scale, so factors
        # of one class and one scale, bit for bit, share one key and one mean
        _, scale_id = np.unique(scales.view(np.uint64), return_inverse=True)
        keys, key = np.unique(scale_id * len(table) + part, return_inverse=True)
        factor = np.empty(keys.size, dtype=int)
        factor[key] = np.arange(key.size)  # a factor of each key
        for f in live:
            xi = xis[f]
            # tails[i, m - 1] bounds the cost of stopping sequence i after m
            # factors; columns past a sequence's length are never read
            tails = TWO_PI * abs(xi) * mags / denom
            hit = (tails <= tol) & (np.arange(width) < length[:, None] - 1)
            count = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, length)
            read = col < count[row]  # the factors before each sequence's count
            used = np.zeros(keys.size, dtype=bool)
            used[key[read]] = True
            at = factor[used]  # a factor of each key that some sequence reads
            size = table.sizes[part[at]]
            atoms = table.translates(part[at]) * np.repeat(scales[at], size)
            means = np.ones(keys.size, dtype=complex)
            means[used] = np.add.reduceat(character(xi * atoms), np.cumsum(size) - size) / size
            grid = np.ones((n, width), dtype=complex)
            grid[row[read], col[read]] = means[key[read]]
            values[f, lo:hi] = grid.prod(axis=1)
            bounds[f, lo:hi] = tails[np.arange(n), count - 1]
        lo = hi
    return values, bounds


# ---------------------------------------------------------------------------
# disintegration consistency against the direct evaluator
# ---------------------------------------------------------------------------

@dataclass
class ConsistencyEntry:
    frequency: float
    mean: complex
    target: complex
    stderr: float
    z_score: float
    rigorous_error: float
    passed: bool


@dataclass
class ConsistencyReport:
    block_length: int
    n_sequences: int
    entries: list

    def to_jsonable(self) -> dict:
        return {
            "block_length": self.block_length,
            "n_sequences": self.n_sequences,
            "entries": [
                {"xi": e.frequency, "mean_re": e.mean.real, "mean_im": e.mean.imag,
                 "target_re": e.target.real, "target_im": e.target.imag,
                 "stderr": e.stderr, "z": e.z_score,
                 "rigorous_error": e.rigorous_error, "passed": e.passed}
                for e in self.entries
            ],
        }


def disintegration_consistency(table: ClassTable, xis, n_sequences: int, seed: int = 0,
                               trunc_tol: float = 1e-6,
                               budget: int = DEFAULT_BUDGET) -> ConsistencyReport:
    """Compare the average convolution transform over the classes of
    ``table`` against the direct transform of its system's fibre marginal.

    For each frequency the mean of the convolution transform over sampled
    class sequences must match the stationary-measure transform within
    4 standard errors plus all rigorous truncation errors. A
    failed comparison is reported, not raised. The sequences come from one
    ``sample_omegas`` call, their transforms at all frequencies from one
    ``mu_omega_fourier_batch`` call (one sweep per frequency), the direct
    ones from one ``fourier_exact_batch`` call within ``budget``; a frequency
    over it raises its BudgetExhausted. It needs two sequences at least and
    one or more frequencies.
    """
    if n_sequences < 2:  # one sequence has no standard error
        raise ValidationError("need at least two sequences")
    if not trunc_tol > 0:
        raise ValidationError("need a positive trunc_tol")
    if not np.size(xis):
        raise ValidationError("need at least one frequency")
    r_max = float(np.abs(table.ratios).max())
    # the prefix length below multiplies |xi| by 1 / ((1 - r_max) trunc_tol)
    xis = measure.frequencies(xis, 1.0 / ((1.0 - r_max) * trunc_tol))
    xi_max = float(np.abs(xis).max())
    # prefix long enough that the truncation tail is below trunc_tol at xi_max
    need = TWO_PI * max(xi_max, 1.0) / ((1.0 - r_max) * trunc_tol)
    length = min(10_000, max(4, math.ceil(math.log(need) / math.log(1.0 / r_max)) + 2))

    targets = require_values(fourier_exact_batch(table.system.fibre_cifs(), xis,
                                                 tol=trunc_tol, budget=budget))
    omegas = sample_omegas(table, length, seed, range(n_sequences))
    values, bounds = mu_omega_fourier_batch(omegas, xis, tol=trunc_tol)
    entries = []
    for xi, target, vals, tails in zip(xis, targets, values, bounds):
        rig = float(tails.max())
        mean = complex(vals.mean())
        # identical sequences (a one-class table) have no spread; their
        # computed variance would be rounding noise
        stderr = (0.0 if np.all(vals == vals[0]) else
                  math.sqrt((vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / n_sequences))
        rigorous = rig + target.error_bound
        gap = abs(mean - target.value)
        z = gap / stderr if stderr > 0 else math.inf if gap > rigorous else 0.0
        entries.append(ConsistencyEntry(float(xi), mean, target.value, stderr,
                                        float(z), rigorous,
                                        bool(gap <= 4.0 * stderr + rigorous)))
    return ConsistencyReport(table.block_length, n_sequences, entries)


# ---------------------------------------------------------------------------
# large-deviation membership
# ---------------------------------------------------------------------------

@dataclass
class LargeDeviationParams:
    """Thresholds controlling typical class sequences.

    Derived from the block length k, the deviation rate alpha, the pair
    weight, the per-letter Lyapunov exponent and the pair translate gap:

      * size_threshold     = 2^(pair_weight * k)
      * count_slack        = e^(-alpha k)   (tolerated fraction of bad slots)
      * log_ratio_floor    = -e^(3 alpha k / 4)   (the log of the least slot ratio)
      * near_integer_tol   = gap * exp(-2 e^(3 alpha k / 4)) / 5
      * log product floor  = -2 * lyapunov * k * N at horizon N
    """

    block_length: int
    alpha: float
    start_index: int
    pair_weight: float
    lyapunov: float
    pair_gap: float

    def __post_init__(self):
        if self.block_length < 1 or not self.alpha > 0 or self.start_index < 1:
            raise ValidationError("need block_length >= 1, alpha > 0, start_index >= 1")

    @classmethod
    def for_table(cls, table: ClassTable, alpha: float,
                  start_index: int = 1) -> "LargeDeviationParams":
        return cls(table.block_length, alpha, start_index,
                   table.system.pair.weight, lyapunov(table.system), table.system.pair.gap)

    @property
    def size_threshold(self) -> float:
        return 2.0 ** (self.pair_weight * self.block_length)

    @property
    def count_slack(self) -> float:
        return math.exp(-self.alpha * self.block_length)

    @property
    def log_ratio_floor(self) -> float:
        return -math.exp(0.75 * self.alpha * self.block_length)

    @property
    def near_integer_tol(self) -> float:
        return self.pair_gap * math.exp(2.0 * self.log_ratio_floor) / 5.0

    def log_product_floor(self, horizon: int) -> float:
        return -2.0 * self.lyapunov * self.block_length * horizon


@dataclass
class MembershipReport:
    horizons: np.ndarray
    large_classes: np.ndarray      # enough slots with many members
    ratio_product: np.ndarray      # cumulated ratio above the geometric floor
    ratio_floor: np.ndarray        # enough slots with not-too-small ratio
    small_ratio_product: np.ndarray  # tiny-ratio slots contribute little

    @property
    def flags(self) -> dict:
        """The four flag arrays by name: every field after ``horizons``."""
        return {f.name: getattr(self, f.name) for f in fields(self)[1:]}

    @property
    def aggregate(self) -> dict:
        return {name: bool(flag.all()) for name, flag in self.flags.items()}

    @property
    def all_ok(self) -> bool:
        return all(self.aggregate.values())


def check_omega_membership(omega: OmegaSample, params: LargeDeviationParams,
                           horizons=None) -> MembershipReport:
    """Evaluate the four membership inequalities at each horizon.

    All four are computed literally from their definitions (in log space
    where products are involved). The aggregate is the conjunction over the
    horizon range, which must be non-empty and inside [1, prefix length].
    """
    if horizons is None:
        horizons = np.arange(params.start_index, len(omega) + 1)
    horizons = np.asarray(horizons, dtype=int)
    if not horizons.size or horizons.min() < 1 or horizons.max() > len(omega):
        raise ValidationError(f"need one or more horizons in [1, {len(omega)}], the prefix length")

    table = omega.table
    logr = omega.log_abs_ratios
    big = np.cumsum(table.sizes[omega.indices] > params.size_threshold)
    above_floor = np.cumsum(logr >= params.log_ratio_floor)
    cum_log = np.cumsum(logr)
    cum_small_log = np.cumsum(np.where(logr < params.log_ratio_floor, logr, 0.0))

    # class-table expectation of the tiny-ratio log contribution
    sel = np.log(np.abs(table.ratios)) < params.log_ratio_floor
    expect_small = float(np.sum(np.where(sel, table.weights * np.log(np.abs(table.ratios)), 0.0)))

    n = horizons
    need = n * (1.0 - params.count_slack)
    return MembershipReport(
        horizons=n,
        large_classes=big[n - 1] >= need,
        ratio_product=cum_log[n - 1] > params.log_product_floor(n),
        ratio_floor=above_floor[n - 1] >= need,
        small_ratio_product=cum_small_log[n - 1] >= 2.0 * n * expect_small,
    )


def calibrate_alpha(table: ClassTable):
    """Pick the largest rate of ALPHA_CANDIDATES whose block-level
    concentration inequality holds for the class table.

    The inequality: the probability that a block word's class has at most
    2^(pair_weight*k) members must not exceed e^(-2*alpha*k). The table
    gives that probability exactly, as the summed weight of the small
    classes over the total weight. Returns the chosen alpha and the
    per-candidate report; when no candidate passes the smallest is returned
    flagged unverified.
    """
    k = table.block_length
    small = table.sizes <= 2.0 ** (table.system.pair.weight * k)
    small_frac = float(table.weights[small].sum() / table.weights.sum())
    report = []
    chosen, verified = None, False
    for alpha in ALPHA_CANDIDATES:
        bound = math.exp(-2.0 * alpha * k)
        ok = small_frac <= bound
        report.append({"alpha": alpha, "small_fraction": small_frac,
                       "bound": bound, "holds": ok})
        if ok and chosen is None:
            chosen, verified = alpha, True
    if chosen is None:
        chosen = min(ALPHA_CANDIDATES)
    return chosen, {"verified": verified, "candidates": report}


# ---------------------------------------------------------------------------
# near-integer diagnostics for the sparse-frequency counting argument
# ---------------------------------------------------------------------------

@dataclass
class EKDiagnostics:
    """Decay-level bookkeeping for one frequency.

    At each decay level the scaled pair-offset difference splits into an
    integer part and a fractional part in [-1/2, 1/2); levels whose
    fractional part is within ``near_integer_tol`` of zero cannot shrink
    the convolution product and form the near-integer set.
    """

    frequency: float
    band_limit: float
    n_eff: int
    band_index: int
    decay_levels: np.ndarray
    products: np.ndarray
    integer_parts: np.ndarray
    fractional_parts: np.ndarray
    near_integer_tol: float
    near_integer_levels: np.ndarray

    @property
    def level_ratio(self) -> float:
        """Observed n_eff relative to the nominal band index."""
        return self.n_eff / max(self.band_index, 1)


def _round_half_even_keep_halfopen(x: np.ndarray):
    p = np.rint(x)  # ties to even
    eps = x - p
    bump = eps == 0.5  # keep the fractional part inside [-1/2, 1/2)
    p = p + bump
    eps = np.where(bump, -0.5, eps)
    return p.astype(np.int64), eps


def ek_diagnostics(omega: OmegaSample, xi: float,
                   params: LargeDeviationParams) -> EKDiagnostics:
    """Compute the near-integer diagnostics of a class sequence at ``xi``.

    The band limit is T = max(|xi|, 1). ``n_eff`` is the smallest N with
    T * |product of the first N+1 ratios| < 1.
    """
    if not math.isfinite(xi):
        raise ValidationError("the frequency must be finite")
    T = float(max(abs(xi), 1.0))
    log_cum = np.cumsum(omega.log_abs_ratios)
    below = np.nonzero(math.log(T) + log_cum < 0.0)[0]
    if len(below) == 0:
        raise ValidationError("prefix too short to absorb the band limit")
    n_eff = max(int(below[0]), 1)  # minimal N with T*|prod_{i<=N+1} r| < 1
    band_index = max(1, math.ceil(math.log(T) /
                                  (2.0 * params.lyapunov * params.block_length)))

    table = omega.table
    level_mask = ((table.sizes[omega.indices[:n_eff]] >= params.size_threshold)
                  & (omega.log_abs_ratios[:n_eff] >= params.log_ratio_floor))
    levels = np.nonzero(level_mask)[0] + 1  # 1-based positions
    if len(levels) == 0:
        warnings.warn("no decay levels in the prefix; diagnostics are empty")
    deltas = table.pair_deltas[omega.indices[levels - 1]]
    prefix = np.where(levels >= 2, omega.cum_ratios[levels - 2], 1.0)
    products = xi * deltas * prefix
    p, eps = _round_half_even_keep_halfopen(products)
    bad = levels[np.abs(eps) <= params.near_integer_tol]
    return EKDiagnostics(float(xi), T, n_eff, band_index, levels, products,
                         p, eps, params.near_integer_tol, bad)
