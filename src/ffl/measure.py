"""Stationary-measure sampling and Fourier evaluation with error bounds.

Three independent evaluators are provided for the transform of a stationary
measure on the line:

  * ``fourier_exact``      - cylinder expansion over a stopping set, with a
                             rigorous error bound (affine systems);
  * ``fourier_product_homogeneous`` - truncated infinite product (equal
                             contraction ratios only), rigorous bound;
  * ``fourier_montecarlo`` - empirical character sums, statistical bound.

Values are reported as FourierValue records; every evaluator guarantees
|value| <= 1 + error_bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ifs import CIFS, AffineMap, FibreProductCIFS, BudgetExhausted, ValidationError
from .rng import stream_rng, spawn_seed

TWO_PI = 2.0 * math.pi
DEFAULT_BUDGET = 50_000_000


def character(y):
    """exp(-2*pi*i*y), the unit character used throughout."""
    return np.exp(-2j * np.pi * np.asarray(y, dtype=float))


@dataclass
class FourierValue:
    """A Fourier transform estimate with an attached error bound.

    ``kind`` is "rigorous" when the bound is deterministic, "estimate"
    when it rests on uncertified inputs (pushforwards with grid-estimated
    derivative norms), "statistical" when it is a multiple of the Monte
    Carlo standard error (stored in ``stderr`` together with the
    z-multiple in ``confidence_z``).
    """

    frequency: float
    value: complex
    error_bound: float
    kind: str = "rigorous"
    stderr: float | None = None
    confidence_z: float | None = None

    @property
    def magnitude(self) -> float:
        return abs(self.value)


# ---------------------------------------------------------------------------
# sampling via the coding map
# ---------------------------------------------------------------------------

@dataclass
class SamplePoints:
    """I.i.d. draws from a stationary measure, accurate to ``accuracy`` in
    the sup metric, generated from symbol words of length ``depth``."""

    points: np.ndarray
    depth: int
    accuracy: float
    seed: int


def _depth_for(system, tol: float, depth: int | None = None, depth_cap: int = 100_000):
    """Word length whose composed image diameter is below ``tol`` (unless
    ``depth`` fixes it), with the diameter that length achieves."""
    worst = (max(system.product_map(s).contraction_bound for s in system.alphabet)
             if isinstance(system, FibreProductCIFS) else system.max_contraction)
    diam = getattr(system, "diam_constant", 1.0)
    if depth is None:
        if tol <= 0:
            raise ValidationError("tolerance must be positive")
        depth = max(1, math.ceil(math.log(tol / diam) / math.log(worst))) if diam > tol else 1
        depth = min(depth, depth_cap)
    return depth, diam * worst ** depth


def sample_points(system, count: int, tol: float = 1e-9, depth: int | None = None,
                  seed: int = 0, stream: int = 0) -> SamplePoints:
    """Draw ``count`` points of the stationary measure via the coding map.

    Points are images of 0 under random composition words; the word length
    is chosen so the composed image diameter is below ``tol`` (or fixed by
    ``depth``). Deterministic given (seed, stream).
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    depth, achieved = _depth_for(system, tol, depth)
    symbols = system.alphabet
    probs = np.array([system.weights[s] for s in symbols])
    probs = probs / probs.sum()
    rng = stream_rng(seed, 0x5A17, stream)
    idx = rng.choice(len(symbols), size=(count, depth), p=probs)
    if isinstance(system, FibreProductCIFS):
        coordinates = ([system.base_map(s) for s in symbols],
                       [system.fibre_map(s) for s in symbols])
    else:
        coordinates = ([system.maps[s] for s in symbols],)
    columns = []
    for maps in coordinates:
        x = np.zeros(count)
        if all(isinstance(m, AffineMap) for m in maps):
            ratios = np.array([m.ratio for m in maps])
            translates = np.array([m.translate for m in maps])
            for sel in idx.T[::-1]:
                x = ratios[sel] * x + translates[sel]
        else:
            for sel in idx.T[::-1]:
                for k, m in enumerate(maps):
                    mask = sel == k
                    if mask.any():
                        x[mask] = m(x[mask])
        columns.append(x)
    pts = np.column_stack(columns) if len(columns) > 1 else columns[0]
    return SamplePoints(pts, depth, achieved, seed)


def make_sampler(system, accuracy: float = 1e-9):
    """A (count, seed) -> points callable with an ``accuracy`` attribute."""
    def sampler(count: int, seed: int) -> np.ndarray:
        return sample_points(system, count, tol=accuracy, seed=seed).points
    sampler.accuracy = accuracy
    sampler.system = system
    return sampler


# ---------------------------------------------------------------------------
# rigorous cylinder-expansion evaluator
# ---------------------------------------------------------------------------

def _tail_effect(system, xi: float) -> float:
    # first-order effect of a recorded countable-truncation tail mass
    return TWO_PI * abs(xi) * getattr(system, "tail_mass", 0.0)


def fourier_exact(cifs: CIFS, xi: float, tol: float = 1e-9,
                  budget: int = DEFAULT_BUDGET) -> FourierValue:
    """Evaluate the transform of an affine 1-D stationary measure at ``xi``
    with rigorous error at most ``tol`` (plus any recorded tail effect).

    The measure is expanded over the prefix-free set of words whose
    composed ratio first drops below tol / (2*pi*|xi|); each cylinder
    integral is replaced by the character at the cylinder anchor (the image
    of 0), which costs at most 2*pi*|xi|*|ratio| per unit of mass. Distinct
    prefixes with equal composed ratio share one subproblem, so the
    enumeration is memoised on the composed ratio.
    """
    if not cifs.is_affine or cifs.dim != 1:
        raise ValidationError("fourier_exact needs an affine 1-D system")
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    if xi == 0:
        return FourierValue(0.0, 1.0 + 0.0j, 0.0)

    theta = tol / (TWO_PI * abs(xi))
    ratios = cifs.ratios()
    translates = np.array([cifs.maps[a].translate for a in cifs.alphabet])
    weights = cifs.weight_vector()
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
                raise BudgetExhausted(
                    f"stopping-set budget {budget} exhausted at frequency {xi}",
                    achieved=TWO_PI * abs(xi) * abs(rho))
            stack.extend(pending)
            continue
        phase = character(xi * rho * translates)
        sub = np.array([1.0 + 0j if abs(c) <= theta else memo[c] for c in children])
        memo[rho] = complex(np.sum(weights * phase * sub))
        stack.pop()

    value = memo[1.0]
    return FourierValue(float(xi), value, tol + _tail_effect(cifs, xi))


def fourier_product_homogeneous(cifs: CIFS, xi: float, factors: int = 64) -> FourierValue:
    """Truncated infinite-product evaluator for equal-ratio affine systems.

    The transform factorises over convolution scales; truncating after
    ``factors`` terms costs at most 2*pi*|xi|*|r|^factors / (1-|r|).
    """
    if not cifs.is_affine:
        raise ValidationError("product evaluator needs an affine system")
    ratios = cifs.ratios()
    r = ratios[0]
    if np.max(np.abs(ratios - r)) > 1e-12:
        raise ValidationError("product evaluator needs equal contraction ratios")
    if factors < 1:
        raise ValidationError("factors must be >= 1")
    if xi == 0:
        return FourierValue(0.0, 1.0 + 0.0j, 0.0)
    translates = np.array([cifs.maps[a].translate for a in cifs.alphabet])
    weights = cifs.weight_vector()
    weights = weights / weights.sum()
    scales = r ** np.arange(factors)
    phases = character(np.outer(scales, translates) * xi)
    value = complex(np.prod(phases @ weights))
    err = TWO_PI * abs(xi) * abs(r) ** factors / (1.0 - abs(r))
    return FourierValue(float(xi), value, err + _tail_effect(cifs, xi))


def fourier_montecarlo(sampler, xis, draws: int, seed: int = 0) -> list:
    """Empirical character sums over ``draws`` samples, one independent
    stream per frequency. Error bounds are 4 standard errors plus the
    sampler's deterministic accuracy bias."""
    if draws < 100:
        raise ValidationError("need at least 100 draws")
    bias_acc = getattr(sampler, "accuracy", 0.0)
    out = []
    for i, xi in enumerate(np.atleast_1d(np.asarray(xis, dtype=float))):
        pts = np.asarray(sampler(draws, spawn_seed(seed, 0xF0, i)))
        if pts.ndim > 1:
            pts = pts[:, -1]
        z = character(xi * pts)
        value = complex(z.mean())
        var = z.real.var(ddof=1) + z.imag.var(ddof=1)
        stderr = math.sqrt(var / draws)
        err = 4.0 * stderr + TWO_PI * abs(xi) * bias_acc
        out.append(FourierValue(float(xi), value, err, kind="statistical",
                                stderr=stderr, confidence_z=4.0))
    return out


# ---------------------------------------------------------------------------
# cylinder decomposition (stopping covers of the measure)
# ---------------------------------------------------------------------------

@dataclass
class CylinderDecomposition:
    """Prefix-free stopping cylinders with anchors and diameter bounds."""

    words: list
    weights: np.ndarray
    anchors: np.ndarray
    diameters: np.ndarray
    tail_mass: float = 0.0

    def mass(self) -> float:
        return float(self.weights.sum())


def cylinder_decomposition(cifs: CIFS, threshold: float,
                           budget: int = DEFAULT_BUDGET) -> CylinderDecomposition:
    """Enumerate the prefix-free words whose composed ratio first drops to
    ``threshold`` or below, with anchor = image of 0 and diameter bound."""
    pieces = list(cifs.cylinders.walk(threshold, (1.0,), budget, words=True))
    return CylinderDecomposition(
        [w for p in pieces for w in p.words],
        np.concatenate([p.weights for p in pieces]),
        np.concatenate([p.anchors[0] for p in pieces]),
        np.concatenate([p.bounds for p in pieces]),
        getattr(cifs, "tail_mass", 0.0))


# ---------------------------------------------------------------------------
# empirical Frostman profile
# ---------------------------------------------------------------------------

@dataclass
class FrostmanProfile:
    radii: np.ndarray
    max_mass: np.ndarray
    exponent: float
    intercept: float
    unreliable: np.ndarray


def frostman_profile(samples: np.ndarray, radii=None, starts=None) -> FrostmanProfile:
    """Empirical sup_x measure(B(x, r)) over a grid of centres, with a
    log-log least-squares slope as a lower estimate of a Frostman exponent.

    Radii with fewer than 10/r samples are flagged unreliable and excluded
    from the fit.
    """
    pts = np.sort(np.asarray(samples, dtype=float).ravel())
    n = len(pts)
    if n < 10_000:
        raise ValidationError("need at least 1e4 samples for a Frostman profile")
    if radii is None:
        radii = 2.0 ** -np.arange(4, 13)
    radii = np.asarray(radii, dtype=float)
    if starts is None:
        starts = np.linspace(0.0, 1.0, (1 << 10) + 1)
    starts = np.asarray(starts, dtype=float)

    max_mass = np.empty(len(radii))
    for i, r in enumerate(radii):
        hi = np.searchsorted(pts, starts + r, side="right")
        lo = np.searchsorted(pts, starts - r, side="left")
        max_mass[i] = (hi - lo).max() / n
    unreliable = n < 10.0 / radii
    ok = (~unreliable) & (max_mass > 0)
    if ok.sum() >= 2:
        slope, intercept = np.polyfit(np.log(radii[ok]), np.log(max_mass[ok]), 1)
    else:
        slope, intercept = float("nan"), float("nan")
    return FrostmanProfile(radii, max_mass, float(slope), float(intercept), unreliable)
