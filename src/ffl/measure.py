"""Stationary-measure sampling and Fourier evaluation with error bounds.

Three independent evaluators are provided for the transform of a stationary
measure on the line:

  * ``fourier_exact_batch`` - cylinder expansion over a stopping set, with a
                             rigorous error bound (affine systems), for a
                             whole batch of frequencies in one sweep of the
                             array kernel ``exact_sweep``; ``fourier_exact``
                             is its one-frequency call. The kernel itself
                             takes affine systems of any number of
                             coordinates (fibre products), with one row
                             of frequencies per evaluation. Its words stop
                             at reach 2*pi*R*sum_c |eta_c rho_c| <= Z = 1.5,
                             whatever tol, and each stopped word takes the
                             degree-K series of the measure's moments
                             (``system.moments``), K set by tol: the series
                             remainder Z^K / K! plus a written rounding bound
                             stays within tol (``series_order``);
  * ``fourier_product_homogeneous`` - truncated infinite product (equal
                             contraction ratios only), rigorous bound;
  * ``fourier_montecarlo`` - empirical character sums over points drawn
                             by ``sample_points``, statistical bound.

Every evaluator is one batched call f(system, xis, ...) -> list, with one
entry per frequency: a FourierValue, or the BudgetExhausted of a frequency
over its budget (``require_values`` raises the first of those). Each checks
its batch with ``frequencies``, reads the system's arrays (``ratios``,
``translates``, ``probs``) and ``radius`` from the system itself, and adds
``tail_effect`` for a recorded tail mass. Values are reported as FourierValue
records; every evaluator guarantees |value| <= 1 + error_bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ifs import (EPS, CIFS, DEFAULT_BUDGET, WORD_CELLS, BudgetExhausted, ValidationError,
                  apply_words)
from .rng import stream_rng, spawn_seed

TWO_PI = 2.0 * math.pi
BATCH_CELLS = 1 << 16  # cells (nodes x frequencies) an exact sweep holds at a time
ROW_BLOCK = 4096      # rows (frequencies) an exact sweep's block step takes at a time
SERIES_REACH = 1.5    # Z: an exact sweep's words stop at reach 2 pi R sum |eta rho| <= Z
SERIES_DEGREES = 24   # the highest moment-series degree an exact sweep tries
SAMPLE_ACCURACY = 1e-9  # the sup-metric accuracy of Monte Carlo sample points
DEPTH_CAP = 100_000   # the longest word ``sample_points`` draws
_LOG_FACTORIALS = np.array([math.lgamma(k + 1) for k in range(SERIES_DEGREES + 1)])


def frequencies(xis, scale: float) -> np.ndarray:
    """``xis`` as a float array, checked for an evaluator whose phases or
    thresholds multiply |xi| by at most ``scale``: every frequency is
    finite, and so is 2*pi*scale*max|xi|."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    if not np.isfinite(xis).all():
        raise ValidationError("frequencies must be finite")
    top = float(np.abs(xis).max(initial=0.0))
    if top and not math.isfinite(TWO_PI * float(scale) * top):
        raise ValidationError("frequency too large: 2*pi*R*|xi| overflows a float")
    return xis


def character(y):
    """exp(-2*pi*i*y), the unit character used throughout; an array takes
    its exponential in place, so it holds one complex array, not two."""
    z = -2j * np.pi * np.asarray(y, dtype=float)
    return np.exp(z, out=z) if isinstance(z, np.ndarray) else np.exp(z)


@dataclass
class FourierValue:
    """A Fourier transform estimate with an attached error bound.

    ``kind`` is "rigorous" when the bound is deterministic and certified,
    "estimate" when it is not known to hold (pushforwards on systems with
    declared contraction bounds), "statistical" when it rests on a multiple
    of the Monte Carlo standard error.
    """

    frequency: float
    value: complex
    error_bound: float
    kind: str = "rigorous"


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


def _depth_for(system, tol: float, depth: int | None = None):
    """Word length whose composed image diameter is below ``tol`` (unless
    ``depth`` fixes it), with the diameter that length achieves."""
    worst = float(np.abs(system.ratios).max())
    # the coding map of an affine system starts at 0, inside [-R, R]^m
    diam = system.diam_constant * (system.radius if system.is_affine else 1.0)
    if depth is None:
        if tol <= 0:
            raise ValidationError("tolerance must be positive")
        depth = max(1, math.ceil(math.log(tol / diam) / math.log(worst))) if diam > tol else 1
        depth = min(depth, DEPTH_CAP)
    return depth, diam * worst ** depth


def sample_points(system, count: int, tol: float = 1e-9, depth: int | None = None,
                  seed: int = 0, stream: int = 0) -> SamplePoints:
    """Draw ``count`` points of the stationary measure via the coding map.

    Points are images of 0 under random composition words; the word length
    is chosen so the composed image diameter is below ``tol`` (or fixed by
    ``depth``). Deterministic given (seed, stream): the words are drawn and
    applied in slices of max(1, WORD_CELLS // depth) words, and ``choice``
    reads its stream row by row, so the slices draw the words of one draw.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    depth, achieved = _depth_for(system, tol, depth)
    rng = stream_rng(seed, 0x5A17, stream)
    rows = max(1, WORD_CELLS // max(1, depth))  # the words of one slice
    pts = np.empty((count, len(system.coordinates)))
    for lo in range(0, count, rows):
        idx = rng.choice(len(system.alphabet), size=(min(rows, count - lo), depth),
                         p=system.probs)
        for c in range(pts.shape[1]):
            pts[lo:lo + len(idx), c] = apply_words(system, c, idx.T)
    return SamplePoints(pts if pts.shape[1] > 1 else pts[:, 0], depth, achieved, seed)


# ---------------------------------------------------------------------------
# rigorous cylinder-expansion evaluator
# ---------------------------------------------------------------------------

def tail_effect(system, xi):
    """2*pi*|xi|*tail_mass, the first-order effect of a recorded tail mass."""
    return TWO_PI * abs(xi) * system.tail_mass


def _reach(u, size):
    """sum_c u_c size_c, summed in coordinate order over the leading axis:
    how far a cylinder of composed ratios of sizes |rho_c| reaches at
    frequency weights ``u``. With one coordinate u is 1, and the reach is
    the size: u is not read, and may be None."""
    if len(size) == 1:
        return size[0]
    reach = u[0] * size[0]
    for c in range(1, len(size)):
        reach = reach + u[c] * size[c]
    return reach


def _largest(size):
    """max_c size_c over the leading axis, coordinate by coordinate."""
    big = size[0]
    for c in range(1, len(size)):
        big = np.maximum(big, size[c])
    return big


def _steps(a):
    """Which columns of ``a`` differ from the one before; the first does."""
    step = a[0, 1:] != a[0, :-1]
    for c in range(1, len(a)):
        step |= a[c, 1:] != a[c, :-1]
    return np.concatenate(([True], step))  # np.unique loads numpy.ma


def _row_order(a):
    """The order that sorts the columns of ``a`` by their first entry, then
    the next, and which columns in that order differ from the one before."""
    order = np.argsort(a[0]) if len(a) == 1 else np.lexsort(a[::-1])
    return order, _steps(a.take(order, axis=1))


def _distinct(a):
    """The distinct columns of ``a``, sorted by their first entry, then the
    next."""
    # a sort is several times faster than an argsort, a lexsort slower still
    if len(a) == 1:
        a = a.copy()
        a.sort()
    else:
        a = a.take(np.lexsort(a[::-1]), axis=1)
    return a.compress(_steps(a), axis=1)


def _ratio_bands(ratios, u, theta: float, budget: int) -> list:
    """Distinct composed ratio tuples that reach past ``theta`` under the
    weights ``u``, reachable from the root (1, ..., 1), in bands of
    decreasing max_c |rho_c|, each sorted by that, largest first. Tuples
    are columns, with one row per coordinate, as in ``ratios``, which holds
    one column per symbol.

    With r the largest |ratio| of any coordinate, band b + 1 holds the
    tuples whose largest |rho_c| lies in (U r, U], U = r^b: their parents
    all lie in earlier bands, and their children in later ones. The listing
    stops once it holds over ``budget`` non-root tuples.
    """
    m, ratios = len(ratios), _distinct(ratios)  # symbols of equal ratios have equal kids
    r = float(np.abs(ratios).max())
    bands, pending, top, count = [np.ones((m, 1))], np.empty((m, 0)), 1.0, 0
    while count <= budget:
        kids = (bands[-1][:, :, None] * ratios[:, None, :]).reshape(m, -1)
        kids = kids.compress(_reach(u, np.abs(kids)) > theta, axis=1)
        pending = np.concatenate([pending, kids], axis=1)
        if not pending.size:
            break
        size = _largest(np.abs(pending))
        top *= r
        inside = size > top * r
        band, pending = pending.compress(inside, axis=1), pending.compress(~inside, axis=1)
        if band.shape[1] > 1:  # a chain, as of one distinct ratio, needs neither step
            band = _distinct(band)
            band = band.take((-_largest(np.abs(band))).argsort(), axis=1)
        bands.append(band)
        count += band.shape[1]
    return bands


def series_order(system, tol: float):
    """(K, Z, coefficients): the degree K and the reach Z of the
    moment-series leaves of an exact sweep at ``tol``, and the series
    coefficients, kept on the system per tol. A word's child stops once its
    reach s = 2*pi*R*sum_c |eta_c rho_c| is at most Z, and the transform
    there is the degree-K series of the moments (see ``exact_sweep``),
    within ``_leaf_error(system, K, s)`` <= tol of it. K is the smallest
    degree up to SERIES_DEGREES whose error at Z = SERIES_REACH is within
    tol; when none is (tol near the rounding floor) it is the fallback
    K = 1, Z = tol, where a stopped child counts as 1. K depends on tol and
    the system alone. Every degree is tested at once. The moments are built
    at the first degree that fits without their error and, when no degree
    fits with the error built, once more at SERIES_DEGREES, which holds the
    errors of every lower degree."""
    held = system.__dict__.setdefault("_series_order", {})
    if tol not in held:
        z = SERIES_REACH * (1.0 + 2.0 ** -40)  # room for the rounding of the stopping test
        ks = np.arange(2, SERIES_DEGREES + 1)
        fits = _leaf_error(system, ks, z, 0.0) <= tol  # every degree from some K on
        for top in (int(ks[fits.argmax()]), SERIES_DEGREES) if fits.any() else ():
            errors = system.moments(top).errors
            fits &= _leaf_error(system, ks, z, errors[np.minimum(ks, errors.size) - 1]) <= tol
            if fits[:errors.size - 1].any() or not fits.any():  # decided by those built
                break
        degree, reach = (int(ks[fits.argmax()]), SERIES_REACH) if fits.any() else (1, tol)
        held[tol] = degree, reach, _series_coefficients(system, degree)
    return held[tol]


def series_remainder(degree, reach):
    """reach^K / K!, the remainder of the degree-K series at reach s (an
    array of reaches, or of degrees K > 1, gives an array); s for K = 1."""
    if np.ndim(degree) == 0 and degree == 1:
        return reach
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(degree * np.log(reach) - _LOG_FACTORIALS[degree])


def _leaf_error(system, degree, reach, delta):
    """How far the degree-K moment series (K > 1, or an array of degrees),
    evaluated in float, can lie from the transform at a row of reach
    s = 2*pi*R*sum_c |v_c|, with delta the moments' rounding bound. Since
    |e^(iy) - sum_{k<K} (iy)^k / k!| <= |y|^K / K! and |2*pi*v.x| <= s on
    the attractor, the series remainder is at most s^K / K!. The float
    error is at most e^s (delta + 2 (6 s + 3 m + 2) u) over m coordinates,
    u = EPS the unit roundoff: with a_alpha = (2 pi R)^|alpha| |v^alpha| /
    alpha!, which sum to e^s, delta costs delta sum a_alpha, and the
    coefficients' 4 |alpha| + m + 1 roundings and the nested Horner scheme's
    2 |alpha| + 2 m roundings cost at most sum a_alpha (6 |alpha| + 3 m + 1) u,
    to first order; the factor 2 covers the rest. The fallback K = 1 counts
    the child as 1, which is exact: its error is s."""
    m = len(system.coordinates)
    with np.errstate(over="ignore"):
        return (series_remainder(degree, reach)
                + np.exp(reach) * (delta + (6.0 * reach + 3 * m + 2) * 2.0 * EPS))


def _series_coefficients(system, degree: int):
    """The real and imaginary parts of c_alpha = (-2*pi*i*R)^|alpha| M_alpha
    / alpha! for |alpha| < K, one axis per coordinate (0 elsewhere), with
    M the moments of x / R."""
    m = len(system.coordinates)
    values = system.moments(degree).values[(slice(degree),) * m]
    # (2 pi R)^j / j! by repeated products
    h = np.cumprod(np.concatenate([[1.0], TWO_PI * system.radius / np.arange(1, degree)]))
    grid = np.indices(values.shape)
    a = values
    for c in range(m):
        a = a * h[grid[c]]
    deg = grid.sum(axis=0)
    a[deg >= degree] = 0.0
    return (a * np.array([1.0, 0.0, -1.0, 0.0])[deg % 4],   # (-i)^k: 1, -i, -1, i
            a * np.array([0.0, -1.0, 0.0, 1.0])[deg % 4])


def _horner(re, im, v):
    """The real and imaginary parts of sum_alpha (re + i im)_alpha v^alpha
    by Horner's scheme in the first coordinate over ones in the others."""
    top = len(re)
    # the parts of degree top - 1, ..., 0 in the first coordinate, one at a time
    parts = (zip(re.tolist()[::-1], im.tolist()[::-1]) if len(v) == 1 else
             (_horner(re[k][(slice(top - k),) * (re.ndim - 1)],
                      im[k][(slice(top - k),) * (re.ndim - 1)], v[1:])
              for k in range(top - 1, -1, -1)))
    a, b = next(parts)
    if top > 1:  # fresh arrays from here on, so each step multiplies and adds in place
        a, b = a * v[0], b * v[0]
    for k, (c, d) in zip(range(top - 2, -1, -1), parts):
        # on the line every other coefficient of each part is 0: no add
        if not isinstance(c, float) or c:
            a += c
        if not isinstance(d, float) or d:
            b += d
        if k:
            a *= v[0]
            b *= v[0]
    return a, b


def _series(coefficients, v):
    """The moment series at every column of ``v``, one row per coordinate."""
    out = np.empty(v.shape[1:], dtype=complex)
    out.real, out.imag = _horner(*coefficients, v)
    return out


def _map_sum(terms, out, where):
    """sum_j terms[j] over the leading axis, the maps, in the order numpy's
    ``add.reduce`` sums a contiguous complex axis of k terms, so the same
    bits as summing each element's k terms as a vector: from +0.0 (the
    final ``add``), fewer than 4 terms one after another; 4 to 64 as four
    interleaved partial sums s_0..s_3, combined as (s_0 + s_1) + (s_2 +
    s_3), then the rest in order; more than 64 as two such sums, the first
    of 4 floor(k / 8) terms. The partial sums overwrite ``terms``; the
    result goes to ``out`` where ``where``."""
    return np.add(_pairwise(terms, 0, len(terms)), 0.0, out=out, where=where)


def _pairwise(terms, lo, hi):
    """terms[lo] + ... + terms[hi - 1] in ``_map_sum``'s order, summed into
    terms[lo]."""
    if hi - lo > 64:
        acc = _pairwise(terms, lo, lo + (hi - lo) // 8 * 4)
        acc += _pairwise(terms, lo + (hi - lo) // 8 * 4, hi)
        return acc
    acc = terms[lo]
    if hi - lo < 4:
        rest = range(lo + 1, hi)
    else:
        for j in range(lo + 4, hi - 3, 4):
            for q in range(4):
                terms[lo + q] += terms[j + q]
        acc += terms[lo + 1]
        terms[lo + 2] += terms[lo + 3]
        acc += terms[lo + 2]
        rest = range(hi - (hi - lo) % 4, hi)
    for j in rest:
        acc += terms[j]
    return acc


@dataclass
class SweepListing:
    """The batch-wide half of an exact sweep of ``system`` at ``tol`` and
    one budget: the distinct ratio tuples that ``_ratio_bands`` lists at the
    batch's smallest theta and largest weights (``nodes``, band after band;
    a band spans ``starts[b]:ends[b]``), the DAG's ``child`` map into
    ``tuples`` (the nodes, then the children that no row expands) and the
    budget ``cut``. ``sweep_rows`` sweeps any rows of the batch against it,
    reading the moment-series leaves from ``series_order(system, tol)`` and
    the maps from the system's arrays."""

    system: object
    tol: float
    nodes: np.ndarray
    tuples: np.ndarray
    child: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    cut: float


def sweep_listing(system, tol: float, budget: int, blocks) -> SweepListing:
    """The listing of an exact sweep at ``tol`` and ``budget`` over every
    row of ``blocks``, an iterable of arrays with one row per coordinate
    and one column per row (eta_1, ..., eta_m), each checked by
    ``frequencies`` at scale R: the blocks are read once, for the batch's
    smallest theta and its largest weight per coordinate, and none is
    kept. See ``exact_sweep``."""
    reach = series_order(system, tol)[1]
    scale, m = TWO_PI * system.radius, len(system.coordinates)
    theta, weights = math.inf, np.zeros(m) if m > 1 else None
    for etas in blocks:
        etas = frequencies(etas, system.radius)
        top = np.abs(etas).max(axis=0)
        live = np.flatnonzero(top != 0)
        if not live.size:
            continue
        with np.errstate(over="ignore"):  # a subnormal frequency stops at the root
            theta = min(theta, float((reach / (scale * top[live])).min()))
        if m > 1:  # the largest weighs 1 exactly
            weights = np.maximum(weights, (np.abs(etas[:, live]) / top[live]).max(axis=1))
    ratios = system.ratios
    bands = (_ratio_bands(ratios, weights, theta, budget) if theta < math.inf
             else [np.ones((m, 1))])
    nodes = np.concatenate(bands, axis=1)[:, :budget + 2]
    N = nodes.shape[1]
    cut = float(np.abs(nodes[:, -1]).max()) if N > budget + 1 else 0.0
    # row i of ``child``: where node i's children sit among the listed nodes
    # and, past them, the tuples that no row expands
    kids = (nodes[:, :, None] * ratios[:, None, :]).reshape(m, -1)
    order, fresh = _row_order(np.concatenate([nodes, kids], axis=1))
    group = np.empty(order.size, dtype=int)
    group[order] = np.cumsum(fresh) - 1
    node_of = np.full(group.max() + 1, -1)
    node_of[group[:N]] = np.arange(N)
    unlisted = node_of < 0
    node_of[unlisted] = N + np.arange(np.count_nonzero(unlisted))
    tuples = np.concatenate([nodes, kids.take(order[fresh][unlisted] - N, axis=1)], axis=1)
    ends = np.cumsum([b.shape[1] for b in bands])
    return SweepListing(system, tol, nodes, tuples, node_of[group[N:]].reshape(N, ratios.shape[1]),
                        ends - [b.shape[1] for b in bands], ends, cut)


def sweep_rows(listing: SweepListing, etas, out, achieved):
    """Sweep the rows of ``etas`` (one row per coordinate, one column per
    row, as the listing's blocks) against ``listing``: their values go to
    ``out`` and their ``achieved`` to ``achieved``, slices the caller owns,
    ROW_BLOCK rows at a time. A row's value and ``achieved`` are the same,
    bit for bit, whatever rows it is swept with."""
    for lo in range(0, etas.shape[1], ROW_BLOCK):
        hi = min(etas.shape[1], lo + ROW_BLOCK)
        _sweep_block(listing, etas[:, lo:hi], out[lo:hi], achieved[lo:hi])


def _sweep_block(listing: SweepListing, etas, out, achieved):
    """``sweep_rows`` on at most ROW_BLOCK rows."""
    L, m = listing, len(etas)
    degree, reach, coefficients = series_order(L.system, L.tol)
    nodes, tuples, child = L.nodes, L.tuples, L.child
    translates, weights, scale = L.system.translates, L.system.probs, TWO_PI * L.system.radius
    N = nodes.shape[1]
    top = np.abs(etas).max(axis=0)
    live = np.flatnonzero(top != 0)
    with np.errstate(over="ignore"):  # a subnormal frequency stops at the root
        thetas = reach / (scale * top[live])
    # the largest weighs 1 exactly; on the line, where u is 1, ``_reach`` reads no u
    u = np.abs(etas[:, live]) / top[live] if m > 1 else None
    achieved.fill(0.0)
    rooted = _reach(u, np.ones((m, 1))) <= thetas  # the empty word stops
    if rooted.all():  # no row is over budget, none needs the DAG: the series into ``out``
        out.real, out.imag = _horner(*coefficients, etas)
        out[top == 0] = 1.0
        return
    out.fill(1.0)
    over = False
    if L.cut:  # without a cut no row is over budget
        over = thetas < _reach(u, np.full((m, 1), L.cut))
        if over.any():
            out[live[over]] = np.nan
            achieved[live[over]] = series_remainder(
                degree, scale * np.abs(etas[:, live[over]]).sum(axis=0) * L.cut)
    if rooted.any():
        out[live[rooted]] = _series(coefficients, etas[:, live[rooted]])
    order = np.flatnonzero(~(over | rooted))  # the rows that need the DAG
    chunk = max(1, BATCH_CELLS // N)
    if order.size > chunk:  # chunks of like thetas; one chunk needs no order
        order = order[np.argsort(-thetas[order])]
    live, thetas, u = live[order], thetas[order], u if u is None else u[:, order]
    node_sizes = np.abs(nodes)[:, :, None]

    for lo in range(0, live.size, chunk):
        ids, theta = live[lo:lo + chunk], thetas[lo:lo + chunk]
        eta, weigh = etas[:, ids], u if u is None else u[:, None, lo:lo + chunk]
        expand = _reach(weigh, node_sizes) > theta
        # nodes past the last one that some row of this chunk expands stop
        # at every row: only the children of the first n need a value
        n = 1 + int(np.flatnonzero(expand.any(axis=1)).max())
        leaves = np.unique(child[:n][child[:n] >= n])
        slot = np.where(child[:n] < n, child[:n], np.searchsorted(leaves, child[:n]) + n)
        # one series call: the leaves at every row, a node at the rows where it stops
        stop = np.nonzero(~expand[:n])
        vals = np.empty((n + leaves.size, ids.size), dtype=complex)
        series = _series(coefficients, np.concatenate(
            [(tuples[:, leaves, None] * eta[:, None, :]).reshape(m, -1),
             nodes[:, stop[0]] * eta[:, stop[1]]], axis=1))
        vals[n:] = series[:leaves.size * ids.size].reshape(leaves.size, ids.size)
        vals[stop] = series[leaves.size * ids.size:]
        # the weighted characters of every node's maps, one map after another,
        # then the sums, a band at a time: a band's children come later
        block = max(1, BATCH_CELLS // (ids.size * len(weights)))
        phase = np.empty((len(weights), n, ids.size), dtype=complex)
        for first in range(0, n, block):
            rows = slice(first, min(n, first + block))
            arg = translates[0][:, None, None] * (nodes[0, rows, None] * eta[0])
            for c in range(1, m):
                arg = arg + translates[c][:, None, None] * (nodes[c, rows, None] * eta[c])
            np.multiply(character(arg), weights[:, None, None], out=phase[:, rows])
        for s, e in zip(L.starts[::-1], L.ends[::-1]):
            for hi in range(min(e, n), s, -block):
                rows = slice(max(s, hi - block), hi)
                # the phase first, into a fresh array: numpy's SIMD complex
                # product uses fused multiply-adds, so a * b and b * a can
                # differ in the last bit, and so can an in-place product,
                # which may take its scalar loop
                terms = np.multiply(phase[:, rows], vals.take(slot[rows].T, axis=0))
                _map_sum(terms, out=vals[rows], where=expand[rows])
        out[ids] = vals[0]


def exact_sweep(system, etas, tol: float = 1e-9, budget: int = DEFAULT_BUDGET):
    """The exact kernel: the transform of the stationary measure of an
    affine system of m coordinates at every row (eta_1, ..., eta_m) of
    ``etas`` (a plain vector of frequencies when m = 1), as a complex
    ndarray, each within ``tol`` (plus any recorded tail effect), and what
    it achieves instead where it is over budget. A row over budget gets NaN
    and, as ``achieved``, the series remainder at the reach
    2*pi*R*sum_c |eta_c|*cut of the cut (that reach itself when K = 1);
    every other row achieves 0.

    A row is expanded over the prefix-free set of words w that first stop,
    2*pi*R*sum_c |eta_c| |rho_wc| <= Z with R the system's ``radius``,
    rho_wc the composed ratio of w in coordinate c and (K, Z) the first
    two of ``series_order(system, tol)``: a stopped word's transform, at the row
    v = (eta_c rho_wc)_c, is the degree-K series of the moments M_alpha of
    x / R (``system.moments``), sum_{|alpha| < K} (-2*pi*i*R)^|alpha| M_alpha
    v^alpha / alpha!, evaluated by nested Horner, within
    ``_leaf_error(system, K, Z)`` <= tol of it: the series remainder Z^K / K!
    plus the float rounding of the moments, the coefficients and Horner's
    scheme. The empty word stops too when the row itself reaches at most
    Z. K = 1, Z = tol, when no degree meets tol, counts a stopped word as 1,
    the character at its anchor: the first-order rule. With theta =
    Z / (2*pi*R*max_c |eta_c|) and weights u_c = |eta_c| / max_c |eta_c|
    a word stops once sum_c u_c |rho_wc| <= theta, on the line once
    |rho_w| <= theta. Prefixes with equal ratio tuples share one subproblem,
    so the expansion is a DAG on the distinct tuples, reached by the
    product maps.

    The sweep is its two halves. ``sweep_listing`` lists the DAG once for
    the whole batch, by ``_ratio_bands``; ``sweep_rows`` then sweeps it
    bottom-up, ROW_BLOCK rows at a time, with every node a vector over the
    rows, in chunks of about BATCH_CELLS cells. A block whose rows all stop
    at the root takes the series straight into its output; without a cut no
    row is tested against the budget, and one chunk's rows are not sorted.
    A chunk takes in one ``_series`` call its leaves' series and each
    node's at the rows where it stops, and forms its nodes' weighted
    characters once, map by map, before the sums. A node's value is the
    sum over the maps j of its weighted character by j times the value of
    its child by j: ``_map_sum`` adds these map by map, over every row of a
    band's nodes at once, in the order numpy's ``add.reduce`` would sum
    each row's terms, so the bits are those of that reduce. Beyond the
    listing a block holds O(BATCH_CELLS) cells, whatever the size of the
    batch.

    The first ``budget`` + 1 non-root tuples are kept; the largest |rho_c|
    of the last of them is the cut. A row is over budget when a tuple past
    them may reach past its theta, sum_c u_c * cut > theta: on the line,
    when more than ``budget`` distinct non-root ratios lie above theta.
    Each value is the same, bit for bit, whatever else is in the batch.
    ``frequencies`` checks the rows at scale R.
    """
    if not system.is_affine:
        raise ValidationError("an exact sweep needs an affine system")
    if not tol > 0:
        raise ValidationError("tolerance must be positive")
    m = len(system.coordinates)
    etas = np.atleast_1d(np.asarray(etas, dtype=float))  # ``sweep_listing`` checks them
    if m == 1 and etas.ndim == 1:
        etas = etas[:, None]
    if etas.ndim != 2 or etas.shape[1] != m:
        raise ValidationError(f"frequencies must be rows of {m} coordinates")
    etas = etas.T  # one row per coordinate, like every array of the sweep
    out, achieved = np.empty(etas.shape[1], dtype=complex), np.empty(etas.shape[1])
    sweep_rows(sweep_listing(system, tol, budget, [etas]), etas, out, achieved)
    return out, achieved


def fourier_exact_batch(cifs: CIFS, xis, tol: float = 1e-9,
                        budget: int = DEFAULT_BUDGET) -> list:
    """Evaluate the transform of an affine 1-D stationary measure at every
    frequency of ``xis``, each with rigorous error at most ``tol`` (plus any
    recorded tail effect), by ``exact_sweep``: its words stop at reach
    2*pi*R*|xi rho_w| <= Z and take the degree-K series of the moments,
    whose remainder Z^K / K! plus the rounding bound of the moments, the
    coefficients and Horner's scheme is within tol (``series_order``).
    Returns one entry per frequency, in input order: a FourierValue, or a
    BudgetExhausted for a frequency over budget, whose ``achieved`` is the
    sweep's: the series remainder at the reach 2*pi*R*|xi|*cut of the cut
    (that reach itself for the first-order fallback K = 1).
    """
    if len(cifs.coordinates) != 1 or not cifs.is_affine:
        raise ValidationError("fourier_exact needs an affine 1-D system")
    values, achieved = exact_sweep(cifs, xis, tol, budget)
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    bounds = tol + tail_effect(cifs, xis)
    return [FourierValue(0.0, 1.0 + 0.0j, 0.0) if x == 0 else
            FourierValue(x, v, b) if v == v else  # NaN: over budget
            BudgetExhausted(f"stopping-set budget {budget} exhausted at frequency {x}",
                            achieved=a)
            for x, v, a, b in zip(xis.tolist(), values.tolist(), achieved.tolist(),
                                  bounds.tolist())]


def require_values(entries) -> list:
    """The entries of a batch evaluation as FourierValues; raises the first
    BudgetExhausted among them, in input order."""
    for entry in entries:
        if isinstance(entry, BudgetExhausted):
            raise entry
    return list(entries)


def fourier_exact(cifs: CIFS, xi: float, tol: float = 1e-9,
                  budget: int = DEFAULT_BUDGET) -> FourierValue:
    """``fourier_exact_batch`` at the one frequency ``xi``; raises
    BudgetExhausted when it is over budget."""
    return require_values(fourier_exact_batch(cifs, [xi], tol, budget))[0]


def fourier_product_homogeneous(cifs: CIFS, xis, factors: int = 64) -> list:
    """Truncated infinite-product evaluator for equal-ratio affine systems,
    at every frequency of ``xis``.

    The transform factorises over convolution scales; truncating after
    ``factors`` terms costs at most 2*pi*R*|xi|*|r|^factors / (1-|r|). A
    frequency's factors are one row of a frequencies x factors array, and
    its product is that row's: the same whatever else is in the batch.
    """
    if len(cifs.coordinates) != 1 or not cifs.is_affine:
        raise ValidationError("product evaluator needs an affine 1-D system")
    r = cifs.ratios[0, 0]
    if np.any(cifs.ratios != r):  # the product uses r for every map
        raise ValidationError("product evaluator needs equal contraction ratios")
    if factors < 1:
        raise ValidationError("factors must be >= 1")
    xis = frequencies(xis, cifs.radius)
    grid = np.outer(r ** np.arange(factors), cifs.translates[0])
    values = np.empty(xis.size, dtype=complex)
    step = max(1, BATCH_CELLS // grid.size)
    for lo in range(0, xis.size, step):
        phases = character(np.multiply.outer(xis[lo:lo + step], grid))
        values[lo:lo + step] = (phases @ cifs.probs).prod(axis=1)
    return [FourierValue(0.0, 1.0 + 0.0j, 0.0) if xi == 0 else
            FourierValue(xi, v, TWO_PI * cifs.radius * abs(xi) * abs(r) ** factors / (1.0 - abs(r))
                         + tail_effect(cifs, xi))
            for xi, v in zip(xis.tolist(), values.tolist())]


def fourier_montecarlo(system, xis, draws: int, seed: int = 0) -> list:
    """Empirical character sums over ``draws`` points of ``sample_points``
    at accuracy SAMPLE_ACCURACY, one independent stream per frequency,
    keyed by its float bits: a frequency's value does not depend on the
    others in the batch. Error bounds are 4 standard errors plus the
    points' deterministic accuracy bias, 2*pi*|xi| times the accuracy the
    points achieve: SAMPLE_ACCURACY, or more where DEPTH_CAP cuts their
    words short."""
    if draws < 100:
        raise ValidationError("need at least 100 draws")
    # points of an affine system lie in [-R, R]; a smooth system's in its box
    xis = frequencies(xis, system.radius if system.is_affine else 1.0)
    out = []
    for xi in xis:
        key = spawn_seed(seed, int(xi.view(np.uint64)))
        sample = sample_points(system, draws, tol=SAMPLE_ACCURACY, seed=spawn_seed(key, 0xF0, 0))
        pts = sample.points
        if pts.ndim > 1:
            pts = pts[:, -1]
        z = character(xi * pts)
        value = complex(z.mean())
        var = z.real.var(ddof=1) + z.imag.var(ddof=1)
        err = (4.0 * math.sqrt(var / draws)
               + TWO_PI * abs(xi) * max(SAMPLE_ACCURACY, sample.accuracy))
        out.append(FourierValue(float(xi), value, err, kind="statistical"))
    return out
