"""Fourier transforms of nonlinear images of stationary measures.

The transform of F(mu) is a sum over stopping cylinders, which a batch of
frequencies reads from one stopping tree, ``system.tree``. Affine
systems, on the line or a fibre product, take the second-order rule (a
cylinder contributes weight * e(xi F(a)) * mu^(xi grad F(a) * rho), a its
anchor and rho its ratios), with one exact-sweep listing per batch for the
transforms of mu, read from each stopping set's largest |xi| row on the
line and from every row on fibre products; systems with smooth maps take
the first-order rule (the character at F(anchor)). Both rules sum a
batch one stopping set at a time: the set's frequencies x its cylinders
are its terms, taken in blocks of at most measure.ROW_BLOCK cells, and
each row is summed as that frequency's sum alone would be.
Error bounds rest on derivative norms certified by interval enclosure over
F's box, which the system must map into itself, and on the maps'
contraction bounds, plus ``measure.tail_effect`` for a recorded tail
mass: values are "rigorous" unless some map's bound is declared, then
"estimate"s. Also here: conjugation by smooth coordinate changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import expr as ex, measure as meas
from .ifs import BOX_SLACK, CIFS, AffineMap, SmoothMap, BudgetExhausted, ValidationError
from .measure import (FourierValue, character, frequencies, sample_points, sweep_listing,
                      sweep_rows, tail_effect, TWO_PI, DEFAULT_BUDGET)


# ---------------------------------------------------------------------------
# smooth functions on the ambient box
# ---------------------------------------------------------------------------

@dataclass
class SmoothMapF:
    """A C2 function on a box with exact symbolic partials in the last
    (fibre) coordinate, and their certified norms, ``map_norms`` of it,
    built on first use."""

    expr: ex.Expr
    domain: dict            # ordered var -> (lo, hi)
    fibre_var: str
    first: ex.Expr = field(init=False, repr=False)
    second: ex.Expr = field(init=False, repr=False)

    def __post_init__(self):
        if self.fibre_var not in self.domain:
            raise ValidationError(f"fibre variable {self.fibre_var!r} not in domain")
        extra = self.expr.variables() - set(self.domain)
        if extra:
            raise ValidationError(f"expression uses unknown variables {sorted(extra)}")
        self.first = self.expr.diff(self.fibre_var)
        self.second = self.first.diff(self.fibre_var)

    @classmethod
    def parse(cls, text: str, domain=None, fibre_var: str | None = None) -> "SmoothMapF":
        e = ex.parse(text)
        if domain is None:
            domain = {v: (0.0, 1.0) for v in sorted(e.variables())} or {"x": (0.0, 1.0)}
        if fibre_var is None:
            fibre_var = list(domain)[-1]
        return cls(e, dict(domain), fibre_var)

    def __call__(self, **env):
        return self.expr.eval(env)

    @cached_property
    def norms(self) -> "MapNorms":
        return map_norms(self)


# ---------------------------------------------------------------------------
# derivative norms
# ---------------------------------------------------------------------------

@dataclass
class MapNorms:
    """Certified extrema of the first and second fibre partials over the
    box, from their enclosures.

    ``sup_base`` is the sup of |dF/dx| for the first domain variable x,
    which a fibre-product pushforward binds to the base coordinate;
    ``sup_base_second`` and ``sup_cross`` are the sups of |d2F/dx2| and
    |d2F/dxdy|. All three are 0 for a function of one variable.
    ``sign_definite`` records whether the enclosure of the second fibre
    partial excludes 0; when it does not, ``min_second`` is 0 and the
    nonvanishing-curvature hypothesis fails.
    """

    sup_first: float
    sup_second: float
    min_second: float
    sign_definite: bool
    sup_base: float = 0.0
    sup_base_second: float = 0.0
    sup_cross: float = 0.0


def _sup_abs(e: ex.Expr, box) -> float:
    lo, hi = ex.enclose(e, box)
    return max(-lo, hi)


def map_norms(F: SmoothMapF) -> MapNorms:
    """Enclosures of |dF/dy|, |d2F/dy2| and, for a function of two
    variables, of |dF/dx|, |d2F/dx2| and |d2F/dxdy| over the domain box."""
    lo, hi = ex.enclose(F.second, F.domain)
    sign_definite = lo > 0.0 or hi < 0.0
    fibre = (_sup_abs(F.first, F.domain), max(-lo, hi),
             max(lo, -hi) if sign_definite else 0.0, sign_definite)
    if len(F.domain) == 1:
        return MapNorms(*fibre)
    x = list(F.domain)[0]
    dx = F.expr.diff(x)
    return MapNorms(*fibre, *(_sup_abs(e, F.domain)
                              for e in (dx, dx.diff(x), F.first.diff(x))))


def _check_box(F: SmoothMapF, system):
    """F's norms hold on its box, and a cylinder's anchor error assumes
    |y| <= 1: per coordinate the box must lie in [-1, 1], hold the anchor
    0, and be sent into itself by every map, up to BOX_SLACK at its edges
    for the rounding of the image."""
    if len(F.domain) != len(system.coordinates):
        raise ValidationError("the function needs one variable per coordinate")
    for (v, (lo, hi)), maps in zip(F.domain.items(), system.coordinates):
        if not -1.0 <= lo <= 0.0 <= hi <= 1.0:
            raise ValidationError(f"the box of {v!r} must lie in [-1, 1] and hold 0")
        for m in maps:
            a, b = m.image(lo, hi)
            if min(a, b) < lo - BOX_SLACK or max(a, b) > hi + BOX_SLACK:
                raise ValidationError(f"a map sends the box of {v!r} outside itself")


def pushforward_fourier(F: SmoothMapF, system, xis, tol: float = 1e-6,
                        budget: int = DEFAULT_BUDGET) -> list:
    """Transform of the image measure F(mu) at every frequency of ``xis``.

    Returns one entry per frequency, in input order: a FourierValue, or the
    BudgetExhausted of a frequency over its budget. The batch's cylinders
    come from one ``system.tree`` at the frequencies' thresholds:
    F and its gradient are evaluated once, on every node that stops at some
    threshold, and frequencies whose thresholds lie between the same two
    node bounds share one stopping set. Stopping sets grow with |xi|, so
    every frequency at least as large as one over budget is over budget too.
    Each stopping set's terms are its k frequencies by its n cylinders,
    taken in blocks of max(1, ROW_BLOCK // n) frequencies (measure's
    ROW_BLOCK, 4096 cells): a block's characters, weights and
    (second-order rule) transforms of mu are multiplied as arrays and summed
    row by row, and the set's curvature masses and its spread are summed
    once for all k, its bounds formed as arrays over the k. So no array of
    the batch's frequencies x cylinders exists: beyond the tree and the
    sweep's listing, a block holds O(max(ROW_BLOCK, n)) cells.
    ``frequencies`` checks the batch at scale
    max(1, c2 / (2 pi), |F(0)| + G, R G), with G = sum_c sup |F_c| and R
    the system's radius: the second-order rule's thresholds divide by
    c2 |xi|; a phase xi F(a) is at most |xi| (|F(0)| + G), as every anchor
    a lies in F's box within [-1, 1]^m; and an argument xi F_c(a) rho_c of
    mu, which the sweep checks at scale R, is at most |xi| G. A smooth
    system has no sweep and c2 = 0, so its scale is max(1, |F(0)| + G),
    the 1 for its thresholds tol / (2 pi |xi|). Either rule reads G, and
    the second-order rule c2: one infinite on F's box raises ValidationError.

    Every affine system (a line system or a fibre product, m = 1 or 2
    coordinates) takes the second-order rule. The cylinder of a word w
    carries weight * (f_w)_* mu with f_w(y) = a_w + rho_w * y, coordinate by
    coordinate. On it F is almost affine:
    F(f_w(y)) = F(a_w) + sum_c F_c(a_w) rho_wc y_c + Q / 2, with Q the
    second differential of F at some c in F's box applied to (rho_wc y_c),
    and |y_c| <= R_c = max(|lo_c|, |hi_c|). The cylinder contributes
    weight * e(xi F(a_w)) * mu^(xi F_1(a_w) rho_w1, ..., xi F_m(a_w) rho_wm)
    at a cost of at most
    pi |xi| (sum_c H_cc R_c^2 rho_wc^2 + 2 sum_{c<d} H_cd R_c R_d |rho_wc rho_wd|)
    per unit of mass, H_cd = sup|F_cd| from ``map_norms``. With
    k_c = sum_d H_cd that is at most pi |xi| (sum_c sqrt(k_c) R_c |rho_wc|)^2,
    so a tree with factors lips_c proportional to sqrt(k_c) R_c stops every
    word within tol / 2 (on the line: |rho_w| <= sqrt(tol / (2 c2 |xi|)),
    c2 = pi sup|F''| R^2). The transforms of mu at the cylinders of the
    whole batch come from one exact sweep at tol / 2: one
    ``measure.sweep_listing`` for the batch's smallest theta and largest
    weights reads, on the line, each stopping set's largest |xi| row (its
    arguments are the set's largest, as rounding is monotone, so theta and
    the ``frequencies`` check come out as from every row) and, on fibre
    products, whose weights need every row, the arguments of every block;
    ``sweep_rows`` sweeps each block against it as it comes, so a value is
    the one ``exact_sweep`` over all the arguments would give. Those
    arguments are small (|xi F'(a_w) rho_w| is about sqrt(tol |xi|) on the
    line), so most stop at the sweep's root: their transform is the
    degree-K series of the moments of mu, whose remainder Z^K / K! at the
    sweep's reach Z plus its written rounding bound is within tol / 2 (K
    and Z from ``measure.series_order``). A frequency with a cylinder over
    budget reports as ``achieved`` its bound with the sweep's ``achieved``
    (the series remainder at the cut) in place of tol / 2 for that
    cylinder.

    Systems with a smooth map take the first-order rule: each cylinder
    contributes its weight times the character at F(anchor), and stops once
    Lip_x(F)*|base ratio| + Lip_y(F)*|fibre ratio| (Lip(F)*|ratio| on the
    line), times any ``diam_constant``, is <= tol / (2*pi*|xi|); a smooth
    map's contraction bound stands in for its ratio. The label is
    "rigorous", as the norms are certified, unless a map's contraction bound
    is declared: then it is "estimate".
    """
    if not tol > 0:
        raise ValidationError("tolerance must be positive")
    names = list(F.domain)
    if F.fibre_var != names[-1]:  # anchors bind the fibre to the last variable
        raise ValidationError(f"fibre variable {F.fibre_var!r} must be the "
                              f"last domain variable {names[-1]!r}")
    _check_box(F, system)
    norms = F.norms
    curvature, c2, lips = _curvature(F, norms) if system.is_affine else (None, 0.0, None)
    sup_grad = norms.sup_base + norms.sup_first  # sum_c sup |F_c|; no base term on the line
    if not sup_grad + c2 < math.inf:  # the fault is F's, not the frequency's or the budget's
        raise ValidationError(f"F = {F.expr.to_prefix()} has a derivative unbounded on its box")
    with np.errstate(all="ignore"):  # F(0) may overflow, or F be singular at 0
        phase = float(np.abs(F.expr.eval(dict.fromkeys(names, np.zeros(1)))).max()) + sup_grad
    scale = max(1.0, phase)
    if system.is_affine:
        scale = max(scale, c2 / TWO_PI, system.radius * sup_grad)
    xis = frequencies(xis, scale)
    live = [i for i in np.argsort(np.abs(xis), kind="stable").tolist() if xis[i] != 0]
    scales = [abs(float(xis[i])) for i in live]
    if system.is_affine:  # an affine F (c2 = 0) stops every word at length 1 on the line
        thetas = [min(1.0, math.sqrt(tol / 2 / (c2 * s))) if c2 * s > 0 else 1.0
                  for s in scales]
    else:  # Lip_x(F) counts only where F has a base variable
        lips = tuple(c * system.diam_constant
                     for c in (norms.sup_base, norms.sup_first)[-len(names):])
        thetas = [tol / (TWO_PI * s) for s in scales]
    tree, over = system.tree(thetas, lips, budget)
    out = [FourierValue(0.0, 1.0 + 0.0j, 0.0) if xi == 0 else None for xi in xis.tolist()]
    cut = next((k for k, past in enumerate(over) if past), len(live))  # the first over budget
    exhausted = BudgetExhausted(f"stopping-set budget {budget} exhausted at frequency "
                                f"{float(xis[live[cut]])}") if cut < len(live) else None
    for i in live[cut:]:  # its stopping tree, or a smaller one, is over: nothing was summed
        out[i] = exhausted
    if not cut:
        return out
    nodes, sets, keys = tree.select(thetas[:cut])
    anchors = dict(zip(names, tree.anchors[:, nodes]))
    at = lambda e: np.broadcast_to(np.asarray(e.eval(anchors), dtype=float), nodes.shape)
    w, rho, f = tree.weights[nodes], tree.ratios[:, nodes], at(F.expr)
    members = [[] for _ in sets]  # per stopping set, its frequencies' places in ``live``
    for j, k in enumerate(keys):
        members[k].append(j)
    blocks = [(s, js, xis[[live[j] for j in js]]) for s, js in zip(sets, members)]
    if not system.is_affine:
        kind = "estimate" if any(isinstance(m, SmoothMap) and m.bound_kind == "declared"
                                 for column in system.coordinates for m in column) else "rigorous"
        for s, js, x in blocks:
            spread = float(np.sum(w[s] * tree.bounds[nodes[s]]))
            for j, xi, value in zip(js, x.tolist(), _character_sums(x, f[s], w[s]).tolist()):
                out[live[j]] = FourierValue(xi, value, min(TWO_PI * abs(xi) * spread, tol)
                                            + tail_effect(system, xi), kind=kind)
        return out
    grad = np.array([at(F.expr.diff(v)) for v in names[:-1]] + [at(F.first)])
    # one sweep listing at tol / 2 for the transforms of mu at every cylinder
    # of the batch, then each stopping set's frequencies x its cylinders in
    # blocks of at most ROW_BLOCK cells. On the line the listing reads only
    # each set's largest |xi| row: rounding is monotone, so that row holds
    # the set's largest argument at each cylinder.
    m, size = len(names), np.abs(rho)
    listing = sweep_listing(system, tol / 2, budget, (
        args.reshape(m, -1) for s, _, x in blocks
        for _, args in _arguments(x if m > 1 else x[-1:], grad, rho, s)))
    values, errs, first = np.empty(cut, dtype=complex), np.empty(cut), cut
    for s, js, x in blocks:  # ``first``: the first frequency with a cylinder over budget
        for span, args in _arguments(x, grad, rho, s):
            mu = np.empty(args.shape[1:], dtype=complex)
            leaves = np.empty(args.shape[1:])
            sweep_rows(listing, args.reshape(m, -1), mu.reshape(-1), leaves.reshape(-1))
            if listing.cut:  # without a cut no transform is over budget
                over = np.isnan(mu).any(axis=1)
                r = int(over.argmax())
                if over[r] and js[span.start + r] < first:  # ``js`` ascends: the set's first over
                    first, at_first = js[span.start + r], (w[s], mu[r], leaves[r])
            values[js[span]] = _character_sums(x[span], f[s], w[s], mu)
        errs[js] = sum(C * np.abs(x) * float(np.sum(w[s] * size[c, s] * size[d, s]))
                       for c, d, C in curvature)
    xs = xis[live[:cut]]
    exhausted = None
    if first < cut:
        (ws, mu, leaf), xi, err = at_first, xs[first].item(), errs[first].item()
        exhausted = BudgetExhausted(
            f"stopping-set budget {budget} exhausted at frequency {xi}",
            achieved=err + float(np.sum(ws * np.where(np.isnan(mu), leaf, tol / 2)))
            + tail_effect(system, xi))
    bounds = errs + tol / 2 + tail_effect(system, xs)
    for j, (xi, value, bound) in enumerate(zip(xs.tolist(), values.tolist(), bounds.tolist())):
        out[live[j]] = exhausted if j >= first else FourierValue(xi, value, bound)
    return out


def _arguments(xis, grad, rho, s):
    """The arguments xi F_c(a) rho_c of mu at a stopping set's frequencies
    ``xis`` x its cylinders ``s``, columns of the gradients ``grad`` and the
    ratios ``rho``: (rows, args) per block of at most measure.ROW_BLOCK
    cells (one frequency's, when it has more cylinders), ``args`` of shape
    m x len(xis[rows]) x len(s)."""
    grad, rho = grad[:, None, s], rho[:, None, s]
    step = max(1, meas.ROW_BLOCK // s.size)
    for lo in range(0, xis.size, step):
        span = slice(lo, min(xis.size, lo + step))
        args = np.multiply(xis[span, None], grad)
        args *= rho
        yield span, args


def _character_sums(xis, f, w, mu=None):
    """sum_n w_n e(xi f_n) mu_n at every xi of ``xis``, with one row of
    ``mu`` per xi, or none: the terms of one stopping set, one row per
    frequency. The rows go in blocks of at most measure.ROW_BLOCK terms
    (one row, when it is longer), and a block's characters are its one
    complex temporary; the products go into it in place. numpy sums each
    row pairwise, as it sums a single vector, so a row's sum is its
    frequency's own, bit for bit."""
    out = np.empty(len(xis), dtype=complex)
    step = max(1, meas.ROW_BLOCK // len(f))
    for lo in range(0, len(xis), step):
        terms = character(np.multiply.outer(xis[lo:lo + step], f))
        terms *= w
        if mu is not None:
            terms *= mu[lo:lo + step]
        out[lo:lo + step] = terms.sum(axis=1)
    return out


def _curvature(F: SmoothMapF, norms: MapNorms):
    """The second-order rule's constants: terms (c, d, C) such that a
    cylinder of ratios rho costs at most |xi| sum C |rho_c rho_d| per unit
    of mass, and the tree's scale c2 and factors ``lips``.

    With H the sups of |second partials| and R_c = max(|lo_c|, |hi_c|) over
    F's box, C is pi H_cc R_c^2 on the diagonal and 2 pi H_cd R_c R_d off
    it. With k_c = pi (sum_d H_cd) R_c^2 that cost is at most
    |xi| (sum_c sqrt(k_c) |rho_c|)^2; c2 is the largest k_c and
    lips_c = sqrt(k_c / c2), so on the line lips = (1.0,).
    """
    R = [max(abs(lo), abs(hi)) for lo, hi in F.domain.values()]
    H = ([[norms.sup_second]] if len(R) == 1 else
         [[norms.sup_base_second, norms.sup_cross], [norms.sup_cross, norms.sup_second]])
    terms = [(c, d, math.pi * H[c][c] * R[c] ** 2 if c == d else
              2.0 * math.pi * H[c][d] * R[c] * R[d])
             for c in range(len(R)) for d in range(c, len(R))]
    k = [math.pi * sum(row) * r ** 2 for row, r in zip(H, R)]
    c2 = max(k)
    return terms, c2, tuple(math.sqrt(kc / c2) if c2 > 0 else 1.0 for kc in k)


# ---------------------------------------------------------------------------
# conjugation by a smooth coordinate change
# ---------------------------------------------------------------------------

def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance between empirical laws."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    both = np.concatenate([a, b])
    ca = np.searchsorted(a, both, side="right") / len(a)
    cb = np.searchsorted(b, both, side="right") / len(b)
    return float(np.abs(ca - cb).max())


@dataclass
class ConjugacyResult:
    system: CIFS
    ks_statistic: float | None


def conjugate_ifs(psi: CIFS, forward: SmoothMapF, inverse: ex.Expr | str,
                  verify: bool = True, draws: int = 100_000,
                  ks_tol: float = 0.02, seed: int = 0) -> ConjugacyResult:
    """Conjugate an affine system by a strictly monotone coordinate change.

    Each map becomes forward o psi_a o inverse as a composed expression;
    compositions that simplify to degree-one polynomials are returned as
    affine maps. When ``verify`` is set, samples of the original measure
    pushed through ``forward`` are compared against samples of the
    conjugated system with a two-sample KS test.
    """
    if len(psi.coordinates) != 1 or not psi.is_affine:
        raise ValidationError("conjugation starts from an affine 1-D system")
    var = forward.fibre_var
    inv = inverse if isinstance(inverse, ex.Expr) else ex.parse(inverse)
    inv_vars = inv.variables()
    if len(inv_vars) > 1:
        raise ValidationError("inverse expression must use one variable")
    inv_var = next(iter(inv_vars)) if inv_vars else var

    grid = np.linspace(0.0, 1.0, 1 << 10)
    fvals = np.asarray(forward.expr.eval({var: grid}), dtype=float)
    diffs = np.diff(fvals)
    if not ((diffs > 0).all() or (diffs < 0).all()):
        raise ValidationError("coordinate change is not strictly monotone on [0,1]")
    check = np.linspace(0.0, 1.0, 100)
    inv_vals = np.asarray(inv.eval({inv_var: check}), dtype=float)
    round_trip = np.asarray(forward.expr.eval({var: inv_vals}), dtype=float)
    if np.abs(round_trip - check).max() > 1e-9:
        raise ValidationError("inverse expression fails the round-trip identity")

    if isinstance(forward.expr, ex.Var):
        return ConjugacyResult(psi, None if not verify else 0.0)

    lip = _sup_abs(forward.first, forward.domain)
    maps = {}
    for a in psi.alphabet:
        m = psi.maps[a]
        mid = ex.add(ex.mul(m.ratio, inv.subst({inv_var: ex.Var(var)})), m.translate)
        comp = forward.expr.subst({var: mid})
        try:
            coeffs = ex.poly_coeffs(comp, var)
            if len(coeffs) <= 2:
                maps[a] = AffineMap(float(coeffs[1]) if len(coeffs) > 1 else 0.0,
                                    float(coeffs[0]))
                continue
        except ex.ExprError:
            pass
        maps[a] = SmoothMap(comp, var, (0.0, 1.0), contraction_bound=abs(m.ratio))
    conjugated = CIFS(psi.alphabet, maps, dict(psi.weights),
                      tail_mass=psi.tail_mass, diam_constant=max(lip, 1.0))

    ks = None
    if verify:
        src = sample_points(psi, draws, tol=1e-9, seed=seed, stream=1).points
        pushed = np.asarray(forward.expr.eval({var: src}), dtype=float)
        direct = sample_points(conjugated, draws, tol=1e-9, seed=seed, stream=2).points
        ks = ks_distance(pushed, direct)
        if ks > ks_tol:
            raise ValidationError(
                f"conjugacy verification failed: KS distance {ks:.4f} > {ks_tol}")
    return ConjugacyResult(conjugated, ks)
