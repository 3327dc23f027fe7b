"""Contraction maps, (countable) iterated function systems, fibre products.

Countable alphabets are represented by a finite truncation whose omitted
mass is recorded in ``tail_mass`` and propagated into downstream error
bounds. A system derives once the arrays every kernel reads (``ratios``,
``translates``, ``probs``) and its ``radius``. Its stopping cylinders,
affine and smooth alike, come from one engine, ``system.tree``, as one
stopping tree per batch of thresholds; the joint moments of an affine
system's stationary measure, with bounds on their float rounding, come
from ``system.moments``. All objects are immutable after construction and
safe to share across workers."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct
from typing import Mapping, Sequence

import numpy as np

WEIGHT_TOL = 1e-12
RATIO_MATCH_TOL = 1e-12
EPS = 2.0 ** -53    # the unit roundoff of float64
BOX_SLACK = 2.0 ** -40  # how far outward rounding may carry an image past a box edge
ALPHABET_BUDGET = 100_000  # the most composed symbols a fibre product may hold
WORD_CELLS = 1 << 22  # cells (words x depth) a word matrix holds at a time


class ValidationError(ValueError):
    """An input violates a structural precondition."""


class SeparationError(ValidationError):
    """No separated pair of fibre maps could be located."""


class BudgetExhausted(RuntimeError):
    """An enumeration exceeded its work budget."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


DEFAULT_BUDGET = 50_000_000  # the work budget of an evaluation given none


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineMap:
    """x -> ratio * x + translate on the line."""

    ratio: float
    translate: float

    def __post_init__(self):
        if not (math.isfinite(self.ratio) and math.isfinite(self.translate)):
            raise ValidationError(f"affine map {self.ratio!r} x + {self.translate!r} "
                                  "is not finite")

    def __call__(self, x):
        return self.ratio * x + self.translate

    @property
    def contraction_bound(self) -> float:
        return abs(self.ratio)

    def fixed_point(self) -> float:
        if self.ratio == 1.0:
            raise ValidationError("identity-slope map has no unique fixed point")
        return self.translate / (1.0 - self.ratio)

    def image(self, lo: float = 0.0, hi: float = 1.0) -> tuple:
        a, b = self(lo), self(hi)
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class SmoothMap:
    """A C2 self-map of an interval given by an expression tree.

    ``contraction_bound`` is either certified by an interval enclosure of
    the derivative over the domain (bound_kind="certified"), or supplied by
    the caller, e.g. for maps known to contract only in a conjugated
    coordinate (bound_kind="declared").
    """

    expr: ex.Expr
    var: str
    domain: tuple = (0.0, 1.0)
    contraction_bound: float = 1.0
    bound_kind: str = "declared"

    def __call__(self, x):
        return self.expr.eval({self.var: x})

    def image(self, lo: float | None = None, hi: float | None = None) -> tuple:
        """Interval-extension image, clipped to the domain."""
        if lo is None:
            lo, hi = self.domain
        a, b = self.expr.interval({self.var: (lo, hi)})
        return (max(a, self.domain[0]), min(b, self.domain[1]))

    @classmethod
    def from_expr(cls, expression: ex.Expr | str, var: str = "x",
                  declared_bound: float | None = None) -> "SmoothMap":
        """Build and validate a smooth contraction of the domain [0, 1].

        Without ``declared_bound`` the map must provably contract: the
        enclosure of |f'| over the domain must stay below 1, and the
        enclosure of f must lie in the domain, up to BOX_SLACK at its edges
        for outward rounding.
        """
        from . import expr as ex
        domain = (0.0, 1.0)
        e = expression if isinstance(expression, ex.Expr) else ex.parse(expression)
        free = e.variables()
        if free - {var}:
            raise ValidationError(f"map uses variables {sorted(free)} besides {var!r}")
        if declared_bound is not None:
            if not 0.0 < declared_bound < 1.0:
                raise ValidationError("declared contraction bound must lie in (0,1)")
            return cls(e, var, domain, float(declared_bound), "declared")
        lo, hi = domain
        a, b = ex.enclose(e, {var: domain})
        if a < lo - BOX_SLACK or b > hi + BOX_SLACK:
            raise ValidationError(f"map does not send its domain box [{lo}, {hi}] into "
                                  f"itself: its image encloses to [{a!r}, {b!r}]")
        a, b = ex.enclose(e.diff(var), {var: domain})
        dbound = max(-a, b)
        if not dbound < 1.0:
            raise ValidationError(f"certified Lipschitz bound {dbound:.6f} is not < 1")
        return cls(e, var, domain, dbound, "certified")


Map1D = AffineMap | SmoothMap


# ---------------------------------------------------------------------------
# one-dimensional systems
# ---------------------------------------------------------------------------

def _table(rows) -> np.ndarray:
    """``rows`` as a float array that no kernel may write: it is shared."""
    a = np.array(rows, dtype=float)
    a.flags.writeable = False
    return a


class _System:
    """What both system classes derive, once, from ``coordinates``, their
    maps as one list per coordinate in alphabet order: the arrays every
    kernel reads, m x n ``ratios`` (a smooth map's contraction bound in its
    place) and ``translates`` (0 for a smooth map), the weights over their
    sum as ``probs``, and the radius; and its stopping trees, ``tree``."""

    diam_constant = 1.0  # scales contraction bounds to diameter bounds; a CIFS may set it

    def _check_weights(self):
        """Weights are finite, positive and sum to 1 - tail_mass (omitted, in [0, 1))."""
        for s in self.alphabet:
            if not 0.0 < self.weights[s] < math.inf:
                raise ValidationError(
                    f"weight of {s!r} must be finite and positive, got {self.weights[s]!r}")
        if not 0.0 <= self.tail_mass < 1.0:
            raise ValidationError(f"tail_mass must lie in [0, 1), got {self.tail_mass!r}")
        total = math.fsum(self.weights[s] for s in self.alphabet)
        if not abs(total - (1.0 - self.tail_mass)) <= WEIGHT_TOL:
            raise ValidationError(
                f"weights sum to {total!r}, expected {1.0 - self.tail_mass!r}")

    def _check_contraction(self):
        bounds = np.abs(self.ratios)
        if not ((0.0 < bounds) & (bounds < 1.0)).all():
            raise ValidationError(f"uniform contraction fails: map bounds span "
                                  f"{bounds.min()}..{bounds.max()}, not inside (0, 1)")

    @cached_property
    def is_affine(self) -> bool:
        return all(isinstance(m, AffineMap) for column in self.coordinates for m in column)

    @cached_property
    def ratios(self) -> np.ndarray:
        return _table([[m.ratio if isinstance(m, AffineMap) else m.contraction_bound
                        for m in column] for column in self.coordinates])

    @cached_property
    def translates(self) -> np.ndarray:
        return _table([[m.translate if isinstance(m, AffineMap) else 0.0 for m in column]
                       for column in self.coordinates])

    @cached_property
    def probs(self) -> np.ndarray:
        weights = np.array([self.weights[s] for s in self.alphabet], dtype=float)
        return _table(weights / weights.sum())

    @cached_property
    def radius(self) -> float:
        """R = max(1, max |translate| / (1 - |ratio|)) of an affine system:
        every map sends [-R, R] into itself, in every coordinate, so the
        attractor lies in [-R, R]^m."""
        if not self.is_affine:
            raise ValidationError("the radius is defined for affine systems only")
        return max(1.0, float((np.abs(self.translates) / (1.0 - np.abs(self.ratios))).max()))

    def moments(self, degree: int) -> "Moments":
        """The joint moments of total degree below ``degree`` of an affine
        system's stationary measure, scaled into [-1, 1]^m by the radius,
        with their rounding bounds (see ``affine_moments``). They are built
        on first use and kept; a higher degree rebuilds them."""
        held = self.__dict__.get("_moments")
        if held is None or len(held.errors) < degree:
            held = self.__dict__["_moments"] = affine_moments(self, degree)
        return held

    def tree(self, thetas, lips: Sequence[float], budget: int):
        """(Tree, over): the stopping trees at every theta of ``thetas``, as
        one Tree, and ``over[i]``, which holds when the tree at thetas[i] has
        more than ``budget`` nodes.

        A word stops once its bound sum_c lips[c] * |composed ratio_c| (read
        from ``ratios``) drops to theta, and is expanded otherwise; the empty
        word is always expanded. The tree at theta is every word generated,
        stopped or expanded. Anchors of a coordinate that holds a smooth map
        come from ``apply_words``, on the codes of max(1, WORD_CELLS //
        depth) nodes at a time, the others' compose in closed form.

        Trees grow level by level. A node's bound is at most its parent's, so
        a level's nodes above theta are those that the tree at theta
        expands. Each level is counted against every theta before it is
        built, and only the nodes that the smallest theta still within
        budget expands get children: every level held is a level of a tree
        within budget, and with no theta over budget the Tree is the tree at
        the smallest theta.
        """
        thetas = np.asarray(thetas, dtype=float).ravel()
        if not (thetas > 0).all():
            raise ValidationError("stopping threshold must be positive")
        lips, m, n = tuple(lips), len(lips), len(self.alphabet)
        if m != len(self.ratios):
            raise ValidationError(f"{m} Lipschitz factors for {len(self.ratios)} coordinates")
        sizes = np.full(thetas.size, n, dtype=np.int64)  # the empty word's children
        over = sizes > budget
        t, rho, w = np.zeros((m, 1)), np.ones((m, 1)), np.ones(1)
        bound, index, size = np.array([math.inf]), np.array([-1]), 0
        # a level of no nodes, so that a batch over budget from the start concatenates
        levels = [tuple(a[..., :0] for a in (t, rho, w, bound, index, index))]
        while not over.all():
            grow = ~(bound <= thetas[~over].min())  # a NaN bound never stops
            if not grow.any():
                break
            # children follow their parent: each level stays in lexicographic
            # order, and sorted anchors make character sums faster
            t, rho, w, parents = t[:, grow], rho[:, grow], w[grow], index[grow]
            t = (t[:, :, None] + rho[:, :, None] * self.translates[:, None, :]).reshape(m, -1)
            rho = (rho[:, :, None] * self.ratios[:, None, :]).reshape(m, -1)
            w = (w[:, None] * self.probs[None, :]).ravel()
            bound = sum(c * np.abs(r) for c, r in zip(lips, rho))
            index, size = size + np.arange(w.size), size + w.size
            levels.append((t, rho, w, bound, parents.repeat(n),
                           np.tile(np.arange(n), parents.size)))
            sizes += n * (w.size - np.searchsorted(np.sort(bound), thetas, side="right"))
            over |= sizes > budget
        tree = Tree(self.alphabet, *(np.concatenate(f, axis=-1) for f in zip(*levels)))
        # at most WORD_CELLS letters of words at a time: the deepest is len(levels) - 1 long
        words, size = max(1, WORD_CELLS // max(1, len(levels) - 1)), tree.weights.size
        for c, column in enumerate(() if self.is_affine else self.coordinates):
            if not all(isinstance(f, AffineMap) for f in column):
                for lo in range(0, size, words):
                    tree.anchors[c, lo:lo + words] = apply_words(
                        self, c, tree.codes(np.arange(lo, min(size, lo + words))))
        return tree, over


@dataclass
class CIFS(_System):
    """A finite (possibly truncated-countable) system of 1-D contractions.

    ``tail_mass`` records the weight of omitted symbols for truncations of
    countable systems; weights must sum to 1 - tail_mass. ``diam_constant``
    scales composed contraction bounds into image-diameter bounds, which
    matters for declared-bound (conjugated) systems.
    """

    alphabet: tuple
    maps: dict
    weights: dict
    tail_mass: float = 0.0
    diam_constant: float = 1.0

    def __post_init__(self):
        self.alphabet = tuple(self.alphabet)
        if not self.alphabet:
            raise ValidationError("empty alphabet")
        missing = [a for a in self.alphabet if a not in self.maps or a not in self.weights]
        if missing:
            raise ValidationError(f"symbols without map or weight: {missing[:4]}")
        self._check_weights()
        self._check_contraction()

    @cached_property
    def coordinates(self) -> tuple:
        return ([self.maps[a] for a in self.alphabet],)


def fold(maps: Sequence[Map1D]) -> Map1D:
    """Left-to-right composition maps[0] o maps[1] o ... of 1-D maps.

    Affine words fold in closed form; the empty word is the identity,
    returned as an affine map with ratio 1, which is no contraction. A
    word with a smooth map composes by substitution, on the innermost map's
    domain. Its bound is the product of the members' contraction bounds,
    each step rounded up; it is certified when every smooth member's bound
    is (an affine ratio is exact) and the product stays below 1 - 1e-15,
    else declared and clipped there.
    """
    maps = tuple(maps)
    if all(isinstance(m, AffineMap) for m in maps):
        ratio, translate = 1.0, 0.0
        for m in maps:
            translate += ratio * m.translate
            ratio *= m.ratio
        return AffineMap(ratio, translate)
    from . import expr as ex
    var = next(m.var for m in maps if isinstance(m, SmoothMap))
    tree: ex.Expr = ex.Var(var)
    for m in reversed(maps):
        tree = (ex.add(ex.mul(m.ratio, tree), m.translate) if isinstance(m, AffineMap)
                else m.expr.subst({m.var: tree}))
    domain = maps[-1].domain if isinstance(maps[-1], SmoothMap) else (0.0, 1.0)
    bound = maps[0].contraction_bound
    for m in maps[1:]:  # rounded up, so a certified product stays certified
        bound = math.nextafter(bound * m.contraction_bound, math.inf)
    certified = bound <= 1.0 - 1e-15 and all(
        isinstance(m, AffineMap) or m.bound_kind == "certified" for m in maps)
    return SmoothMap(tree, var, domain, min(bound, 1.0 - 1e-15),
                     "certified" if certified else "declared")


def lyapunov(system) -> float:
    """Weight-averaged log inverse contraction ratio of the last coordinate:
    the fibre of a fibre product, the line of a 1-D system. Smooth maps
    carry no single ratio and are rejected.
    """
    if not all(isinstance(m, AffineMap) for m in system.coordinates[-1]):
        raise ValidationError("Lyapunov exponent needs affine ratios")
    pairs = [(system.weights[s], abs(m.ratio))
             for s, m in zip(system.alphabet, system.coordinates[-1])]
    total = math.fsum(w for w, _ in pairs)
    return math.fsum(w * math.log(1.0 / r) for w, r in pairs) / total


# ---------------------------------------------------------------------------
# fibre products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparatedPair:
    """Two fibre maps in one family with equal ratio and weight whose unit
    interval images are disjoint; ``gap`` is the translate difference."""

    base_id: object
    fibre_a: object
    fibre_b: object
    ratio: float
    weight: float
    gap: float


@dataclass
class FibreProductCIFS(_System):
    """Base contractions paired with affine fibre families on the last axis.

    Symbols are pairs (base_id, fibre_id); the product map acts on
    [0,1]^(d+1) as (base on the first block, fibre on the last coordinate).
    """

    base_maps: dict
    fibre_maps: dict   # base_id -> {fibre_id: AffineMap}
    weights: dict      # (base_id, fibre_id) -> weight
    pair: SeparatedPair
    fold: int = 1
    tail_mass: float = 0.0

    def __post_init__(self):
        alphabet = []
        for j, fam in self.fibre_maps.items():
            if j not in self.base_maps:
                raise ValidationError(f"fibre family {j!r} has no base map")
            for l in fam:
                if (j, l) not in self.weights:
                    raise ValidationError(f"missing weight for {(j, l)!r}")
                alphabet.append((j, l))
        self.alphabet = tuple(alphabet)
        self._check_weights()
        self._check_contraction()
        self._validate_pair()

    def _validate_pair(self):
        p = self.pair
        ga = self.fibre_maps[p.base_id][p.fibre_a]
        gb = self.fibre_maps[p.base_id][p.fibre_b]
        if abs(ga.ratio - gb.ratio) > RATIO_MATCH_TOL:
            raise ValidationError("separated pair ratios differ")
        wa, wb = self.weights[(p.base_id, p.fibre_a)], self.weights[(p.base_id, p.fibre_b)]
        if abs(wa - wb) > WEIGHT_TOL:
            raise ValidationError("separated pair weights differ")
        (alo, ahi), (blo, bhi) = ga.image(), gb.image()
        if not (ahi < blo or bhi < alo):
            raise ValidationError("separated pair images are not disjoint")
        if abs(abs(gb.translate - ga.translate) - p.gap) > 1e-9:
            raise ValidationError("recorded translate gap is inconsistent")

    # -- accessors ----------------------------------------------------------

    def base_map(self, symbol) -> Map1D:
        return self.base_maps[symbol[0]]

    def fibre_map(self, symbol) -> AffineMap:
        return self.fibre_maps[symbol[0]][symbol[1]]

    @property
    def special_symbols(self) -> tuple:
        p = self.pair
        return ((p.base_id, p.fibre_a), (p.base_id, p.fibre_b))

    def fibre_cifs(self) -> CIFS:
        """The last-coordinate marginal: all fibre maps with their weights.

        The last coordinate evolves autonomously under the product system,
        so its marginal law is the stationary measure of this 1-D system.
        """
        return CIFS(self.alphabet, dict(zip(self.alphabet, self.coordinates[-1])),
                    dict(self.weights), tail_mass=self.tail_mass)

    @cached_property
    def coordinates(self) -> tuple:
        return ([self.base_map(s) for s in self.alphabet],
                [self.fibre_map(s) for s in self.alphabet])


def _search_pair(fibre_maps, weights):
    """Look for two fibre maps in one family with matching ratio and weight
    and disjoint unit-interval images; prefer the widest translate gap."""
    best = None
    for j, fam in fibre_maps.items():
        items = sorted(fam.items(), key=lambda kv: (kv[1].translate, repr(kv[0])))
        for i, (la, ma) in enumerate(items):
            for lb, mb in items[i + 1:]:
                if abs(ma.ratio - mb.ratio) > RATIO_MATCH_TOL:
                    continue
                if abs(weights[(j, la)] - weights[(j, lb)]) > WEIGHT_TOL:
                    continue
                (alo, ahi), (blo, bhi) = ma.image(), mb.image()
                if ahi < blo or bhi < alo:
                    gap = abs(mb.translate - ma.translate)
                    cand = SeparatedPair(j, la, lb, ma.ratio, weights[(j, la)], gap)
                    if best is None or cand.gap > best.gap:
                        best = cand
    return best


def build_fibre_product(base_maps: Mapping, fibre_maps: Mapping, weights: Mapping,
                        n_max: int = 8) -> FibreProductCIFS:
    """Assemble and validate a fibre product system.

    If no fibre family already contains a separated pair, the system is
    replaced by its n-fold composition for the smallest n <= n_max at which
    a pair of composed fibre maps (sharing a base word) has equal ratio and
    weight and disjoint images; that n is the product's ``fold``. The
    composed alphabet may hold at most ALPHABET_BUDGET symbols.
    """
    base_maps = dict(base_maps)
    fibre_maps = {j: dict(fam) for j, fam in fibre_maps.items()}
    weights = dict(weights)

    nontrivial = False
    for j, fam in fibre_maps.items():
        fps = {round(m.fixed_point(), 12) for m in fam.values()}
        if len(fps) > 1:
            nontrivial = True
    if not nontrivial:
        raise ValidationError("every fibre family has a common fixed point "
                              "(singleton attractors); no fibre product exists")

    symbols = [(j, l) for j, fam in fibre_maps.items() for l in fam]
    for n in range(1, n_max + 1):
        if len(symbols) ** n > ALPHABET_BUDGET:
            raise BudgetExhausted(
                f"{len(symbols)}^{n} composed symbols exceed the alphabet budget")
        if n == 1:
            b_maps, f_maps, w = base_maps, fibre_maps, weights
        else:
            b_maps, f_maps, w = {}, {}, {}
            for word in iproduct(symbols, repeat=n):
                base_word = tuple(s[0] for s in word)
                if base_word not in b_maps:
                    b_maps[base_word] = fold(base_maps[j] for j in base_word)
                    f_maps[base_word] = {}
                f_maps[base_word][word] = fold(fibre_maps[j][l] for j, l in word)
                w[(base_word, word)] = math.prod(weights[s] for s in word)
        pair = _search_pair(f_maps, w)
        if pair is not None:
            return FibreProductCIFS(b_maps, f_maps, w, pair, fold=n)
    raise SeparationError(
        f"no separated pair of fibre maps up to {n_max}-fold composition")


def fibre_product_from_1d(cifs, n_max: int = 8) -> FibreProductCIFS:
    """Wrap a 1-D affine system as a fibre product over a dummy base x/2;
    a fibre product is returned unchanged.

    The product's stationary measure is (Dirac at 0) x (the 1-D measure),
    so all fibre-side machinery applies unchanged to plain line systems.
    """
    if isinstance(cifs, FibreProductCIFS):
        return cifs
    if not cifs.is_affine:
        raise ValidationError("only affine 1-D systems can be wrapped")
    base = {0: AffineMap(0.5, 0.0)}
    fibres = {0: {a: cifs.maps[a] for a in cifs.alphabet}}
    weights = {(0, a): cifs.weights[a] for a in cifs.alphabet}
    return build_fibre_product(base, fibres, weights, n_max=n_max)


# ---------------------------------------------------------------------------
# moments of affine systems
# ---------------------------------------------------------------------------

Moments = namedtuple("Moments", "values errors")


def _gamma(count):
    """gamma_n = n eps / (1 - n eps): the relative error of n roundings."""
    return count * EPS / (1.0 - count * EPS)


def _contract(B, T):
    """S[..., alpha] = sum_beta prod_c B[c, ..., alpha_c, beta_c] T[..., beta]:
    tables T moved through the maps of B, one axis at a time; the leading
    axes of B[c] and T broadcast."""
    m, D = len(B), B.shape[-1]
    for c in range(m):
        lead = T.shape[:T.ndim - m]
        T = B[c][..., None, :, :] @ T.reshape(lead + (D ** c, D, -1))
        T = T.reshape(T.shape[:-3] + (D,) * m)
    return T


def affine_moments(system, degree: int) -> Moments:
    """The joint moments M_alpha = E[y^alpha], y = x / R (R the radius), of
    an affine system's stationary measure in m coordinates, for total degree
    |alpha| < ``degree``: ``values`` has one axis of length ``degree`` per
    coordinate (0 at larger total degree), and ``errors[k]`` bounds how far
    the float values of total degree at most k lie from the exact ones.

    In y a map reads y_c -> r_c y_c + tau_c, tau_c = t_c / R, so with p the
    normalised weights (``probs``)
    M_alpha (1 - sum_a p_a r_a^alpha) = sum_a p_a sum_{beta < alpha}
    prod_c C(alpha_c, beta_c) r_ac^beta_c tau_ac^(alpha_c - beta_c) M_beta,
    solved degree by degree in float64. Every map sends [-1, 1]^m into
    itself, so |r_ac| + |tau_ac| <= 1: the absolute coefficients on the
    right sum to at most 1 - sum_a p_a |r_a^alpha|, no more than the factor
    on the left, and an error in earlier moments is never amplified. The
    bound of degree k is a running error analysis: that propagated error,
    plus gamma_L (L = 3k + 2m + 2n for n maps; gamma_L = L eps / (1 - L eps))
    times the sum of the absolute terms on the right, for their products
    (powers by repeated products, the rounded tau and weights) and sums,
    plus the rounding of the factor on the left, all divided by that
    factor, plus one rounding of the quotient. The step of degree k forms
    only the signed sum, p @ B[..., :k+1, :k+1] contracted with the moments
    below k; the absolute sums of every degree come from one contraction
    of |B| after the loop, and the bounds from one pass over the degrees.
    """
    m, D, p, n = len(system.coordinates), degree, system.probs, system.probs.size
    if D == 1:
        return Moments(np.ones((1,) * m), np.zeros(1))  # M_0 = 1, exactly
    # r^0, ..., r^(D - 1) and tau^0, ..., tau^(D - 1) along a last axis, by repeated products
    powers = np.ones((2, m, n, D))
    powers[..., 1:] = np.stack([system.ratios, system.translates / system.radius])[..., None]
    rp, tp = np.cumprod(powers, axis=-1)
    binom = np.zeros((D, D))  # Pascal's triangle, exact in float
    binom[:, 0] = 1.0
    for i in range(1, D):
        binom[i, 1:] = binom[i - 1, 1:] + binom[i - 1, :-1]
    j = np.arange(D)
    B = binom * rp[:, :, None, :] * tp[:, :, np.maximum(j[:, None] - j, 0)]  # (m, n, D, D)
    grid = np.indices((D,) * m)
    deg = grid.sum(axis=0)
    r_alpha = np.prod([rp[c][:, grid[c]] for c in range(m)], axis=0).reshape(n, -1)
    den = 1.0 - np.dot(p[None], r_alpha).reshape(deg.shape)
    den_err = (_gamma(deg + m + 2 * n + 1) * np.dot(p[None], np.abs(r_alpha)).reshape(deg.shape)
               + EPS * np.abs(den))

    # the signed contraction of degree k: the moments below it, in the box
    # that holds every alpha of degree k
    M = np.zeros((D,) * m)
    M[(0,) * m] = 1.0
    for k in range(1, D):
        view = (slice(k + 1),) * m
        low, at = M[view], deg[view] == k
        signed = p @ _contract(B[..., :k + 1, :k + 1], np.ascontiguousarray(low)).reshape(n, -1)
        low[at] = signed.reshape(low.shape)[at] / den[view][at]

    # the absolute terms of every degree k from one contraction: |B| on |M|
    # and on the indicator, both over the degrees below k; a large alphabet
    # takes a few tables at a time
    below, B = deg < j[1:].reshape((-1,) + (1,) * m), np.abs(B)
    tables = np.concatenate([np.abs(M) * below, below * 1.0])[:, None]
    step = max(3, (1 << 16) // (n * M.size))
    spread, carried = np.concatenate([
        p @ _contract(B, tables[i:i + step]).reshape(-1, n, M.size)
        for i in range(0, 2 * D - 2, step)]).reshape(2, D - 1, M.size)
    at = np.argsort(deg, axis=None, kind="stable")[1:np.count_nonzero(deg < D)]  # by degree
    k = deg.ravel()[at]
    terms = np.stack([_gamma(3 * k + 2 * m + 2 * n) * spread[k - 1, at], carried[k - 1, at],
                      den_err.ravel()[at], den.ravel()[at], EPS * np.abs(M.ravel()[at])])
    errors = [0.0] * D
    for k, (a, c, d, q, v) in zip(k.tolist(), terms.T.tolist()):
        # 1 + 2^-40 leaves room for the rounding of the bound's own arithmetic
        errors[k] = max(errors[k], errors[k - 1],
                        ((a + c * errors[k - 1] + d) / q + v) * (1.0 + 2.0 ** -40))
    return Moments(M, np.array(errors))


# ---------------------------------------------------------------------------
# stopping cylinders
# ---------------------------------------------------------------------------

def apply_words(system, c: int, codes: np.ndarray) -> np.ndarray:
    """f_w(0) in coordinate ``c`` of ``system`` for every word w, a column
    of ``codes`` that indexes the alphabet outermost first.

    The maps apply innermost first, one vectorised call per map and level;
    the index len(alphabet) pads words of different lengths and acts as the
    identity.
    """
    x, maps = np.zeros(codes.shape[1]), system.coordinates[c]
    if all(isinstance(m, AffineMap) for m in maps):
        ratios = np.append(system.ratios[c], 1.0)
        translates = np.append(system.translates[c], 0.0)
        for sel in codes[::-1]:
            x = ratios[sel] * x + translates[sel]
        return x
    for sel in codes[::-1]:
        for k, m in enumerate(maps):
            mask = sel == k
            if mask.any():
                x[mask] = m(x[mask])
    return x


@dataclass
class Tree:
    """Every node of a batch's stopping trees once (each word but the empty
    one), level by level and in lexicographic order within a level.

    Row c of ``anchors`` and ``ratios`` is coordinate c of the nodes' images
    of 0 and composed ratios (products of contraction bounds where the
    coordinate holds a smooth map). ``bounds`` are the nodes' stopping
    bounds; ``parents`` indexes each node's parent (-1 below the empty word,
    which is always expanded, as if its bound were inf) and ``symbols`` its
    last letter, an index into ``alphabet``. The stopping set at theta is
    the nodes with bound <= theta < parent bound.
    """

    alphabet: tuple
    anchors: np.ndarray
    ratios: np.ndarray
    weights: np.ndarray
    bounds: np.ndarray
    parents: np.ndarray
    symbols: np.ndarray

    def select(self, thetas):
        """(nodes, sets, keys): the indices, in order, of every node that
        stops at some theta; the distinct stopping sets, as positions in
        ``nodes``; and per theta the index of its set. Thetas between the
        same two node bounds share one set."""
        thetas = np.asarray(thetas, dtype=float)
        above = np.where(self.parents < 0, math.inf, self.bounds[self.parents])
        edges = np.unique(np.concatenate([self.bounds, above]))
        _, first, keys = np.unique(np.searchsorted(edges, thetas, side="right"),
                                   return_index=True, return_inverse=True)
        sets = [np.flatnonzero((self.bounds <= th) & (th < above)) for th in thetas[first]]
        used = np.zeros(self.weights.size, dtype=bool)
        for s in sets:
            used[s] = True
        at = np.cumsum(used) - 1
        return np.flatnonzero(used), [at[s] for s in sets], keys.tolist()

    def codes(self, nodes) -> np.ndarray:
        """The words of ``nodes`` as columns of letter indices, outermost
        first and the last letters in the last row; shorter words are padded
        on top with len(alphabet), as ``apply_words`` reads them."""
        at, rows, pad = np.asarray(nodes), [], len(self.alphabet)
        while (at >= 0).any():
            up = at >= 0
            rows.append(np.where(up, self.symbols[at], pad))
            at = np.where(up, self.parents[at], -1)
        return np.array(rows[::-1], dtype=np.intp).reshape(len(rows), at.size)


# ---------------------------------------------------------------------------
# ready-made systems used throughout tests and docs
# ---------------------------------------------------------------------------

def cantor_system() -> CIFS:
    """Middle-thirds system {x/3, (x+2)/3} with equal weights."""
    maps = {0: AffineMap(1 / 3, 0.0), 1: AffineMap(1 / 3, 2 / 3)}
    return CIFS((0, 1), maps, {0: 0.5, 1: 0.5})


def dyadic_uniform_system() -> CIFS:
    """{x/2, (x+1)/2} with equal weights; its stationary measure is Lebesgue."""
    maps = {0: AffineMap(0.5, 0.0), 1: AffineMap(0.5, 0.5)}
    return CIFS((0, 1), maps, {0: 0.5, 1: 0.5})
