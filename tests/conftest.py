import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from ffl.equidist import RateFn
from ffl.ifs import (CIFS, DEFAULT_BUDGET, AffineMap, BudgetExhausted, ValidationError,
                     build_fibre_product, cantor_system, dyadic_uniform_system)
from ffl.rng import stream_rng


@pytest.fixture
def cantor():
    return cantor_system()


@pytest.fixture
def dyadic():
    return dyadic_uniform_system()


@pytest.fixture
def dirac():
    # single map, attractor is the fixed point 0
    return CIFS((0,), {0: AffineMap(0.5, 0.0)}, {0: 1.0})


@pytest.fixture
def two_ratio():
    # {x/2, x/3 + 2/3}, the standard heterogeneous test system
    return CIFS((0, 1), {0: AffineMap(0.5, 0.0), 1: AffineMap(1 / 3, 2 / 3)},
                {0: 0.5, 1: 0.5})


def five_symbol_fp():
    """Criterion c05's planar system: five symbols over two base maps, whose
    classes differ in size."""
    return build_fibre_product(
        {"j": AffineMap(0.5, 0.0), "i": AffineMap(0.4, 0.5)},
        {"j": {"s1": AffineMap(1 / 3, 0.0), "s2": AffineMap(1 / 3, 2 / 3),
               "u": AffineMap(0.25, 0.3)},
         "i": {"v": AffineMap(0.3, 0.1), "w": AffineMap(0.2, 0.6)}},
        {("j", "s1"): 0.2, ("j", "s2"): 0.2, ("j", "u"): 0.2,
         ("i", "v"): 0.2, ("i", "w"): 0.2})


def lebesgue_transform(xi):
    """Closed form for the uniform law on [0,1]."""
    if xi == 0:
        return 1.0 + 0.0j
    return (1.0 - np.exp(-2j * np.pi * xi)) / (2j * np.pi * xi)


@st.composite
def unit_systems(draw, max_ratio=0.6):
    """Random 2-3-map affine systems that send [0, 1] into itself, with
    random weights; half of them share one ratio."""
    n = draw(st.integers(2, 3))
    ratios = [draw(st.floats(0.1, max_ratio)) * draw(st.sampled_from([-1.0, 1.0]))
              for _ in range(n)]
    if draw(st.booleans()):
        ratios = [ratios[0]] * n
    maps = {}
    for k, r in enumerate(ratios):
        lo, hi = (0.0, 1.0 - r) if r > 0 else (-r, 1.0)
        maps[k] = AffineMap(r, draw(st.floats(lo, hi)))
    raw = [draw(st.floats(0.1, 1.0)) for _ in range(n)]
    return CIFS(tuple(range(n)), maps, {k: w / sum(raw) for k, w in enumerate(raw)})


# ratios of both signs; with them, and thresholds of 0.02 or more, brute-force
# stopping trees stay below ~2e4 nodes
ratio = st.floats(0.15, 0.6).flatmap(lambda r: st.sampled_from([r, -r]))


@st.composite
def fibre_systems(draw):
    """Fibre products over two base maps: family "a" holds a separated
    pair of fibre maps, family "b" one more map."""
    r = draw(st.floats(0.15, 0.45))
    base = {"a": AffineMap(draw(ratio), 0.1), "b": AffineMap(draw(ratio), 0.5)}
    fibres = {"a": {0: AffineMap(r, 0.0), 1: AffineMap(r, 1.0 - r)},
              "b": {2: AffineMap(draw(ratio), draw(st.floats(0.0, 0.5)))}}
    p = draw(st.floats(0.1, 0.45))
    weights = {("a", 0): p, ("a", 1): p, ("b", 2): 1.0 - 2.0 * p}
    return build_fibre_product(base, fibres, weights)


def constant_rate(value: float) -> RateFn:
    """The rate n -> value, read by the parser that reads a config's rate."""
    return RateFn.parse(repr(float(value)))


def factor_atoms(omega, m: int) -> np.ndarray:
    """The atoms of the m-th convolution factor (0-based) of a class
    sequence, each of weight 1/len: its class translates scaled by the
    product of the m ratios before it."""
    return omega.table.translates(omega.indices[m]) * (omega.cum_ratios[m - 1] if m else 1.0)


# ---------------------------------------------------------------------------
# oracles: independent forms of what the kernels compute
# ---------------------------------------------------------------------------

@dataclass
class CylinderDecomposition:
    """Prefix-free stopping words, level by level and in lexicographic
    order within a level, with arrays of their weights, anchors (images of
    0), diameter bounds and signed composed ratios."""

    words: list
    weights: np.ndarray
    anchors: np.ndarray
    diameters: np.ndarray
    ratios: np.ndarray
    tail_mass: float = 0.0

    def mass(self) -> float:
        return float(self.weights.sum())


def tree_words(tree, nodes) -> list:
    """The words of a Tree's ``nodes`` as tuples of alphabet symbols."""
    pad = len(tree.alphabet)
    return [tuple(tree.alphabet[k] for k in col if k < pad)
            for col in tree.codes(nodes).T.tolist()]


def cylinder_decomposition(cifs, threshold: float,
                           budget: int = DEFAULT_BUDGET) -> CylinderDecomposition:
    """The stopping set at ``threshold`` of a 1-D system: the prefix-free
    words whose composed ratio first drops to ``threshold`` or below. A
    smooth map's contraction bound stands in for its ratio, so ``ratios``
    holds products of bounds there; ``diameters`` scales |ratio| by any
    ``diam_constant``."""
    if len(cifs.coordinates) != 1:
        raise ValidationError("a cylinder decomposition needs a 1-D system")
    tree, (over,) = cifs.tree([threshold], (1.0,), budget)
    if over:
        raise BudgetExhausted(f"stopping budget {budget} exhausted")
    nodes, _, _ = tree.select([threshold])
    return CylinderDecomposition(tree_words(tree, nodes), tree.weights[nodes],
                                 tree.anchors[0, nodes],
                                 tree.bounds[nodes] * cifs.diam_constant, tree.ratios[0, nodes],
                                 cifs.tail_mass)


def circle_sum_bound(weights, gap: float) -> float:
    """Upper bound for |sum w_i z_i| over unit vectors z_i, valid whenever
    some pair of arguments is at least ``gap`` away from full turns.

    Expanding |sum w_i z_i|^2 = 1 - 2 sum_{i<j} w_i w_j (1 - cos(t_i - t_j))
    and keeping one separated pair gives sqrt(1 - 2 min(w)^2 (1 - cos gap)).
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValidationError("weights must be positive")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValidationError("weights must sum to 1")
    if not 0.0 < gap <= math.pi:
        raise ValidationError("gap must lie in (0, pi]")
    value = 1.0 - 2.0 * float(w.min()) ** 2 * (1.0 - math.cos(gap))
    return math.sqrt(max(value, 0.0))


def sample_rational_points(maps, weights, count: int, depth: int,
                           seed: int = 0, stream: int = 0) -> list:
    """Exact coding-map samples of an affine system with rational maps.

    ``maps`` is a list of (ratio, translate) pairs of Fractions. Useful for
    digit statistics, where floating point cannot reach deep expansions.
    """
    maps = [(Fraction(r), Fraction(t)) for r, t in maps]
    probs = np.asarray(weights, dtype=float)
    probs = probs / probs.sum()
    rng = stream_rng(seed, 0x2A7, stream)
    idx = rng.choice(len(maps), size=(count, depth), p=probs)
    out = []
    for i in range(count):
        x = Fraction(0)
        for k in idx[i, ::-1]:
            r, t = maps[k]
            x = r * x + t
        out.append(x)
    return out
