import numpy as np
import pytest
from hypothesis import strategies as st

from ffl.ifs import (CIFS, AffineMap, build_fibre_product, cantor_system,
                     dyadic_uniform_system)


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
