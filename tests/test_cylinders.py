"""The stopping-cylinder engine against a brute-force recursive enumerator."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fibre_systems, ratio
from ffl import ifs
from ffl.ifs import CIFS, AffineMap, BudgetExhausted, SmoothMap, cantor_system, compose
from ffl.measure import cylinder_decomposition
from ffl.pushforward import SmoothMapF, map_norms, pushforward_fourier


def brute_force(engine, theta, lips):
    """Every stopping word by plain recursion, with the engine's float
    operations in the engine's order: {word: (anchor, weight)}, node count."""
    m, n = engine.ratios.shape
    out, nodes = {}, 0

    def grow(word, rho, t, w):
        nonlocal nodes
        for k in range(n):
            nodes += 1
            r = [rho[c] * engine.ratios[c, k] for c in range(m)]
            a = [t[c] + rho[c] * engine.translates[c, k] for c in range(m)]
            child = (word + (engine.alphabet[k],), r, a, w * engine.weights[k])
            bound = lips[0] * abs(r[0])
            for c in range(1, m):
                bound = bound + lips[c] * abs(r[c])
            if bound <= theta:
                out[child[0]] = (child[2], child[3])
            else:
                grow(*child)

    grow((), [1.0] * m, [0.0] * m, 1.0)
    return out, nodes


def walked(engine, theta, lips, budget=10 ** 9):
    got = {}
    for piece in engine.walk(theta, lips, budget, words=True):
        assert piece.weights.size <= ifs.PIECE_CYLINDERS
        for i, word in enumerate(piece.words):
            assert word not in got
            got[word] = (list(piece.anchors[:, i]), float(piece.weights[i]))
    return got


def assert_same(got, expected):
    assert got.keys() == expected.keys()
    for word, (anchor, weight) in expected.items():
        assert np.allclose(got[word][0], anchor, rtol=0, atol=1e-12)
        assert abs(got[word][1] - weight) <= 1e-12
    words = set(got)
    for word in words:
        assert all(word[:cut] not in words for cut in range(1, len(word)))
    assert math.fsum(w for _, w in got.values()) == pytest.approx(1.0, abs=1e-12)


@st.composite
def line_systems(draw):
    n = draw(st.integers(1, 3))
    maps = {k: AffineMap(draw(ratio), draw(st.floats(0.0, 0.5))) for k in range(n)}
    raw = [draw(st.floats(0.1, 1.0)) for _ in range(n)]
    # walks renormalise the weights over the kept symbols, so a truncated
    # system's cylinders carry mass 1 as well
    tail = draw(st.sampled_from([0.0, 0.05]))
    weights = {k: (1.0 - tail) * x / math.fsum(raw) for k, x in enumerate(raw)}
    weights[n - 1] = (1.0 - tail) - math.fsum(weights[k] for k in range(n - 1))
    return CIFS(tuple(range(n)), maps, weights, tail_mass=tail)


SPLIT = st.sampled_from([(8, 16), (ifs.PIECE_CYLINDERS, ifs.CACHE_CYLINDERS)])


@settings(max_examples=60, deadline=None)
@given(line_systems(), st.floats(0.02, 0.3), st.floats(0.02, 0.3), SPLIT)
def test_line_walk_matches_brute_force(system, theta, theta2, split):
    with mock.patch.multiple(ifs, PIECE_CYLINDERS=split[0], CACHE_CYLINDERS=split[1]):
        engine = system.cylinders
        for th in (theta, theta2, theta):  # the last walk may reuse cached sweeps
            assert_same(walked(engine, th, (1.0,)), brute_force(engine, th, (1.0,))[0])


@settings(max_examples=40, deadline=None)
@given(fibre_systems(), st.floats(0.05, 0.5), st.floats(0.0, 2.0),
       st.floats(0.0, 1.9), SPLIT)
def test_fibre_walk_matches_brute_force(system, theta, lip_base, lip_fibre, split):
    lips = (lip_base, lip_fibre + 0.1)
    with mock.patch.multiple(ifs, PIECE_CYLINDERS=split[0], CACHE_CYLINDERS=split[1]):
        engine = system.cylinders
        for _ in range(2):
            assert_same(walked(engine, theta, lips), brute_force(engine, theta, lips)[0])


@st.composite
def smooth_systems(draw):
    """1-3 maps t + r (x + x^2 / 5) of [0, 1], some of them affine."""
    maps = {}
    for k in range(draw(st.integers(1, 3))):
        r, t = draw(st.floats(0.15, 0.5)), draw(st.floats(0.0, 0.4))
        maps[k] = (AffineMap(r, t) if draw(st.booleans()) else
                   SmoothMap.from_expr(f"(add {t!r} (mul {r!r} (add x (mul 0.2 (pow x 2)))))"))
    raw = [draw(st.floats(0.1, 1.0)) for _ in maps]
    return CIFS(tuple(maps), maps, {k: x / math.fsum(raw) for k, x in enumerate(raw)})


@settings(max_examples=20, deadline=None)
@given(smooth_systems(), st.floats(0.04, 0.3), SPLIT)
def test_smooth_walk_anchors_every_word_innermost_first(system, theta, split):
    # stopping words and weights follow the products of contraction bounds;
    # the anchor of w is f_w(0), not the maps applied in word order
    with mock.patch.multiple(ifs, PIECE_CYLINDERS=split[0], CACHE_CYLINDERS=split[1]):
        engine = system.cylinders
        expected = {word: ([float(compose(system, word)(0.0))], weight)
                    for word, (_, weight) in brute_force(engine, theta, (1.0,))[0].items()}
        for _ in range(2):  # the second walk reuses cached sweeps
            assert_same(walked(engine, theta, (1.0,)), expected)


def two_ratio():
    return CIFS((0, 1), {0: AffineMap(0.5, 0.0), 1: AffineMap(-1 / 3, 1.0)},
                {0: 0.5, 1: 0.5})


@pytest.mark.parametrize("piece", [4096, ifs.PIECE_CYLINDERS])
@pytest.mark.parametrize("make", [cantor_system, two_ratio])
def test_pushforward_history_independent(make, piece):
    # the walks of the larger frequencies split into pieces of 4096
    F = SmoothMapF.parse("(add (pow x 2) x)")
    norms = map_norms(F)
    xis = list(np.geomspace(20.0, 4000.0, 7))

    def run(system, order):
        return dict(zip(order, pushforward_fourier(F, system, order, tol=1e-6,
                                                   norms=norms)))

    with mock.patch.object(ifs, "PIECE_CYLINDERS", piece):
        batch = run(make(), xis)
        reversed_batch = run(make(), xis[::-1])
        alone = {xi: run(make(), [xi])[xi] for xi in xis}
    for xi in xis:
        for other in (reversed_batch, alone):
            assert other[xi].value == batch[xi].value
            assert other[xi].error_bound == batch[xi].error_bound


@pytest.mark.parametrize("piece", [8, ifs.PIECE_CYLINDERS])
def test_budget_fires_exactly_past_the_tree_size(piece):
    system = two_ratio()
    with mock.patch.object(ifs, "PIECE_CYLINDERS", piece):
        for threshold in (0.01, 0.003):
            nodes = brute_force(system.cylinders, threshold, (1.0,))[1]
            for _ in range(2):  # cold, then with every sweep cached
                with pytest.raises(BudgetExhausted):
                    cylinder_decomposition(system, threshold, budget=nodes - 1)
                dec = cylinder_decomposition(system, threshold, budget=nodes)
                assert dec.mass() == pytest.approx(1.0, abs=1e-12)


def test_threads_share_an_engine():
    F = SmoothMapF.parse("(pow x 2)")
    norms = map_norms(F)
    xis = list(np.linspace(5.0, 80.0, 48))
    interval = sys.getswitchinterval()
    with mock.patch.multiple(ifs, PIECE_CYLINDERS=64, CACHE_CYLINDERS=512):
        serial = [pushforward_fourier(F, two_ratio(), [xi], tol=1e-2, norms=norms)[0].value
                  for xi in xis]
        shared = two_ratio()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(
                    lambda xi: pushforward_fourier(F, shared, [xi], tol=1e-2,
                                                   norms=norms)[0].value,
                    xis, timeout=120))
        finally:
            sys.setswitchinterval(interval)
    assert threaded == serial
    engine = shared.cylinders  # cache bookkeeping survived the contention
    entries = [rel for kept in engine._sweeps.values() for *_, rel in kept]
    assert len(engine._order) == len(entries)
    assert engine._held == sum(rel.weights.size for rel in entries) <= 512
