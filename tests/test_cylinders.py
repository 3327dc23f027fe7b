"""The stopping-tree engine against a brute-force recursive enumerator."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cylinder_decomposition, fibre_systems, ratio, tree_words
from ffl import ifs
from ffl.ifs import CIFS, AffineMap, BudgetExhausted, SmoothMap, cantor_system, fold
from ffl.pushforward import SmoothMapF, pushforward_fourier


def brute_force(system, theta, lips):
    """Every stopping word by plain recursion, with the tree's float
    operations in the tree's order: {word: (anchor, weight)}, node count."""
    m, n = system.ratios.shape
    out, nodes = {}, 0

    def grow(word, rho, t, w):
        nonlocal nodes
        for k in range(n):
            nodes += 1
            r = [rho[c] * system.ratios[c, k] for c in range(m)]
            a = [t[c] + rho[c] * system.translates[c, k] for c in range(m)]
            child = (word + (system.alphabet[k],), r, a, w * system.probs[k])
            bound = lips[0] * abs(r[0])
            for c in range(1, m):
                bound = bound + lips[c] * abs(r[c])
            if bound <= theta:
                out[child[0]] = (child[2], child[3])
            else:
                grow(*child)

    grow((), [1.0] * m, [0.0] * m, 1.0)
    return out, nodes


def selections(system, thetas, lips, budget):
    """One tree call: per theta, {word: (anchor, weight)} of its stopping
    set, or None when the call reports it over budget."""
    tree, over = system.tree(thetas, lips, budget)
    assert len(over) == len(thetas)
    live = [th for th, past in zip(thetas, over) if not past]
    nodes, sets, keys = tree.select(live)
    words = tree_words(tree, nodes)
    got = iter([{words[j]: (list(tree.anchors[:, nodes[j]]), float(tree.weights[nodes[j]]))
                 for j in sets[k]} for k in keys])
    return [None if past else next(got) for past in over], tree


def check_batch(system, thetas, lips, data, expected=None):
    """The stopping sets of a batch against brute force, at a budget just
    below, at or just above some theta's tree size, or unlimited."""
    brute = [brute_force(system, th, lips) for th in thetas]
    sizes = [nodes for _, nodes in brute]
    budget = data.draw(st.sampled_from([n + d for n in sizes for d in (-1, 0, 1)] + [10 ** 9]))
    got, tree = selections(system, thetas, lips, budget)
    for th, (cylinders, nodes), sel in zip(thetas, brute, got):
        assert (sel is None) == (nodes > budget), (th, nodes, budget)
        if sel is not None:
            assert_same(sel, expected(cylinders) if expected else cylinders)
    if all(nodes <= budget for nodes in sizes):  # the tree at the smallest theta, no more
        assert tree.weights.size == max(sizes)


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


thetas = st.lists(st.floats(0.02, 0.3), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(line_systems(), thetas, st.data())
def test_line_walk_matches_brute_force(system, batch, data):
    check_batch(system, batch, (1.0,), data)


@settings(max_examples=40, deadline=None)
@given(fibre_systems(), st.lists(st.floats(0.05, 0.5), min_size=1, max_size=4),
       st.floats(0.0, 2.0), st.floats(0.0, 1.9), st.data())
def test_fibre_walk_matches_brute_force(system, batch, lip_base, lip_fibre, data):
    check_batch(system, batch, (lip_base, lip_fibre + 0.1), data)


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
@given(smooth_systems(), st.lists(st.floats(0.04, 0.3), min_size=1, max_size=4), st.data())
def test_smooth_walk_anchors_every_word_innermost_first(system, batch, data):
    # stopping words and weights follow the products of contraction bounds;
    # the anchor of w is f_w(0), not the maps applied in word order
    check_batch(system, batch, (1.0,), data, expected=lambda cylinders: {
        word: ([float(fold(system.maps[s] for s in word)(0.0))], weight)
        for word, (_, weight) in cylinders.items()})


def two_ratio():
    return CIFS((0, 1), {0: AffineMap(0.5, 0.0), 1: AffineMap(-1 / 3, 1.0)},
                {0: 0.5, 1: 0.5})


@pytest.mark.parametrize("budget", [4096, 1 << 20])
@pytest.mark.parametrize("make", [cantor_system, two_ratio])
def test_pushforward_history_independent(make, budget):
    # at budget 4096 the trees of the larger frequencies are over budget
    F = SmoothMapF.parse("(add (pow x 2) x)")
    xis = list(np.geomspace(20.0, 4000.0, 7))

    def run(system, order):
        return dict(zip(order, pushforward_fourier(F, system, order, tol=1e-6,
                                                   budget=budget)))

    batch = run(make(), xis)
    reversed_batch = run(make(), xis[::-1])
    alone = {xi: run(make(), [xi])[xi] for xi in xis}
    assert any(isinstance(e, BudgetExhausted) for e in batch.values()) == (budget == 4096)
    for xi in xis:
        for other in (reversed_batch, alone):
            if isinstance(batch[xi], BudgetExhausted):
                assert isinstance(other[xi], BudgetExhausted)
            else:
                assert other[xi].value == batch[xi].value
                assert other[xi].error_bound == batch[xi].error_bound


@pytest.mark.parametrize("prior_budget", [8, 1 << 20])
def test_budget_fires_exactly_past_the_tree_size(prior_budget, monkeypatch):
    # between two checks, the same system grows a deeper tree that runs over
    # prior_budget (8) or completes (1 << 20); the budget edge must not move
    trees, real = [], ifs._System.tree
    monkeypatch.setattr(ifs._System, "tree",
                        lambda system, *args: trees.append(args) or real(system, *args))
    system = two_ratio()
    for threshold in (0.01, 0.003):
        nodes = brute_force(system, threshold, (1.0,))[1]
        for check in range(2):
            with pytest.raises(BudgetExhausted):
                cylinder_decomposition(system, threshold, budget=nodes - 1)
            dec = cylinder_decomposition(system, threshold, budget=nodes)
            assert dec.mass() == pytest.approx(1.0, abs=1e-12)
            if check == 0:
                try:
                    deeper = cylinder_decomposition(system, threshold / 10,
                                                    budget=prior_budget)
                    assert prior_budget == 1 << 20
                    assert deeper.mass() == pytest.approx(1.0, abs=1e-12)
                except BudgetExhausted:
                    assert prior_budget == 8
    assert len(trees) == 10  # one tree per decomposition


def test_threads_share_an_engine():
    F = SmoothMapF.parse("(pow x 2)")
    xis = list(np.linspace(5.0, 80.0, 48))
    interval = sys.getswitchinterval()
    serial = [pushforward_fourier(F, two_ratio(), [xi], tol=1e-2)[0].value
              for xi in xis]
    shared = two_ratio()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(
                lambda xi: pushforward_fourier(F, shared, [xi], tol=1e-2)[0].value,
                xis, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
