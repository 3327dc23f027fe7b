"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line with its runtime (visible under pytest -s or in the -v
test listing). Tolerances are pinned here, not configurable."""

import math
import time
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest

from conftest import (circle_sum_bound, cylinder_decomposition, factor_atoms, five_symbol_fp,
                      lebesgue_transform)
from ffl import expr as ex
from ffl.ifs import (CIFS, AffineMap, cantor_system,
                     dyadic_uniform_system, fibre_product_from_1d, lyapunov)
from ffl.measure import fourier_exact, fourier_exact_batch, sample_points
from ffl.disintegrate import (build_classes, sample_omegas,
                              disintegration_consistency, LargeDeviationParams,
                              check_omega_membership, ek_diagnostics, calibrate_alpha)
from ffl.pushforward import (SmoothMapF, pushforward_fourier,
                             conjugate_ifs, ks_distance)
from ffl.equidist import RateFn, EquidistSpec, grid_point_for, count_hits
from ffl.decay import band_maxima, fit_eta, sparse_cover
from ffl.rng import stream_rng, spawn_seed


def report(name, ok, detail, started, limit):
    elapsed = time.time() - started
    tag = "PASS" if ok and elapsed <= limit else "FAIL"
    print(f"{tag} {name}: {detail} [{elapsed:.1f}s / limit {limit:.0f}s]")
    assert ok, detail
    assert elapsed <= limit, f"runtime {elapsed:.1f}s over the {limit:.0f}s limit"


def test_c01_closed_form_oracle():
    t0 = time.time()
    dyadic = dyadic_uniform_system()
    worst = 0.0
    per_freq_ok = True
    for xi in (0.5, 1.0, 7.25, 100.0):
        t1 = time.time()
        fv = fourier_exact(dyadic, xi, tol=5e-7)
        per_freq_ok &= (time.time() - t1) < 1.0
        worst = max(worst, abs(fv.value - lebesgue_transform(xi)))
    report("criterion-01 closed-form oracle", worst <= 1e-6 and per_freq_ok,
           f"max deviation {worst:.2e}", t0, 10)


def test_c02_non_rajchman_probe():
    t0 = time.time()
    cantor = cantor_system()
    vals = [fourier_exact(cantor, 3.0 ** n, tol=4e-7).value for n in range(11)]
    mags = [abs(v) for v in vals]
    spread = max(abs(a - b) for a in vals for b in vals)
    ok = spread <= 1e-6 and min(mags) > 0.1
    report("criterion-02 triadic non-decay", ok,
           f"spread {spread:.2e}, common value {mags[0]:.4f}", t0, 10)


def test_c03_pushforward_decay_direction():
    t0 = time.time()
    cantor = cantor_system()
    plain = band_maxima(lambda xis: fourier_exact_batch(cantor, xis, tol=1e-6),
                        range(4, 13), 64, seed=0, band_base=3.0)
    plain_fit = fit_eta(plain)
    F = SmoothMapF.parse("(pow x 2)")
    pushed = band_maxima(
        lambda xis: pushforward_fourier(F, cantor, xis, tol=1e-3),
        range(4, 13), 64, seed=0, band_base=3.0)
    pushed_fit = fit_eta(pushed)
    ok = (pushed_fit.exponent > 0
          and pushed_fit.exponent >= 3 * pushed_fit.stderr
          and abs(plain_fit.exponent) <= 0.02)
    report("criterion-03 pushforward decay direction", ok,
           f"pushed eta {pushed_fit.exponent:.3f} (se {pushed_fit.stderr:.3f}), "
           f"plain eta {plain_fit.exponent:.4f}", t0, 300)


def test_c04_disintegration_consistency():
    t0 = time.time()
    system = CIFS((0, 1), {0: AffineMap(0.5, 0.0), 1: AffineMap(1 / 3, 2 / 3)},
                  {0: 0.5, 1: 0.5})
    xis = np.linspace(0.5, 50.0, 10)
    table = build_classes(fibre_product_from_1d(system), 2)
    rep = disintegration_consistency(table, xis, 4000, seed=20260810)
    worst_z = max(e.z_score for e in rep.entries)
    report("criterion-04 disintegration consistency", all(e.passed for e in rep.entries),
           f"10 frequencies, worst z {worst_z:.2f}", t0, 120)


def test_c05_class_combinatorics_brute_force():
    t0 = time.time()
    fp = five_symbol_fp()
    special = set(fp.special_symbols)
    ok = True
    msgs = []
    for k in (1, 2, 3):
        table = build_classes(fp, k)
        # independent pairwise relation on raw words
        def related(a, b):
            return all((x in special) == (y in special) and
                       (x in special or x == y) for x, y in zip(a, b))
        words = list(iproduct(fp.alphabet, repeat=k))
        blocks = []
        for w in words:
            for blk in blocks:
                if related(blk[0], w):
                    blk.append(w)
                    break
            else:
                blocks.append([w])
        sizes_match = sorted(len(b) for b in blocks) == sorted(table.sizes)
        complete = table.sizes.sum() == 5 ** k
        formula = all(size == 2 ** sum(1 for j in rep if fp.alphabet[j] in special)
                      for size, rep in zip(table.sizes, table.representatives))
        mass = abs(math.fsum(table.weights) - 1.0) <= 1e-12
        disjoint = all(np.all(np.diff(table.translates(i)) - abs(table.ratios[i]) > 0)
                       for i in range(len(table)) if table.sizes[i] > 1)
        ok &= sizes_match and complete and formula and mass and disjoint
        msgs.append(f"k={k}: {len(table)} classes")
    report("criterion-05 class combinatorics", ok, "; ".join(msgs), t0, 10)


def test_c06_frostman_bound():
    t0 = time.time()
    fp = fibre_product_from_1d(cantor_system())
    table = build_classes(fp, 4)
    alpha, _ = calibrate_alpha(table)
    params = LargeDeviationParams.for_table(table, alpha)
    s_phi = fp.pair.weight * math.log(2) / (5.0 * lyapunov(fp))
    draws = 100_000
    grid = np.arange(0, 1 << 12) / (1 << 12)
    radii = 2.0 ** -np.arange(4, 13)
    samp_err = 5.0 * math.sqrt(0.25 / draws)
    length = 24
    found = stream = violations = 0
    worst = 0.0
    while found < 100:
        om = sample_omegas(table, length, 99, (stream,))[0]
        stream += 1
        rep = check_omega_membership(om, params, np.arange(1, length + 1))
        if not (rep.aggregate["large_classes"] and rep.aggregate["ratio_product"]):
            continue
        found += 1
        rng = stream_rng(99, 0xF205, stream)
        x = np.zeros(draws)
        for m in range(length):
            atoms = factor_atoms(om, m)
            x += atoms[rng.integers(0, len(atoms), size=draws)]
        xs = np.sort(x)
        for r in radii:
            hi = np.searchsorted(xs, grid + r, side="left")
            lo = np.searchsorted(xs, grid, side="right")
            mass = (hi - lo).max() / draws
            bound = 3.0 * r ** s_phi + samp_err
            worst = max(worst, mass / bound)
            violations += mass > bound
    report("criterion-06 convolution Frostman bound", violations == 0,
           f"100 sequences, exponent {s_phi:.4f}, worst mass/bound {worst:.3f}",
           t0, 600)


def test_c07_geometric_hit_counting_band():
    t0 = time.time()
    rate = RateFn.parse("(div 1 (mul 2 n))")
    horizon = 100_000
    spec = EquidistSpec.geometric(2, 0.0, rate, horizon)
    s = spec.rate_sum
    band = math.sqrt(s) * math.log(s + 2.0) ** 3
    hits = 0
    for i in range(200):
        gp = grid_point_for(spec, seed=spawn_seed(12345, i))
        res = count_hits(gp, spec, epsilon=1.0)
        hits += abs(res.count - res.two_sigma) <= band
    frac = hits / 200
    report("criterion-07 geometric counting band", frac >= 0.95,
           f"{hits}/200 inside the square-root band", t0, 60)


def test_c08_sparse_cover_growth():
    t0 = time.time()
    cantor = cantor_system()
    counts, limits = [], []
    for j in range(4, 9):
        T = 3.0 ** j
        cov = sparse_cover(lambda xis: fourier_exact_batch(cantor, xis, tol=1e-4),
                           T, 0.1, 0.25)
        counts.append(cov.count)
        limits.append(T)
    slope = float(np.polyfit(np.log(limits), np.log(counts), 1)[0])
    monotone = all(a <= b for a, b in zip(counts, counts[1:]))
    report("criterion-08 sparse-frequency covers", slope < 1.0 and monotone,
           f"counts {counts}, growth exponent {slope:.3f}", t0, 300)


def test_c09_conjugacy_distribution_match():
    t0 = time.time()
    psi = CIFS((0, 1), {0: AffineMap(0.25, 0.0), 1: AffineMap(0.25, 0.75)},
               {0: 0.5, 1: 0.5})
    res = conjugate_ifs(psi, SmoothMapF.parse("(pow x 2)"), "(pow x 0.5)",
                        draws=100_000, ks_tol=0.02, seed=4)
    report("criterion-09 conjugacy sampling match", res.ks_statistic <= 0.02,
           f"KS distance {res.ks_statistic:.4f} at 1e5 samples", t0, 30)


def test_c10_invariant_bundle():
    t0 = time.time()
    cantor = cantor_system()
    ok = True
    notes = []

    # affine covariance of the pushforward
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        a, b = rng.uniform(0.2, 1.0), rng.uniform(-0.3, 0.3)
        xi = rng.uniform(0.5, 40.0)
        F = SmoothMapF.parse(f"(add (mul {a} x) {b})")
        lhs = pushforward_fourier(F, cantor, [xi], tol=1e-7)[0]
        rhs = fourier_exact(cantor, a * xi, tol=1e-7)
        gap = abs(lhs.value - np.exp(-2j * np.pi * xi * b) * rhs.value)
        worst = max(worst, gap - lhs.error_bound - rhs.error_bound)
    ok &= worst <= 0
    notes.append("affine covariance")

    # conjugate symmetry
    for xi in (0.9, 11.7):
        a = fourier_exact(cantor, xi, tol=1e-9)
        bb = fourier_exact(cantor, -xi, tol=1e-9)
        ok &= abs(bb.value - np.conj(a.value)) <= 2e-9
    notes.append("conjugate symmetry")

    # chain rule identity for composed expressions
    F = SmoothMapF.parse("(pow x 3)")
    for aa in cantor.alphabet:
        m = cantor.maps[aa]
        comp = F.expr.subst({"x": ex.add(ex.mul(m.ratio, ex.Var("x")), m.translate)})
        for x in rng.random(20):
            lhs1 = comp.diff("x").eval({"x": x})
            ok &= abs(lhs1 - F.first.eval({"x": m(x)}) * m.ratio) <= 1e-9
            lhs2 = comp.diff("x").diff("x").eval({"x": x})
            ok &= abs(lhs2 - F.second.eval({"x": m(x)}) * m.ratio ** 2) <= 1e-9
    notes.append("chain rule")

    # stopping-set structure
    thr = 100.0 ** -0.4
    dec = cylinder_decomposition(cantor, thr)
    symbols = set(dec.words)
    for w, ratio in zip(dec.words, dec.ratios):
        ok &= abs(ratio) <= thr
        parent = ratio / cantor.maps[w[-1]].ratio
        ok &= abs(parent) > thr
        ok &= all(w[:cut] not in symbols for cut in range(1, len(w)))
    notes.append("stopping-set prefix freeness")

    # near-integer reconstruction at 1e-9
    table = build_classes(fibre_product_from_1d(cantor), 1)
    params = LargeDeviationParams.for_table(table, 0.2)
    om = sample_omegas(table, 200, 3, (0,))[0]
    d = ek_diagnostics(om, 1234.5, params)
    ok &= np.max(np.abs(d.integer_parts + d.fractional_parts - d.products)) <= 1e-9
    notes.append("carry reconstruction")

    # circle-sum domination on a 1e4-point angle grid
    for w in ([0.5, 0.5], [0.8, 0.2]):
        for gap in (math.pi, 1.0, 0.2):
            bound = circle_sum_bound(w, gap)
            thetas = np.linspace(gap, 2 * math.pi - gap, 10_000)
            vals = np.abs(w[0] + w[1] * np.exp(1j * thetas))
            ok &= vals.max() <= bound + 1e-12
    notes.append("circle-sum domination")

    report("criterion-10 invariant bundle", ok, ", ".join(notes), t0, 120)
