import math
from dataclasses import fields
from itertools import product as iproduct
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (circle_sum_bound, consistency_entry, factor_atoms, five_symbol_fp,
                      level_products, unit_systems)
from ffl import disintegrate, measure
from ffl.ifs import (CIFS, AffineMap, BudgetExhausted, ValidationError,
                     build_fibre_product, cantor_system, fibre_product_from_1d, fold,
                     lyapunov)
from ffl.disintegrate import (build_classes, sample_omegas,
                              mu_omega_fourier_batch, disintegration_consistency,
                              LargeDeviationParams, check_omega_membership,
                              ek_diagnostics, calibrate_alpha, ConsistencyEntry)
from ffl.measure import fourier_exact
from ffl.rng import stream_rng


def three_symbol_fp():
    """Two pair maps and one bystander in a single fibre family."""
    return build_fibre_product(
        {"j": AffineMap(0.5, 0.0)},
        {"j": {"s1": AffineMap(1 / 3, 0.0), "s2": AffineMap(1 / 3, 2 / 3),
               "u": AffineMap(0.25, 0.3)}},
        {("j", "s1"): 0.3, ("j", "s2"): 0.3, ("j", "u"): 0.4})


# -- class tables --------------------------------------------------------------

def pair_slots(table):
    """Pair slots per class: its representative holds the first pair symbol
    there and nowhere else."""
    first = table.system.alphabet.index(table.system.special_symbols[0])
    return (table.representatives == first).sum(axis=1)


def test_classes_block_one():
    table = build_classes(three_symbol_fp(), 1)
    assert sorted(table.sizes) == [1, 2]


def test_classes_block_two():
    table = build_classes(three_symbol_fp(), 2)
    assert sorted(table.sizes) == [1, 2, 2, 4]
    assert math.fsum(table.weights) == pytest.approx(1.0, abs=1e-12)


def test_class_without_pair_slots_is_singleton():
    table = build_classes(three_symbol_fp(), 3)
    unpaired = pair_slots(table) == 0
    assert unpaired.any()
    assert np.all(table.sizes[unpaired] == 1) and np.all(np.isnan(table.pair_deltas[unpaired]))


def brute_force_partition(fp, k):
    """Independent oracle: partition words by the literal pairwise relation."""
    special = set(fp.special_symbols)

    def related(a, b):
        for x, y in zip(a, b):
            if x in special:
                if y not in special:
                    return False
            elif x != y:
                return False
        return True

    words = list(iproduct(fp.alphabet, repeat=k))
    blocks = []
    for w in words:
        for blk in blocks:
            if related(blk[0], w):
                blk.append(w)
                break
        else:
            blocks.append([w])
    return blocks


@pytest.mark.parametrize("k", [1, 2, 3])
def test_partition_against_pairwise_oracle(k):
    fp = three_symbol_fp()
    table = build_classes(fp, k)
    blocks = brute_force_partition(fp, k)
    assert sorted(len(b) for b in blocks) == sorted(table.sizes)
    assert sum(len(b) for b in blocks) == len(fp.alphabet) ** k
    special = set(fp.special_symbols)
    for size, rep in zip(table.sizes, table.representatives):
        assert size == 2 ** sum(1 for j in rep if fp.alphabet[j] in special)


def test_member_images_disjoint():
    table = build_classes(three_symbol_fp(), 3)
    for i in range(len(table)):
        gaps = np.diff(table.translates(i)) - abs(table.ratios[i])
        assert np.all(gaps > 1e-12)


def fold_classes(fp, k):
    """Reference table: each word folded on its own with ``ifs.fold`` and
    grouped by key in a dict, in word order. Per class: representative (as
    alphabet indices), size, ratio, weight, sorted member translates and
    pair delta (NaN without pair slots)."""
    s_a, s_b = fp.special_symbols
    marker = object()
    groups = {}
    for word in iproduct(fp.alphabet, repeat=k):
        key = tuple(marker if s in (s_a, s_b) else s for s in word)
        m = fold(fp.fibre_map(s) for s in word)
        weight = math.prod(fp.weights[s] for s in word)
        groups.setdefault(key, []).append((m.ratio, m.translate, weight))
    out = []
    for key, members in groups.items():
        rep = tuple(s_a if s is marker else s for s in key)
        delta = math.nan
        if marker in key:
            slot = key.index(marker)
            other = rep[:slot] + (s_b,) + rep[slot + 1:]
            delta = abs(fold(fp.fibre_map(s) for s in rep).translate
                        - fold(fp.fibre_map(s) for s in other).translate)
        ratio, _, weight = members[0]
        out.append(([fp.alphabet.index(s) for s in rep], len(members), ratio,
                    weight * len(members), sorted(m[1] for m in members), delta))
    return out


def test_class_budget():
    with pytest.raises(BudgetExhausted):
        build_classes(three_symbol_fp(), 9, budget=10_000)


# -- sampled sequences ----------------------------------------------------------

def test_sample_omega_point_mass(cantor):
    table = build_classes(fibre_product_from_1d(cantor), 1)
    om = sample_omegas(table, 50, 0, (0,))[0]
    assert len(table) == 1
    assert np.all(om.indices == 0)


def test_sample_omega_frequencies():
    table = build_classes(three_symbol_fp(), 1)
    om = sample_omegas(table, 30_000, 3, (0,))[0]
    probs = table.weights / table.weights.sum()
    for idx, p in enumerate(probs):
        freq = np.mean(om.indices == idx)
        stderr = math.sqrt(p * (1 - p) / len(om))
        assert abs(freq - p) <= 4 * stderr


def test_sample_omega_seed_dependence():
    table = build_classes(three_symbol_fp(), 1)
    a = sample_omegas(table, 200, 1, (0,))[0]
    b = sample_omegas(table, 200, 1, (0,))[0]
    c = sample_omegas(table, 200, 2, (0,))[0]
    np.testing.assert_array_equal(a.indices, b.indices)
    assert np.any(a.indices != c.indices)


def test_cumulative_ratios_decrease():
    table = build_classes(three_symbol_fp(), 2)
    om = sample_omegas(table, 40, 5, (0,))[0]
    mags = np.abs(om.cum_ratios)
    assert np.all(np.diff(mags) < 0)


def test_atom_disjointness_within_factor():
    table = build_classes(three_symbol_fp(), 2)
    om = sample_omegas(table, 12, 6, (0,))[0]
    for m in range(len(om)):
        atoms, i = factor_atoms(om, m), om.indices[m]
        assert len(atoms) == table.sizes[i]  # each atom weighs 1/size
        if len(atoms) > 1:
            scale = abs(om.cum_ratios[m - 1]) if m else 1.0
            expected_gap = (np.min(np.diff(table.translates(i))) - abs(table.ratios[i])) * scale
            assert np.min(np.diff(np.sort(atoms))) >= expected_gap - 1e-15


# -- convolution transforms ------------------------------------------------------

def mu_omega(om, xi, tol):
    """The one-sequence, one-frequency batch call: value and tail bound."""
    values, bounds = mu_omega_fourier_batch([om], [xi], tol)
    return complex(values[0, 0]), float(bounds[0, 0])


def test_mu_omega_at_zero():
    table = build_classes(three_symbol_fp(), 2)
    om = sample_omegas(table, 10, 1, (0,))[0]
    assert mu_omega(om, 0.0, 1e-8) == (1.0 + 0.0j, 0.0)


def test_mu_omega_singleton_classes_unit_modulus():
    # a constant sequence of one-member classes is a point mass, so the
    # transform keeps modulus 1
    from ffl.disintegrate import OmegaSample
    table = build_classes(three_symbol_fp(), 2)
    singleton = int(np.flatnonzero(table.sizes == 1)[0])
    om = OmegaSample(table, np.full(60, singleton))
    for xi in (0.5, 3.0, 11.0):
        value, _ = mu_omega(om, xi, 1e-8)
        assert abs(abs(value) - 1.0) <= 1e-7


def test_mu_omega_cantor_deterministic(cantor):
    table = build_classes(fibre_product_from_1d(cantor), 1)
    om = sample_omegas(table, 80, 3, (0,))[0]
    for xi in (1.0, 4.5):
        value, bound = mu_omega(om, xi, 1e-10)
        target = fourier_exact(cantor, xi, tol=1e-10)
        assert abs(value - target.value) <= bound + target.error_bound


THREE_SYMBOL_TABLES = {k: build_classes(three_symbol_fp(), k) for k in (1, 2, 3)}


@settings(max_examples=200, deadline=None)
@given(k=st.sampled_from([1, 2, 3]), length=st.integers(1, 30),
       seed=st.integers(0, 2 ** 16), xi=st.floats(0.05, 300.0), tol=st.floats(1e-12, 10.0))
def test_mu_omega_matches_direct_product(k, length, seed, xi, tol):
    # tol in [1e-12, 10] stops anywhere from the first factor to the whole prefix
    table = THREE_SYMBOL_TABLES[k]
    om = sample_omegas(table, length, seed, (0,))[0]
    r_max = np.abs(table.ratios).max()

    def tail(m):
        return 2 * math.pi * xi * abs(math.prod(table.ratios[om.indices[:m]])) / (1 - r_max)

    value, bound = mu_omega(om, xi, tol)
    # the smallest count whose tail is at most tol, else the whole prefix
    count = next((m for m in range(1, length) if tail(m) <= tol), length)
    direct, scale = 1.0 + 0.0j, 1.0
    for i in om.indices[:count]:
        direct *= np.mean(np.exp(-2j * math.pi * (xi * (table.translates(i) * scale))))
        scale *= table.ratios[i]
    assert abs(value - direct) <= 1e-13
    assert bound == pytest.approx(tail(count), rel=1e-12)


def test_mu_omega_rejects_bad_tolerances_and_frequencies(cantor):
    # no count has a tail within a zero, negative or NaN tolerance
    table = build_classes(fibre_product_from_1d(cantor), 2)
    om = sample_omegas(table, 10, 1, (0,))[0]
    for tol in (0.0, -3.0, math.nan):
        with pytest.raises(ValidationError, match="tolerance"):
            mu_omega_fourier_batch([om, om], [1.0, 3.0], tol)
    for xi in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="finite"):
            mu_omega_fourier_batch([om], [1.0, xi], 1e-8)


THREE_SYMBOL_FP, FIVE_SYMBOL_FP = three_symbol_fp(), five_symbol_fp()


@st.composite
def class_systems(draw):
    """A fibre product and a block length of 1-3 with at most 400 words:
    the three-symbol product, c05's five-symbol one (whose classes differ in
    size), or that of a random 2-3-map affine system."""
    fp = draw(st.sampled_from([THREE_SYMBOL_FP, FIVE_SYMBOL_FP, None]))
    if fp is None:
        try:
            fp = fibre_product_from_1d(draw(unit_systems()), n_max=4)
        except (ValidationError, BudgetExhausted):  # no separated pair
            assume(False)
    k = draw(st.integers(1, 3))
    while k > 1 and len(fp.alphabet) ** k > 400:
        k -= 1
    return fp, k


def class_tables():
    return class_systems().map(lambda system: build_classes(*system))


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@settings(max_examples=80, deadline=None)
@given(system=class_systems())
def test_classes_match_the_per_word_fold(system):
    table = build_classes(*system)
    reps, sizes, ratios, weights, members, deltas = zip(*fold_classes(*system))
    np.testing.assert_array_equal(table.representatives, reps)  # class order too
    np.testing.assert_array_equal(table.sizes, sizes)
    for got, want in ((table.ratios, ratios), (table.weights, weights),
                      (table.members, np.concatenate(members)), (table.pair_deltas, deltas)):
        np.testing.assert_array_equal(bits(got), bits(want))
    np.testing.assert_array_equal(np.isnan(table.pair_deltas), pair_slots(table) == 0)


@settings(max_examples=80, deadline=None)
@given(table=class_tables(), lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16),
       xis=st.lists(st.one_of(st.just(0.0), st.floats(-300.0, 300.0)), min_size=1, max_size=4),
       tol=st.floats(1e-12, 10.0), cells=st.sampled_from([measure.BATCH_CELLS, 1, 40]))
def test_batch_matches_the_one_sequence_call(table, lengths, seed, xis, tol, cells):
    omegas = [sample_omegas(table, n, seed, (i,))[0] for i, n in enumerate(lengths)]
    # a small cell budget splits the sequences into several chunks
    with mock.patch.object(measure, "BATCH_CELLS", cells):
        values, bounds = mu_omega_fourier_batch(omegas, xis, tol)
    assert values.shape == bounds.shape == (len(xis), len(omegas))
    for f, xi in enumerate(xis):
        for i, om in enumerate(omegas):
            value, bound = mu_omega(om, xi, tol)
            assert (values[f, i].real, values[f, i].imag) == (value.real, value.imag)
            assert bounds[f, i] == bound


@settings(max_examples=60, deadline=None)
@given(table=class_tables(), length=st.integers(1, 40), seed=st.integers(0, 2 ** 32),
       streams=st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=5))
def test_sample_omegas_rows_are_generator_choices(table, length, seed, streams):
    probs = table.weights / table.weights.sum()
    for om, s in zip(sample_omegas(table, length, seed, streams), streams, strict=True):
        expected = stream_rng(seed, 0xD15, s).choice(len(table), size=length, p=probs)
        assert om.indices.dtype == expected.dtype
        np.testing.assert_array_equal(om.indices, expected)


@settings(max_examples=60, deadline=None)
@given(table=class_tables(), lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 16), xi=st.floats(-300.0, 300.0),
       larger=st.floats(1.0, 4.0), tol=st.floats(1e-12, 10.0),
       cells=st.sampled_from([measure.BATCH_CELLS, 1, 40]))
def test_a_frequency_reads_the_same_beside_any_other(table, lengths, seed, xi, larger, tol,
                                                      cells):
    # each chunk's key table comes from the batch's largest |xi|, so a
    # neighbour can change the table but not a bit of another frequency
    assume(xi != 0)
    omegas = [sample_omegas(table, n, seed, (i,))[0] for i, n in enumerate(lengths)]
    with mock.patch.object(measure, "BATCH_CELLS", cells):
        for xis in ([xi, xi * larger], [-xi * larger, xi], [xi, -xi], [0.0, xi]):
            values, bounds = mu_omega_fourier_batch(omegas, xis, tol)
            for f, one in enumerate(xis):
                alone, alone_bound = mu_omega_fourier_batch(omegas, [one], tol)
                np.testing.assert_array_equal(values[f].view(np.uint64), alone[0].view(np.uint64))
                np.testing.assert_array_equal(bits(bounds[f]), bits(alone_bound[0]))


def test_batch_rejects_sequences_of_two_tables(cantor, two_ratio):
    a = sample_omegas(build_classes(fibre_product_from_1d(cantor), 2), 5, 1, (0,))[0]
    b = sample_omegas(build_classes(fibre_product_from_1d(two_ratio), 2), 5, 1, (0,))[0]
    for xis in ([1.0], [0.0]):
        with pytest.raises(ValidationError, match="one class table"):
            mu_omega_fourier_batch([a, b], xis, 1e-8)


def per_atom_batch(omegas, xis, tol):
    """Reference for ``mu_omega_fourier_batch``: every atom of every factor
    of every sequence goes into one character call per frequency, and
    factors past a sequence's count are set to 1 after their sums."""
    table = omegas[0].table
    denom = 1.0 - np.abs(table.ratios).max()
    xis = np.asarray(xis, dtype=float)
    lengths = np.array([len(om) for om in omegas])
    values = np.ones((xis.size, len(omegas)), dtype=complex)
    bounds = np.zeros((xis.size, len(omegas)))
    part = np.concatenate([om.indices for om in omegas])
    n, width, size = len(omegas), int(lengths.max()), table.sizes[part]
    row = np.repeat(np.arange(n), lengths)
    col = np.arange(row.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    ratios = np.ones((n, width))
    ratios[row, col] = table.ratios[part]
    cum = np.cumprod(ratios, axis=1)
    scales = np.concatenate((np.ones((n, 1)), cum[:, :-1]), axis=1)[row, col]
    atoms = table.translates(part) * np.repeat(scales, size)
    for f, xi in enumerate(xis):
        if xi == 0:
            continue
        tails = measure.TWO_PI * abs(xi) * np.abs(cum) / denom
        hit = (tails <= tol) & (np.arange(width) < lengths[:, None] - 1)
        count = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, lengths)
        means = np.add.reduceat(measure.character(xi * atoms), np.cumsum(size) - size) / size
        means[col >= count[row]] = 1.0
        grid = np.ones((n, width), dtype=complex)
        grid[row, col] = means
        values[f] = grid.prod(axis=1)
        bounds[f] = tails[np.arange(n), count - 1]
    return values, bounds


@settings(max_examples=80, deadline=None)
@given(table=class_tables(), lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 16),
       xis=st.lists(st.one_of(st.just(0.0), st.floats(-300.0, 300.0)), min_size=1, max_size=4),
       tol=st.floats(1e-12, 10.0), cells=st.sampled_from([measure.BATCH_CELLS, 1, 40]))
def test_batch_matches_the_per_atom_loop(table, lengths, seed, xis, tol, cells):
    # streams repeat, so some sequences are equal and share every factor
    omegas = [sample_omegas(table, n, seed, (i % 3,))[0] for i, n in enumerate(lengths)]
    with mock.patch.object(measure, "BATCH_CELLS", cells):
        values, bounds = mu_omega_fourier_batch(omegas, xis, tol)
    want_values, want_bounds = per_atom_batch(omegas, xis, tol)
    np.testing.assert_array_equal(values.view(np.uint64), want_values.view(np.uint64))
    np.testing.assert_array_equal(bits(bounds), bits(want_bounds))


def widest_key_atoms(omegas, xis, tol):
    """The atoms of the distinct keys, (class, scale bits), of the factors
    that the sequences read before their counts at the largest |xi|."""
    table = omegas[0].table
    xi = max(abs(x) for x in xis)
    denom = 1.0 - np.abs(table.ratios).max()
    keys = set()
    for om in omegas:
        tails = measure.TWO_PI * xi * np.abs(om.cum_ratios) / denom
        count = next((m for m in range(1, len(om)) if tails[m - 1] <= tol), len(om))
        scales = np.concatenate(([1.0], om.cum_ratios[:-1]))[:count]
        keys |= set(zip(om.indices[:count].tolist(), bits(scales).tolist()))
    return sum(int(table.sizes[c]) for c, _ in keys)


@pytest.mark.parametrize("name, cells, chunks",
                         [("cantor", None, 1), ("cantor", 500, 6), ("two_ratio", None, 1)])
def test_batch_makes_one_character_call_per_frequency_over_the_widest_keys(
        request, name, cells, chunks):
    # every cantor ratio at k = 2 is 1/9, so the factors of one column share
    # one key across all sequences, and each chunk of 10 sequences (48 atoms
    # each) at 500 cells reads the same keys
    xis, tol = [1.0, 0.0, -7.5, 100.0], 1e-6
    omegas = sample_omegas(line_classes(request.getfixturevalue(name), 2), 12, 5, range(60))
    cells = cells or measure.BATCH_CELLS
    with mock.patch.object(disintegrate, "character", wraps=measure.character) as ch, \
            mock.patch.object(measure, "BATCH_CELLS", cells):
        mu_omega_fourier_batch(omegas, xis, tol)
    sizes = [call.args[0].size for call in ch.call_args_list]
    assert len(sizes) == 3 * chunks  # one call per nonzero frequency and chunk
    assert set(sizes) == {widest_key_atoms(omegas, xis, tol)}
    assert max(sizes) <= cells


def line_classes(system, k):
    """The class table of a 1-D system at block length k."""
    return build_classes(fibre_product_from_1d(system), k)


def test_consistency_makes_one_batch_call(two_ratio):
    # one draw for every sequence, one sweep for every frequency
    with mock.patch.object(disintegrate, "mu_omega_fourier_batch",
                           wraps=mu_omega_fourier_batch) as batch, \
            mock.patch.object(disintegrate, "sample_omegas", wraps=sample_omegas) as draw:
        rep = disintegration_consistency(line_classes(two_ratio, 2), [1.0, 2.0, 5.0], 50, seed=9)
    assert batch.call_count == draw.call_count == 1 and len(rep.entries) == 3


def test_consistency_target_honours_the_budget(two_ratio):
    # the direct target at 5000 needs more than 20 stopping-set nodes; the
    # sequences are not drawn once a target is over budget
    table = line_classes(two_ratio, 2)
    with mock.patch.object(disintegrate, "sample_omegas",
                           side_effect=AssertionError("sampled past the budget")):
        with pytest.raises(BudgetExhausted, match="frequency 5000") as err:
            disintegration_consistency(table, [0.5, 6.0, 5000.0], 20, budget=20)
    assert err.value.achieved > 1e-6
    assert disintegration_consistency(table, [0.5, 6.0], 20, budget=20).block_length == 2


# -- consistency ------------------------------------------------------------------

def test_consistency_dyadic(dyadic):
    rep = disintegration_consistency(line_classes(dyadic, 2), [0.5], 4000, seed=8)
    e = rep.entries[0]
    assert e.passed
    assert abs(e.target - (-2j / math.pi)) <= 1e-5


def test_consistency_two_ratio(two_ratio):
    rep = disintegration_consistency(line_classes(two_ratio, 2), [1.0, 2.0, 5.0], 1500, seed=9)
    assert all(e.passed for e in rep.entries)


def test_consistency_one_class_table_has_no_noise(cantor):
    # every sampled sequence is the same one, so there is no spread to
    # divide the gap by
    rep = disintegration_consistency(line_classes(cantor, 3), [1.0, 2.0, 5.0, 17.0], 200, seed=11)
    assert all(e.stderr == 0.0 and e.z_score == 0.0 for e in rep.entries)
    assert all(e.passed for e in rep.entries)


def test_consistency_jsonable(two_ratio):
    rep = disintegration_consistency(line_classes(two_ratio, 1), [1.0], 300, seed=10)
    doc = rep.to_jsonable()
    assert doc["entries"][0]["passed"] in (True, False)


CANTOR_CLASSES = build_classes(fibre_product_from_1d(cantor_system()), 3)  # one class


@settings(max_examples=40, deadline=None)
@given(table=st.one_of(st.just(CANTOR_CLASSES), class_tables()),
       xis=st.lists(st.one_of(st.just(0.0), st.floats(-20.0, 20.0)), min_size=1, max_size=4),
       n=st.integers(2, 30), seed=st.integers(0, 2 ** 16), tol=st.floats(1e-8, 1e-3))
@example(table=CANTOR_CLASSES, xis=[0.0, 1.0, -5.0], n=7, seed=1, tol=1e-6)
@example(table=THREE_SYMBOL_TABLES[2], xis=[0.0, 2.5], n=7, seed=2, tol=1e-6)
def test_consistency_statistics_match_the_per_frequency_reference(table, xis, n, seed, tol):
    seen = {}

    def keep(name, fn):
        def call(*args, **kwargs):
            seen[name] = fn(*args, **kwargs)
            return seen[name]
        return call

    with mock.patch.object(disintegrate, "mu_omega_fourier_batch",
                           keep("sweep", mu_omega_fourier_batch)), \
            mock.patch.object(disintegrate, "require_values",
                              keep("targets", measure.require_values)):
        rep = disintegration_consistency(table, xis, n, seed, tol)
    values, bounds = seen["sweep"]
    want = [consistency_entry(*row, n) for row in zip(xis, seen["targets"], values, bounds)]
    for got, ref in zip(rep.entries, want, strict=True):
        for field in fields(ConsistencyEntry):  # repr is exact, signed zeros and type too
            assert repr(getattr(got, field.name)) == repr(getattr(ref, field.name)), field.name
    for e in rep.entries:  # a one-class table, and xi = 0, give constant rows
        if len(table) == 1 or e.frequency == 0:
            assert e.stderr == 0.0


# -- membership -------------------------------------------------------------------

def test_params_read_the_separated_pair(two_ratio):
    fp = fibre_product_from_1d(two_ratio)
    params = LargeDeviationParams.for_table(build_classes(fp, 2), alpha=0.1)
    assert (params.pair_weight, params.pair_gap) == (fp.pair.weight, fp.pair.gap)
    assert params.lyapunov == lyapunov(fp)


def test_membership_all_flags_true(cantor):
    # at block length 1 the class ratio 1/3 clears the ratio floor
    # exp(-e^(0.15)) ~ 0.313, the class size 2 clears 2^(1/2), and the
    # cumulated ratio clears its geometric floor, so every flag holds
    table = build_classes(fibre_product_from_1d(cantor), 1)
    params = LargeDeviationParams.for_table(table, alpha=0.2)
    assert math.log(abs(table.ratios[0])) >= params.log_ratio_floor
    assert table.sizes[0] > params.size_threshold
    om = sample_omegas(table, 50, 11, (0,))[0]
    rep = check_omega_membership(om, params, np.arange(1, 51))
    assert rep.all_ok


def test_membership_core_flags_at_larger_block(cantor):
    # deeper blocks keep the class-size and ratio-product flags (the pair
    # used by the empirical lower-bound harness) even when the double
    # exponential ratio floor is not yet in its asymptotic regime
    table = build_classes(fibre_product_from_1d(cantor), 4)
    params = LargeDeviationParams.for_table(table, alpha=0.2)
    om = sample_omegas(table, 50, 11, (0,))[0]
    rep = check_omega_membership(om, params, np.arange(1, 51))
    assert rep.aggregate["large_classes"] and rep.aggregate["ratio_product"]


def test_membership_count_slack_threshold():
    # the not-too-small-ratio count at horizon 10 with one bad slot holds
    # exactly when the slack allows one miss in ten: e^(-alpha k) >= 0.1
    for alpha, expect in ((0.2, True), (0.7, False)):
        params = LargeDeviationParams(block_length=4, alpha=alpha, start_index=1,
                                      pair_weight=0.5, lyapunov=1.0, pair_gap=0.5)
        slack = params.count_slack
        assert (9 >= 10 * (1 - slack)) is expect


def test_membership_rejects_short_prefix():
    table = build_classes(three_symbol_fp(), 1)
    params = LargeDeviationParams.for_table(table, alpha=0.1)
    om = sample_omegas(table, 5, 0, (0,))[0]
    with pytest.raises(ValidationError):
        check_omega_membership(om, params, np.arange(1, 11))


def test_membership_failure_rate_monotone_in_start_index():
    # acceptance direction for the large-deviation bound: later windows fail
    # no more often than earlier ones
    fp = three_symbol_fp()
    table = build_classes(fp, 2)
    params = LargeDeviationParams.for_table(table, alpha=0.1)
    rates = []
    for start in (1, 5, 10):
        fails = 0
        for i in range(2000):
            om = sample_omegas(table, start + 14, 21, (i,))[0]
            rep = check_omega_membership(om, params,
                                         np.arange(start, start + 15))
            fails += not rep.all_ok
        rates.append(fails / 2000)
    assert rates[0] >= rates[1] >= rates[2]


# -- near-integer diagnostics -------------------------------------------------------

def fixed_table():
    # block length 1 keeps the pair class ratio (1/3) above the ratio floor
    return build_classes(three_symbol_fp(), 1)


def test_ek_reconstruction_exact():
    table = fixed_table()
    params = LargeDeviationParams.for_table(table, alpha=0.2)
    om = sample_omegas(table, 300, 13, (0,))[0]
    d = ek_diagnostics(om, 517.25, params)
    assert len(d.decay_levels)
    recon = d.integer_parts + d.fractional_parts
    assert np.max(np.abs(recon - level_products(om, 517.25, d.decay_levels))) <= 1e-9
    assert np.all((d.fractional_parts >= -0.5) & (d.fractional_parts < 0.5))


def test_ek_zero_frequency_all_near_integer():
    table = fixed_table()
    params = LargeDeviationParams.for_table(table, alpha=0.2)
    om = sample_omegas(table, 100, 14, (0,))[0]
    d = ek_diagnostics(om, 0.0, params)
    assert np.all(d.integer_parts == 0)
    assert np.all(d.fractional_parts == 0.0)
    assert set(d.near_integer_levels) == set(d.decay_levels)


def test_ek_round_half_even_example():
    # product 20/27 sits between 0 and 1; nearest integer is 1
    from ffl.disintegrate import _round_half_even_keep_halfopen
    p, eps = _round_half_even_keep_halfopen(np.array([20 / 27]))
    assert p[0] == 1 and eps[0] == pytest.approx(20 / 27 - 1)
    # half-integer ties stay inside [-1/2, 1/2)
    p, eps = _round_half_even_keep_halfopen(np.array([2.5, 3.5, -0.5]))
    assert np.all((eps >= -0.5) & (eps < 0.5))
    np.testing.assert_allclose(p + eps, [2.5, 3.5, -0.5])


def test_ek_exact_integrality_for_triadic(cantor):
    # scale-3 structure: frequencies multiplying away all ratios give integers
    table = build_classes(fibre_product_from_1d(cantor), 1)
    params = LargeDeviationParams.for_table(table, alpha=0.2)
    om = sample_omegas(table, 60, 15, (0,))[0]
    delta = table.pair_deltas[0]
    m = 6
    xi = 3.0 ** m / delta
    d = ek_diagnostics(om, xi, params)
    early = d.decay_levels <= m
    assert np.all(np.abs(d.fractional_parts[early]) <= 1e-9)


def test_ek_prefix_too_short():
    table = fixed_table()
    params = LargeDeviationParams.for_table(table, alpha=0.2)
    om = sample_omegas(table, 3, 16, (0,))[0]
    with pytest.raises(ValidationError):
        ek_diagnostics(om, 1e9, params)


def test_ek_warns_when_no_decay_levels():
    # at block length 2 every class ratio sits below the ratio floor for
    # alpha = 0.2, so the diagnostics are empty and flagged
    table = build_classes(three_symbol_fp(), 2)
    params = LargeDeviationParams.for_table(table, alpha=0.2)
    om = sample_omegas(table, 100, 17, (0,))[0]
    with pytest.warns(UserWarning, match="no decay levels"):
        d = ek_diagnostics(om, 50.0, params)
    assert len(d.decay_levels) == 0 and len(d.near_integer_levels) == 0


# -- circle sums ----------------------------------------------------------------

def test_circle_sum_examples():
    assert circle_sum_bound([0.5, 0.5], math.pi) == pytest.approx(0.0)
    assert circle_sum_bound([0.5, 0.5], math.pi / 2) == pytest.approx(math.sqrt(0.5))
    assert circle_sum_bound([0.9, 0.1], math.pi) == pytest.approx(math.sqrt(1 - 0.04))


def test_circle_sum_rejects_bad_input():
    with pytest.raises(ValidationError):
        circle_sum_bound([0.5, 0.5], 0.0)
    with pytest.raises(ValidationError):
        circle_sum_bound([0.5, 0.5], 4.0)
    with pytest.raises(ValidationError):
        circle_sum_bound([0.7, 0.1], math.pi)


def test_circle_sum_dominates_brute_force():
    # two weights: exhaustive over the angle gap grid
    for w in ([0.5, 0.5], [0.9, 0.1], [0.3, 0.7]):
        for gap in (math.pi, math.pi / 2, 0.3):
            bound = circle_sum_bound(w, gap)
            thetas = np.linspace(gap, 2 * math.pi - gap, 10_000)
            vals = np.abs(w[0] + w[1] * np.exp(1j * thetas))
            assert vals.max() <= bound + 1e-12
    # three weights: grid over two free angles with the gap constraint
    w = np.array([0.2, 0.3, 0.5])
    gap = math.pi / 3
    grid = np.linspace(0, 2 * math.pi, 100)
    t2, t3 = np.meshgrid(grid, grid, indexing="ij")
    vals = np.abs(w[0] + w[1] * np.exp(1j * t2) + w[2] * np.exp(1j * t3))
    d12 = np.minimum(t2 % (2 * math.pi), 2 * math.pi - t2 % (2 * math.pi))
    d13 = np.minimum(t3 % (2 * math.pi), 2 * math.pi - t3 % (2 * math.pi))
    d23 = np.abs(t2 - t3) % (2 * math.pi)
    d23 = np.minimum(d23, 2 * math.pi - d23)
    constrained = (d12 >= gap) | (d13 >= gap) | (d23 >= gap)
    assert vals[constrained].max() <= circle_sum_bound(w, gap) + 1e-12


# -- alpha calibration -------------------------------------------------------------

def test_calibrate_alpha_cantor(cantor):
    table = build_classes(fibre_product_from_1d(cantor), 4)
    alpha, report = calibrate_alpha(table)
    assert alpha == 0.2 and report["verified"]


def brute_force_small_fraction(fp, k):
    """The weight of the block words whose class has at most
    2^(pair weight * k) members, over the weight of every word, summed word
    by word: a word's class has 2^(its pair slots) members."""
    small = total = 0.0
    for word in iproduct(fp.alphabet, repeat=k):
        weight = math.prod(fp.weights[s] for s in word)
        slots = sum(s in fp.special_symbols for s in word)
        total += weight
        small += weight * (2 ** slots <= 2.0 ** (fp.pair.weight * k))
    return small / total


@pytest.mark.parametrize("name, k, alpha", [("cantor", 4, 0.2), ("two_ratio", 4, 0.1),
                                            ("dyadic", 3, 0.2), ("two_ratio", 2, 0.2)])
def test_calibrate_alpha_is_the_exact_small_class_weight(request, name, k, alpha):
    fp = fibre_product_from_1d(request.getfixturevalue(name))
    chosen, report = calibrate_alpha(build_classes(fp, k))
    fraction = brute_force_small_fraction(fp, k)
    assert chosen == alpha
    for row in report["candidates"]:
        assert row["small_fraction"] == pytest.approx(fraction, rel=1e-12, abs=1e-15)
        assert row["holds"] == (fraction <= math.exp(-2.0 * row["alpha"] * k))


def test_calibrate_alpha_reports_candidates():
    table = fixed_table()
    alpha, report = calibrate_alpha(table)
    assert {r["alpha"] for r in report["candidates"]} <= {0.05, 0.1, 0.2}
    assert all(r["small_fraction"] >= 0 for r in report["candidates"])


def test_consistency_on_genuine_fibre_product():
    # planar system: the fibre marginal is the stationary law of the three
    # fibre maps with their weights, and the class-sequence average matches
    fp = build_fibre_product(
        {"L": AffineMap(0.5, 0.0), "R": AffineMap(0.5, 0.5)},
        {"L": {0: AffineMap(1 / 3, 0.0), 1: AffineMap(1 / 3, 2 / 3)},
         "R": {0: AffineMap(1 / 3, 1 / 3)}},
        {("L", 0): 1 / 3, ("L", 1): 1 / 3, ("R", 0): 1 / 3})
    rep = disintegration_consistency(build_classes(fp, 1), [1.0, 3.0, 7.5], 800, seed=23)
    assert all(e.passed for e in rep.entries)
