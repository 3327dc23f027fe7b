"""Independent references for the artifacts of each benchmark command.

Nothing here calls an ffl evaluator. Transforms are recomputed by other
algorithms, each with its own rigorous error bound:

* cantor: the infinite product prod_k (1 + e(2 xi / 3^k)) / 2, truncated
  after 60 factors (tail at most pi |xi| 3^-60);
* affine systems: a uniform-depth word sum that evaluates every cylinder at
  the image of the measure's barycentre (second-order error
  2 pi^2 xi^2 sum_w weight r_w^2 Var, Var <= 1/4 on [0, 1]);
* nonlinear images: uniform-depth word sums at cylinder centres (first
  order, 2 pi |xi| Lip(F) diam / 2), or at barycentre images for the
  fibre product;
* equidistribution: orbits and digits recounted with exact integers.

Only the sampled input points of the equidistribution commands come from
ffl (``grid_point_for`` / ``random_grid_point``): they are inputs, not
results. A value fails when it differs from the reference by more than
its reported bound plus the reference bound plus ``SLACK``, which covers
float rounding of the phases (|xi| <= 5e3, so below 1e-11).
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from ffl.equidist import EquidistSpec, RateFn, grid_point_for, random_grid_point
from ffl.rng import spawn_seed

from workloads import HALF_OVER_N

SLACK = 1e-11
TWO_PI = 2.0 * math.pi


def e(y):
    """exp(-2 pi i y), the character ffl uses."""
    return np.exp(-2j * np.pi * np.asarray(y, dtype=float))


@dataclass
class Check:
    """Outcome of checking one command's artifacts."""

    ops: int                       # operations the command performed
    failed: int = 0                # of those, failed against the reference
    bound_ratio: float | None = None   # largest reported bound / requested tolerance
    notes: list = field(default_factory=list)

    def fail(self, note: str, count: int = 1):
        self.failed += count
        self.notes.append(note)


# ---------------------------------------------------------------------------
# reference transforms
# ---------------------------------------------------------------------------

def cantor_transform(xis, factors: int = 60):
    """Values and bounds of the middle-thirds transform by its product formula."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    k = np.arange(1, factors + 1)
    vals = np.prod(0.5 * (1.0 + e(np.outer(xis, 2.0 / 3.0 ** k))), axis=1)
    return vals, math.pi * np.abs(xis) * 3.0 ** -factors


def affine_word_sum(maps, weights, xi: float, depth: int):
    """Transform of an affine system's measure by a depth-``depth`` word sum.

    ``maps`` are (ratio, translate) pairs with positive ratios mapping
    [0, 1] into itself, so the attractor lies in [0, 1].
    """
    r = np.array([m[0] for m in maps]); t = np.array([m[1] for m in maps])
    p = np.asarray(weights, dtype=float)
    if not (np.all(r > 0) and np.all(t >= 0) and np.all(r + t <= 1.0)):
        raise ValueError("maps must send [0, 1] into itself with positive ratios")
    mean = float(p @ t) / (1.0 - float(p @ r))
    R, T, W = np.ones(1), np.zeros(1), np.ones(1)
    for _ in range(depth):
        T = (T[None] + R[None] * t[:, None]).ravel()
        R = (R[None] * r[:, None]).ravel()
        W = (W[None] * p[:, None]).ravel()
    value = complex(np.sum(W * e(xi * (T + R * mean))))
    bound = 2.0 * math.pi ** 2 * xi ** 2 * float(np.sum(W * R ** 2)) / 4.0
    return value, bound


def image_word_sum(maps, weights, F, lip_F: float, xi: float, depth: int):
    """Transform of F(mu) for increasing contractions of [0, 1], evaluating
    F at the centre of every depth-``depth`` cylinder interval."""
    lo, hi, W = np.zeros(1), np.ones(1), np.ones(1)
    for _ in range(depth):
        lo = np.concatenate([f(lo) for f in maps])
        hi = np.concatenate([f(hi) for f in maps])
        W = np.concatenate([w * W for w in weights])
    value = complex(np.sum(W * e(xi * F(0.5 * (lo + hi)))))
    bound = TWO_PI * abs(xi) * lip_F * float(np.sum(W * (hi - lo))) / 2.0
    return value, bound


# the fibre product of workloads.FIBRE3: (base ratio, base translate,
# fibre ratio, fibre translate, weight) per symbol
FIBRE3_SYMBOLS = [(0.5, 0.0, 1 / 3, 0.0, 1 / 3),
                  (0.5, 0.0, 1 / 3, 2 / 3, 1 / 3),
                  (0.5, 0.5, 1 / 3, 1 / 3, 1 / 3)]


def fibre_word_sum(xi: float, depth: int):
    """Transform of F(x, y) = x/2 + y^2 under the FIBRE3 measure.

    Each cylinder is evaluated at the image of the measure's barycentre.
    With Delta = F(p) - F(c), |Delta| <= rb/2 + 2 rf and
    0 <= E Delta <= rf^2 / 4 on [0, 1]^2, so the error per unit mass is at
    most 2 pi |xi| rf^2 / 4 + 2 pi^2 xi^2 (rb/2 + 2 rf)^2.
    """
    rb, tb, rf, tf, w = (np.array(c) for c in zip(*FIBRE3_SYMBOLS))
    mx = float(w @ tb) / (1.0 - float(w @ rb))
    my = float(w @ tf) / (1.0 - float(w @ rf))
    RB, TB, RF, TF, W = np.ones(1), np.zeros(1), np.ones(1), np.zeros(1), np.ones(1)
    for _ in range(depth):
        TB = (TB[None] + RB[None] * tb[:, None]).ravel()
        TF = (TF[None] + RF[None] * tf[:, None]).ravel()
        RB = (RB[None] * rb[:, None]).ravel()
        RF = (RF[None] * rf[:, None]).ravel()
        W = (W[None] * w[:, None]).ravel()
    cx, cy = TB + RB * mx, TF + RF * my
    value = complex(np.sum(W * e(xi * (0.5 * cx + cy ** 2))))
    bound = float(np.sum(W * (TWO_PI * abs(xi) * RF ** 2 / 4.0
                              + 2.0 * math.pi ** 2 * xi ** 2 * (0.5 * RB + 2.0 * RF) ** 2)))
    return value, bound


TWO_RATIO_MAPS = [(0.5, 0.0), (1 / 3, 2 / 3)]
CANTOR_MAPS = [lambda x: x / 3.0, lambda x: x / 3.0 + 2.0 / 3.0]
SMOOTH_MAPS = [lambda x: 0.3 * (x + 0.2 * x ** 2), lambda x: 0.6 + 0.3 * x]


def square(x):
    return x ** 2


# ---------------------------------------------------------------------------
# artifact readers
# ---------------------------------------------------------------------------

def csv_rows(path: Path) -> list:
    body = [l for l in path.read_text(encoding="utf-8").splitlines()
            if l and not l.startswith("#")]
    return [l.split(",") for l in body[1:]]


def json_result(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))["result"]


def _compare(chk: Check, label, xi, value, err, ref, ref_err):
    gap = abs(value - ref)
    if gap > err + ref_err + SLACK:
        chk.fail(f"{label} xi={xi!r}: |value - reference| = {gap:.3e} "
                 f"> {err:.3e} + {ref_err:.3e}")


def _scan_check(rows, tol, reference, label, subset=None) -> Check:
    chk = Check(len(rows))
    if not rows:
        chk.fail(f"{label}: no rows", 1)
        chk.ops = 1
        return chk
    chk.bound_ratio = max(float(r[4]) for r in rows) / tol
    for r in (rows if subset is None else subset):
        xi, value, err = float(r[0]), complex(float(r[1]), float(r[2])), float(r[4])
        ref, ref_err = reference(xi)
        _compare(chk, label, xi, value, err, ref, ref_err)
    return chk


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def check_command(cmd, out: Path, rng: random.Random) -> Check:
    """Check the artifacts ``cmd`` wrote into ``out``."""
    return CHECKS[cmd.name](cmd, out, rng)


def _cantor_scan(cmd, out, rng):
    rows = csv_rows(out / "scan.csv")
    xis = np.array([float(r[0]) for r in rows])
    refs, ref_errs = cantor_transform(xis)
    table = {float(x): (v, b) for x, v, b in zip(xis, refs, ref_errs)}
    return _scan_check(rows, cmd.config["scan"]["tol"], table.__getitem__, "cantor scan")


def _cantor_verify(cmd, out, rng):
    res = json_result(out / "verify.json")
    chk = Check(max(1, res["checked"]))
    if res["checked"] < 1:
        chk.fail("verify checked no rows")
    for f in res["failures"]:
        chk.fail(f"verify: row xi={f['xi']!r} violates its bound")
    return chk


def _two_ratio_scan(cmd, out, rng):
    rows = csv_rows(out / "scan.csv")
    subset = rng.sample(rows, min(4, len(rows)))
    return _scan_check(rows, cmd.config["scan"]["tol"],
                       lambda xi: affine_word_sum(TWO_RATIO_MAPS, [0.5, 0.5], xi, 20),
                       "two-ratio scan", subset)


def _cantor_sparse(cmd, out, rng):
    """Every grid interval whose reference |value| reaches the threshold is marked."""
    res = json_result(out / "sparse.json")
    d = cmd.config["decay"]
    limit, step = d["limit"], d["grid_step"]
    grid = np.arange(0.0, limit + step / 2, step)
    chk = Check(len(grid))
    threshold = limit ** (-d["exponent"])
    if not math.isclose(res["threshold"], threshold, rel_tol=1e-12):
        chk.fail(f"sparse threshold {res['threshold']!r} != {threshold!r}")
    marked = set(res["marked"])
    if len(marked) != res["count"]:
        chk.fail("sparse count differs from the marked list")
    refs, ref_errs = cantor_transform(grid)
    for xi, v, b in zip(grid, refs, ref_errs):
        if abs(v) - b - SLACK >= threshold and not (
                math.floor(xi) in marked and math.floor(-xi) in marked):
            chk.fail(f"sparse: xi={xi!r} reaches the threshold but is not marked")
    return chk


def _square_fit(cmd, out, rng):
    res = json_result(out / "decay_fit.json")
    d = cmd.config["decay"]
    bands = res["bands"]
    chk = Check(sum(b["samples"] + b["excluded"] for b in bands))
    chk.bound_ratio = max(b["max_error_bound"] for b in bands) / d["tol"]
    for b in bands:
        if b["excluded"]:
            chk.fail(f"band {b['index']}: {b['excluded']} budget exclusions", b["excluded"])
        xi = b["peak_frequency"]
        ref, ref_err = image_word_sum(CANTOR_MAPS, [0.5, 0.5], square, 2.0, xi, 18)
        gap = abs(b["peak"] - abs(ref))
        if gap > b["max_error_bound"] + ref_err + SLACK:
            chk.fail(f"band {b['index']} peak {b['peak']!r} vs reference "
                     f"{abs(ref)!r} at xi={xi!r}")
    return chk


def _smooth_scan(cmd, out, rng):
    return _scan_check(csv_rows(out / "pushforward.csv"), cmd.config["scan"]["tol"],
                       lambda xi: image_word_sum(SMOOTH_MAPS, [0.5, 0.5], square,
                                                 2.0, xi, 16),
                       "smooth pushforward scan")


def _fibre_scan(cmd, out, rng):
    return _scan_check(csv_rows(out / "pushforward.csv"), cmd.config["scan"]["tol"],
                       lambda xi: fibre_word_sum(xi, 12), "fibre pushforward scan")


def _consistency(cmd, out, rng):
    res = json_result(out / "consistency.json")
    entries = res["entries"]
    chk = Check(len(entries))
    if not entries:
        chk.fail("consistency has no entries")
        chk.ops = 1
        return chk
    chk.bound_ratio = max(x["rigorous_error"] for x in entries) / 1e-6
    for x in entries:
        if not x["passed"]:
            chk.fail(f"consistency entry xi={x['xi']!r} did not pass (z={x['z']:.2f})")
        # the direct target must match an independent evaluation
        ref, ref_err = affine_word_sum(TWO_RATIO_MAPS, [0.5, 0.5], x["xi"], 16)
        _compare(chk, "consistency target", x["xi"],
                 complex(x["target_re"], x["target_im"]), 1e-6, ref, ref_err)
    return chk


def _classes(cmd, out, rng):
    res = json_result(out / "classes.json")
    k = cmd.config["disintegrate"]["block_length"]
    alphabet = len(cmd.config["system"]["fibres"]) ** res["fold"]
    chk = Check(1)
    classes = res["classes"]
    # the two special symbols merge, every other symbol stays its own class slot
    if len(classes) != (alphabet - 1) ** k:
        chk.fail(f"{len(classes)} classes, expected {(alphabet - 1) ** k}")
    if sum(c["size"] for c in classes) != alphabet ** k:
        chk.fail("class sizes do not partition the words")
    if abs(math.fsum(c["weight"] for c in classes) - 1.0) > 1e-12:
        chk.fail("class weights do not sum to 1")
    return chk


def _membership(cmd, out, rng):
    res = json_result(out / "membership.json")
    d = cmd.config["disintegrate"]
    chk = Check(1)
    horizons = res["horizons"]
    if horizons != list(range(1, d["prefix_length"] + 1)):
        chk.fail("membership horizons do not cover 1..prefix_length")
    if any(len(v) != len(horizons) for v in res["flags"].values()):
        chk.fail("membership flag lists differ in length from the horizons")
    return chk


def in_band(y: int, q: int, g: int, n: int) -> bool:
    """dist(y/q - g/1024, Z) <= 1/(2n), in exact integer arithmetic."""
    scale = 1024 * q
    d = (1024 * y - g * q) % scale
    return 2 * n * min(d, scale - d) <= scale


def exact_hits(p: int, bits: int, base: int, g: int, horizon: int) -> int:
    """Count n <= horizon with dist(base^n x - g/1024, Z) <= 1/(2n), x = p/2^bits."""
    q = 1 << bits
    if base != 2:
        count, r = 0, p
        for n in range(1, horizon + 1):
            r = (base * r) % q
            count += in_band(r, q, g, n)
        return count
    # base 2: frac(2^n x) lies in [y, y+1) / 2^128 for its 128-bit window y;
    # when both ends agree the window decides, else the full remainder does
    wq = 1 << 128
    nbytes = (bits + 136 + 7) // 8
    buf = (p << (8 * nbytes - bits)).to_bytes(nbytes, "big")   # bit j = j-th bit of x
    count = 0
    for n in range(1, horizon + 1):
        v = int.from_bytes(buf[n // 8: n // 8 + 17], "big")
        y = (v >> (8 - n % 8)) & (wq - 1)
        lo = in_band(y, wq, g, n)
        if lo == in_band(y + 1, wq, g, n):
            count += lo
        else:
            count += in_band((p << n) % q, q, g, n)
    return count


def _count(cmd, out, rng):
    sec, seed = cmd.config["equidist"], cmd.config["seed"]
    rows = csv_rows(out / "count.csv")
    chk = Check(max(1, len(rows)))
    if len(rows) != sec["seeds"]:
        chk.fail(f"{len(rows)} orbits reported, {sec['seeds']} requested")
        return chk
    horizon = sec["horizon"]
    two_sigma = math.fsum(1.0 / n for n in range(1, horizon + 1))
    for row in rows:
        if not math.isclose(float(row[4]), two_sigma, rel_tol=1e-9):
            chk.fail(f"orbit {row[0]}: two_sigma {row[4]} != {two_sigma!r}")
    i = rng.randrange(sec["seeds"])
    spec = EquidistSpec.geometric(sec["base"], sec["gamma"], RateFn.parse(HALF_OVER_N),
                                  horizon)
    gp = grid_point_for(spec, seed=spawn_seed(seed, i))
    gamma_num = Fraction(sec["gamma"]) * 1024   # workloads draw gamma from k / 1024
    want = exact_hits(gp.numerator, gp.bits, sec["base"], int(gamma_num), horizon)
    if int(rows[i][3]) != want:
        chk.fail(f"orbit {i}: count {rows[i][3]} != exact recount {want}")
    return chk


def _digits(cmd, out, rng):
    sec, seed = cmd.config["equidist"], cmd.config["seed"]
    rows = csv_rows(out / "digits.csv")
    base, horizon = sec["base"], sec["horizon"]
    chk = Check(max(1, len(rows)))
    if len(rows) != sec["seeds"]:
        chk.fail(f"{len(rows)} orbits reported, {sec['seeds']} requested")
        return chk
    for row in rows:
        hist = [int(c) for c in row[1:1 + base]]
        expected = horizon / base
        chi2 = sum((h - expected) ** 2 / expected for h in hist)
        if sum(hist) != horizon or not math.isclose(float(row[-1]), chi2, rel_tol=1e-9):
            chk.fail(f"orbit {row[0]}: histogram or chi-square inconsistent")
    i = rng.randrange(sec["seeds"])
    gp = random_grid_point(horizon * (int(math.log2(base)) + 1) + 128,
                           seed=spawn_seed(seed, i))
    # the first ``horizon`` digits at once: floor(x * base^horizon)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str((gp.numerator * base ** horizon) >> gp.bits).zfill(horizon)
    finally:
        sys.set_int_max_str_digits(limit)
    want = [digits.count(str(j)) for j in range(base)]
    if [int(c) for c in rows[i][1:1 + base]] != want:
        chk.fail(f"orbit {i}: digit histogram differs from the exact recount")
    return chk


CHECKS = {
    "cantor_scan": _cantor_scan, "cantor_verify": _cantor_verify,
    "two_ratio_scan": _two_ratio_scan, "cantor_sparse": _cantor_sparse,
    "square_fit": _square_fit, "smooth_scan": _smooth_scan, "fibre_scan": _fibre_scan,
    "consistency": _consistency, "classes": _classes, "membership": _membership,
    "count_base2": _count, "count_base3": _count, "digits_base10": _digits,
}
