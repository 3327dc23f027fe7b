"""Config-driven experiment runner.

Every subcommand reads one JSON config, writes deterministic artifacts
into the output directory, and exits 0 on success, 2 on validation
problems, 3 on budget exhaustion. Errors are emitted as one-line JSON
diagnostics on stderr. Output files carry the config hash and master seed
in their header block, and reruns with the same config and seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import decay as decay_mod
from . import disintegrate as dis
from . import equidist as eq
from . import measure as meas
from . import pushforward as push
from . import svg as svg_mod
from .ifs import (CIFS, AffineMap, SmoothMap, BudgetExhausted, ValidationError,
                  build_fibre_product, fibre_product_from_1d,
                  cantor_system, dyadic_uniform_system)
from .rng import spawn_seed

ENV_PREFIX = "FFL_"
VERIFY_STREAM = 0x7E21F  # the stream family of verify's Monte Carlo draws
SCAN_KEYS = {"xi_min", "xi_max", "points", "tol"}
EVALUATOR_KEYS = {"method", "draws", "factors"}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def check_keys(section: dict, allowed: set, where: str):
    if not isinstance(section, dict):
        raise ValidationError(f"{where} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {sorted(unknown)}")


def integral(key: str, value) -> int:
    """An integer config value: 1e5 is 100000, but a bool, a string or a
    fraction such as 3.9 is rejected, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or int(value) != value:
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def within_budget(key: str, value, budget: int) -> int:
    """An integer config value that sizes an allocation, checked before it is used."""
    value = integral(key, value)
    if value > budget:
        raise BudgetExhausted(f"{key} = {value} exceeds the budget {budget}")
    return value


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be an object")
    return cfg


def build_system(section: dict):
    check_keys(section, {"kind", "name", "maps", "weights", "tail_mass",
                         "base", "fibres", "n_max"}, "system")
    kind = section.get("kind")
    if kind == "named":
        name = section.get("name")
        builders = {"cantor": cantor_system, "dyadic-uniform": dyadic_uniform_system}
        if name not in builders:
            raise ValidationError(f"unknown named system {name!r}")
        return builders[name]()
    if kind in ("affine1d", "smooth1d"):
        maps = {}
        for i, entry in enumerate(section.get("maps", [])):
            if kind == "affine1d":
                check_keys(entry, {"ratio", "translate"}, f"system.maps[{i}]")
                maps[i] = AffineMap(float(entry["ratio"]), float(entry["translate"]))
            else:
                check_keys(entry, {"expr", "var", "declared_bound"}, f"system.maps[{i}]")
                maps[i] = SmoothMap.from_expr(entry["expr"], entry.get("var", "x"),
                                              declared_bound=entry.get("declared_bound"))
        wlist = section.get("weights")
        if wlist is None or len(wlist) != len(maps):
            raise ValidationError("weights must match the map list")
        return CIFS(tuple(maps), maps, {i: float(w) for i, w in enumerate(wlist)},
                    tail_mass=float(section.get("tail_mass", 0.0)))
    if kind == "fibre_product":
        base = {}
        for i, entry in enumerate(section.get("base", [])):
            check_keys(entry, {"id", "ratio", "translate"}, f"system.base[{i}]")
            base[str(entry["id"])] = AffineMap(float(entry["ratio"]),
                                               float(entry["translate"]))
        fibres, weights = {}, {}
        for i, entry in enumerate(section.get("fibres", [])):
            check_keys(entry, {"base", "id", "ratio", "translate", "weight"},
                       f"system.fibres[{i}]")
            j, l = str(entry["base"]), str(entry["id"])
            fibres.setdefault(j, {})[l] = AffineMap(float(entry["ratio"]),
                                                    float(entry["translate"]))
            weights[(j, l)] = float(entry["weight"])
        return build_fibre_product(base, fibres, weights,
                                   n_max=integral("n_max", section.get("n_max", 8)))
    raise ValidationError(f"unknown system kind {kind!r}")


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def g17(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path: Path, tool: str, cfg_hash: str, seed: int,
              header: str, rows):
    lines = [f"# ffl {tool}", f"# config_sha256: {cfg_hash}", f"# seed: {seed}",
             header]
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, tool: str, cfg_hash: str, seed: int, payload):
    doc = {"tool": f"ffl {tool}", "config_sha256": cfg_hash, "seed": seed,
           "result": payload}
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def fourier_rows(values) -> list:
    rows = []
    for fv in values:
        rows.append(",".join([g17(fv.frequency), g17(fv.value.real),
                              g17(fv.value.imag), g17(abs(fv.value)),
                              g17(fv.error_bound), fv.kind]))
    return rows


# ---------------------------------------------------------------------------
# evaluator construction
# ---------------------------------------------------------------------------

def make_evaluator(system, scan: dict, seed: int, budget: int, map_section=None):
    """The scan section's evaluator: a callable xis -> list with one
    FourierValue, or BudgetExhausted, per frequency, which hands the whole
    batch to one call of the method's evaluator f(system, xis, ...)."""
    method = scan.get("method", "exact")
    tol = float(scan.get("tol", 1e-6))
    if method == "exact":
        return lambda xis: meas.fourier_exact_batch(system, xis, tol=tol, budget=budget)
    if method == "montecarlo":
        draws = within_budget("draws", scan.get("draws", 100_000), budget)
        return lambda xis: meas.fourier_montecarlo(system, xis, draws, seed)
    if method == "product":
        factors = within_budget("factors", scan.get("factors", 64), budget)
        return lambda xis: meas.fourier_product_homogeneous(system, xis, factors)
    if method == "pushforward":
        if map_section is None:
            raise ValidationError("pushforward method needs a map section")
        check_keys(map_section, {"expr", "fibre_var"}, "map")
        F = push.SmoothMapF.parse(map_section["expr"],
                                  fibre_var=map_section.get("fibre_var"))
        return lambda xis: push.pushforward_fourier(F, system, xis, tol=tol, budget=budget)
    raise ValidationError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fourier_scan(cfg, out, seed, budget, method=None):
    """Write the scan CSV of a uniform frequency grid; pushforward-scan fixes
    ``method``, and its scan section takes no evaluator keys."""
    section = cfg.get("scan", {})
    if method is None:
        check_keys(section, SCAN_KEYS | EVALUATOR_KEYS, "scan")
        tool, name = "fourier-scan", "scan.csv"
    else:
        check_keys(section, SCAN_KEYS, "scan")
        section = dict(section, method=method)
        tool, name = f"{method}-scan", f"{method}.csv"
    system = build_system(cfg.get("system", {}))
    lo, hi = float(section["xi_min"]), float(section["xi_max"])
    points = within_budget("points", section["points"], budget)
    if not (math.isfinite(hi - lo) and points >= 1):
        raise ValidationError("a scan needs a finite frequency range and points >= 1")
    xis = np.linspace(lo, hi, points)
    evaluator = make_evaluator(system, section, seed, budget,
                               map_section=cfg.get("map"))
    values = meas.require_values(evaluator(xis))
    write_csv(out / name, tool, config_hash(cfg), seed,
              "xi,re,im,abs,err,err_kind", fourier_rows(values))
    return 0


def cmd_disintegrate(cfg, out, seed, budget, action):
    section = cfg.get("disintegrate", {})
    check_keys(section, {"block_length", "xis", "n_sequences", "alpha",
                         "prefix_length", "horizon_min", "horizon_max", "xi",
                         "trunc_tol"}, "disintegrate")
    fp = fibre_product_from_1d(build_system(cfg.get("system", {})))
    k = integral("block_length", section.get("block_length", 4))
    h = config_hash(cfg)
    if action in ("sample", "membership", "ek"):
        length = within_budget("prefix_length",
                               section.get("prefix_length", 256 if action == "ek" else 64), budget)
    if action == "consistency":  # builds its own class table, reads no alpha
        xis = [float(x) for x in section.get("xis", [1.0, 2.0, 5.0])]
        n_seq = within_budget("n_sequences", section.get("n_sequences", 1000), budget)
        rep = dis.disintegration_consistency(
            fp, k, xis, n_seq, seed=seed,
            trunc_tol=float(section.get("trunc_tol", 1e-6)))
        write_json(out / "consistency.json", "disintegrate consistency", h, seed,
                   rep.to_jsonable())
        return 0

    table = dis.build_classes(fp, k, budget=min(budget, dis.CLASS_BUDGET))

    if action == "classes":
        payload = {
            "block_length": k,
            "fold": fp.fold,
            "classes": [
                {"representative": repr(tuple(fp.alphabet[j] for j in table.representatives[i])),
                 "size": int(table.sizes[i]), "ratio": float(table.ratios[i]),
                 "translates": table.translates(i).tolist(), "weight": float(table.weights[i])}
                for i in range(len(table))
            ],
        }
        write_json(out / "classes.json", "disintegrate classes", h, seed, payload)
        return 0

    alpha = section.get("alpha")
    if alpha is None:
        alpha, _rep = dis.calibrate_alpha(table, seed=seed)
    params = dis.LargeDeviationParams.for_table(table, float(alpha))

    if action == "sample":
        om = dis.sample_omega(table, length, seed=seed)
        payload = {
            "alpha": float(alpha),
            "classes": [int(i) for i in om.indices],
            "cumulative_ratios": [float(r) for r in om.cum_ratios],
            "base_point": om.base_point,
        }
        write_json(out / "omega.json", "disintegrate sample", h, seed, payload)
        return 0

    if action == "membership":
        lo = integral("horizon_min", section.get("horizon_min", 1))
        hi = integral("horizon_max", section.get("horizon_max", length))
        om = dis.sample_omega(table, length, seed=seed)
        rep = dis.check_omega_membership(om, params, np.arange(lo, hi + 1))
        payload = {"alpha": float(alpha), "aggregate": rep.aggregate,
                   "all_ok": rep.all_ok,
                   "horizons": [int(n) for n in rep.horizons],
                   "flags": {
                       "large_classes": rep.large_classes.tolist(),
                       "ratio_product": rep.ratio_product.tolist(),
                       "ratio_floor": rep.ratio_floor.tolist(),
                       "small_ratio_product": rep.small_ratio_product.tolist()}}
        write_json(out / "membership.json", "disintegrate membership", h, seed, payload)
        return 0

    if action == "ek":
        xi = float(section.get("xi", 729.0))
        om = dis.sample_omega(table, length, seed=seed)
        d = dis.ek_diagnostics(om, xi, params)
        payload = {
            "alpha": float(alpha), "xi": d.frequency, "band_limit": d.band_limit,
            "n_eff": d.n_eff, "band_index": d.band_index,
            "level_ratio": d.level_ratio,
            "decay_levels": d.decay_levels.tolist(),
            "integer_parts": d.integer_parts.tolist(),
            "fractional_parts": d.fractional_parts.tolist(),
            "near_integer_tol": d.near_integer_tol,
            "near_integer_levels": d.near_integer_levels.tolist(),
        }
        write_json(out / "ek.json", "disintegrate ek", h, seed, payload)
        return 0
    raise ValidationError(f"unknown disintegrate action {action!r}")


def cmd_equidist(cfg, out, seed, budget, action):
    section = cfg.get("equidist", {})
    check_keys(section, {"base", "gamma", "rate", "horizon", "seeds",
                         "harmonics", "epsilon", "terms"}, "equidist")
    rate = eq.RateFn.parse(section.get("rate", "(mul 0.1 (pow n 0))"))
    gamma = float(section.get("gamma", 0.0))
    horizon = within_budget("horizon", section.get("horizon", 1000), budget)
    base = section.get("base", 2)  # uncast: int() would run base 2.5 as base 2
    if "terms" in section:
        spec = eq.EquidistSpec.explicit(section["terms"], gamma, rate, horizon)
    else:
        spec = eq.EquidistSpec.geometric(base, gamma, rate, horizon)
    n_seeds = within_budget("seeds", section.get("seeds", 1), budget)
    if n_seeds < 1:
        raise ValidationError("seeds must be >= 1")
    epsilon = float(section.get("epsilon", 1.0))
    h = config_hash(cfg)

    if action == "count":
        rows, devs = [], []
        for i in range(n_seeds):
            gp = eq.grid_point_for(spec, seed=spawn_seed(seed, i))
            res = eq.count_hits(gp, spec, epsilon=epsilon)
            # int true division is correctly rounded at any size
            x_repr = g17(gp.numerator / (1 << gp.bits))
            rows.append(",".join([str(i), x_repr, str(res.horizon), str(res.count),
                                  g17(res.two_sigma), g17(res.deviation_half)]))
            devs.append(res.deviation_half)
        write_csv(out / "count.csv", "equidist count", h, seed,
                  "seed,x,N,count,two_sigma,deviation", rows)
        payload = {"pass_fraction_unit_band":
                   float(np.mean(np.abs(devs) <= 1.0)) if devs else None,
                   "epsilon": epsilon, "n_seeds": n_seeds}
        write_json(out / "count_summary.json", "equidist count", h, seed, payload)
        return 0

    if action == "weyl":
        harmonics = within_budget("harmonics", section.get("harmonics", 5), budget)
        # weyl_sums holds one phase per harmonic and step
        within_budget("harmonics*horizon", harmonics * horizon, budget)
        rows = []
        for i in range(n_seeds):
            gp = eq.grid_point_for(spec, seed=spawn_seed(seed, i))
            sums = eq.weyl_sums(gp, spec, harmonics)
            rows.append(",".join([str(i)] + [g17(s) for s in sums]))
        write_csv(out / "weyl.csv", "equidist weyl", h, seed,
                  "seed," + ",".join(f"h{j}" for j in range(1, harmonics + 1)), rows)
        return 0

    if action == "digits":
        # the histogram and the CSV hold one column per possible digit
        base = spec.base or eq.EquidistSpec.geometric(base, gamma, rate, horizon).base
        if base > horizon:
            raise ValidationError(f"base {base} exceeds horizon {horizon}, the digit count")
        rows = []
        for i in range(n_seeds):
            gp = eq.random_grid_point(horizon * base.bit_length() + 128,
                                      seed=spawn_seed(seed, i))
            d = eq.digit_freq(gp, base, horizon, keep_digits=False)
            rows.append(",".join([str(i)] + [str(int(c)) for c in d.histogram]
                                 + [g17(d.chi_square)]))
        write_csv(out / "digits.csv", "equidist digits", h, seed,
                  "seed," + ",".join(f"d{j}" for j in range(d.base)) + ",chi_square",
                  rows)
        return 0
    raise ValidationError(f"unknown equidist action {action!r}")


def cmd_decay(cfg, out, seed, budget, action):
    section = cfg.get("decay", {})
    check_keys(section, {"band_base", "band_min", "band_max", "samples_per_band",
                         "method", "tol", "draws", "factors", "exponent", "limit",
                         "grid_step", "family_base", "family", "count"}, "decay")
    system = build_system(cfg.get("system", {}))
    evaluator = make_evaluator(system, section, seed, budget,
                               map_section=cfg.get("map"))
    h = config_hash(cfg)

    if action in ("bands", "fit"):
        base = float(section.get("band_base", 2.0))
        jlo = integral("band_min", section.get("band_min", 2))
        jhi = integral("band_max", section.get("band_max", 8))
        samples = within_budget("samples_per_band", section.get("samples_per_band", 64), budget)
        # band_maxima lists the band indices, writes one record per band and
        # hands every band's samples to the evaluator as one batch
        within_budget("band_max-band_min+1", jhi - jlo + 1, budget)
        within_budget("(band_max-band_min+1)*samples_per_band", (jhi - jlo + 1) * samples,
                      budget)
        bands = decay_mod.band_maxima(evaluator, range(jlo, jhi + 1), samples,
                                      seed=seed, band_base=base)
        payload = {"bands": [
            {"index": b.index, "lower": b.lower, "upper": b.upper, "peak": b.peak,
             "peak_frequency": b.peak_frequency, "samples": b.samples,
             "excluded": b.excluded, "max_error_bound": b.max_error_bound}
            for b in bands]}
        if action == "fit":
            fit = decay_mod.fit_eta(bands)
            payload.update({"eta_hat": fit.exponent, "eta_se": fit.stderr,
                            "prefactor": fit.prefactor, "r_squared": fit.r_squared,
                            "bands_used": fit.bands_used})
        write_json(out / f"decay_{action}.json", f"decay {action}", h, seed, payload)
        kept = [b for b in bands if b.peak is not None]  # a band with no sample has no point
        xs, ys = [b.lower for b in kept], [max(b.peak, 1e-300) for b in kept]
        svg = svg_mod.log_log_plot([(xs, ys, "band max")], title="band maxima",
                                   x_label="frequency", y_label="|transform|",
                                   comment=f"config_sha256 {h} seed {seed}")
        (out / f"decay_{action}.svg").write_text(svg, encoding="utf-8")
        return 0

    if action == "sparse":
        limit = float(section.get("limit", 64.0))
        exponent = float(section.get("exponent", 0.1))
        step = float(section.get("grid_step", 0.25))
        cover = decay_mod.sparse_cover(evaluator, limit, exponent, step, budget)
        payload = {"limit": cover.limit, "exponent": cover.threshold_exponent,
                   "threshold": cover.threshold, "count": cover.count,
                   "grid_step": cover.grid_step,
                   "marked": cover.marked.tolist()}
        write_json(out / "sparse.json", "decay sparse", h, seed, payload)
        return 0

    if action == "probe":
        if "family" in section:
            family = [float(f) for f in section["family"]]
            count = None
        else:
            family = ("geometric", float(section.get("family_base", 2.0)))
            count = within_budget("count", section.get("count", 11), budget)
        values = decay_mod.rajchman_probe(evaluator, family, count)
        write_csv(out / "probe.csv", "decay probe", h, seed,
                  "xi,re,im,abs,err,err_kind", fourier_rows(values))
        return 0
    raise ValidationError(f"unknown decay action {action!r}")


def cmd_conjugate(cfg, out, seed, budget):
    section = cfg.get("map", {})
    check_keys(section, {"expr", "inverse", "fibre_var", "draws", "ks_tol"}, "map")
    system = build_system(cfg.get("system", {}))
    F = push.SmoothMapF.parse(section["expr"], fibre_var=section.get("fibre_var"))
    res = push.conjugate_ifs(system, F, section["inverse"],
                             draws=within_budget("draws", section.get("draws", 100_000), budget),
                             ks_tol=float(section.get("ks_tol", 0.02)), seed=seed)
    h = config_hash(cfg)
    maps_payload = []
    for a in res.system.alphabet:
        m = res.system.maps[a]
        if isinstance(m, AffineMap):
            maps_payload.append({"kind": "affine", "ratio": m.ratio,
                                 "translate": m.translate})
        else:
            maps_payload.append({"kind": "smooth", "expr": m.expr.to_prefix()})
    write_json(out / "conjugate.json", "conjugate", h, seed,
               {"ks_statistic": res.ks_statistic, "maps": maps_payload})
    return 0


def cmd_report(cfg, out, seed, budget):
    h = config_hash(cfg)
    made = 0
    for csv_path in sorted(out.glob("*.csv")):
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        body = [l for l in lines if l and not l.startswith("#")]
        if not body or not body[0].startswith("xi,"):
            continue
        xs, ys = [], []
        for line in body[1:]:
            parts = line.split(",")
            xs.append(abs(float(parts[0])))
            ys.append(float(parts[3]))
        ys = [max(y, 1e-300) for y in ys]
        pos = [(x, y) for x, y in zip(xs, ys) if x > 0]
        if not pos:
            continue
        svg = svg_mod.log_log_plot(
            [([p[0] for p in pos], [p[1] for p in pos], csv_path.stem)],
            title=csv_path.stem, x_label="frequency", y_label="|transform|",
            comment=f"config_sha256 {h} seed {seed} source {csv_path.name}")
        csv_path.with_suffix(".svg").write_text(svg, encoding="utf-8")
        made += 1
    if made == 0:
        raise ValidationError(f"no scan CSV files found under {out}")
    return 0


def cmd_verify(cfg, out, seed, budget):
    """Re-evaluate a deterministic 1% of scan rows against their error bars.

    Monte Carlo rows are re-drawn from a stream family of their own, so the
    check compares two independent estimates.
    """
    section = cfg.get("scan", {})
    check_keys(section, SCAN_KEYS | EVALUATOR_KEYS, "scan")
    system = build_system(cfg.get("system", {}))
    evaluator = make_evaluator(system, section, spawn_seed(seed, VERIFY_STREAM),
                               budget, map_section=cfg.get("map"))
    path = out / "scan.csv"
    if not path.exists():
        raise ValidationError(f"{path} does not exist; run fourier-scan first")
    body = [l for l in path.read_text(encoding="utf-8").splitlines()
            if l and not l.startswith("#")][1:]
    step = max(1, len(body) // max(1, len(body) // 100))
    rows = [[float(v) for v in line.split(",")[:5]] for line in body[::step]]
    fresh = meas.require_values(evaluator([row[0] for row in rows]))
    failures = []
    for (xi, re_v, im_v, _abs, err), fv in zip(rows, fresh):
        gap = abs(complex(re_v, im_v) - fv.value)
        if gap > err + fv.error_bound + 1e-15:
            failures.append({"xi": xi, "gap": gap,
                             "allowed": err + fv.error_bound})
    write_json(out / "verify.json", "verify", config_hash(cfg), seed,
               {"checked": len(rows), "failures": failures})
    if failures:
        raise ValidationError(f"{len(failures)} of {len(rows)} rows violate "
                              "their error bounds")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _env_default(name: str, cast, fallback):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    return cast(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ffl",
        description="fractal-measure Fourier workbench experiment runner")
    parser.add_argument("command", choices=[
        "fourier-scan", "pushforward-scan", "disintegrate", "equidist",
        "decay", "conjugate", "report", "verify"])
    parser.add_argument("action", nargs="?", default=None,
                        help="subaction for disintegrate/equidist/decay")
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--budget", type=int, default=None,
                        help="enumeration budget per evaluation")
    args = parser.parse_args(argv)

    try:
        config_path = args.config or _env_default("CONFIG", str, None)
        if config_path is None:
            raise ValidationError("--config (or FFL_CONFIG) is required")
        cfg = load_config(config_path)
        check_keys(cfg, {"system", "scan", "map", "disintegrate", "equidist",
                         "decay", "seed", "out"}, "config")
        out_dir = (args.out or _env_default("OUT", str, None)
                   or cfg.get("out") or ".")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        seed = (args.seed if args.seed is not None
                else _env_default("SEED", int, None))
        if seed is None:
            seed = integral("seed", cfg.get("seed", 0))
        budget = (args.budget if args.budget is not None
                  else _env_default("BUDGET", int, meas.DEFAULT_BUDGET))
        if budget < 0:
            raise ValidationError(f"the budget must not be negative, got {budget}")

        cmd = args.command
        if cmd == "fourier-scan":
            return cmd_fourier_scan(cfg, out, seed, budget)
        if cmd == "pushforward-scan":
            return cmd_fourier_scan(cfg, out, seed, budget, method="pushforward")
        if cmd == "disintegrate":
            return cmd_disintegrate(cfg, out, seed, budget, args.action or "classes")
        if cmd == "equidist":
            return cmd_equidist(cfg, out, seed, budget, args.action or "count")
        if cmd == "decay":
            return cmd_decay(cfg, out, seed, budget, args.action or "bands")
        if cmd == "conjugate":
            return cmd_conjugate(cfg, out, seed, budget)
        if cmd == "report":
            return cmd_report(cfg, out, seed, budget)
        if cmd == "verify":
            return cmd_verify(cfg, out, seed, budget)
        raise ValidationError(f"unknown command {cmd!r}")
    except BudgetExhausted as err:
        error = {"kind": "budget", "message": str(err)}
        if err.achieved is not None:
            error["achieved"] = err.achieved
        print(json.dumps({"error": error}), file=sys.stderr)
        return 3
    except (ValueError, TypeError, KeyError, OverflowError, FileNotFoundError,
            RecursionError) as err:
        # a config value of the wrong type or range fails its cast or its
        # validator with one of these; ValidationError is a ValueError, and
        # an expression nested too deeply to parse or walk is a RecursionError
        print(json.dumps({"error": {"kind": "validation",
                                    "message": f"{type(err).__name__}: {err}"}}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
