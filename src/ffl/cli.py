"""Config-driven experiment runner.

Every subcommand reads one JSON config, writes deterministic artifacts
into the output directory, and exits 0 on success, 2 on validation
problems (usage errors included), 3 on budget exhaustion or a failed
allocation. Errors are emitted as one-line JSON diagnostics on stderr.
Output files carry the config hash and master seed in their header
block, and reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .ifs import (CIFS, DEFAULT_BUDGET, AffineMap, SmoothMap, BudgetExhausted,
                  ValidationError, build_fibre_product, fibre_product_from_1d,
                  cantor_system, dyadic_uniform_system)
from .rng import spawn_seed

ENV_PREFIX = "FFL_"
VERIFY_STREAM = 0x7E21F  # the stream family of verify's Monte Carlo draws


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

# the types of config values, as diagnostics name them
REAL, INT, TEXT, EXPR = "a finite real", "an integer", "a string", "an expression"
REALS, INTS = "a list of finite reals", "a list of integers"
OBJECT, OBJECTS = "an object", "a list of objects"
# defaults that are no value: the key must be given, or its absence means
# something of its own (a geometric family or sequence, or the prefix length)
REQUIRED, OPTIONAL = "required", "optional"


class Key(NamedTuple):
    """A config key: its type, its default (None lets it be null), its least
    value, and whether it sizes an allocation, checked against the budget."""

    kind: str
    default: object = REQUIRED
    least: int | None = None
    sized: bool = False


EVALUATOR = {  # the keys ``make_evaluator`` reads, in the scan and decay sections
    "method": Key(TEXT, "exact"), "tol": Key(REAL, 1e-6),
    "draws": Key(INT, 100_000, sized=True), "factors": Key(INT, 64, sized=True)}
SCHEMA = {  # one table per config section
    "config": {"system": Key(OBJECT, {}), "scan": Key(OBJECT, {}), "map": Key(OBJECT, {}),
               "disintegrate": Key(OBJECT, {}), "equidist": Key(OBJECT, {}),
               "decay": Key(OBJECT, {}), "seed": Key(INT, 0), "out": Key(TEXT, ".")},
    "system": {"kind": Key(TEXT), "name": Key(TEXT), "maps": Key(OBJECTS, ()),
               "weights": Key(REALS), "tail_mass": Key(REAL, 0.0),
               "base": Key(OBJECTS, ()), "fibres": Key(OBJECTS, ()), "n_max": Key(INT, 8)},
    "system.maps (affine1d)": {"ratio": Key(REAL), "translate": Key(REAL)},
    "system.maps (smooth1d)": {"expr": Key(EXPR), "var": Key(TEXT, "x"),
                               "declared_bound": Key(REAL, None)},
    "system.base": {"id": Key(TEXT), "ratio": Key(REAL), "translate": Key(REAL)},
    "system.fibres": {"base": Key(TEXT), "id": Key(TEXT), "ratio": Key(REAL),
                      "translate": Key(REAL), "weight": Key(REAL)},
    "scan": {"xi_min": Key(REAL), "xi_max": Key(REAL), "points": Key(INT, least=1, sized=True),
             **EVALUATOR},
    "map": {"expr": Key(EXPR), "fibre_var": Key(TEXT, None), "inverse": Key(EXPR),
            "draws": Key(INT, 100_000, sized=True), "ks_tol": Key(REAL, 0.02)},
    "decay": {**EVALUATOR, "band_base": Key(REAL, 2.0), "band_min": Key(INT, 2),
              "band_max": Key(INT, 8), "samples_per_band": Key(INT, 64, sized=True),
              "exponent": Key(REAL, 0.1), "limit": Key(REAL, 64.0),
              "grid_step": Key(REAL, 0.25), "family_base": Key(REAL, 2.0),
              "family": Key(REALS, OPTIONAL), "count": Key(INT, 11, sized=True)},
    "disintegrate": {"block_length": Key(INT, 4), "xis": Key(REALS, (1.0, 2.0, 5.0)),
                     "n_sequences": Key(INT, 1000, sized=True), "alpha": Key(REAL, None),
                     "prefix_length": Key(INT, 64, sized=True),  # 256 for ek
                     "horizon_min": Key(INT, 1),
                     "horizon_max": Key(INT, OPTIONAL),  # the prefix length
                     "xi": Key(REAL, 729.0), "trunc_tol": Key(REAL, 1e-6)},
    "equidist": {"base": Key(INT, 2), "gamma": Key(REAL, 0.0),
                 "rate": Key(EXPR, "(mul 0.1 (pow n 0))"),
                 "horizon": Key(INT, 1000, sized=True),
                 "seeds": Key(INT, 1, least=1, sized=True), "harmonics": Key(INT, 5, sized=True),
                 "epsilon": Key(REAL, 1.0), "terms": Key(INTS, OPTIONAL)},
}


def typed(path: str, kind: str, value):
    """``value`` as a ``kind`` (a real as a float, an integer as an int: 1e5
    reads as 100000), or exit 2: a bool, a string, a non-finite real or a
    fraction is no number of its kind."""
    if kind in (REALS, INTS) and isinstance(value, list):
        return [typed(f"{path}[{i}]", REAL if kind == REALS else INT, v)
                for i, v in enumerate(value)]
    if kind == REAL and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if kind == INT and (type(value) is int or type(value) is float and value.is_integer()):
        return int(value)
    if isinstance(value, {TEXT: str, EXPR: str, OBJECT: dict, OBJECTS: list}.get(kind, ())):
        return value
    raise ValidationError(f"{path} must be {kind}, got {value!r}")


class Section(dict):
    """The config reader: the typed values of the section ``raw``, read
    against its table ``SCHEMA[name]`` (or only the table's ``keys``). An
    unknown key, a value of the wrong type or below its least, or a taken key
    that is absent and has no default exits 2, naming the key with its path
    under ``where`` (``name`` by default). A key that sizes an allocation is
    checked against the budget when a command takes it (exit 3)."""

    def __init__(self, raw, name: str, budget: int, where: str | None = None, keys=None):
        where = where or name
        self.raw, self.table, self.budget = raw, SCHEMA[name], budget
        self.prefix = "" if where == "config" else where + "."
        if not isinstance(raw, dict):
            raise ValidationError(f"{where} must be an object")
        unknown = set(raw) - set(keys or self.table)
        if unknown:
            raise ValidationError(f"unknown keys in {where}: {sorted(unknown)}")
        for key, value in raw.items():
            spec, path = self.table[key], self.prefix + key
            if value is not None or spec.default is not None:
                value = typed(path, spec.kind, value)
            if spec.least is not None and value < spec.least:
                raise ValidationError(f"{path} must be >= {spec.least}, got {value!r}")
            self[key] = value

    def __missing__(self, key):
        default = self.table[key].default
        if default in (REQUIRED, OPTIONAL):
            raise ValidationError(f"{self.prefix}{key} is required")
        return dict(default) if isinstance(default, dict) else default  # a fresh {} per read

    def __getitem__(self, key):
        value = super().__getitem__(key)
        return self.charge(self.prefix + key, value) if self.table[key].sized else value

    def charge(self, name: str, size: int) -> int:
        if size > self.budget:
            raise BudgetExhausted(f"{name} = {size} exceeds the budget {self.budget}")
        return size


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def smooth_map(e: Section) -> SmoothMap:
    """The smooth map of a read ``system.maps`` entry; one the validator
    rejects is named by its entry's ``expr``."""
    try:
        return SmoothMap.from_expr(e["expr"], e["var"], declared_bound=e["declared_bound"])
    except ValidationError as exc:
        raise ValidationError(f"{e.prefix}expr {e['expr']}: {exc}") from None


def build_system(section: dict):
    s = Section(section, "system", 0)  # no system key sizes an allocation
    kind = s["kind"]
    if kind == "named":
        builders = {"cantor": cantor_system, "dyadic-uniform": dyadic_uniform_system}
        if s["name"] not in builders:
            raise ValidationError(f"unknown named system {s['name']!r}")
        return builders[s["name"]]()
    entries = lambda key, name: [Section(e, name, 0, where=f"system.{key}[{i}]")
                                 for i, e in enumerate(s[key])]
    if kind in ("affine1d", "smooth1d"):
        maps = dict(enumerate(
            AffineMap(e["ratio"], e["translate"]) if kind == "affine1d" else smooth_map(e)
            for e in entries("maps", f"system.maps ({kind})")))
        if len(s["weights"]) != len(maps):
            raise ValidationError("weights must match the map list")
        return CIFS(tuple(maps), maps, dict(enumerate(s["weights"])),
                    tail_mass=s["tail_mass"])
    if kind == "fibre_product":
        base = {e["id"]: AffineMap(e["ratio"], e["translate"])
                for e in entries("base", "system.base")}
        fibres, weights = {}, {}
        for e in entries("fibres", "system.fibres"):
            fibres.setdefault(e["base"], {})[e["id"]] = AffineMap(e["ratio"], e["translate"])
            weights[(e["base"], e["id"])] = e["weight"]
        return build_fibre_product(base, fibres, weights, n_max=s["n_max"])
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

def make_evaluator(system, section: Section, seed: int, budget: int, map_section=None):
    """The evaluator of a read scan or decay section: a callable xis -> list
    with one FourierValue, or BudgetExhausted, per frequency, which hands
    the whole batch to one call of the method's evaluator f(system, xis, ...)."""
    from . import measure as meas
    method, tol = section["method"], section["tol"]
    if method == "exact":
        return lambda xis: meas.fourier_exact_batch(system, xis, tol=tol, budget=budget)
    if method == "montecarlo":
        draws = section["draws"]
        return lambda xis: meas.fourier_montecarlo(system, xis, draws, seed)
    if method == "product":
        factors = section["factors"]
        return lambda xis: meas.fourier_product_homogeneous(system, xis, factors)
    if method == "pushforward":
        from . import pushforward as push
        m = Section(map_section, "map", budget, keys=("expr", "fibre_var"))
        F = push.SmoothMapF.parse(m["expr"], fibre_var=m["fibre_var"])
        return lambda xis: push.pushforward_fourier(F, system, xis, tol=tol, budget=budget)
    raise ValidationError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fourier_scan(cfg, out, seed, budget, method=None):
    """Write the scan CSV of a uniform frequency grid; pushforward-scan fixes
    ``method``, and its scan section takes no evaluator keys."""
    from . import measure as meas
    s = Section(cfg["scan"], "scan", budget,
                keys=method and ("xi_min", "xi_max", "points", "tol"))
    if method:
        s["method"] = method
    system = build_system(cfg["system"])
    lo, hi = s["xi_min"], s["xi_max"]
    if not math.isfinite(hi - lo):
        raise ValidationError("the scan range xi_max - xi_min overflows a float")
    xis = np.linspace(lo, hi, s["points"])
    evaluator = make_evaluator(system, s, seed, budget, map_section=cfg["map"])
    values = meas.require_values(evaluator(xis))
    write_csv(out / f"{method or 'scan'}.csv", f"{method or 'fourier'}-scan",
              config_hash(cfg.raw), seed, "xi,re,im,abs,err,err_kind", fourier_rows(values))
    return 0


def cmd_disintegrate(cfg, out, seed, budget, action):
    from . import disintegrate as dis
    s = Section(cfg["disintegrate"], "disintegrate", budget)
    fp = fibre_product_from_1d(build_system(cfg["system"]))
    k, h = s["block_length"], config_hash(cfg.raw)
    if action == "ek":
        s.setdefault("prefix_length", 256)
    table = dis.build_classes(fp, k, budget=min(budget, dis.CLASS_BUDGET))

    if action == "consistency":  # reads no alpha
        rep = dis.disintegration_consistency(table, s["xis"], s["n_sequences"], seed,
                                             s["trunc_tol"], budget)
        write_json(out / "consistency.json", "disintegrate consistency", h, seed,
                   rep.to_jsonable())
        return 0

    if action == "classes":
        members = np.split(table.members, table.starts[1:])  # one slice per class
        payload = {
            "block_length": k,
            "fold": fp.fold,
            "classes": [
                {"representative": repr(tuple(fp.alphabet[j] for j in table.representatives[i])),
                 "size": int(table.sizes[i]), "ratio": float(table.ratios[i]),
                 "translates": members[i].tolist(), "weight": float(table.weights[i])}
                for i in range(len(table))
            ],
        }
        write_json(out / "classes.json", "disintegrate classes", h, seed, payload)
        return 0

    alpha = s["alpha"]
    if alpha is None:
        alpha, _rep = dis.calibrate_alpha(table)
    params = dis.LargeDeviationParams.for_table(table, alpha)
    om, = dis.sample_omegas(table, s["prefix_length"], seed, (0,))

    if action == "sample":
        payload = {
            "alpha": alpha,
            "classes": [int(i) for i in om.indices],
            "cumulative_ratios": [float(r) for r in om.cum_ratios],
            "base_point": om.base_point,
        }
        write_json(out / "omega.json", "disintegrate sample", h, seed, payload)
        return 0

    if action == "membership":
        s.setdefault("horizon_max", s["prefix_length"])
        rep = dis.check_omega_membership(om, params,
                                         np.arange(s["horizon_min"], s["horizon_max"] + 1))
        payload = {"alpha": alpha, "aggregate": rep.aggregate,
                   "all_ok": rep.all_ok,
                   "horizons": [int(n) for n in rep.horizons],
                   "flags": {name: flag.tolist() for name, flag in rep.flags.items()}}
        write_json(out / "membership.json", "disintegrate membership", h, seed, payload)
        return 0

    d = dis.ek_diagnostics(om, s["xi"], params)
    payload = {
        "alpha": alpha, "xi": d.frequency, "band_limit": d.band_limit,
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


def cmd_equidist(cfg, out, seed, budget, action):
    from . import equidist as eq
    s = Section(cfg["equidist"], "equidist", budget)
    rate = eq.RateFn.parse(s["rate"])
    horizon = s["horizon"]
    if "terms" in s:
        spec = eq.EquidistSpec.explicit(s["terms"], s["gamma"], rate, horizon)
    else:
        spec = eq.EquidistSpec.geometric(s["base"], s["gamma"], rate, horizon)
    n_seeds, h = s["seeds"], config_hash(cfg.raw)

    if action == "count":
        rows, devs = [], []
        for i in range(n_seeds):
            gp = eq.grid_point_for(spec, seed=spawn_seed(seed, i))
            res = eq.count_hits(gp, spec, epsilon=s["epsilon"])
            # int true division is correctly rounded at any size
            x_repr = g17(gp.numerator / (1 << gp.bits))
            rows.append(",".join([str(i), x_repr, str(res.horizon), str(res.count),
                                  g17(res.two_sigma), g17(res.deviation_half)]))
            devs.append(res.deviation_half)
        write_csv(out / "count.csv", "equidist count", h, seed,
                  "seed,x,N,count,two_sigma,deviation", rows)
        payload = {"pass_fraction_unit_band": float(np.mean(np.abs(devs) <= 1.0)),
                   "epsilon": s["epsilon"], "n_seeds": n_seeds}
        write_json(out / "count_summary.json", "equidist count", h, seed, payload)
        return 0

    if action == "weyl":
        harmonics = s["harmonics"]
        # weyl_sums holds one phase per harmonic and step
        s.charge("harmonics*horizon", harmonics * horizon)
        rows = []
        for i in range(n_seeds):
            gp = eq.grid_point_for(spec, seed=spawn_seed(seed, i))
            sums = eq.weyl_sums(gp, spec, harmonics)
            rows.append(",".join([str(i)] + [g17(x) for x in sums]))
        write_csv(out / "weyl.csv", "equidist weyl", h, seed,
                  "seed," + ",".join(f"h{j}" for j in range(1, harmonics + 1)), rows)
        return 0

    # digits: the histogram and the CSV hold one column per possible digit
    base = s["base"]
    if base > horizon:
        raise ValidationError(f"base {base} exceeds horizon {horizon}, the digit count")
    rows = []
    for i in range(n_seeds):
        gp = eq.random_grid_point(horizon * base.bit_length() + 128,
                                  seed=spawn_seed(seed, i))
        d = eq.digit_freq(gp, base, horizon)
        rows.append(",".join([str(i)] + [str(int(c)) for c in d.histogram]
                             + [g17(d.chi_square)]))
    write_csv(out / "digits.csv", "equidist digits", h, seed,
              "seed," + ",".join(f"d{j}" for j in range(d.base)) + ",chi_square",
              rows)
    return 0


def cmd_decay(cfg, out, seed, budget, action):
    from . import decay as decay_mod, svg as svg_mod
    s = Section(cfg["decay"], "decay", budget)
    system = build_system(cfg["system"])
    evaluator = make_evaluator(system, s, seed, budget, map_section=cfg["map"])
    h = config_hash(cfg.raw)

    if action in ("bands", "fit"):
        jlo, jhi, samples = s["band_min"], s["band_max"], s["samples_per_band"]
        # band_maxima lists the band indices, writes one record per band and
        # hands every band's samples to the evaluator as one batch
        s.charge("band_max-band_min+1", jhi - jlo + 1)
        s.charge("(band_max-band_min+1)*samples_per_band", (jhi - jlo + 1) * samples)
        bands = decay_mod.band_maxima(evaluator, range(jlo, jhi + 1), samples,
                                      seed=seed, band_base=s["band_base"])
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
        cover = decay_mod.sparse_cover(evaluator, s["limit"], s["exponent"], s["grid_step"],
                                       budget)
        payload = {"limit": cover.limit, "exponent": cover.threshold_exponent,
                   "threshold": cover.threshold, "count": cover.count,
                   "grid_step": cover.grid_step,
                   "marked": cover.marked.tolist()}
        write_json(out / "sparse.json", "decay sparse", h, seed, payload)
        return 0

    # probe
    if "family" in s:
        family, count = s["family"], None
    else:
        family, count = ("geometric", s["family_base"]), s["count"]
    values = decay_mod.rajchman_probe(evaluator, family, count)
    write_csv(out / "probe.csv", "decay probe", h, seed,
              "xi,re,im,abs,err,err_kind", fourier_rows(values))
    return 0


def cmd_conjugate(cfg, out, seed, budget):
    from . import pushforward as push
    s = Section(cfg["map"], "map", budget)
    system = build_system(cfg["system"])
    F = push.SmoothMapF.parse(s["expr"], fibre_var=s["fibre_var"])
    res = push.conjugate_ifs(system, F, s["inverse"], draws=s["draws"], ks_tol=s["ks_tol"],
                             seed=seed)
    h = config_hash(cfg.raw)
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


def read_scan(path: Path):
    """The rows of a scan CSV, each its first five cells (xi, re, im, abs,
    err) as floats; None for a CSV of another header. A row with fewer
    cells or a cell that is no finite number exits 2, naming the file and
    line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [(n, l) for n, l in enumerate(lines, 1) if l and not l.startswith("#")]
    if not body or not body[0][1].startswith("xi,"):
        return None
    rows = []
    for n, line in body[1:]:
        try:
            row = [float(v) for v in line.split(",")[:5]]
        except ValueError:
            row = []
        if len(row) < 5 or not all(map(math.isfinite, row)):
            raise ValidationError(f"{path}, line {n}: a scan row needs five finite numbers "
                                  f"xi,re,im,abs,err; got {line!r}")
        rows.append(row)
    return rows


def cmd_report(cfg, out, seed, budget):
    from . import svg as svg_mod
    h = config_hash(cfg.raw)
    made = 0
    for csv_path in sorted(out.glob("*.csv")):
        rows = read_scan(csv_path)
        if rows is None:
            continue
        pos = [(abs(r[0]), max(r[3], 1e-300)) for r in rows if abs(r[0]) > 0]
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
    from . import measure as meas
    s = Section(cfg["scan"], "scan", budget)
    system = build_system(cfg["system"])
    evaluator = make_evaluator(system, s, spawn_seed(seed, VERIFY_STREAM),
                               budget, map_section=cfg["map"])
    path = out / "scan.csv"
    rows = read_scan(path) if path.exists() else None
    if not rows:  # a scan of no rows has nothing to check
        raise ValidationError(f"{path} holds no scan; run fourier-scan first")
    rows = rows[::max(1, len(rows) // max(1, len(rows) // 100))]
    fresh = meas.require_values(evaluator([row[0] for row in rows]))
    failures = []
    for (xi, re_v, im_v, _abs, err), fv in zip(rows, fresh):
        gap = abs(complex(re_v, im_v) - fv.value)
        if gap > err + fv.error_bound + 1e-15:
            failures.append({"xi": xi, "gap": gap,
                             "allowed": err + fv.error_bound})
    write_json(out / "verify.json", "verify", config_hash(cfg.raw), seed,
               {"checked": len(rows), "failures": failures})
    if failures:
        raise ValidationError(f"{len(failures)} of {len(rows)} rows violate "
                              "their error bounds")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

ACTIONS = {  # each command's actions, the first its default; None: it takes none
    "fourier-scan": (None,), "pushforward-scan": (None,),
    "disintegrate": ("classes", "sample", "membership", "ek", "consistency"),
    "equidist": ("count", "weyl", "digits"), "decay": ("bands", "fit", "sparse", "probe"),
    "conjugate": (None,), "report": (None,), "verify": (None,)}


class Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 2 with the one-line diagnostic
        raise ValidationError(message)


@functools.lru_cache(maxsize=8)
def parser_for(config, out, seed, budget) -> Parser:
    """The command-line parser whose options fall back on these values of
    their FFL_* variables; argparse types a string default when it parses.
    One parser is built per distinct set of values and never changed."""
    p = Parser(prog="ffl", description="fractal-measure Fourier workbench experiment runner")
    p.add_argument("command", choices=ACTIONS)
    p.add_argument("action", nargs="?", default=None,
                   help="subaction for disintegrate/equidist/decay")
    p.add_argument("--config", default=config, help="JSON config path")
    p.add_argument("--out", default=out, help="output directory")
    p.add_argument("--seed", type=int, default=seed, help="master seed")
    p.add_argument("--budget", type=int, default=budget,
                   help="enumeration budget per evaluation")
    return p


def main(argv=None) -> int:
    parser = parser_for(*(os.environ.get(ENV_PREFIX + name)
                          for name in ("CONFIG", "OUT", "SEED", "BUDGET")))
    try:
        args = parser.parse_args(argv)
        cmd, actions = args.command, ACTIONS[args.command]
        action = args.action or actions[0]
        if action not in actions:
            raise ValidationError(f"unknown {cmd} action {action!r}; choose from {list(actions)}"
                                  if actions[0] else f"{cmd} takes no action, got {action!r}")
        if args.config is None:
            raise ValidationError("--config (or FFL_CONFIG) is required")
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = Section(json.load(fh), "config", 0)  # no top-level key sizes an allocation
        out = Path(args.out or cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        seed = cfg["seed"] if args.seed is None else args.seed
        budget = DEFAULT_BUDGET if args.budget is None else args.budget
        if budget < 0:
            raise ValidationError(f"the budget must not be negative, got {budget}")

        if cmd == "fourier-scan":
            return cmd_fourier_scan(cfg, out, seed, budget)
        if cmd == "pushforward-scan":
            return cmd_fourier_scan(cfg, out, seed, budget, method="pushforward")
        if cmd == "disintegrate":
            return cmd_disintegrate(cfg, out, seed, budget, action)
        if cmd == "equidist":
            return cmd_equidist(cfg, out, seed, budget, action)
        if cmd == "decay":
            return cmd_decay(cfg, out, seed, budget, action)
        if cmd == "conjugate":
            return cmd_conjugate(cfg, out, seed, budget)
        if cmd == "report":
            return cmd_report(cfg, out, seed, budget)
        return cmd_verify(cfg, out, seed, budget)
    except (BudgetExhausted, MemoryError) as err:  # MemoryError: an allocation no budget bounds
        error = {"kind": "budget" if isinstance(err, BudgetExhausted) else "memory",
                 "message": str(err) or type(err).__name__}
        if getattr(err, "achieved", None) is not None:
            error["achieved"] = err.achieved
        print(json.dumps({"error": error}), file=sys.stderr)
        return 3
    except (ValueError, TypeError, KeyError, OverflowError, FileNotFoundError,
            RecursionError) as err:
        # a library validator raises ValidationError, a ValueError; an
        # expression nested too deeply to parse or walk, a RecursionError
        print(json.dumps({"error": {"kind": "validation",
                                    "message": f"{type(err).__name__}: {err}"}}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
