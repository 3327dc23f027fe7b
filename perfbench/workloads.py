"""Workloads of the ffl benchmark: seeded configs and the commands of one pass.

Every config is generated from the workload seed given on the benchmark's
command line, with ``random.Random(seed)``, so the same seed always gives
the same inputs and the program never sees the seed itself except through
the configs. Sizes are chosen so that one pass takes about half a second
on a 2-core machine and seeded variation changes the work of a pass by a
few percent at most (windows move by a small factor in log scale).

``scale="tiny"`` shrinks every command to a few evaluations; the
benchmark's own tests use it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("spectral_exact", "pushforward_bands", "disintegration", "orbits")

CANTOR = {"kind": "named", "name": "cantor"}
# {x/2, x/3 + 2/3} with weights 1/2, 1/2: the two-ratio system, also the c04 system
TWO_RATIO = {"kind": "affine1d",
             "maps": [{"ratio": 0.5, "translate": 0.0},
                      {"ratio": 1 / 3, "translate": 2 / 3}],
             "weights": [0.5, 0.5]}
SMOOTH = {"kind": "smooth1d",
          "maps": [{"expr": "(mul 0.3 (add x (mul 0.2 (pow x 2))))"},
                   {"expr": "(add 0.6 (mul 0.3 x))"}],
          "weights": [0.5, 0.5]}
# the 3-symbol fibre product of the pushforward fibre-product test
FIBRE3 = {"kind": "fibre_product",
          "base": [{"id": "L", "ratio": 0.5, "translate": 0.0},
                   {"id": "R", "ratio": 0.5, "translate": 0.5}],
          "fibres": [{"base": "L", "id": "a", "ratio": 1 / 3, "translate": 0.0,
                      "weight": 1 / 3},
                     {"base": "L", "id": "b", "ratio": 1 / 3, "translate": 2 / 3,
                      "weight": 1 / 3},
                     {"base": "R", "id": "c", "ratio": 1 / 3, "translate": 1 / 3,
                      "weight": 1 / 3}]}
# the five-symbol fibre product of the c05 class-combinatorics criterion
FIBRE5 = {"kind": "fibre_product",
          "base": [{"id": "j", "ratio": 0.5, "translate": 0.0},
                   {"id": "i", "ratio": 0.4, "translate": 0.5}],
          "fibres": [{"base": "j", "id": "s1", "ratio": 1 / 3, "translate": 0.0,
                      "weight": 0.2},
                     {"base": "j", "id": "s2", "ratio": 1 / 3, "translate": 2 / 3,
                      "weight": 0.2},
                     {"base": "j", "id": "u", "ratio": 0.25, "translate": 0.3,
                      "weight": 0.2},
                     {"base": "i", "id": "v", "ratio": 0.3, "translate": 0.1,
                      "weight": 0.2},
                     {"base": "i", "id": "w", "ratio": 0.2, "translate": 0.6,
                      "weight": 0.2}]}
SQUARE = "(pow x 2)"
FIBRE_MAP = "(add (mul 0.5 x) (pow y 2))"
HALF_OVER_N = "(div 1 (mul 2 n))"

SIZES = {
    "full": {"cantor_points": 128, "two_points": 16, "sparse_power": 5,
             "band_max": 6, "fibre_points": 2,
             "sequences": 500, "class_block": 3,
             "b2_horizon": 100_000, "b2_seeds": 3,
             "b3_horizon": 5_000, "b3_seeds": 3,
             "b10_horizon": 5_000, "b10_seeds": 3},
    "tiny": {"cantor_points": 8, "two_points": 2, "sparse_power": 2,
             "band_max": 6, "fibre_points": 1,
             "sequences": 50, "class_block": 2,
             "b2_horizon": 2_000, "b2_seeds": 2,
             "b3_horizon": 500, "b3_seeds": 2,
             "b10_horizon": 500, "b10_seeds": 2},
}


@dataclass
class Command:
    """One CLI call: ``ffl <argv> --config <out>/<name>.json --out <out>``."""

    name: str
    argv: list
    config: dict
    out: str                    # output subdirectory, shared by scan and verify
    artifacts: list = field(default_factory=list)

    def cli_args(self, workdir: Path) -> list:
        return self.argv + ["--config", str(workdir / f"{self.name}.json"),
                            "--out", str(workdir / self.out)]


def _window(rng: random.Random, lo: float, hi: float, factor: float):
    """[a, factor*a] with a log-uniform in [lo, hi]."""
    a = lo * (hi / lo) ** rng.random()
    return round(a, 6), round(a * factor, 6)


def commands(workload: str, seed: int, scale: str = "full") -> list:
    """The command list of one pass, in order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    z = SIZES[scale]
    rng = random.Random(f"{workload}:{seed}")
    cfg_seed = rng.randrange(1, 2**31)

    if workload == "spectral_exact":
        lo, hi = _window(rng, 256.0, 512.0, 4.0)
        cantor_scan = {"system": CANTOR, "seed": cfg_seed,
                       "scan": {"xi_min": lo, "xi_max": hi, "points": z["cantor_points"],
                                "tol": 1e-9, "method": "exact"}}
        lo, hi = _window(rng, 50.0, 56.0, 4.0)
        two_scan = {"system": TWO_RATIO, "seed": cfg_seed,
                    "scan": {"xi_min": lo, "xi_max": hi, "points": z["two_points"],
                             "tol": 1e-6, "method": "exact"}}
        sparse = {"system": CANTOR, "seed": cfg_seed,
                  "decay": {"method": "exact", "tol": 1e-4,
                            "limit": 3.0 ** z["sparse_power"], "exponent": 0.1,
                            "grid_step": 0.25}}
        return [Command("cantor_scan", ["fourier-scan"], cantor_scan, "cantor", ["scan.csv"]),
                Command("cantor_verify", ["verify"], cantor_scan, "cantor", ["verify.json"]),
                Command("two_ratio_scan", ["fourier-scan"], two_scan, "two_ratio", ["scan.csv"]),
                Command("cantor_sparse", ["decay", "sparse"], sparse, "sparse", ["sparse.json"])]

    if workload == "pushforward_bands":
        fit = {"system": CANTOR, "map": {"expr": SQUARE}, "seed": cfg_seed,
               "decay": {"band_base": 3.0, "band_min": 3, "band_max": z["band_max"],
                         "samples_per_band": 64, "method": "pushforward", "tol": 1e-3}}
        # No smooth1d scan in the pass: ffl's value misses its rigorous bound
        # there (see smooth_scan), so it would fail every pass. A strict xfail
        # in perfbench/tests keeps the defect in view until it is fixed.
        lo, hi = _window(rng, 4.0, 4.4, 2.0)
        fibre = {"system": FIBRE3, "map": {"expr": FIBRE_MAP, "fibre_var": "y"},
                 "seed": cfg_seed,
                 "scan": {"xi_min": lo, "xi_max": hi, "points": z["fibre_points"],
                          "tol": 1e-2}}
        return [Command("square_fit", ["decay", "fit"], fit, "fit",
                        ["decay_fit.json", "decay_fit.svg"]),
                Command("fibre_scan", ["pushforward-scan"], fibre, "fibre",
                        ["pushforward.csv"])]

    if workload == "disintegration":
        consistency = {"system": TWO_RATIO, "seed": cfg_seed,
                       "disintegrate": {"block_length": 2,
                                        "xis": [0.5 + 5.5 * i for i in range(10)],
                                        "n_sequences": z["sequences"]}}
        five = {"system": FIBRE5, "seed": cfg_seed,
                "disintegrate": {"block_length": z["class_block"], "alpha": 0.2,
                                 "prefix_length": 64}}
        return [Command("consistency", ["disintegrate", "consistency"], consistency,
                        "consistency", ["consistency.json"]),
                Command("classes", ["disintegrate", "classes"], five, "five",
                        ["classes.json"]),
                Command("membership", ["disintegrate", "membership"], five, "five",
                        ["membership.json"])]

    gamma = rng.randrange(0, 1024) / 1024.0  # dyadic, so recounts stay integral
    b2 = {"seed": cfg_seed,
          "equidist": {"base": 2, "gamma": gamma, "rate": HALF_OVER_N,
                       "horizon": z["b2_horizon"], "seeds": z["b2_seeds"]}}
    b3 = {"seed": cfg_seed + 1,
          "equidist": {"base": 3, "gamma": gamma, "rate": HALF_OVER_N,
                       "horizon": z["b3_horizon"], "seeds": z["b3_seeds"]}}
    b10 = {"seed": cfg_seed + 2,
           "equidist": {"base": 10, "horizon": z["b10_horizon"], "seeds": z["b10_seeds"]}}
    return [Command("count_base2", ["equidist", "count"], b2, "base2",
                    ["count.csv", "count_summary.json"]),
            Command("count_base3", ["equidist", "count"], b3, "base3",
                    ["count.csv", "count_summary.json"]),
            Command("digits_base10", ["equidist", "digits"], b10, "base10", ["digits.csv"])]


def smooth_scan(seed: int) -> Command:
    """A pushforward scan of the ``smooth1d`` system near xi = 10.

    Not part of any workload: ffl's smooth-system cylinder walk composes
    each new map outermost while its stopping rule treats the word in the
    other order, so when the maps' contraction bounds differ (0.42 and 0.3
    here) its sum is not the transform and the value misses its bound.
    """
    rng = random.Random(f"smooth:{seed}")
    lo, hi = _window(rng, 10.0, 11.0, 3.0)
    config = {"system": SMOOTH, "map": {"expr": SQUARE}, "seed": rng.randrange(1, 2**31),
              "scan": {"xi_min": lo, "xi_max": hi, "points": 2, "tol": 1e-3}}
    return Command("smooth_scan", ["pushforward-scan"], config, "smooth",
                   ["pushforward.csv"])


def write_configs(cmds, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for c in cmds:
        (workdir / f"{c.name}.json").write_text(json.dumps(c.config, indent=1),
                                                encoding="utf-8")
        (workdir / c.out).mkdir(exist_ok=True)
