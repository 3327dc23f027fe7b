import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ffl import cli
from ffl import disintegrate as dis
from ffl import equidist as eq
from ffl import ifs
from ffl import measure as meas
from ffl import pushforward as push
from ffl.cli import main, make_evaluator
from ffl.ifs import cantor_system


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return str(path)


def dyadic_scan_config(tmp_path, **scan_overrides):
    scan = {"xi_min": 1.0, "xi_max": 16.0, "points": 16, "tol": 1e-7,
            "method": "exact"}
    scan.update(scan_overrides)
    return write_config(tmp_path / "cfg.json", {
        "system": {"kind": "named", "name": "dyadic-uniform"},
        "scan": scan,
        "seed": 3,
    })


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    return [l.split(",") for l in lines[1:]]


# a valid fibre product: base {x/2, x/2 + 1/2}, three fibre maps of ratio 1/3
FIBRE3 = {"kind": "fibre_product",
          "base": [{"id": "L", "ratio": 0.5, "translate": 0.0},
                   {"id": "R", "ratio": 0.5, "translate": 0.5}],
          "fibres": [{"base": "L", "id": "a", "ratio": 1 / 3, "translate": 0.0, "weight": 1 / 3},
                     {"base": "L", "id": "b", "ratio": 1 / 3, "translate": 2 / 3, "weight": 1 / 3},
                     {"base": "R", "id": "c", "ratio": 1 / 3, "translate": 1 / 3, "weight": 1 / 3}]}
# a smooth line system: 0.3(x + 0.2x^2) and 0.6 + 0.3x
SMOOTH = {"kind": "smooth1d", "weights": [0.5, 0.5],
          "maps": [{"expr": "(mul 0.3 (add x (mul 0.2 (pow x 2))))"},
                   {"expr": "(add 0.6 (mul 0.3 x))"}]}


def test_scan_integer_frequencies_vanish(tmp_path):
    cfg = dyadic_scan_config(tmp_path)
    out = tmp_path / "out"
    assert main(["fourier-scan", "--config", cfg, "--out", str(out)]) == 0
    for row in read_rows(out / "scan.csv"):
        xi, mag = float(row[0]), float(row[3])
        if abs(xi - round(xi)) < 1e-12:
            assert mag <= 1e-6


def test_round_trip_byte_identical(tmp_path):
    cfg = dyadic_scan_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["fourier-scan", "--config", cfg, "--out", str(a)]) == 0
    assert main(["fourier-scan", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()
    # JSON artifacts are byte-identical across reruns too
    assert main(["verify", "--config", cfg, "--out", str(a)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "verify.json").read_bytes() == (b / "verify.json").read_bytes()


def test_headers_carry_hash_and_seed(tmp_path):
    cfg = dyadic_scan_config(tmp_path)
    out = tmp_path / "out"
    main(["fourier-scan", "--config", cfg, "--out", str(out)])
    head = (out / "scan.csv").read_text().splitlines()[:3]
    assert head[0] == "# ffl fourier-scan"
    assert head[1].startswith("# config_sha256: ") and len(head[1].split()[-1]) == 64
    assert head[2] == "# seed: 3"


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", {
        "system": {"kind": "named", "name": "cantor", "bogus": 1},
        "scan": {"xi_min": 1, "xi_max": 2, "points": 4},
    })
    code = main(["fourier-scan", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "validation"
    assert "bogus" in err["error"]["message"]


def test_budget_exhaustion_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "affine1d",
                   "maps": [{"ratio": 0.5, "translate": 0.0},
                            {"ratio": 1 / 3, "translate": 2 / 3}],
                   "weights": [0.5, 0.5]},
        "scan": {"xi_min": 1e6, "xi_max": 1e6, "points": 1, "tol": 1e-12,
                 "method": "exact"},
    })
    code = main(["fourier-scan", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--budget", "100"])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "budget"


def test_budget_diagnostics_report_achieved(tmp_path, capsys):
    two = {"kind": "affine1d", "maps": [{"ratio": 0.5, "translate": 0.0},
                                        {"ratio": 1 / 3, "translate": 2 / 3}],
           "weights": [0.5, 0.5]}
    scan = {"xi_min": 100.0, "xi_max": 100.0, "points": 1, "tol": 1e-6}
    exact = write_config(tmp_path / "exact.json",
                         {"system": two, "scan": dict(scan, method="exact")})
    # one map: the pushforward walk stops at one cylinder, and its mu^ sweep
    # is what runs over the budget
    dirac = {"kind": "affine1d", "maps": [{"ratio": 0.5, "translate": 0.0}], "weights": [1.0]}
    push = write_config(tmp_path / "push.json",
                        {"system": dirac, "map": {"expr": "x"}, "scan": scan})
    for command, cfg in (["fourier-scan", exact], ["pushforward-scan", push]):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--budget", "1"]) == 3
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["kind"] == "budget"
        assert err["achieved"] > scan["tol"]
    # the pushforward's cylinder walk itself over budget: no cylinder was
    # summed, so there is no achieved tolerance, but the frequency is named
    walk = write_config(tmp_path / "walk.json",
                        {"system": {"kind": "named", "name": "cantor"}, "map": {"expr": "(pow x 2)"},
                         "scan": dict(scan, xi_min=300.0, xi_max=300.0, tol=1e-4)})
    assert main(["pushforward-scan", "--config", walk, "--out", str(tmp_path / "o"),
                 "--budget", "5"]) == 3
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err == {"kind": "budget",
                   "message": "stopping-set budget 5 exhausted at frequency 300.0"}
    system = cli.build_system(two)
    (entry,) = meas.fourier_exact_batch(system, [100.0], tol=1e-6, budget=1)
    values, achieved = meas.exact_sweep(system, [100.0], 1e-6, 1)
    assert np.isnan(values[0]) and entry.achieved == achieved[0] > 1e-6


def test_missing_config_is_validation_error(tmp_path, capsys):
    assert main(["fourier-scan", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_env_overrides(tmp_path, monkeypatch):
    cfg = dyadic_scan_config(tmp_path)
    out = tmp_path / "env_out"
    monkeypatch.setenv("FFL_SEED", "99")
    monkeypatch.setenv("FFL_OUT", str(out))
    assert main(["fourier-scan", "--config", cfg]) == 0
    assert "# seed: 99" in (out / "scan.csv").read_text()


def test_env_defaults_are_read_on_every_call(tmp_path, monkeypatch):
    # the parser is built once per set of FFL_* values, not once per process
    cfg = dyadic_scan_config(tmp_path)
    for seed in ("41", "42", "41"):
        monkeypatch.setenv("FFL_SEED", seed)
        assert main(["fourier-scan", "--config", cfg, "--out", str(tmp_path / seed)]) == 0
        assert f"# seed: {seed}\n" in (tmp_path / seed / "scan.csv").read_text()


def test_report_generates_deterministic_svg(tmp_path):
    cfg = dyadic_scan_config(tmp_path)
    out = tmp_path / "out"
    main(["fourier-scan", "--config", cfg, "--out", str(out)])
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    first = (out / "scan.svg").read_bytes()
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "scan.svg").read_bytes() == first
    assert first.startswith(b"<svg")


def test_verify_passes_on_fresh_scan(tmp_path):
    cfg = dyadic_scan_config(tmp_path)
    out = tmp_path / "out"
    main(["fourier-scan", "--config", cfg, "--out", str(out)])
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "verify.json").read_text())
    assert doc["result"]["checked"] >= 1
    assert doc["result"]["failures"] == []


def test_verify_catches_corruption(tmp_path):
    cfg = dyadic_scan_config(tmp_path)
    out = tmp_path / "out"
    main(["fourier-scan", "--config", cfg, "--out", str(out)])
    path = out / "scan.csv"
    lines = path.read_text().splitlines()
    parts = lines[4].split(",")
    parts[1] = "0.77"  # corrupt one real part
    lines[4] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2


def test_verify_on_a_scan_without_rows_exits_2(tmp_path, capsys):
    # it wrote "checked": 0 and exited 0, so an emptied scan read as verified
    cfg = dyadic_scan_config(tmp_path)
    out = tmp_path / "out"
    assert main(["fourier-scan", "--config", cfg, "--out", str(out)]) == 0
    path = out / "scan.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:4]) + "\n")  # comments, header
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    err, = capsys.readouterr().err.strip().splitlines()
    assert str(path) in json.loads(err)["error"]["message"]
    assert not (out / "verify.json").exists()


def test_pushforward_scan(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "named", "name": "cantor"},
        "map": {"expr": "(pow x 2)"},
        "scan": {"xi_min": 1.0, "xi_max": 32.0, "points": 8, "tol": 1e-5},
    })
    out = tmp_path / "out"
    assert main(["pushforward-scan", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "pushforward.csv").read_bytes()
    assert text.startswith(b"# ffl pushforward-scan\n")
    rows = read_rows(out / "pushforward.csv")
    assert len(rows) == 8
    assert all(float(r[3]) <= 1.0 + float(r[4]) for r in rows)
    assert {r[5] for r in rows} == {"rigorous"}  # certified derivative norms


def test_unbounded_derivative_is_blamed_on_F(tmp_path, capsys):
    # on cantor these exited 2 with "frequency too large", and on the smooth
    # system 3 with "budget exhausted": sup |F'| or sup |F''| is infinite on
    # [0, 1]. The first-order rule of a smooth system reads no sup |F''|.
    scan = {"xi_min": 1.0, "xi_max": 2.0, "points": 2, "tol": 1e-3}
    cantor = {"kind": "named", "name": "cantor"}
    cases = ((cantor, "(pow x 0.5)", 2), (cantor, "(div 1 x)", 2), (cantor, "(pow x 1.5)", 2),
             (SMOOTH, "(pow x 0.5)", 2), (SMOOTH, "(pow x 1.5)", 0))
    for n, (system, expr, code) in enumerate(cases):
        cfg = write_config(tmp_path / "cfg.json", {"system": system, "map": {"expr": expr},
                                                   "scan": scan})
        out = tmp_path / f"o{n}"
        assert main(["pushforward-scan", "--config", cfg, "--out", str(out)]) == code, expr
        if code == 2:
            message = json.loads(capsys.readouterr().err)["error"]["message"]
            assert message.startswith("ValidationError: F = (") and "unbounded" in message
            assert not any(p.is_file() for p in out.rglob("*"))


def test_unknown_map_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "named", "name": "cantor"},
        "map": {"expr": "(pow x 2)", "bogus": 1},
        "decay": {"band_min": 3, "band_max": 6, "method": "pushforward", "tol": 1e-3},
    })
    assert main(["decay", "bands", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "validation"
    assert "bogus" in err["error"]["message"]


def test_unbalanced_expression_is_validation_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "smooth1d", "maps": [{"expr": "("}], "weights": [1.0]},
        "scan": {"xi_min": 1, "xi_max": 2, "points": 4},
    })
    assert main(["fourier-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["kind"] == "validation"


def test_disintegrate_subcommands(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "affine1d",
                   "maps": [{"ratio": 0.5, "translate": 0.0},
                            {"ratio": 1 / 3, "translate": 2 / 3}],
                   "weights": [0.5, 0.5]},
        "disintegrate": {"block_length": 2, "xis": [1.0, 5.0],
                         "n_sequences": 300, "prefix_length": 64,
                         "alpha": 0.9, "xi": 100.0},
        "seed": 5,
    })
    out = tmp_path / "out"
    assert main(["disintegrate", "classes", "--config", cfg, "--out", str(out)]) == 0
    classes = json.loads((out / "classes.json").read_text())["result"]
    assert sum(c["size"] for c in classes["classes"]) == 16
    assert math.fsum(c["weight"] for c in classes["classes"]) == pytest.approx(1.0)
    assert main(["disintegrate", "sample", "--config", cfg, "--out", str(out)]) == 0
    assert main(["disintegrate", "consistency", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "consistency.json").read_text())["result"]
    assert all(e["passed"] for e in rep["entries"])
    assert main(["disintegrate", "membership", "--config", cfg, "--out", str(out)]) == 0
    assert main(["disintegrate", "ek", "--config", cfg, "--out", str(out)]) == 0
    ek = json.loads((out / "ek.json").read_text())["result"]
    assert ek["n_eff"] >= 1


def test_equidist_subcommands(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "named", "name": "dyadic-uniform"},
        "equidist": {"base": 2, "gamma": 0.0, "rate": "(div 1 (mul 2 n))",
                     "horizon": 2000, "seeds": 5, "epsilon": 1.0},
        "seed": 11,
    })
    out = tmp_path / "out"
    assert main(["equidist", "count", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "count.csv")
    assert len(rows) == 5
    summary = json.loads((out / "count_summary.json").read_text())["result"]
    assert 0.0 <= summary["pass_fraction_unit_band"] <= 1.0
    assert main(["equidist", "weyl", "--config", cfg, "--out", str(out)]) == 0
    assert main(["equidist", "digits", "--config", cfg, "--out", str(out)]) == 0


def test_equidist_count_builds_the_rate_once_per_spec(tmp_path, monkeypatch):
    # psi and its sum depend on the spec only, so three seeds share one build
    values, count_hits = eq.RateFn.values, eq.count_hits
    calls, specs = [], []

    def spy_values(rate, horizon):
        calls.append(horizon)
        return values(rate, horizon)

    def spy_count(x, spec, **kwargs):
        specs.append(spec)
        return count_hits(x, spec, **kwargs)
    monkeypatch.setattr(eq.RateFn, "values", spy_values)
    monkeypatch.setattr(eq, "count_hits", spy_count)
    cfg = write_config(tmp_path / "cfg.json", {
        "equidist": {"base": 2, "rate": "(div 1 (mul 2 n))", "horizon": 3000, "seeds": 3}})
    assert main(["equidist", "count", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == [3000] and len(read_rows(tmp_path / "o" / "count.csv")) == 3
    spec = specs[0]
    assert len(specs) == 3 and all(s is spec for s in specs)
    assert spec.rate_sum == math.fsum(spec.rate.values(spec.horizon))  # bit for bit


def test_decay_subcommands(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "named", "name": "cantor"},
        "decay": {"band_base": 3.0, "band_min": 2, "band_max": 6,
                  "samples_per_band": 64, "method": "exact", "tol": 1e-5,
                  "family_base": 3.0, "count": 8, "limit": 81.0,
                  "exponent": 0.1, "grid_step": 0.25},
        "seed": 2,
    })
    out = tmp_path / "out"
    assert main(["decay", "fit", "--config", cfg, "--out", str(out)]) == 0
    fit = json.loads((out / "decay_fit.json").read_text())["result"]
    assert abs(fit["eta_hat"]) <= 0.1
    assert (out / "decay_fit.svg").exists()
    assert main(["decay", "sparse", "--config", cfg, "--out", str(out)]) == 0
    assert main(["decay", "probe", "--config", cfg, "--out", str(out)]) == 0
    mags = [float(r[3]) for r in read_rows(out / "probe.csv")]
    assert max(mags) - min(mags) <= 2e-5


def test_conjugate_subcommand(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "affine1d",
                   "maps": [{"ratio": 0.25, "translate": 0.0},
                            {"ratio": 0.25, "translate": 0.75}],
                   "weights": [0.5, 0.5]},
        "map": {"expr": "(pow x 2)", "inverse": "(pow x 0.5)",
                "draws": 40000, "ks_tol": 0.02},
        "seed": 4,
    })
    out = tmp_path / "out"
    assert main(["conjugate", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "conjugate.json").read_text())["result"]
    assert doc["ks_statistic"] <= 0.02
    assert len(doc["maps"]) == 2


def test_fibre_product_config(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "system": FIBRE3,
        "disintegrate": {"block_length": 2, "alpha": 0.2},
    })
    out = tmp_path / "out"
    assert main(["disintegrate", "classes", "--config", cfg, "--out", str(out)]) == 0
    classes = json.loads((out / "classes.json").read_text())["result"]
    assert classes["fold"] == 1
    assert sum(c["size"] for c in classes["classes"]) == 9


def test_fibre_var_must_be_the_second_variable(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {
        "system": FIBRE3,
        "map": {"expr": "(add (mul 0.5 x) (pow y 2))", "fibre_var": "x"},
        "scan": {"xi_min": 4.0, "xi_max": 4.0, "points": 1, "tol": 1e-2},
    })
    code = main(["pushforward-scan", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["kind"] == "validation" and "fibre variable" in err["error"]["message"]


def test_montecarlo_scan_reruns_and_verifies(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "named", "name": "cantor"},
        "scan": {"xi_min": 1.0, "xi_max": 40.0, "points": 200,
                 "method": "montecarlo", "draws": 2000},
        "seed": 7,
    })
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["fourier-scan", "--config", cfg, "--out", str(a)]) == 0
    assert main(["fourier-scan", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()
    rows = read_rows(a / "scan.csv")
    assert len(rows) == 200 and {r[5] for r in rows} == {"statistical"}
    assert main(["verify", "--config", cfg, "--out", str(a)]) == 0
    assert json.loads((a / "verify.json").read_text())["result"]["checked"] >= 2


def test_montecarlo_rows_do_not_depend_on_order():
    section = cli.Section({"method": "montecarlo", "draws": 500}, "scan", 10 ** 6)
    xis = [1.0, 2.5, 7.0, 40.0]
    forward = make_evaluator(cantor_system(), section, 7, 10 ** 6)
    backward = make_evaluator(cantor_system(), section, 7, 10 ** 6)
    ahead = [forward([xi])[0].value for xi in xis]
    behind = [backward([xi])[0].value for xi in reversed(xis)][::-1]
    assert ahead == behind


def test_exact_scan_and_verify_are_one_batch_call_each(tmp_path, monkeypatch):
    batches = []
    real = meas.fourier_exact_batch

    def counted(cifs, xis, **kwargs):
        batches.append(len(xis))
        return real(cifs, xis, **kwargs)

    monkeypatch.setattr(meas, "fourier_exact_batch", counted)
    cfg = dyadic_scan_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["fourier-scan", "--config", cfg, "--out", out]) == 0
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    assert batches == [16, 1]  # verify re-checks row 0 of a short scan


def test_no_walk_past_the_first_exhausted_frequency(tmp_path, monkeypatch, capsys):
    trees = []
    real = ifs._System.tree

    def counted(system, thetas, *args):
        trees.append(len(thetas))
        return real(system, thetas, *args)

    monkeypatch.setattr(ifs._System, "tree", counted)
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "named", "name": "cantor"},
        "map": {"expr": "(pow x 2)"},
        "scan": {"xi_min": 1.0, "xi_max": 256.0, "points": 9, "tol": 0.1},
    })
    code = main(["pushforward-scan", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--budget", "20"])
    assert code == 3
    assert json.loads(capsys.readouterr().err.strip())["error"]["kind"] == "budget"
    assert trees == [9]  # one tree for the whole scan

    # the stopping tree over budget (no achieved), then mu^'s sweep over budget
    xis = [64.0, 2.0, -16.0, 256.0, 31.0, 33.0, 1.0, -40.0]
    for expr, tol, budget, scale in (("(pow x 2)", 0.1, 20, 1.0), ("x", 1e-6, 5, 100.0)):
        scan = cli.Section({"method": "pushforward", "tol": tol}, "scan", budget)
        evaluate = make_evaluator(cantor_system(), scan, 0, budget, map_section={"expr": expr})
        batch = [scale * xi for xi in xis]
        trees.clear()
        entries = evaluate(batch)
        assert trees == [len(batch)]
        alone = [evaluate([xi])[0] for xi in batch]
        over = [i for i, e in enumerate(entries) if isinstance(e, cli.BudgetExhausted)]
        first = min(over, key=lambda i: abs(batch[i]))
        assert over == [i for i, xi in enumerate(batch) if abs(xi) >= abs(batch[first])]
        assert str(entries[first]) == str(alone[first])
        assert entries[first].achieved == alone[first].achieved
        assert all(entries[i] is entries[first] for i in over)  # it stands for every larger |xi|
        for i in set(range(len(batch))) - set(over):
            assert (entries[i].value, entries[i].error_bound) == \
                (alone[i].value, alone[i].error_bound)


def test_decay_fit_makes_one_pushforward_and_one_kernel_call(tmp_path, monkeypatch):
    batches, listings, tops = [], [], []
    pushforward, bands, rows = push.pushforward_fourier, meas._ratio_bands, push.sweep_rows

    def counted_pushforward(F, system, xis, **kwargs):
        batches.append(len(xis))
        return pushforward(F, system, xis, **kwargs)

    def counted_bands(ratios, u, theta, budget):
        listings.append(theta)
        return bands(ratios, u, theta, budget)

    def counted_rows(listing, etas, *rest):
        tops.append(float(np.abs(etas).max()))
        return rows(listing, etas, *rest)

    monkeypatch.setattr(push, "pushforward_fourier", counted_pushforward)
    monkeypatch.setattr(meas, "_ratio_bands", counted_bands)
    monkeypatch.setattr(push, "sweep_rows", counted_rows)
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "named", "name": "cantor"},
        "map": {"expr": "(pow x 2)"},
        "decay": {"band_base": 3.0, "band_min": 3, "band_max": 6,
                  "samples_per_band": 64, "method": "pushforward", "tol": 1e-3},
        "seed": 1,
    })
    assert main(["decay", "fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert batches == [4 * 64]  # every band's samples, in one batch
    # one sweep listing for the batch, at the smallest theta of every row swept
    reach = meas.series_order(ifs.cantor_system(), 1e-3 / 2)[1]
    assert listings == [reach / (meas.TWO_PI * ifs.cantor_system().radius * max(tops))]


def test_verify_redraws_montecarlo_rows(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "named", "name": "cantor"},
        "scan": {"xi_min": 1.0, "xi_max": 12.0, "points": 12,
                 "method": "montecarlo", "draws": 2000},
        "seed": 7,
    })
    out = tmp_path / "out"
    assert main(["fourier-scan", "--config", cfg, "--out", str(out)]) == 0
    scanned = {float(r[0]): complex(float(r[1]), float(r[2]))
               for r in read_rows(out / "scan.csv")}
    fresh = {}
    real = cli.make_evaluator

    def spy(*args, **kwargs):
        evaluate = real(*args, **kwargs)

        def recorded(xis):
            entries = evaluate(xis)
            fresh.update((xi, fv.value) for xi, fv in zip(xis, entries))
            return entries
        return recorded

    monkeypatch.setattr(cli, "make_evaluator", spy)
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert fresh and all(scanned[xi] != value for xi, value in fresh.items())


def test_consistency_builds_classes_once(tmp_path, monkeypatch):
    build = mock.Mock(wraps=dis.build_classes)
    calibrate = mock.Mock(wraps=dis.calibrate_alpha)
    monkeypatch.setattr(dis, "build_classes", build)
    monkeypatch.setattr(dis, "calibrate_alpha", calibrate)
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "named", "name": "cantor"},
        "disintegrate": {"block_length": 2, "xis": [1.0], "n_sequences": 20},
    })
    assert main(["disintegrate", "consistency", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0
    assert build.call_count == 1 and calibrate.call_count == 0


TWO_RATIO = {"kind": "affine1d", "maps": [{"ratio": 0.5, "translate": 0.0},
                                          {"ratio": 1 / 3, "translate": 2 / 3}],
             "weights": [0.5, 0.5]}


@pytest.mark.parametrize("k, xis, message", [
    (3, [1.0, 2.0], "4^3 words exceed the class budget 20"),
    (2, [0.5, 6.0, 5000.0], "exhausted at frequency 5000.0")])
def test_consistency_honours_the_budget(tmp_path, capsys, k, xis, message):
    # both built their own class table and ran the target at the default
    # budget, and exited 0
    cfg = write_config(tmp_path / "cfg.json", {"system": TWO_RATIO, "disintegrate": {
        "block_length": k, "xis": xis, "n_sequences": 20}})
    out = tmp_path / "o"
    assert main(["disintegrate", "consistency", "--config", cfg, "--out", str(out),
                 "--budget", "20"]) == 3
    err, = capsys.readouterr().err.strip().splitlines()
    error = json.loads(err)["error"]
    assert error["kind"] == "budget" and message in error["message"]
    assert (k == 2) == ("achieved" in error)
    assert not any(p.is_file() for p in out.rglob("*"))


def test_cli_sequences_are_the_first_stream(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json", {"system": FIBRE3, "seed": 17, "disintegrate": {
        "block_length": 2, "prefix_length": 40}})
    table = dis.build_classes(ifs.fibre_product_from_1d(cli.build_system(FIBRE3)), 2)
    om, = dis.sample_omegas(table, 40, 17, (0,))
    out = tmp_path / "o"
    assert main(["disintegrate", "sample", "--config", cfg, "--out", str(out)]) == 0
    sample = json.loads((out / "omega.json").read_text())["result"]
    assert sample["classes"] == om.indices.tolist()
    assert sample["cumulative_ratios"] == om.cum_ratios.tolist()  # JSON keeps every bit
    checked = mock.Mock(wraps=dis.check_omega_membership)
    monkeypatch.setattr(dis, "check_omega_membership", checked)
    assert main(["disintegrate", "membership", "--config", cfg, "--out", str(out)]) == 0
    np.testing.assert_array_equal(checked.call_args.args[0].indices, om.indices)


ACTION_CONFIG = {"system": {"kind": "named", "name": "cantor"},
                 "scan": {"xi_min": 1.0, "xi_max": 2.0, "points": 2},
                 "map": {"expr": "(pow x 2)", "inverse": "(pow x 0.5)"}}


@pytest.mark.parametrize("command", list(cli.ACTIONS))
def test_stray_and_unknown_actions_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                          command):
    # fourier-scan bogus wrote scan.csv and exited 0; disintegrate bogus
    # built its class table and calibrated alpha first
    for name in ("build_system", "Section"):
        monkeypatch.setattr(cli, name, mock.Mock(side_effect=AssertionError(name)))
    cfg = write_config(tmp_path / "cfg.json", ACTION_CONFIG)
    out = tmp_path / "o"
    assert main([command, "bogus", "--config", cfg, "--out", str(out)]) == 2
    err, = capsys.readouterr().err.strip().splitlines()
    error = json.loads(err)["error"]
    assert error["kind"] == "validation" and "'bogus'" in error["message"]
    assert ("takes no action" in error["message"]) == (cli.ACTIONS[command] == (None,))
    assert not out.exists()


@pytest.mark.parametrize("argv, env, word", [
    (["fourier-scan", "--seed", "abc"], {}, "--seed"),
    (["fourier-scan", "--budget", "x"], {}, "--budget"),
    (["fourier-scan"], {"FFL_SEED": "abc"}, "--seed"),
    (["bogus"], {}, "invalid choice"),
    ([], {}, "command"),
])
def test_usage_errors_are_one_json_line(tmp_path, capsys, monkeypatch, argv, env, word):
    # each printed argparse's usage text and exited 2 from SystemExit
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    cfg = dyadic_scan_config(tmp_path)
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    err, = captured.err.strip().splitlines()
    error = json.loads(err)["error"]
    assert error["kind"] == "validation" and word in error["message"]
    assert captured.out == "" and not (tmp_path / "o").exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0 and "usage: ffl" in capsys.readouterr().out


@pytest.mark.parametrize("row, word", [("1,1", "1,1"), ("2.0,abc,0,1,1e-7,rigorous", "abc")])
def test_malformed_scan_rows_exit_2(tmp_path, capsys, row, word):
    # a short row ended report in an IndexError traceback (exit 1)
    cfg = dyadic_scan_config(tmp_path)
    out = tmp_path / "out"
    assert main(["fourier-scan", "--config", cfg, "--out", str(out)]) == 0
    path = out / "scan.csv"
    lines = path.read_text().splitlines()
    lines[5] = row  # the second row: line 6 of the file
    path.write_text("\n".join(lines) + "\n")
    for command in ("report", "verify"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err, = capsys.readouterr().err.strip().splitlines()
        message = json.loads(err)["error"]["message"]
        assert "scan.csv, line 6" in message and word in message
    assert sorted(p.name for p in out.iterdir()) == ["scan.csv"]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_scan_cells_exit_2(tmp_path, capsys, cell):
    # a scan whose every re cell read nan passed verify with no failure:
    # a NaN gap exceeds no allowance
    cfg = dyadic_scan_config(tmp_path)
    out = tmp_path / "out"
    assert main(["fourier-scan", "--config", cfg, "--out", str(out)]) == 0
    path = out / "scan.csv"
    lines = path.read_text().splitlines()
    for n in range(4, len(lines)):
        parts = lines[n].split(",")
        parts[1] = cell
        lines[n] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    for command in ("verify", "report"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err, = capsys.readouterr().err.strip().splitlines()
        message = json.loads(err)["error"]["message"]
        assert "scan.csv, line 5" in message and f",{cell}," in message
    assert sorted(p.name for p in out.iterdir()) == ["scan.csv"]


def test_decay_bands_whose_lower_edge_underflows_exit_2(tmp_path, capsys):
    # every band_base ** j was 0.0: the fit wrote "eta_hat": NaN, which is
    # no JSON, after three numpy warnings
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "named", "name": "cantor"},
        "decay": {"method": "exact", "band_min": -1100, "band_max": -1096}})
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["decay", "fit", "--config", cfg, "--out", str(out)]) == 2
    err, = capsys.readouterr().err.strip().splitlines()
    error = json.loads(err)["error"]
    assert error["kind"] == "validation" and "band_min" in error["message"]
    assert not any(out.iterdir())


def test_memory_error_exits_3(tmp_path):
    # a smooth pushforward's stopping tree at tol 1e-6 stays under the
    # default node budget but asks for more than the 1 GiB cap of this one
    # child (at tol 1e-5 it fits, at about 0.5 GiB, since its anchors are
    # applied in slices); unhandled, numpy's _ArrayMemoryError would exit 1
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "smooth1d", "weights": [0.5, 0.5],
                   "maps": [{"expr": "(mul 0.3 (add x (mul 0.2 (pow x 2))))"},
                            {"expr": "(add 0.6 (mul 0.3 x))"}]},
        "map": {"expr": "x"},
        "scan": {"xi_min": 2000.0, "xi_max": 2000.0, "points": 1, "tol": 1e-6}})
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = tmp_path / "o"
    run = subprocess.run([sys.executable, "-m", "ffl.cli", "pushforward-scan",
                          "--config", cfg, "--out", str(out)], preexec_fn=cap, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 3, run.stderr
    err, = run.stderr.strip().splitlines()
    error = json.loads(err)["error"]
    assert error["kind"] == "memory" and "allocate" in error["message"]
    assert not any(p.is_file() for p in out.rglob("*"))


def test_decay_bands_with_pushforward_method(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "named", "name": "cantor"},
        "map": {"expr": "(pow x 2)"},
        "decay": {"band_base": 3.0, "band_min": 3, "band_max": 6,
                  "samples_per_band": 64, "method": "pushforward", "tol": 1e-3},
        "seed": 1,
    })
    out = tmp_path / "out"
    assert main(["decay", "bands", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "decay_bands.json").read_text())["result"]
    peaks = [b["peak"] for b in doc["bands"]]
    assert len(peaks) == 4 and all(0 < p <= 1.01 for p in peaks)


def test_band_without_a_sample_has_no_peak(tmp_path):
    # every sample over budget wrote "peak": -1.0, "peak_frequency": NaN; at
    # budget 128 the 2 x 64 samples fit, and every stopping tree (254 nodes
    # or more from band 4 on) is over
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "named", "name": "cantor"},
        "map": {"expr": "(pow x 2)"},
        "decay": {"band_base": 3.0, "band_min": 4, "band_max": 5,
                  "samples_per_band": 64, "method": "pushforward", "tol": 1e-3},
    })
    out = tmp_path / "out"
    assert main(["decay", "bands", "--config", cfg, "--out", str(out), "--budget", "128"]) == 0

    def no_constants(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads((out / "decay_bands.json").read_text(), parse_constant=no_constants)
    for band in doc["result"]["bands"]:
        assert band["peak"] is None and band["peak_frequency"] is None
        assert band["samples"] == 0 and band["excluded"] == 64
    assert "<polyline" not in (out / "decay_bands.svg").read_text()


SIZE_KEYS = [  # (command, config, the key the diagnostic names)
    (["fourier-scan"], {"scan": {"xi_min": 1.0, "xi_max": 2.0, "points": 1e15}}, "points"),
    (["fourier-scan"], {"scan": {"xi_min": 1.0, "xi_max": 2.0, "points": 2,
                                 "method": "montecarlo", "draws": 1e15}}, "draws"),
    (["fourier-scan"], {"scan": {"xi_min": 1.0, "xi_max": 2.0, "points": 2,
                                 "method": "product", "factors": 1e15}}, "factors"),
    (["decay", "bands"], {"decay": {"samples_per_band": 1e15}}, "samples_per_band"),
    (["decay", "sparse"], {"decay": {"limit": 1e300}}, "limit"),
    # count 2000 at budget 100 wrote 2000 rows
    (["decay", "probe"], {"decay": {"family_base": 1.001, "count": 1e15}}, "count"),
    (["disintegrate", "consistency"], {"disintegrate": {"n_sequences": 1e15}}, "n_sequences"),
    *((["disintegrate", action], {"disintegrate": {"prefix_length": 1e15, "alpha": 0.2}},
      "prefix_length") for action in ("sample", "membership", "ek")),
    (["equidist", "count"], {"equidist": {"horizon": 1e15}}, "horizon"),
    (["equidist", "count"], {"equidist": {"seeds": 1e15}}, "seeds"),
    # digit_freq had a second cap of its own: horizon 1000001 exited 2 within the budget
    (["equidist", "digits"], {"equidist": {"horizon": 1e15}}, "horizon"),
    (["equidist", "weyl"], {"equidist": {"harmonics": 1e15}}, "harmonics"),
    # each passes the default budget alone; the phase matrix holds 4e14 values
    (["equidist", "weyl"], {"equidist": {"horizon": 2e7, "harmonics": 2e7}},
     "harmonics*horizon"),
    (["conjugate"], {"map": {"expr": "(pow x 2)", "inverse": "(pow x 0.5)", "draws": 1e15}},
     "draws"),
]


@pytest.mark.parametrize("argv, config, key", SIZE_KEYS,
                         ids=["-".join(argv + [key]) for argv, _, key in SIZE_KEYS])
def test_size_keys_are_checked_against_the_budget(tmp_path, capsys, argv, config, key):
    # each of these ended in numpy's _ArrayMemoryError with exit 1, or (the
    # sparse grid and the seed count) ran until killed
    cfg = write_config(tmp_path / "cfg.json",
                       dict(config, system={"kind": "named", "name": "cantor"}))
    out = tmp_path / "o"
    start = time.perf_counter()
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 3
    assert time.perf_counter() - start < 2.0
    err, = capsys.readouterr().err.strip().splitlines()  # one JSON line
    error = json.loads(err)["error"]
    assert error["kind"] == "budget" and key in error["message"]
    assert not any(p.is_file() for p in out.rglob("*"))


def test_band_count_is_checked_against_the_budget(tmp_path, capsys):
    # band_max 2e8 was listed in full and the process killed; at budget
    # 1000, band_max 1e5 walked about 600 bands before it exited 2
    def decay(budget, band_max):
        cfg = write_config(tmp_path / "cfg.json", {
            "system": {"kind": "named", "name": "cantor"},
            "decay": {"method": "exact", "tol": 1e-3, "band_base": 2.0,
                      "band_min": 3, "band_max": band_max}})
        out = tmp_path / f"o{budget}-{band_max}"
        return main(["decay", "bands", "--config", cfg, "--out", str(out),
                     "--budget", str(budget)]), out

    for budget, band_max in ((1000, 10 ** 5), (100, 103)):
        start = time.perf_counter()
        code, out = decay(budget, band_max)
        assert code == 3 and time.perf_counter() - start < 2.0
        err, = capsys.readouterr().err.strip().splitlines()
        error = json.loads(err)["error"]
        assert error["kind"] == "budget"
        assert error["message"] == (f"band_max-band_min+1 = {band_max - 2} "
                                    f"exceeds the budget {budget}")
        assert not any(p.is_file() for p in out.rglob("*"))
    # 100 bands of 64 samples are one batch of 6400 frequencies
    for budget in (100, 6399):
        code, out = decay(budget, 102)
        assert code == 3 and not any(p.is_file() for p in out.rglob("*"))
        err, = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err)["error"]["message"] == (
            f"(band_max-band_min+1)*samples_per_band = 6400 exceeds the budget {budget}")
    code, out = decay(6400, 102)
    assert code == 0 and len(json.loads((out / "decay_bands.json").read_text())
                             ["result"]["bands"]) == 100


NON_INTEGRAL = [  # each exited 0 with a truncated size
    (["fourier-scan"], {"scan": {"xi_min": 1.0, "xi_max": 2.0, "points": 3.9}}, "points"),
    (["fourier-scan"], {"scan": {"xi_min": 1.0, "xi_max": 2.0, "points": True}}, "points"),
    (["decay", "bands"], {"decay": {"method": "exact", "tol": 1e-3,
                                    "samples_per_band": 64.7}}, "samples_per_band"),
    (["decay", "bands"], {"decay": {"method": "exact", "tol": 1e-3,
                                    "band_min": 2.5, "band_max": 4.9}}, "band_min"),
]


@pytest.mark.parametrize("argv, config, key", NON_INTEGRAL,
                         ids=["points-3.9", "points-true", "samples-64.7", "bands-2.5-4.9"])
def test_non_integral_sizes_exit_2(tmp_path, capsys, argv, config, key):
    cfg = write_config(tmp_path / "cfg.json",
                       dict(config, system={"kind": "named", "name": "cantor"}))
    out = tmp_path / "o"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    err, = capsys.readouterr().err.strip().splitlines()
    error = json.loads(err)["error"]
    assert error["kind"] == "validation" and f"{key} must be an integer" in error["message"]
    assert not any(p.is_file() for p in out.rglob("*"))


def test_integral_floats_are_sizes(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {
        "system": {"kind": "named", "name": "cantor"},
        "scan": {"xi_min": 1.0, "xi_max": 2.0, "points": 4.0, "method": "product",
                 "factors": 1e1}})
    assert main(["fourier-scan", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--budget", "10"]) == 0
    assert len(read_rows(tmp_path / "o" / "scan.csv")) == 4
    # 1e1 is charged to the budget as the integer 10
    assert main(["fourier-scan", "--config", cfg, "--out", str(tmp_path / "p"),
                 "--budget", "9"]) == 3
    assert json.loads(capsys.readouterr().err)["error"]["message"] == \
        "scan.factors = 10 exceeds the budget 9"


def test_negative_budget_exits_2(tmp_path, monkeypatch, capsys):
    cfg = dyadic_scan_config(tmp_path)
    assert main(["fourier-scan", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--budget", "-1"]) == 2
    monkeypatch.setenv("FFL_BUDGET", "-5")
    assert main(["fourier-scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    for line in capsys.readouterr().err.strip().splitlines():
        assert "budget" in json.loads(line)["error"]["message"]


def nested(var, depth=3000):
    """``(add (add ... var 1) 1)``, ``depth`` levels deep."""
    return "(add " * depth + var + " 1)" * depth


def test_malformed_values_exit_2(tmp_path, capsys):
    cantor = {"kind": "named", "name": "cantor"}
    scan = {"xi_min": 1.0, "xi_max": 2.0, "points": 2}
    cases = [
        (["fourier-scan"], {"system": cantor, "scan": dict(scan, tol="abc")}),
        (["fourier-scan"], {"system": cantor, "scan": dict(scan, points=None)}),
        (["fourier-scan"], {"system": cantor, "scan": [1, 2]}),
        (["fourier-scan"], {"system": cantor,
                            "scan": dict(scan, xi_max=math.inf, method="product")}),
        (["verify"], {"system": cantor, "scan": "abc"}),
        (["decay", "sparse"], {"system": cantor, "decay": {"grid_step": 0, "limit": 9.0}}),
        (["disintegrate", "consistency"], {"system": cantor,
                                           "disintegrate": {"n_sequences": 0}}),
        (["disintegrate", "consistency"], {"system": cantor,
                                           "disintegrate": {"trunc_tol": 0}}),
        # one sequence wrote "z": Infinity and passed false; no frequencies or
        # a NaN frequency failed with numpy's message
        (["disintegrate", "consistency"], {"system": cantor,
                                           "disintegrate": {"n_sequences": 1}}, "two sequences"),
        (["disintegrate", "consistency"], {"system": cantor, "disintegrate": {"xis": []}},
         "frequency"),
        (["disintegrate", "consistency"], {"system": cantor,
                                           "disintegrate": {"xis": [math.nan]}}, "finite"),
        (["equidist", "count"], {"equidist": {"horizon": math.inf}}),
        (["pushforward-scan"], {"system": cantor, "map": {"expr": "(pow 2 1e308)"},
                                "scan": scan}),
        (["fourier-scan"], {"system": {"kind": "smooth1d", "weights": [1.0], "maps": [
            {"expr": "(mul 0.5 x)", "deriv_lipschitz": 1.0}]}, "scan": scan}),
        (["equidist", "count"], {"equidist": {"rate": None}}),
        (["fourier-scan"], {"system": {"kind": "affine1d", "weights": [0.5, 0.5], "maps": [
            {"ratio": math.nan, "translate": 1.0}, {"ratio": 0.1, "translate": 0.0}]},
            "scan": scan}),
        (["disintegrate", "sample"], {"system": {"kind": "affine1d", "weights": [0.5, 0.5],
                                                 "maps": [{"ratio": 0.0, "translate": 0.0},
                                                          {"ratio": 0.0, "translate": 1.0}]}}),
        # the exact and product evaluators and conjugation are 1-D only
        (["fourier-scan"], {"system": FIBRE3, "scan": dict(scan, method="exact")}),
        (["fourier-scan"], {"system": FIBRE3, "scan": dict(scan, method="product")}),
        (["decay", "sparse"], {"system": FIBRE3, "decay": {"method": "exact", "limit": 9.0}}),
        (["conjugate"], {"system": FIBRE3, "map": {"expr": "(pow x 2)",
                                                   "inverse": "(pow x 0.5)"}}),
        # the fibre variable was accepted and never read
        (["conjugate"], {"system": cantor, "map": {"expr": "(pow x 2)", "inverse": "(pow x 0.5)",
                                                   "fibre_var": "z"}}, "fibre variable"),
        # a negative tail mass gave negative "rigorous" bounds
        (["fourier-scan"], {"system": {"kind": "affine1d", "weights": [0.6, 0.6],
                                       "tail_mass": -0.2, "maps": [
            {"ratio": 0.3, "translate": 0.0}, {"ratio": 0.3, "translate": 0.7}]},
            "scan": dict(scan, method="exact")}, "tail_mass"),
        # a negative fibre weight ran to exit 0 with every row labelled "rigorous"
        (["pushforward-scan"], {"system": dict(FIBRE3, fibres=[
            dict(f, weight=w) for f, w in zip(FIBRE3["fibres"], (0.6, 0.6, -0.2))]),
            "map": {"expr": "(add (mul 0.5 x) (pow y 2))", "fibre_var": "y"}, "scan": scan},
         "weight of ('R', 'c')"),
        # the product evaluator used the first ratio for both
        (["fourier-scan"], {"system": {"kind": "affine1d", "weights": [0.5, 0.5], "maps": [
            {"ratio": 0.3, "translate": 0.0}, {"ratio": 0.3 + 9e-13, "translate": 0.7}]},
            "scan": dict(scan, xi_min=1e8, xi_max=1e8, points=1, method="product")},
         "equal contraction ratios"),
        # expressions nested past the recursion limit
        (["pushforward-scan"], {"system": cantor, "map": {"expr": nested("x")}, "scan": scan},
         "RecursionError"),
        (["equidist", "count"], {"equidist": {"rate": nested("n")}}, "RecursionError"),
        # NaN passed "tol <= 0" and "alpha <= 0"; the schema now rejects it
        # first (test_library_validators_reject_bad_tol_and_alpha keeps the library checks)
        (["fourier-scan"], {"system": cantor, "scan": dict(scan, tol=math.nan, method="exact")},
         "scan.tol"),
        (["pushforward-scan"], {"system": cantor, "map": {"expr": "(pow x 2)"},
                                "scan": dict(scan, tol=math.nan)}, "scan.tol"),
        (["disintegrate", "membership"], {"system": FIBRE3, "disintegrate": {
            "block_length": 2, "alpha": math.nan, "prefix_length": 16}}, "disintegrate.alpha"),
        # a required key that is absent, or a section with none of its keys
        (["fourier-scan"], {"system": cantor, "scan": {"xi_max": 2.0, "points": 2}},
         "scan.xi_min is required"),
        (["fourier-scan"], {"system": cantor}, "scan.xi_min is required"),
        (["pushforward-scan"], {"system": cantor, "scan": scan}, "map.expr is required"),
        (["conjugate"], {"system": cantor, "map": {"expr": "(pow x 2)"}},
         "map.inverse is required"),
        (["fourier-scan"], {"scan": scan}, "system.kind is required"),
        (["fourier-scan"], {"system": {"kind": "affine1d", "maps": [
            {"ratio": 0.5, "translate": 0.0}]}, "scan": scan}, "system.weights is required"),
        (["fourier-scan"], {"system": {"kind": "affine1d", "weights": [1.0], "maps": [
            {"ratio": 0.5}]}, "scan": scan}, "system.maps[0].translate is required"),
        # horizon 0 read its flags from the wrapped index -1 and exited 0; a
        # reversed range failed with numpy's message
        *((["disintegrate", "membership"], {"system": cantor, "seed": 3, "disintegrate": {
            "block_length": 2, "prefix_length": 8, **horizons}}, "horizon")
          for horizons in ({"horizon_min": 0}, {"horizon_min": -3},
                           {"horizon_min": 5, "horizon_max": 4})),
        # a NaN or infinite frequency said the prefix was too short
        *((["disintegrate", "ek"], {"system": cantor, "disintegrate": {
            "block_length": 2, "alpha": 0.2, "xi": xi}}, "finite")
          for xi in (math.nan, math.inf, -math.inf)),
        # an empty band range wrote "bands": [] before it failed
        (["decay", "bands"], {"system": cantor, "decay": {
            "method": "exact", "band_min": 4, "band_max": 3}}, "band"),
        # bands past the float range: 15 s over the ~640 bands below them,
        # numpy overflow warnings, then "frequencies must be finite"
        *((["decay", "bands"], {"system": cantor, "decay": {
            "method": "exact", "band_base": 3.0, "band_max": band_max}}, "overflows")
          for band_max in (646, 10 ** 5)),
        # frequencies whose phase 2*pi*R*|xi| overflows: the scan exited 3 with
        # "budget exhausted, achieved 0.0", the band exited 0 with every sample
        # excluded, the product and Monte Carlo wrote NaN values, the
        # pushforward said its stopping threshold must be positive, and the
        # consistency check leaked Python's OverflowError
        *((["fourier-scan"], {"system": cantor, "scan": dict(
            scan, xi_min=1e308, xi_max=1e308, points=1, method=method)}, "overflows")
          for method in ("exact", "product", "montecarlo")),
        *((["pushforward-scan"], {"system": system, "map": {"expr": "(pow x 2)"}, "scan": dict(
            scan, xi_min=1e308, xi_max=1e308, points=1)}, "overflows")
          for system in (cantor, SMOOTH)),
        (["disintegrate", "consistency"], {"system": cantor, "disintegrate": {"xis": [1e308]}},
         "overflows"),
        # the pushforward's arguments of mu xi F'(a) rho overflow where its
        # thresholds do not: numpy's overflow warning, then "frequencies must
        # be finite" from the sweep
        (["pushforward-scan"], {"system": cantor, "map": {"expr": "(mul 1e10 x)"},
                                "scan": dict(scan, xi_min=1e300, xi_max=1e300, points=1)},
         "frequency too large"),
        # Python's float power overflowed building the family
        (["decay", "probe"], {"system": cantor, "decay": {
            "family_base": 1e10, "count": 40}}, "family_base"),
        (["decay", "bands"], {"system": cantor, "decay": {
            "method": "exact", "band_base": 3.0, "band_min": 645, "band_max": 645}},
         "overflows"),
        # count 0, or an empty family, wrote a probe with a header and no rows
        *((["decay", "probe"], {"system": cantor, "decay": {
            "family_base": 2.0, "count": count}}, "count") for count in (0, -3)),
        (["decay", "probe"], {"system": cantor, "decay": {"family": []}}, "no frequency"),
        # a NaN exponent wrote "threshold": NaN and exited 0; a NaN limit
        # leaked "cannot convert float NaN to integer"
        (["decay", "sparse"], {"system": cantor, "decay": {
            "method": "exact", "limit": 9.0, "exponent": math.nan}}, "exponent"),
        *((["decay", "sparse"], {"system": cantor, "decay": {
            "method": "exact", "limit": limit}}, "limit")
          for limit in (math.nan, math.inf)),
        # a smooth map 5e-10 past its box passed the 1e-9 slack as "certified"
        (["pushforward-scan"], {"system": {"kind": "smooth1d", "weights": [0.5, 0.5], "maps": [
            {"expr": "(add (mul 0.5 x) 0.5000000005)"}, {"expr": "(mul 0.5 x)"}]},
            "map": {"expr": "(pow x 2)"}, "scan": scan}, "system.maps[0].expr", "into itself"),
    ]
    for n, (argv, config, *word) in enumerate(cases):  # a case may name a word its message holds
        cfg = write_config(tmp_path / "cfg.json", config)
        out = tmp_path / f"o{n}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--config", cfg, "--out", str(out)]) == 2, config
        assert not caught, (config, [str(w.message) for w in caught])
        assert not any(p.is_file() for p in out.rglob("*")), config
        err, = capsys.readouterr().err.strip().splitlines()  # one JSON line
        error = json.loads(err)["error"]
        assert error["kind"] == "validation"
        assert all(w in error["message"] for w in word), (word, err)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_library_validators_reject_bad_tol_and_alpha(bad):
    # the config schema rejects NaN before these run; a library caller has
    # only their own checks
    F = push.SmoothMapF.parse("(pow x 2)")
    with pytest.raises(ifs.ValidationError, match="tolerance"):
        meas.fourier_exact_batch(cantor_system(), [1.0], tol=bad)
    with pytest.raises(ifs.ValidationError, match="tolerance"):
        push.pushforward_fourier(F, cantor_system(), [1.0], tol=bad)
    table = dis.build_classes(ifs.fibre_product_from_1d(cantor_system()), 2)
    with pytest.raises(ifs.ValidationError, match="alpha > 0"):
        dis.LargeDeviationParams.for_table(table, bad)


def test_scan_grid_is_checked_before_it_is_built(tmp_path, capsys):
    # xi_max inf made numpy warn before the evaluator's own check; points 0
    # wrote an empty scan and exited 0
    scan = {"xi_min": 1.0, "xi_max": 2.0, "points": 2}
    for bad, word in (({"xi_max": math.inf}, "scan.xi_max must be a finite real"),
                      ({"xi_min": -math.inf}, "scan.xi_min must be a finite real"),
                      ({"xi_min": -1e308, "xi_max": 1e308}, "xi_max - xi_min overflows"),
                      ({"points": 0}, "scan.points must be >= 1"),
                      ({"points": -3}, "scan.points must be >= 1")):
        cfg = write_config(tmp_path / "cfg.json", {"system": {"kind": "named", "name": "cantor"},
                                                   "scan": dict(scan, **bad)})
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fourier-scan", "--config", cfg, "--out", str(out)]) == 2, bad
        assert word in json.loads(capsys.readouterr().err.strip())["error"]["message"]
        assert not (out / "scan.csv").exists()


def test_band_base_at_most_one_exits_2(tmp_path, capsys):
    # base 1 made every band [1, 2], so a fit ran over copies of one band
    for base in (1.0, 0.5):
        cfg = write_config(tmp_path / "cfg.json", {
            "system": {"kind": "named", "name": "cantor"},
            "decay": {"band_base": base, "band_min": 1, "band_max": 3, "tol": 1e-3}})
        assert main(["decay", "bands", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "band base" in json.loads(capsys.readouterr().err.strip())["error"]["message"]


def test_probe_family_base_at_most_one_exits_2(tmp_path, capsys):
    # base 0 evaluated xi = 1, 0, 0
    for base in (0.0, 1.0):
        cfg = write_config(tmp_path / "cfg.json", {
            "system": {"kind": "named", "name": "cantor"},
            "decay": {"family_base": base, "count": 3, "tol": 1e-3}})
        assert main(["decay", "probe", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "family base" in json.loads(capsys.readouterr().err.strip())["error"]["message"]


def test_equidist_count_needs_positive_epsilon_and_horizon(tmp_path, capsys):
    # epsilon -1 read pass_fraction_unit_band 1.0; horizon 0 counted nothing
    for bad, word in (({"epsilon": -1.0}, "epsilon"), ({"epsilon": 0.0}, "epsilon"),
                      ({"horizon": 0}, "horizon")):
        cfg = write_config(tmp_path / "cfg.json", {
            "equidist": dict({"base": 2, "horizon": 10, "seeds": 1}, **bad)})
        assert main(["equidist", "count", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert word in json.loads(capsys.readouterr().err.strip())["error"]["message"]


def test_malformed_equidist_configs_exit_2(tmp_path, capsys):
    # each of these exited 0 (base 2.5 ran base 2; horizon 0 wrote nan rows;
    # seeds 0 wrote header-only CSVs) or leaked numpy's message (horizon -5)
    cases = [(["count"], {"base": 2.5}, "base"), (["digits"], {"base": 2.5}, "base"),
             (["weyl"], {"base": 2.5}, "base"),
             (["digits"], {"horizon": 0}, "horizon"), (["weyl"], {"horizon": 0}, "horizon"),
             (["digits"], {"horizon": -5}, "horizon"), (["weyl"], {"horizon": -5}, "horizon"),
             (["count"], {"seeds": 0}, "seeds"), (["weyl"], {"seeds": -1}, "seeds"),
             (["digits"], {"seeds": 0}, "seeds"),
             # a digit histogram one column per possible digit wide: this
             # wrote a 9.9 MB CSV for ten digits
             (["digits"], {"base": 1000000, "horizon": 10}, "base"),
             # NaN passed the range check and wrote nan rows with exit 0
             (["count"], {"rate": "(div (sub n n) (sub n n))"}, "rate value nan at n=1"),
             (["count"], {"rate": "(sub 0.025 (mul 0.05 n))"}, "rate value -0.025 at n=1")]
    for action, bad, word in cases:
        out = tmp_path / "o"
        cfg = write_config(tmp_path / "cfg.json", {
            "equidist": dict({"base": 3, "horizon": 10, "seeds": 1}, **bad)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["equidist"] + action + ["--config", cfg, "--out", str(out)]) == 2, bad
        err, = capsys.readouterr().err.strip().splitlines()  # one JSON line
        assert word in json.loads(err)["error"]["message"], (action, bad)
        assert not any(out.iterdir()), (action, bad)


# -- the config schema ---------------------------------------------------------

CANTOR = {"kind": "named", "name": "cantor"}
TWO = {"kind": "affine1d", "weights": [0.5, 0.5],
       "maps": [{"ratio": 0.5, "translate": 0.0}, {"ratio": 1 / 3, "translate": 2 / 3}]}
SCAN = {"xi_min": 1.0, "xi_max": 2.0, "points": 2}
# per schema table: a command, a config whose table it reads, and where in
# that config the table's section sits
READERS = {
    "config": (["fourier-scan"], {"system": CANTOR, "scan": SCAN}, ()),
    "system": (["fourier-scan"], {"system": TWO, "scan": SCAN}, ("system",)),
    "system.maps (affine1d)": (["fourier-scan"], {"system": TWO, "scan": SCAN},
                               ("system", "maps", 0)),
    "system.maps (smooth1d)": (["fourier-scan"], {"system": SMOOTH, "scan": SCAN},
                               ("system", "maps", 0)),
    "system.base": (["disintegrate", "classes"], {"system": FIBRE3}, ("system", "base", 0)),
    "system.fibres": (["disintegrate", "classes"], {"system": FIBRE3},
                      ("system", "fibres", 0)),
    "scan": (["fourier-scan"], {"system": CANTOR, "scan": SCAN}, ("scan",)),
    "map": (["conjugate"], {"system": CANTOR, "map": {"expr": "(pow x 2)",
                                                      "inverse": "(pow x 0.5)"}}, ("map",)),
    "decay": (["decay", "bands"], {"system": CANTOR, "decay": {}}, ("decay",)),
    "disintegrate": (["disintegrate", "classes"], {"system": CANTOR, "disintegrate": {}},
                     ("disintegrate",)),
    "equidist": (["equidist", "count"], {"equidist": {}}, ("equidist",)),
}
WRONG = {cli.REAL: [True, "1", "nan", math.inf], cli.INT: [True, "1", 3.5]}
WRONG.update({cli.REALS: [[v] for v in WRONG[cli.REAL]],
              cli.INTS: [[v] for v in WRONG[cli.INT]]})
NUMERIC = [(name, key, value) for name, table in cli.SCHEMA.items()
           for key, spec in table.items() for value in WRONG.get(spec.kind, [])]


def test_every_table_has_a_reader():
    assert set(READERS) == set(cli.SCHEMA)


@pytest.mark.parametrize("name, key, value", NUMERIC,
                         ids=[f"{n}.{k}={v!r}" for n, k, v in NUMERIC])
def test_wrong_typed_numbers_exit_2(tmp_path, capsys, name, key, value):
    # "tol": true ran at tol 1, "xis": ["1"] and "terms": [true, 2, 3] ran,
    # and every real key took a numeric string or a bool before the schema
    argv, config, where = READERS[name]
    config = json.loads(json.dumps(config))
    section = config
    for step in where:
        section = section[step]
    section[key] = value
    cfg, out = write_config(tmp_path / "cfg.json", config), tmp_path / "o"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    path = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in where + (key,))[1:]
    err, = capsys.readouterr().err.strip().splitlines()  # one JSON line
    error = json.loads(err)["error"]
    assert error["kind"] == "validation" and f"ValidationError: {path}" in error["message"]
    assert not any(p.is_file() for p in out.rglob("*"))


def test_readme_lists_every_schema_key():
    """The README's config reference has one row per key of every table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for name, table in cli.SCHEMA.items():
        for key, spec in table.items():
            if spec.default is None:
                default = "null"
            elif spec.default in (cli.REQUIRED, cli.OPTIONAL):
                default = spec.default
            else:
                default = json.dumps(spec.default)
            kind = spec.kind.split(" ", 1)[1].replace("finite ", "")
            least = (f">= {spec.least}" if spec.least is not None else
                     "finite" if spec.kind in (cli.REAL, cli.REALS) else "")
            row = (f"| {name} | `{key}` | {kind} | {default} | {least} | "
                   f"{'yes' if spec.sized else ''} |")
            assert row in readme, row


# -- random configs ------------------------------------------------------------

junk = st.sampled_from(["abc", "1", "nan", None, [], {}, True, -1, 0, math.inf, math.nan])


def either(good):
    return good | junk


small = st.integers(1, 4)


def sized(values):
    """A key that sizes an allocation: ``values``, or over the tests' budget
    of 3000, up to 1e15."""
    return values | st.integers(3001, 10 ** 15)


frequency = st.floats(-8.0, 40.0)
tolerance = st.sampled_from([0.3, 1e-2, 1e-3, 1e-6])
expression = st.sampled_from(["(pow x 2)", "(pow x 3)", "(mul 0.3 x)", "(add 0.6 (mul 0.3 x))",
                              "(add (mul 0.5 x) (pow y 2))", "(pow x 0.5)", "(div 1 x)",
                              "(add x 4)", "(pow z 2)", "(", "x"])
methods = st.sampled_from(["exact", "product", "montecarlo", "pushforward", "bogus"])
# values that let a command run, by key or by (table, key); every other key
# draws from its type, so a key added to the schema is fuzzed too
GOOD = {"xi_min": frequency, "xi_max": frequency, "points": st.integers(0, 5),
        "tol": tolerance, "method": methods, "draws": st.integers(100, 300),
        "factors": st.integers(1, 16), "fibre_var": st.sampled_from(["x", "y"]),
        "ks_tol": st.just(0.5), "band_base": st.sampled_from([2.0, 3.0]),
        "samples_per_band": st.just(64), "exponent": st.floats(0.0, 0.5),
        "limit": st.sampled_from([4.0, 9.0, 1e300]), "grid_step": st.sampled_from([0.25]),
        "family_base": st.sampled_from([2.0, 3.0]), "block_length": st.integers(1, 2),
        "n_sequences": st.integers(1, 8), "alpha": st.floats(0.0, 1.0),
        "prefix_length": st.integers(1, 16), "horizon_min": st.integers(-2, 20),
        "horizon_max": st.integers(-2, 20), "xi": frequency, "trunc_tol": tolerance,
        ("equidist", "base"): st.sampled_from([2, 3, 10]), "gamma": st.floats(0.0, 1.0),
        "rate": st.sampled_from(["(div 1 (mul 2 n))", "(mul 0.1 (pow n 0))", "(pow n"]),
        "horizon": st.integers(1, 64), "seeds": st.integers(1, 2),
        "epsilon": st.floats(0.0, 2.0), "seed": st.integers(0, 9),
        "ratio": st.floats(-0.9, 0.9), "translate": st.floats(-2.0, 2.0),
        ("system.fibres", "base"): st.sampled_from(["L", "R"]),
        ("system.fibres", "id"): st.sampled_from(["a", "b", "c"]),
        ("system.fibres", "ratio"): st.sampled_from([1 / 3, 0.5]),
        ("system.fibres", "translate"): st.sampled_from([0.0, 1 / 3, 2 / 3]),
        ("system.fibres", "weight"): st.sampled_from([1 / 3, 0.5]),
        "expr": expression, "inverse": expression, "n_max": st.integers(1, 8)}
BY_TYPE = {cli.REAL: st.floats(0.0, 1.0), cli.INT: small, cli.TEXT: st.sampled_from(["x", "y"]),
           cli.EXPR: expression, cli.REALS: st.lists(frequency, max_size=3),
           cli.INTS: st.lists(st.integers(1, 9), max_size=3), cli.OBJECT: st.just({}),
           cli.OBJECTS: st.just([])}


def value(name, key):
    spec = cli.SCHEMA[name][key]
    good = GOOD.get((name, key), GOOD.get(key, BY_TYPE[spec.kind]))
    return either(sized(good) if spec.sized else good)


def table(name, /, require=False, **fixed):
    """A section of the table ``name``: its ``fixed`` keys, its required keys
    if ``require``, and any of the others (an absent required key is one
    more malformed input)."""
    keys = cli.SCHEMA[name]
    required = {k: value(name, k) for k in keys
                if require and keys[k].default == cli.REQUIRED and k not in fixed}
    return st.fixed_dictionaries({**required, **fixed}, optional={
        k: value(name, k) for k in keys if k not in fixed and k not in required})


def system(kind, entries):
    """A system of ``kind`` whose map list ``entries`` draws, with its weights."""
    return st.tuples(entries, table("system", kind=st.just(kind), maps=st.just([]))).map(
        lambda t: dict(t[1], maps=t[0], weights=[1 / len(t[0])] * len(t[0])))


systems = either(
    table("system", kind=st.just("named"),
          name=st.sampled_from(["cantor", "dyadic-uniform", "nope"]))
    | system("affine1d", st.lists(table("system.maps (affine1d)", require=True),
                                  min_size=1, max_size=3))
    | system("smooth1d", st.lists(table("system.maps (smooth1d)", require=True),
                                  min_size=1, max_size=2))
    | table("system", kind=st.just("fibre_product"), base=st.just(FIBRE3["base"]),
            fibres=st.lists(table("system.fibres", require=True), min_size=1, max_size=3))
    | st.just(FIBRE3))
# a section may be absent but is never junk: the top level types every
# section, used or not, so one junk section would end nearly every run there
configs = st.fixed_dictionaries({"system": systems}, optional={
    k: table(k) if spec.kind == cli.OBJECT else value("config", k)
    for k, spec in cli.SCHEMA["config"].items() if k != "system"})
commands = st.sampled_from([["fourier-scan"], ["pushforward-scan"], ["decay", "bands"],
                            ["decay", "fit"], ["decay", "sparse"], ["decay", "probe"],
                            ["disintegrate", "classes"], ["disintegrate", "sample"],
                            ["disintegrate", "membership"], ["disintegrate", "ek"],
                            ["disintegrate", "consistency"], ["equidist", "count"],
                            ["equidist", "weyl"], ["equidist", "digits"], ["conjugate"],
                            ["verify"], ["report"]])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(commands, configs)
def test_random_configs_exit_with_a_code(command, config):
    # a run that exits 2 leaves nothing behind in its fresh out directory
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "o"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = main(command + ["--config", str(path), "--out", str(out), "--budget", "3000"])
        left = sorted(p.name for p in out.rglob("*") if p.is_file())
    assert code in (0, 2, 3)
    assert code != 2 or not left, (code, left)
