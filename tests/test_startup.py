"""Start-up guard: importing ffl loads nothing, and each CLI command loads
only the ffl modules it runs. Every check runs in a fresh interpreter, so
the modules other tests load do not count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import ffl

SRC = str(Path(ffl.__file__).parents[1])


def loaded(code: str) -> set:
    """The modules a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout.splitlines()[-1]))


def ffl_modules(code: str) -> set:
    return {m for m in loaded(code) if m == "ffl" or m.startswith("ffl.")}


def command(tmp_path, argv, config) -> str:
    """Code that runs ``ffl argv`` on ``config`` and checks that it exits 0."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = [*argv, "--config", str(path), "--out", str(tmp_path / "out")]
    return f"from ffl import cli\nassert cli.main({argv!r}) == 0"


def test_import_ffl_loads_no_numpy():
    modules = loaded("import ffl")
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("ffl")} == {"ffl"}


def test_import_cli_loads_only_what_every_command_needs():
    assert ffl_modules("import ffl.cli") == {"ffl", "ffl.cli", "ffl.ifs", "ffl.rng"}


def test_affine_scan_loads_no_expression_or_other_command(tmp_path):
    modules = ffl_modules(command(tmp_path, ["fourier-scan"], {
        "system": {"kind": "named", "name": "cantor"},
        "scan": {"xi_min": 1.0, "xi_max": 30.0, "points": 4}}))
    assert "ffl.measure" in modules
    assert not modules & {"ffl.expr", "ffl.pushforward", "ffl.disintegrate",
                          "ffl.equidist", "ffl.svg"}


def test_equidist_count_loads_no_measure(tmp_path):
    modules = ffl_modules(command(tmp_path, ["equidist", "count"],
                                  {"equidist": {"horizon": 64}}))
    assert "ffl.equidist" in modules and "ffl.measure" not in modules
