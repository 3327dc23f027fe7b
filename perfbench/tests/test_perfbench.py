"""Tests of the benchmark itself, on tiny passes.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
from dataclasses import replace

import pytest

import ffl.cli
import ffl.measure
import reference
import run
import workloads
from tracer import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def private_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def tiny_run(workload, trace):
    return run.run(workload, seed=3, seconds=0, trace=trace, scale="tiny",
                   probes=1, min_passes=1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_emits_every_named_metric(workload):
    assert workload in [w["name"] for w in SPEC["workloads"]]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        record = tiny_run(workload, trace)
        line = run.result_line(record, SPEC[key])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in SPEC[key]]
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
        if trace:
            assert record["accounting_ok"], record["per_layer"]["trace.accounted"]
        else:
            assert all(line["metrics"][m["name"]]["value"] > 0 for m in SPEC[key])


def test_biased_evaluator_counts_in_fail_frac(monkeypatch):
    exact = ffl.measure.fourier_exact

    def biased(cifs, xi, tol=1e-9, budget=ffl.measure.DEFAULT_BUDGET):
        fv = exact(cifs, xi, tol=tol, budget=budget)
        return replace(fv, value=fv.value + 10 * tol) if xi else fv

    monkeypatch.setattr(ffl.measure, "fourier_exact", biased)
    record = tiny_run("spectral_exact", trace=False)
    assert record["failed"] > 0
    assert record["end_to_end"]["fail_frac"] > 0
    assert record["checks"]["cantor_scan"]["failed"] > 0
    assert not record["correct"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_passes_write_identical_artifacts(workload, tmp_path):
    cmds = workloads.commands(workload, 5, "tiny")
    workloads.write_configs(cmds, tmp_path)
    passes = run.Passes(ffl.cli, cmds, tmp_path)
    passes.once()
    tr = Tracer().install()
    try:
        passes.once()
    finally:
        tr.uninstall()
    passes.once()
    assert passes.rcs == [[0] * len(cmds)] * 3
    assert passes.digests[0] == passes.digests[1] == passes.digests[2]
    assert tr.select("cli.main")[0] == len(cmds)


def test_exact_recount_catches_a_wrong_count(tmp_path):
    cmd = workloads.commands("orbits", 2, "tiny")[1]
    workloads.write_configs([cmd], tmp_path)
    out = tmp_path / cmd.out
    assert ffl.cli.main(cmd.cli_args(tmp_path)) == 0
    assert reference.check_command(cmd, out, run.random.Random(0)).failed == 0
    csv = out / "count.csv"
    lines = csv.read_text().splitlines()
    body = [i for i, l in enumerate(lines) if l[:1].isdigit()]
    for i in body:
        cols = lines[i].split(",")
        cols[3] = str(int(cols[3]) + 1)
        lines[i] = ",".join(cols)
    csv.write_text("\n".join(lines) + "\n")
    assert reference.check_command(cmd, out, run.random.Random(0)).failed == 1


@pytest.mark.xfail(strict=True, reason="ffl's smooth-system pushforward misses its "
                   "bound when the maps' contraction bounds differ; once this passes, "
                   "put the smooth scan back into pushforward_bands")
def test_smooth_pushforward_within_its_bound(tmp_path):
    cmd = workloads.smooth_scan(3)
    workloads.write_configs([cmd], tmp_path)
    assert ffl.cli.main(cmd.cli_args(tmp_path)) == 0
    chk = reference.check_command(cmd, tmp_path / cmd.out, run.random.Random(0))
    assert chk.failed == 0, chk.notes


def test_tail_percentile_leaves_ten_passes_beyond():
    times = [float(i) for i in range(40)]
    pct, value = run.tail(times)
    assert pct == 75 and sum(t > value for t in times) == 10
    assert run.tail(times[:5]) == (100, 4.0)
