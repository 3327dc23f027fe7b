"""Benchmark of the ffl command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; it imports ffl from ``src``. One
client drives ``ffl.cli.main(argv)`` in-process in a closed loop: each
command starts when the previous one has returned, and one pass is the
workload's command list in order (see ``workloads.py``). ``--threads`` is
left unset, so the CLI's default pool size applies; the result records it.

``--trace 0`` prints the end-to-end metrics: set-up time of a fresh
process (median of ``SETUP_PROBES``), median and tail pass time over
``--seconds`` of passes, and peak resident memory. Set-up and pass times
are scaled to a fixed machine speed by a calibration kernel timed beside
each of them (see ``Calibration``); the raw wall times go to the record.
``--trace 1`` spends half of ``--seconds`` on untraced passes and half on
traced ones, and prints the per-layer metrics of the traced passes (per
pass).

Artifacts of the last pass are checked against the independent references
in ``reference.py`` after timing; every other pass must write the same
bytes. The last stdout line is the result object; the full record, with
machine facts, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
MIN_PASSES = 11          # the tail percentile needs at least 10 passes beyond it
MAX_RUN_S = 120.0        # hard stop for the timed loop on a slow machine
ACCOUNTING_TOL = 0.10    # layer self times must cover the traced wall time within this
CAL_REF_S = 0.02         # the calibration kernel's time at the reference machine speed


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=20, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def machine_facts() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    revision = dirty = None
    if (ROOT / ".git").exists():
        revision = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ffl").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        # cli.main's default when --threads is not given
        "cli_threads": int(os.environ.get("FFL_THREADS", os.cpu_count() or 1)),
        "git_revision": revision or "unknown (not a git checkout)",
        "git_dirty": dirty,
        "src_sha256": src.hexdigest(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Calibration:
    """A fixed mix of interpreter, numpy and big-integer work, timed beside
    every pass and set-up probe.

    The vCPUs of a shared host change speed by up to 1.7x for seconds to
    minutes at a time, in CPU time as much as in wall time, so raw medians
    of runs made minutes apart differ by more than any useful bound. A time
    ``t`` measured next to kernel time ``c`` is reported as
    ``t * CAL_REF_S / c``: the time at the speed where the kernel takes
    ``CAL_REF_S``. The kernel allocates nothing large, so the program's heap
    does not change its time.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        self.phase = -2j * np.pi * np.linspace(0.0, 50.0, 8192)
        self.buf = np.empty_like(self.phase)
        self.a, self.b = 3 ** 20000, 7 ** 12000
        self.times = []

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(45000):
            acc += math.sin(i * 1e-3) * (i % 7)
        for _ in range(30):
            self.np.exp(self.phase, out=self.buf)
        for _ in range(15):
            acc += (self.a * self.b) & 1
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt


def scaled(times, cals) -> list:
    """Each time scaled by the mean of the kernel times on either side of it."""
    return [t * 2.0 * CAL_REF_S / (a + b) for t, a, b in zip(times, cals, cals[1:])]


def setup_times(workload: str, seed: int, workdir: Path, probes: int, cal) -> tuple:
    """(raw, scaled) wall times of ``probes`` fresh set-up processes."""
    times, cals = [], [cal()]
    for i in range(probes):
        target = workdir / f"probe{i}"
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                              str(seed), str(target)], capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        cals.append(cal())
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.decode()[-2000:]}")
    return times, scaled(times, cals)


def digests(cmds, workdir: Path) -> list:
    out = []
    for c in cmds:
        h = hashlib.sha256()
        for name in c.artifacts:
            path = workdir / c.out / name
            h.update(path.read_bytes() if path.exists() else b"<missing>")
        out.append(h.hexdigest())
    return out


class Passes:
    """Timed passes over a command list, with exit codes and artifact digests."""

    def __init__(self, cli, cmds, workdir: Path):
        self.cli, self.cmds, self.workdir = cli, cmds, workdir
        self.rcs, self.digests = [], []

    def once(self) -> float:
        argvs = [c.cli_args(self.workdir) for c in self.cmds]
        t0 = time.perf_counter()
        rcs = [self.cli.main(argv) for argv in argvs]
        dt = time.perf_counter() - t0
        self.rcs.append(rcs)
        self.digests.append(digests(self.cmds, self.workdir))
        return dt

    def loop(self, seconds: float, min_passes: int, cal) -> tuple:
        """(raw, scaled) pass times, with ``cal`` timed before and after each."""
        times, cals = [], [cal()]
        start = time.perf_counter()
        while ((time.perf_counter() - start < seconds or len(times) < min_passes)
               and time.perf_counter() - start < MAX_RUN_S):
            times.append(self.once())
            cals.append(cal())
        return times, scaled(times, cals)


def tail(times) -> tuple:
    """(percentile, value): the highest nearest-rank percentile with at
    least 10 passes beyond it; the maximum when there are too few passes."""
    n = len(times)
    ordered = sorted(times)
    if n < MIN_PASSES:
        return 100, ordered[-1]
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p / 100 * n)
    return p, ordered[rank - 1]


def check_all(cmds, workdir: Path, passes: Passes, seed: int) -> tuple:
    """Fail counts over every pass. The last pass's artifacts are checked
    against the references; a pass that exits non-zero or writes other
    bytes fails all of that command's operations."""
    import reference
    rng = random.Random(f"check:{seed}")
    checks = []
    for c in cmds:
        try:
            chk = reference.check_command(c, workdir / c.out, rng)
        except (OSError, ValueError, KeyError, IndexError) as err:
            chk = reference.Check(1)
            chk.fail(f"{c.name}: artifacts unreadable: {type(err).__name__}: {err}")
        checks.append(chk)
    last = passes.digests[-1]
    attempted = failed = 0
    for rcs, dig in zip(passes.rcs, passes.digests):
        for i, chk in enumerate(checks):
            attempted += chk.ops
            if rcs[i] != 0 or dig[i] != last[i]:
                failed += chk.ops
            else:
                failed += chk.failed
    return checks, attempted, failed


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------

def layer_metrics(tr, n: int) -> dict:
    from tracer import CALLS, TOTAL, SELF_BUSY, WORK, POOL
    S = tr.select
    exact = S("measure.fourier_exact")
    memo = S("measure.character", parents={"measure.fourier_exact"})
    pf = S("pushforward.pushforward_fourier")
    pf_char = S("measure.character", parents={"pushforward.pushforward_fourier"})
    ev = S("expr.Expr.eval")
    dec = S({"decay.band_maxima", "decay.sparse_cover"})
    stream = S("rng.stream_rng")
    omega = S("disintegrate.sample_omega")
    mu = S("disintegrate.mu_omega_fourier")
    gp_names = {"equidist.grid_point_for", "equidist.random_grid_point"}
    frac = S("equidist.GridPoint.fraction")
    hits = S("equidist.count_hits")
    digits = S("equidist.digit_freq")
    build = {"cli.build_system", "ifs.build_fibre_product", "ifs.fibre_product_from_1d"}
    writes = S({"cli.write_csv", "cli.write_json", "svg.log_log_plot"})
    pool = S(POOL)
    raw = {
        "measure.exact_s": exact[TOTAL],
        "measure.exact_calls": exact[CALLS],
        "measure.memo_nodes": memo[CALLS],
        "measure.character_s": memo[TOTAL],
        "measure.character_points": memo[WORK],
        "pushforward.fourier_s": pf[TOTAL],
        "pushforward.calls": pf[CALLS],
        "pushforward.self_s": pf[SELF_BUSY],
        "pushforward.character_s": pf_char[TOTAL],
        "pushforward.anchors": pf_char[WORK],
        "pushforward.map_norms_s": S("pushforward.map_norms")[TOTAL],
        "expr.parse_s": S("expr.parse")[TOTAL],
        "expr.eval_s": ev[TOTAL],
        "expr.eval_points": ev[WORK],
        "decay.self_s": dec[SELF_BUSY],
        "decay.evals": dec[WORK],
        "decay.excluded": tr.counter("decay.excluded"),
        "rng.stream_rng_calls": stream[CALLS],
        "rng.stream_rng_s": stream[TOTAL],
        "disintegrate.classes_s": S("disintegrate.build_classes")[TOTAL],
        "disintegrate.sample_omega_s": omega[TOTAL],
        "disintegrate.sequences": omega[CALLS],
        "disintegrate.mu_omega_s": mu[TOTAL],
        "disintegrate.mu_omega_calls": mu[CALLS],
        "disintegrate.target_s": S("measure.fourier_exact",
                                   parents={"disintegrate.disintegration_consistency"})[TOTAL],
        "equidist.grid_point_s": S(gp_names, exclude_parents=gp_names)[TOTAL],
        "equidist.fraction_s": frac[TOTAL],
        "equidist.fraction_calls": frac[CALLS],
        "equidist.count_hits_s": hits[TOTAL],
        "equidist.orbit_self_s": hits[SELF_BUSY],
        "equidist.sigma_s": S("equidist.sigma")[TOTAL],
        "equidist.orbit_steps": hits[WORK] + digits[WORK],
        "equidist.digits_s": digits[TOTAL],
        "ifs.build_s": S(build, exclude_parents=build)[TOTAL],
        "cli.write_s": writes[TOTAL],
        "cli.bytes_written": writes[WORK],
    }
    out = {k: v / n for k, v in raw.items()}
    out["measure.memo_nodes_per_call"] = memo[CALLS] / exact[CALLS] if exact[CALLS] else 0.0
    out["cli.pool_speedup"] = tr.counter("pool.child_s") / pool[TOTAL] if pool[TOTAL] else 0.0
    for layer, s in tr.layer_self().items():
        out[f"layer.{layer}.self_s"] = s / n
    return out


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        probes: int = SETUP_PROBES, min_passes: int = MIN_PASSES) -> dict:
    """One benchmark run; returns the full record."""
    import workloads
    cmds = workloads.commands(workload, seed, scale)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    cal = Calibration()
    try:
        cal()                               # warm-up, untimed
        setup_raw, setup = setup_times(workload, seed, workdir, probes, cal)
        cli = importlib.import_module("ffl.cli")
        workloads.write_configs(cmds, workdir)
        passes = Passes(cli, cmds, workdir)
        passes.once()                       # warm-up, untimed
        record = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "scale": scale, "facts": machine_facts(),
                  "commands": [{"name": c.name, "argv": c.argv, "config": c.config}
                               for c in cmds]}
        plain_raw, plain = passes.loop(seconds / 2 if trace else seconds,
                                       3 if trace else min_passes, cal)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            traced, traced_scaled, tr, spans = traced_passes(passes, seconds / 2, cal)
        checks, attempted, failed = check_all(cmds, workdir, passes, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ratios = [c.bound_ratio for c in checks if c.bound_ratio is not None]
    quality = {"fail_frac": failed / attempted,
               "bound_ratio": max(ratios) if ratios else 0.0}
    pct, tail_value = tail(plain)
    record.update({
        "passes": len(plain), "pass_times_s": plain_raw, "pass_times_scaled_s": plain,
        "tail_percentile": pct, "setup_times_s": setup_raw, "setup_times_scaled_s": setup,
        "calibration_s": cal.times, "cal_ref_s": CAL_REF_S,
        "raw": {"setup_s": statistics.median(setup_raw) if setup_raw else 0.0,
                "pass_p50_s": statistics.median(plain_raw),
                "pass_tail_s": tail(plain_raw)[1]},
        "attempted": attempted, "failed": failed,
        "checks": {c.name: {"ops": k.ops, "failed": k.failed, "bound_ratio": k.bound_ratio,
                            "notes": k.notes} for c, k in zip(cmds, checks)},
        "end_to_end": {"setup_s": statistics.median(setup) if setup else 0.0,
                       "pass_p50_s": statistics.median(plain),
                       "pass_tail_s": tail_value, "peak_rss_mb": peak_rss, **quality},
    })
    correct = failed == 0
    if trace:
        layers = layer_metrics(tr, len(traced))
        wall = sum(traced)
        accounted = sum(v for k, v in layers.items() if k.startswith("layer.")) \
            * len(traced) / wall
        layers.update(quality)
        layers["trace.wall_s"] = statistics.median(traced)
        layers["trace.overhead_s"] = statistics.median(traced_scaled) - statistics.median(plain)
        layers["trace.accounted"] = accounted
        record["per_layer"] = layers
        record["traced_pass_times_s"] = traced
        record["accounting_ok"] = abs(accounted - 1.0) <= ACCOUNTING_TOL
        record["spans_kept"] = len(spans)
        correct = correct and record["accounting_ok"]
        write_spans(workload, seed, spans)
    record["correct"] = correct
    return record


def traced_passes(passes: Passes, seconds: float, cal):
    """Raw times of every traced pass, calibrated times of all but the
    first (which keeps its spans), the tracer and the kept spans."""
    from tracer import Tracer
    tr = Tracer().install()
    try:
        tr.keep_spans = True
        first = passes.once()
        tr.keep_spans = False
        spans = list(tr.spans)
        rest, rest_scaled = passes.loop(seconds - first, 2, cal)
    finally:
        tr.uninstall()
    return [first] + rest, rest_scaled, tr, spans


def write_spans(workload, seed, spans):
    """Spans of the first traced pass: id, parent id, name, start and end in
    microseconds from the pass start, thread."""
    if not spans:
        return
    t0 = min(s[3] for s in spans)
    threads = {}
    rows = [[i, p, name, round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1),
             threads.setdefault(th, len(threads))] for i, p, name, a, b, th in spans]
    (OUT / f"spans-{workload}-s{seed}.json").write_text(
        json.dumps({"columns": ["id", "parent", "name", "start_us", "end_us", "thread"],
                    "spans": rows}), encoding="utf-8")


def result_line(record: dict, metrics: list) -> dict:
    """The result object for the metrics named in BENCHMARK.json."""
    source = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                        for m in metrics}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ffl" / "cli.py").is_file():
        print(f"no ffl sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    summary = {"facts": record["facts"], "passes": record["passes"],
               "tail_percentile": record["tail_percentile"],
               "end_to_end": record["end_to_end"], "raw_wall": record["raw"],
               "checks": {k: v for k, v in record["checks"].items() if v["failed"]},
               "record": str(path.relative_to(ROOT))}
    if args.trace:
        layers = record["per_layer"]
        summary["trace"] = {
            "layer_self_s": {k.split(".")[1]: v for k, v in layers.items()
                             if k.startswith("layer.")},
            "wall_s": layers["trace.wall_s"], "accounted": layers["trace.accounted"],
            "accounting_ok": record["accounting_ok"],
            "overhead_s": layers["trace.overhead_s"]}
    print(json.dumps(summary))
    print(json.dumps(result_line(record, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
