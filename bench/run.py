"""The stochfw benchmark: `stochfw run` grids end to end, layers one by one.

    python3 bench/run.py --workload mushrooms-vr --seed 0 --seconds 30 --trace 0

Inputs are generated from ``--seed`` (``inputs.py``); the program sees only
the LibSVM file and a config file. Each grid goes through the public entry
point ``stochfw.cli.main(["run", ...])`` in this process, one at a time, and
is checked against ``reference.json`` and the reference solver.

``--trace 0`` times grids for ``--seconds`` after one warm-up grid and reports
the end-to-end metrics: median grid time, median set-up time and the peak
RSS of a fresh process running the grid. Each grid and set-up time is scaled
to a fixed host speed by the probes (``hostspeed.py``) run on either side of
it. The grid-time tail, the sample counts and the unscaled medians go to
``#`` lines. ``--trace 1`` reports the per-layer
metrics instead: microbenchmarks of each layer's public functions, then
traced grids alternating with untraced ones, which give self time per layer
and the tracing overhead. The last line of standard output is one JSON
object; lines before it start with ``#``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

MIN_GRIDS = 3
PROBE_SHARE = 0.1  # host-speed probing, as a share of the timed time
SIDE_GRID_K = 200
ALGORITHMS = ("fw", "sarah_fw", "saga_sarah_fw", "momentum_fw")
# Relative tolerance on final_f and min_gap against the reference solver:
# wide enough for reordered sums (a few ulps per step, summed over a run),
# far below any change in which vertex an LMO picks.
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12  # the gap is clamped to 0 within 1e-12

# The child reports VmHWM, the high-water RSS of its own address space.
# ru_maxrss would not do: exec carries the spawning process's peak into it,
# so it would read the benchmark's own footprint whenever that is larger.
_RSS_CHILD = """\
import re, sys
from stochfw.cli import main
rc = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
sys.exit(rc)
"""

if not (ROOT / "src" / "stochfw" / "__init__.py").is_file():
    sys.exit(f"stochfw sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from stochfw import cli  # noqa: E402
from stochfw.data import normalize_labels, parse_libsvm  # noqa: E402
from stochfw.objectives import Objective  # noqa: E402

import layers  # noqa: E402
from hostspeed import Probe  # noqa: E402
from inputs import describe, environment, generate, seed_arg  # noqa: E402
from ref_solver import COUNT_KEYS, reference_grid  # noqa: E402
from tracing import LAYERS, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402


def _close(a, b):
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b)) + FLOAT_ATOL


def _float_or_none_matches(got, want):
    """An emitted float field ('' for none) against a reference float or None."""
    if got == "" or want is None:
        return got == "" and want is None
    return _close(float(got), want)


def _compare_trace(path, want):
    """Problems with one run's trace CSV against the reference rows."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"{path.name} unreadable: {exc}"]
    if len(rows) != len(want):
        return [f"{path.name}: {len(rows)} rows, expected {len(want)}"]
    for got, (k, sfo, lmo, f, gap) in zip(rows, want):
        if (got["k"], got["sfo"], got["lmo"]) != (str(k), str(sfo), str(lmo)) or not (
            _close(float(got["f"]), f) and _float_or_none_matches(got["gap"], gap)
        ):
            return [f"{path.name} row k={got['k']}: sfo={got['sfo']} lmo={got['lmo']} "
                    f"f={got['f']} gap={got['gap']!r}, reference {k},{sfo},{lmo},{f!r},{gap!r}"]
    return []


class Grid:
    """One workload's `stochfw run` grid, run and checked repeatedly."""

    def __init__(self, workload, data_path, work, stored, reference):
        self.workload = workload
        self.threads = str(workload.threads)
        self.stored = stored
        self.reference = reference
        self.work = work
        self.config = work / "grid.cfg"
        self.config.write_text(config_text(dict(workload.spec, dataset_path=data_path)))
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, name="grid", wrap=None, extra=()):
        """Run one grid into ``work/name``; returns (wall seconds, exit code)."""
        out = self.work / name
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", "--config", str(self.config), "--out", str(out), *extra]
        os.environ["SARAH_FW_THREADS"] = self.threads
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if wrap is None:
                    rc = cli.main(argv)
                else:
                    rc = wrap(lambda: cli.main(argv))
        except Exception as exc:  # a crash is a failed grid, not a crashed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, rc

    def check(self, rc, out, full=True):
        """Count one attempted grid; a wrong result counts as failed."""
        self.attempted += 1
        problems = [] if rc == 0 else [f"exit {rc}"]
        if not problems and full:
            try:
                problems = self._compare(out)
            except (KeyError, ValueError) as exc:
                problems = [f"malformed output: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{out.name}: " + "; ".join(problems))

    def _compare(self, out):
        try:
            with open(out / "summary.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            return [f"summary.csv unreadable: {exc}"]
        if len(rows) != len(self.stored):
            return [f"{len(rows)} summary rows, expected {len(self.stored)}"]
        problems = []
        for got, want, ref in zip(rows, self.stored, self.reference):
            tag = f"{want['algorithm']} seed {want['seed']}"
            for key in COUNT_KEYS:
                if got[key] != str(want[key]):
                    problems.append(f"{tag} {key}={got[key]}, expected {want[key]}")
            if not _close(float(got["final_f"]), ref["final_f"]):
                problems.append(f"{tag} final_f={got['final_f']}, reference {ref['final_f']!r}")
            if not _float_or_none_matches(got["min_gap"], ref["min_gap"]):
                problems.append(f"{tag} min_gap={got['min_gap']}, reference {ref['min_gap']!r}")
            problems += _compare_trace(out / f"{want['algorithm']}_seed{want['seed']}.csv",
                                       ref["trace"])
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
        if self.first is None:
            self.first = hashes
        elif hashes != self.first:
            problems.append("outputs differ from the first repeat's bytes")
        return problems

    def timed(self, wrap=None):
        seconds, rc = self.run(wrap=wrap)
        self.check(rc, self.work / "grid")
        return seconds


def setup_seconds(data_path, workload):
    """Read + parse + normalize + Objective + build_solver_configs, timed."""
    spec = cli.ExperimentSpec(dataset_path=str(data_path), **workload.spec)
    t0 = time.perf_counter()
    text = Path(data_path).read_bytes()
    ds = normalize_labels(parse_libsvm(text, name=data_path.name), spec.loss)
    Objective(spec.loss, ds)
    cli.build_solver_configs(spec, ds.n)
    return time.perf_counter() - t0


def peak_rss_mb(grid):
    """Run the grid once in a fresh interpreter; its peak RSS in MB."""
    out = grid.work / "rss"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SARAH_FW_THREADS=grid.threads)
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, "run", "--config", str(grid.config), "--out", str(out)],
        capture_output=True, text=True, timeout=150, env=env, cwd=ROOT,
    )
    grid.check(proc.returncode, out)
    last = proc.stdout.split()[-1:] if proc.returncode == 0 else []
    return int(last[0]) / 1024.0 if last else 0.0


def end_to_end(grid, data_path, seconds, scale):
    """Grid and set-up times, each scaled by the host speed probed around it."""
    metrics = {}
    probe = Probe(grid.workload, scale)
    warm_up = grid.timed()  # the first grid in a process is slower
    before = probe.measure(PROBE_SHARE * warm_up)
    # each grid and its set-up are followed by probes; the probes on both
    # sides of a grid give the host's speed while it ran
    samples, setups, wall, wall_setups = [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples) < MIN_GRIDS:
        grid_s = grid.timed()
        setup_s = setup_seconds(data_path, grid.workload)
        after = probe.measure(PROBE_SHARE * (grid_s + setup_s))
        factor = probe.factor(before + after)
        samples.append(grid_s * factor)
        setups.append(setup_s * factor)
        wall.append(grid_s)
        wall_setups.append(setup_s)
        before = after
    samples.sort()
    # the highest sample with ten above it; the maximum when there are fewer
    tail_index = len(samples) - 11 if len(samples) > 10 else len(samples) - 1
    metrics["grid_s"] = (statistics.median(samples), "s")
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(grid), "MB")
    print(f"# host speed: median of {len(probe.samples)} probes "
          f"{statistics.median(probe.samples):.5f} s, reference {probe.reference_s} s; "
          f"unscaled medians: grid {statistics.median(wall):.4f} s, set-up "
          f"{statistics.median(wall_setups):.5f} s")
    print(f"# grid_s: median of {len(samples)} timed grids; tail p"
          f"{100 * tail_index // len(samples)} = {samples[tail_index]:.4f} s "
          f"(sample {tail_index + 1}); setup_s: median of {len(setups)} set-ups")
    return metrics


def _trace_metrics(spans, runs, traced, untraced):
    metrics = {}
    main = [s for s in spans if s.run in runs]
    self_ns = self_times(main)
    by_layer = defaultdict(int)
    for s in main:
        by_layer[s.layer] += self_ns[id(s)]
    total = sum(by_layer.values())
    for layer in LAYERS:
        metrics[f"trace.self_share.{layer}"] = (by_layer[layer] / total, "share")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced), "x")

    solves = [s for s in main if s.name == "cli.solve"]
    iters = sum(s.counts["K"] for s in solves)
    solve_ns = sum(s.end - s.start for s in solves)
    metrics["solver.self_us_per_iter"] = (sum(self_ns[id(s)] for s in solves) / iters / 1e3, "us")
    metrics["solver.sfo_per_s"] = (sum(s.counts["sfo"] for s in solves) / (solve_ns / 1e9), "SFO/s")
    per_alg = defaultdict(lambda: [0, 0])
    for s in solves + [s for s in spans if s.run == "side" and s.name == "cli.solve"]:
        per_alg[s.counts["algorithm"]][0] += s.end - s.start
        per_alg[s.counts["algorithm"]][1] += s.counts["K"]
    for alg in ALGORITHMS:
        ns, k = per_alg[alg]
        metrics[f"solver.iter_us.{alg}"] = (ns / k / 1e3, "us")

    emits = [s for s in main if s.name == "cli.emit_csv"]
    metrics["cli.emit_csv_us_per_row"] = (
        sum(s.end - s.start for s in emits) / sum(s.counts["rows"] for s in emits) / 1e3, "us")
    overlaps = []
    for run_id in runs:
        mine = [s for s in solves if s.run == run_id]
        span = max(s.end for s in mine) - min(s.start for s in mine)
        overlaps.append(sum(s.end - s.start for s in mine) / span)
    metrics["cli.thread_overlap"] = (statistics.median(overlaps), "ratio")
    return metrics


def per_layer(grid, seconds, seed, inp):
    metrics = {}

    def report(name, value, unit, samples):
        metrics[name] = (value, unit)
        print(f"# {name} = {value:.6g} {unit} (n={samples}, after 1 warm-up)")

    t0 = time.perf_counter()
    layers.measure(inp.text, grid.workload.spec, seed, report)

    # Algorithms the workload's grid lacks get a short traced side grid, so
    # every workload reports solver.iter_us for all four.
    tracer = Tracer()
    in_grid = grid.workload.spec.get("algorithms", cli.ExperimentSpec("").algorithms)
    missing = [a for a in ALGORITHMS if a not in in_grid]
    if missing:
        _, rc = grid.run(name="side", wrap=lambda fn: tracer.run("side", fn),
                         extra=["--alg", ",".join(missing), "--K", str(SIDE_GRID_K),
                                "--seed", str(grid.workload.spec["seeds"][0])])
        grid.check(rc, grid.work / "side", full=False)

    grid.timed()  # warm-up
    traced, untraced = [], []
    deadline = t0 + seconds
    while time.perf_counter() < deadline or len(traced) < 2:
        untraced.append(grid.timed())
        run_id = len(traced)
        traced.append(grid.timed(wrap=lambda fn: tracer.run(run_id, fn)))
    metrics.update(_trace_metrics(tracer.spans, range(len(traced)), traced, untraced))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{grid.workload.name}-seed{seed}.csv"
    tracer.write(spans_path)
    print(f"# {len(traced)} traced and {len(untraced)} untraced grids; spans -> "
          f"{spans_path.relative_to(ROOT)}")
    metrics["failed_share"] = (grid.failed / grid.attempted, "ratio")
    return metrics


def run(workload_name, seed, seconds, trace, scale="full", stored=None):
    """Run one workload; returns the result object printed as the last line."""
    workload = WORKLOADS[workload_name]
    if stored is None:
        stored = json.loads((BENCH / "reference.json").read_text())
    stored = stored[workload_name][scale]
    inp = generate(workload.data, seed, scale)
    print(f"# workload {workload_name}: {workload.why}")
    print(f"# input {inp.name} seed {seed}: {json.dumps(describe(inp))}")
    print(f"# environment: {json.dumps(environment())}")
    reference = reference_grid(inp, workload.spec)

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUT))
    try:
        data_path = work / f"{inp.name}.libsvm"
        data_path.write_bytes(inp.text)
        grid = Grid(workload, data_path, work, stored, reference)
        if trace:
            metrics = per_layer(grid, seconds, seed, inp)
        else:
            metrics = end_to_end(grid, data_path, seconds, scale)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in grid.problems:
        print(f"# FAILED {problem}")
    return {
        "correct": grid.failed == 0,
        "attempted": grid.attempted,
        "failed": grid.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="stochfw benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=seed_arg, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
