"""Smoke test of the benchmark itself; no timing bounds.

    python3 bench/smoke.py

Runs every workload at smoke-test size in both modes and checks that each
metric named in BENCHMARK.json is emitted with its unit and nothing else is.
Then checks that a deliberately wrong stored total, and a deliberately
wrong reference trace row, each turn into failed grids (a non-zero
failed_share), and that the benchmark exits non-zero, without a result line,
when the package sources are absent. Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def quiet_run(*args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(*args, **kwargs)


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = quiet_run(workload, 0, 0.5, trace, scale="tiny")
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{workload} --trace {trace}: metric names and units")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} --trace {trace}: {result['attempted']} grids correct")

    stored = json.loads((run.BENCH / "reference.json").read_text())
    wrong = copy.deepcopy(stored)
    wrong["bc-dense-fw"]["tiny"][0]["sfo_total"] += 1
    result = quiet_run("bc-dense-fw", 0, 0.5, 1, scale="tiny", stored=wrong)
    share = result["metrics"]["failed_share"]["value"]
    check(share > 0 and not result["correct"], f"wrong reference: failed_share {share:.2f}")

    def wrong_row(inp, spec):
        rows = reference_grid(inp, spec)
        k, sfo, lmo, f, gap = rows[0]["trace"][1]
        rows[0]["trace"][1] = (k, sfo, lmo, f * (1 + 1e-6), gap)
        return rows

    reference_grid, run.reference_grid = run.reference_grid, wrong_row
    try:
        result = quiet_run("bc-dense-fw", 0, 0.5, 1, scale="tiny")
    finally:
        run.reference_grid = reference_grid
    share = result["metrics"]["failed_share"]["value"]
    check(share > 0 and not result["correct"], f"wrong trace row: failed_share {share:.2f}")

    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", "bc-dense-fw", "--seed", "0", "--seconds", "1",
                               "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          f"without the package sources: exit {proc.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
