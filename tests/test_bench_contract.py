"""The benchmark's contract with the package, checked in the tier-1 suite.

``bench/`` drives the package through its public names: the CLI entry
points, the four estimator classes and their ``update``, the solver's
``lmo``/``fw_gap`` and the estimator constructors. One traced grid at
smoke-test size touches all of them, so removing or renaming one of them
fails here. bc-dense-fw solves one seed at a time; mushrooms-vr solves
each algorithm's two seeds in lockstep, the path its timed grids take;
mushrooms-rows runs one-seed groups on two threads and records a row every
iteration, so every margin read there follows one step. No timing is
checked.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("workload", ["bc-dense-fw", "mushrooms-vr", "mushrooms-rows"])
def test_traced_tiny_grid_reports_every_per_layer_metric(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setenv("SARAH_FW_THREADS", "1")  # restored after the grid sets it
    run = importlib.import_module("run")
    with contextlib.redirect_stdout(io.StringIO()):
        result = run.run(workload, 0, 0.5, 1, scale="tiny")
    assert result["correct"], result
    assert result["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
