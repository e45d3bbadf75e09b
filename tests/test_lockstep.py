"""Seeds solved in lockstep against the same seeds solved one at a time.

``solve`` runs every seed of a ``SolverConfig`` on (m, d) blocks of iterates
and estimates, with one LMO call, one step size and one batch kernel call
per margin or weighted row sum for all of them. Each seed must still get
exactly the run it gets alone: the same trace bytes, iterate bits and
oracle totals, also in the files ``stochfw run`` writes.
"""

import struct
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochfw.cli import ExperimentSpec, main, run_experiment
from stochfw.constraints import ConstraintSet
from stochfw.data import normalize_labels, parse_libsvm
from stochfw.estimators import EstimatorConfig
from stochfw.objectives import Batch, Objective
from stochfw.solver import NanAbort, SolverConfig, default_x0, solve

from conftest import binary_sparse_libsvm_text, separable_libsvm_text, tiny_objective

_OBJECTIVES = {
    "logistic": tiny_objective("logistic", n=12, d=5, seed=3),
    "nlls": tiny_objective("nlls", n=10, d=4, seed=4),
    # rows of 1 to 3 nonzeros, so some columns are empty
    "sparse": Objective("logistic", normalize_labels(
        parse_libsvm(binary_sparse_libsvm_text(14, 6, seed=8, density=0.2)), "logistic")),
}
_SCHEDULES = {"fw": "classic_fw", "sarah_fw": "theorem1",
              "saga_sarah_fw": "theorem3", "momentum_fw": "classic_fw"}


def _bits(x):
    return None if x is None else struct.pack("<d", x)


def _fingerprint(run):
    """Everything a run reports, floats as their bytes."""
    rows = [(r.k, r.sfo, r.lmo, _bits(r.f), _bits(r.gap), r.wall_ns) for r in run.trace.rows]
    return (run.seed, rows, run.x_final.tobytes(), run.sfo_total, run.lmo_total,
            run.gap_sfo_total, run.gap_lmo_total)


def _estimator_cfg(algorithm, b, p, sampling, cold_start):
    kind = {"fw": "full", "sarah_fw": "sarah", "saga_sarah_fw": "saga_sarah",
            "momentum_fw": "momentum"}[algorithm]
    return EstimatorConfig(
        kind=kind, b=b, p=p if kind == "sarah" else None,
        lam=0.3 if kind == "saga_sarah" else None, sampling=sampling,
        cold_start=cold_start and kind == "saga_sarah",
    )


def _assert_lockstep_matches_alone(data, algorithm, kind, seeds, K, record_every, gap_every,
                                   b, p, sampling, cold_start):
    obj = _OBJECTIVES[data]
    cset = ConstraintSet(kind, 3.0, dim=obj.d)
    cfg = SolverConfig(algorithm, K, _SCHEDULES[algorithm],
                       _estimator_cfg(algorithm, b, p, sampling, cold_start),
                       seeds=tuple(seeds), gap_every=gap_every, record_every=record_every)
    together = solve(cfg, obj, cset, default_x0(cset))
    alone = [solve(SolverConfig(cfg.algorithm, K, cfg.schedule, cfg.estimator_cfg, seeds=(s,),
                                gap_every=gap_every, record_every=record_every),
                   obj, cset, default_x0(cset)).runs[0]
             for s in seeds]
    assert [_fingerprint(r) for r in together.runs] == [_fingerprint(r) for r in alone]
    assert together.sfo_total == sum(r.sfo_total for r in alone)
    return together


@settings(max_examples=150, deadline=None)
@given(
    data=st.sampled_from(sorted(_OBJECTIVES)),
    algorithm=st.sampled_from(sorted(_SCHEDULES)),
    kind=st.sampled_from(["l1_ball", "simplex", "linf_box"]),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True),
    K=st.integers(0, 25),
    record_every=st.sampled_from([1, 2, 5]),
    gap_every=st.sampled_from([0, 1, 3]),
    b=st.integers(1, 4),
    p=st.sampled_from([0.3, 0.7, 1.0]),
    sampling=st.sampled_from(["with_replacement", "without_replacement"]),
    cold_start=st.booleans(),
)
@example(data="logistic", algorithm="sarah_fw", kind="l1_ball", seeds=[0, 1, 2, 3], K=25,
         record_every=2, gap_every=3, b=2, p=0.3, sampling="with_replacement",
         cold_start=False)
def test_lockstep_runs_are_the_runs_alone(data, algorithm, kind, seeds, K, record_every,
                                          gap_every, b, p, sampling, cold_start):
    _assert_lockstep_matches_alone(data, algorithm, kind, seeds, K, record_every, gap_every,
                                   b, p, sampling, cold_start)


def test_sarah_seeds_refresh_apart_and_still_match():
    # p = 0.3 over 25 steps: steps where one seed refreshes and another
    # takes a batch, so the batch kernel serves a subset of the seeds
    result = _assert_lockstep_matches_alone("logistic", "sarah_fw", "l1_ball", [0, 1, 2, 3],
                                            25, 1, 3, 2, 0.3, "with_replacement", False)
    n = _OBJECTIVES["logistic"].n
    steps = [np.diff([r.sfo for r in run.trace.rows]) for run in result.runs]
    refreshed = np.array(steps) == n
    assert (refreshed.any(axis=0) & ~refreshed.all(axis=0)).any()


def poison_second_seed(monkeypatch):
    """Make every lockstep scatter of two or more seeds NaN in the second
    seed's row; a seed solved alone never meets it."""
    scatter = Batch.scatter

    def poisoned(self, c):
        out = scatter(self, c)
        if out.ndim == 2 and len(out) > 1:
            out[1] = np.nan
        return out

    monkeypatch.setattr(Batch, "scatter", poisoned)


def test_nonfinite_estimate_in_one_seed_aborts_the_group(monkeypatch):
    poison_second_seed(monkeypatch)
    obj = tiny_objective(n=10, d=4, seed=6)
    cset = ConstraintSet("l1_ball", 2.0, dim=obj.d)
    cfg = SolverConfig("momentum_fw", 10, "classic_fw", EstimatorConfig(kind="momentum", b=2),
                       seeds=(0, 1), record_every=5)
    with pytest.raises(NanAbort, match="gradient estimate") as err:
        solve(cfg, obj, cset, np.zeros(obj.d))
    assert err.value.k == 1  # the LMO after the first update sees it
    solve(replace(cfg, seeds=(0,)), obj, cset, np.zeros(obj.d))


def test_nonfinite_estimate_in_one_seed_exits_3(tmp_path, monkeypatch, capsys):
    poison_second_seed(monkeypatch)
    data = tmp_path / "synth.libsvm"
    data.write_text(separable_libsvm_text(40, 4, seed=2))
    argv = ["run", "--dataset", str(data), "--alg", "momentum_fw", "--K", "10",
            "--seed", "0,1", "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert "aborted: non-finite gradient estimate" in capsys.readouterr().out


def test_grid_starts_no_thread(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError(f"the grid started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    data = tmp_path / "synth.libsvm"
    data.write_text(separable_libsvm_text(40, 4, seed=2))
    spec = ExperimentSpec(dataset_path=str(data), radius=5.0,
                          algorithms=["fw", "sarah_fw", "saga_sarah_fw", "momentum_fw"],
                          K=12, batch=2, seeds=[3, 1, 2], gap_every=4,
                          out_dir=str(tmp_path / "out"))
    assert run_experiment(spec, log=lambda m: None) == 0
    assert len(list((tmp_path / "out").glob("*_seed*.csv"))) == 12


def test_summary_rows_keep_their_order_at_any_grouping(tmp_path):
    # a three-seed grid solves each algorithm's seeds in lockstep; three
    # one-seed grids solve each seed alone
    data = tmp_path / "synth.libsvm"
    data.write_text(separable_libsvm_text(40, 4, seed=2))
    algorithms = ("saga_sarah_fw", "fw", "sarah_fw")

    def grid(name, seeds):
        out = tmp_path / name
        spec = ExperimentSpec(dataset_path=str(data), radius=5.0, algorithms=list(algorithms),
                              K=12, batch=2, seeds=seeds, gap_every=4, out_dir=str(out))
        assert run_experiment(spec, log=lambda m: None) == 0
        return {f.name: f.read_bytes() for f in out.iterdir()}

    together = grid("together", [7, 2, 4])
    alone, rows_alone = {}, {}
    for seed in (7, 2, 4):
        files = grid(f"seed{seed}", [seed])
        for row in files.pop("summary.csv").decode().splitlines()[1:]:
            rows_alone[tuple(row.split(",")[:2])] = row
        alone.update(files)
    rows = together.pop("summary.csv").decode().splitlines()[1:]
    assert together == alone
    # algorithm-major, seeds in the order given, each row as its seed's alone
    assert rows == [rows_alone[a, s] for a in algorithms for s in ("7", "2", "4")]
