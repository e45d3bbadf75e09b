"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Experiment-scale criteria run on seeded synthetic stand-ins shaped like the
reference datasets (683 x 10, 8124 x 112); no LibSVM downloads happen here.
Run with ``pytest tests/test_acceptance.py -s`` to see the criterion lines.
"""

import time
from math import ceil

import numpy as np

from stochfw.cli import ExperimentSpec, run_experiment
from stochfw.constraints import ConstraintSet, lmo
from stochfw.estimators import EstimatorConfig, init_estimator
from stochfw.metrics import min_gap_so_far, relative_suboptimality
from stochfw.reference import (
    enumerate_batches,
    expected_estimator_update,
    finite_diff_grad,
    vertex_matrix,
)
from stochfw.schedules import default_batch, default_params, eta
from stochfw.solver import SolverConfig, solve

from conftest import scripted, separable_libsvm_text, tiny_objective

RADIUS = 2e3


def report(num, name, ok, detail=""):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def bc_setup(obj):
    n = obj.n
    b = default_batch(n)  # ceil(683/100) = 7
    p, _ = default_params("sarah", n, b)
    _, lam = default_params("saga_sarah", n, b)
    cset = ConstraintSet("l1_ball", RADIUS, dim=obj.d)
    return n, b, p, lam, cset


def test_criterion_01_lmo_correctness():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for kind in ("l1_ball", "simplex", "linf_box"):
        cset = ConstraintSet(kind, 2.0)
        for _ in range(1000):
            d = int(rng.integers(1, 11))
            g = rng.normal(size=d)
            s = lmo(cset, g)
            enum_min = float(np.min(vertex_matrix(cset, d) @ g))
            worst = max(worst, abs(float(g @ s) - enum_min))
    elapsed = time.perf_counter() - start
    report(1, "lmo-correctness", worst <= 1e-12 and elapsed < 1.0,
           f"max value error {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_gradient_correctness(bc_logistic, bc_nlls):
    worst = 0.0
    for obj in (bc_logistic, bc_nlls):
        rng = np.random.default_rng(1002)
        scale = 1.0 if obj.kind == "logistic" else 1e3
        for _ in range(100):
            i = int(rng.integers(0, obj.n))
            w = rng.uniform(-1.0, 1.0, size=obj.d) * scale
            g = obj.grad_batch([i], w)
            fd = finite_diff_grad(lambda v: obj.loss_sample(i, v), w, h=1e-5)
            rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12)
            worst = max(worst, rel)
    report(2, "gradient-correctness", worst <= 1e-5, f"max rel err {worst:.2e}")


def test_criterion_03_estimator_expectations():
    obj = tiny_objective(n=6, d=4, seed=0)
    rng = np.random.default_rng(1003)
    x_old = rng.normal(size=obj.d)
    x_new = x_old + 0.1 * rng.normal(size=obj.d)
    g0 = rng.normal(size=obj.d)
    p, lam, b = 0.3, 0.25, 2
    stale_coefs = 0.7 * obj.grad_coefs(x_old)
    stale_table = 0.7 * np.array([obj.grad_batch([i], x_old) for i in range(obj.n)])
    worst = 0.0

    batches = enumerate_batches(obj.n, b)

    enum = expected_estimator_update(
        "sarah", obj, {"g": g0}, x_new, x_old, b=b, p=p)
    closed = p * obj.grad_full(x_new) + (1 - p) * (
        g0 + obj.grad_full(x_new) - obj.grad_full(x_old))
    worst = max(worst, float(np.max(np.abs(enum - closed))))
    cfg = EstimatorConfig(kind="sarah", b=b, p=p)
    acc = np.zeros(obj.d)
    for S in batches:
        est = init_estimator(cfg, obj, x_old, 0)
        est.g[0] = g0
        scripted(est, refresh=False, batch=S).update(x_new, x_old, 0)
        acc += est.g[0]
    est = init_estimator(cfg, obj, x_old, 0)
    est.g[0] = g0
    scripted(est, refresh=True).update(x_new, x_old, 0)
    impl = p * est.g[0] + (1 - p) * acc / len(batches)
    worst = max(worst, float(np.max(np.abs(impl - enum))))

    enum = expected_estimator_update(
        "saga_sarah", obj, {"g": g0, "table": stale_table}, x_new, x_old,
        b=b, lam=lam)
    cfg = EstimatorConfig(kind="saga_sarah", b=b, lam=lam)
    acc = np.zeros(obj.d)
    for S in batches:
        est = init_estimator(cfg, obj, x_old, 0)
        est.g[0] = g0
        est.table_coefs[0] = stale_coefs
        est.saga_avg = est.table_mean()
        scripted(est, batch=S).update(x_new, x_old, 0)
        acc += est.g[0]
    worst = max(worst, float(np.max(np.abs(acc / len(batches) - enum))))

    report(3, "estimator-expectations", worst <= 1e-12,
           f"max per-coordinate err {worst:.2e}")


def test_criterion_04_p1_degeneracy(bc_logistic):
    _, _, _, _, cset = bc_setup(bc_logistic)
    x0 = np.zeros(bc_logistic.d)
    K = 500
    runs = {}
    for alg, est in (("fw", EstimatorConfig(kind="full")),
                     ("sarah_fw", EstimatorConfig(kind="sarah", b=7, p=1.0))):
        cfg = SolverConfig(algorithm=alg, K=K, schedule="classic_fw",
                           estimator_cfg=est, seeds=(17,))
        runs[alg] = solve(cfg, bc_logistic, cset, x0)
    fw, sarah = runs["fw"].runs[0], runs["sarah_fw"].runs[0]
    same_x = np.array_equal(fw.x_final, sarah.x_final)
    same_f = all(a.f == b.f for a, b in zip(fw.trace.rows, sarah.trace.rows))
    same_g = np.array_equal(runs["fw"].estimator.g, runs["sarah_fw"].estimator.g)
    report(4, "p1-degeneracy", same_x and same_f and same_g,
           f"{K} iterations bit-identical")


def test_criterion_05_feasibility(bc_logistic):
    n, b, p, lam, cset = bc_setup(bc_logistic)
    x0 = np.zeros(bc_logistic.d)
    K = 300
    violations = 0
    checked = 0

    def audit(k, x):
        nonlocal violations, checked
        checked += 1
        if np.sum(np.abs(x)) > RADIUS * (1 + 1e-9):
            violations += 1

    grid = [
        ("fw", "classic_fw", EstimatorConfig(kind="full")),
        ("sarah_fw", "theorem1", EstimatorConfig(kind="sarah", b=b, p=p)),
        ("saga_sarah_fw", "theorem3", EstimatorConfig(kind="saga_sarah", b=b, lam=lam)),
        ("momentum_fw", "classic_fw", EstimatorConfig(kind="momentum", b=b)),
    ]
    for alg, sch, est in grid:
        cfg = SolverConfig(algorithm=alg, K=K, schedule=sch, estimator_cfg=est, seeds=(2,))
        solve(cfg, bc_logistic, cset, x0, callback=audit)
    report(5, "feasibility", violations == 0 and checked == 4 * (K + 1),
           f"{checked} recorded iterates within the l1 ball")


def test_criterion_06_sfo_accounting(bc_logistic):
    n, b, p, lam, cset = bc_setup(bc_logistic)
    x0 = np.zeros(bc_logistic.d)
    K = 400
    cfg = SolverConfig(algorithm="sarah_fw", K=K, schedule="theorem1",
                       estimator_cfg=EstimatorConfig(kind="sarah", b=b, p=p), seeds=(6,))
    result = solve(cfg, bc_logistic, cset, x0)
    res = result.runs[0]
    (k_full,) = result.estimator.refreshes
    k_batch = K - k_full
    sarah_ok = (res.lmo_total == K
                and res.sfo_total == n + k_full * n + 2 * b * k_batch)

    cfg2 = SolverConfig(algorithm="saga_sarah_fw", K=K, schedule="theorem3",
                        estimator_cfg=EstimatorConfig(kind="saga_sarah", b=b, lam=lam),
                        seeds=(6,))
    res2 = solve(cfg2, bc_logistic, cset, x0).runs[0]
    saga_ok = res2.sfo_total == n + 2 * b * K

    report(6, "sfo-accounting", sarah_ok and saga_ok,
           f"sarah: {k_full} refreshes/{k_batch} batches -> {res.sfo_total} SFO; "
           f"saga: {res2.sfo_total} == n + 2bK")


def test_criterion_07_convex_convergence(bc_logistic):
    start = time.perf_counter()
    n, b, p, lam, cset = bc_setup(bc_logistic)
    x0 = np.zeros(bc_logistic.d)
    budget = 100 * n

    K_sarah = ceil(budget / (p * n + (1 - p) * 2 * b))
    K_saga = ceil(budget / (2 * b))
    K_fw = 100
    runs = {
        "fw": solve(SolverConfig("fw", K_fw, "classic_fw",
                                 EstimatorConfig(kind="full"), seeds=(1,)),
                    bc_logistic, cset, x0).runs[0],
        "sarah_fw": solve(SolverConfig("sarah_fw", K_sarah, "theorem1",
                                       EstimatorConfig(kind="sarah", b=b, p=p), seeds=(1,)),
                          bc_logistic, cset, x0).runs[0],
        "saga_sarah_fw": solve(SolverConfig("saga_sarah_fw", K_saga, "theorem3",
                                            EstimatorConfig(kind="saga_sarah", b=b, lam=lam),
                                            seeds=(1,)),
                               bc_logistic, cset, x0).runs[0],
    }
    # f_min from the best algorithm run 10x longer, as the plots do
    K_ref = 10 * K_sarah
    ref = solve(SolverConfig("sarah_fw", K_ref, "theorem1",
                             EstimatorConfig(kind="sarah", b=b, p=p), seeds=(99,),
                             record_every=K_ref),
                bc_logistic, cset, x0).runs[0]
    f_min = min(bc_logistic.loss_full(ref.x_final),
                *[r.trace.f_values().min() for r in runs.values()])

    def first_crossing(result):
        rel = relative_suboptimality(result.trace, f_min)
        sfo = np.array([row.sfo for row in result.trace.rows])
        hit = np.nonzero(rel <= 1e-3)[0]
        return int(sfo[hit[0]]) if len(hit) else None

    cross = {name: first_crossing(r) for name, r in runs.items()}
    elapsed = time.perf_counter() - start

    vr_ok = all(cross[a] is not None and cross[a] <= budget
                for a in ("sarah_fw", "saga_sarah_fw"))
    # deterministic FW never reaches the threshold inside the same budget,
    # so its requirement exceeds both crossings strictly
    fw_needs_more = cross["fw"] is None or cross["fw"] > max(
        cross["sarah_fw"] or 0, cross["saga_sarah_fw"] or 0)
    feasible = all(np.sum(np.abs(r.x_final)) <= RADIUS * (1 + 1e-9)
                   for r in runs.values())
    report(7, "convex-convergence",
           vr_ok and fw_needs_more and feasible and elapsed < 30.0,
           f"crossing SFO: sarah={cross['sarah_fw']}, saga={cross['saga_sarah_fw']}, "
           f"fw={cross['fw']}, budget={budget}, {elapsed:.1f}s")


def test_criterion_08_nonconvex_gap_trend(bc_nlls):
    start = time.perf_counter()
    n, b, p, lam, cset = bc_setup(bc_nlls)
    x0 = np.zeros(bc_nlls.d)
    ratios = {}
    for alg, est in (("sarah_fw", EstimatorConfig(kind="sarah", b=b, p=p)),
                     ("saga_sarah_fw", EstimatorConfig(kind="saga_sarah", b=b, lam=lam))):
        mins = {}
        for K in (100, 10_000):
            ge = max(1, ceil(K / 50))
            cfg = SolverConfig(alg, K, "sqrt_k", est, seeds=(11,),
                               gap_every=ge, record_every=ge)
            res = solve(cfg, bc_nlls, cset, x0).runs[0]
            mins[K] = float(min_gap_so_far(res.trace)[-1])
        ratios[alg] = mins[10_000] / mins[100]
    elapsed = time.perf_counter() - start
    ok = all(r <= 1.0 / 3.0 for r in ratios.values()) and elapsed < 60.0
    report(8, "nonconvex-gap-trend", ok,
           f"gap ratios K=1e4/1e2: sarah={ratios['sarah_fw']:.4f}, "
           f"saga={ratios['saga_sarah_fw']:.4f}, {elapsed:.1f}s")


def test_criterion_09_schedule_conformance():
    hand = (eta("theorem1", 4, 10, p=0.5) == 0.25 and eta("theorem1", 5, 10, p=0.5) == 0.25
            and eta("theorem1", 9, 10, p=0.5) == 2.0 / 12.0)
    hand = hand and eta("classic_fw", 0, 10) == 1.0 and eta("classic_fw", 2, 10) == 0.5
    hand = hand and all(eta("sqrt_k", k, 100) == 0.1 for k in range(100))

    cont = True
    K = 1000
    for kind, params, plateau in (("theorem1", {"p": 0.037}, 0.037 / 2),
                                  ("theorem3", {"b": 7, "n": 683}, (7 / 683) / 4)):
        k0 = ceil(K / 2)
        cont = (cont and eta(kind, k0, K, **params) == plateau
                and eta(kind, k0 - 1, K, **params) == plateau)
        values = [eta(kind, k, K, **params) for k in range(K)]
        cont = cont and all(v <= plateau for v in values)
        cont = cont and all(a >= b for a, b in zip(values, values[1:]))
    report(9, "schedule-conformance", hand and cont,
           "hand values exact, switch continuous to machine precision")


def test_criterion_10_saga_table_integrity(mushrooms_scale_logistic):
    obj = mushrooms_scale_logistic
    n, d = obj.n, obj.d
    b = default_batch(n)  # ceil(8124/100) = 82
    _, lam = default_params("saga_sarah", n, b)
    est = init_estimator(EstimatorConfig(kind="saga_sarah", b=b, lam=lam),
                         obj, np.zeros(d), seed=3)
    rng = np.random.default_rng(0)
    direction = rng.normal(size=d)
    x = np.zeros(d)
    drift_pre_recompute = 0.0
    for k in range(100_000):
        x_new = x + 1e-4 * np.sin(1e-3 * k) * direction
        if est._updates_since_recompute == 9_999:
            drift_pre_recompute = max(
                drift_pre_recompute,
                float(np.max(np.abs(est.saga_avg - est.table_mean()))))
        est.update(x_new, x, k=k)
        x = x_new
    final_err = float(np.max(np.abs(est.saga_avg - est.table_mean())))
    ok = final_err <= 1e-8 and drift_pre_recompute <= 1e-8
    report(10, "saga-table-integrity", ok,
           f"after 1e5 updates max err {final_err:.2e}, "
           f"worst pre-recompute drift {drift_pre_recompute:.2e}")


def test_criterion_11_experiment_determinism(tmp_path):
    data_path = tmp_path / "bc-synth.libsvm"
    data_path.write_text(separable_libsvm_text(683, 10, seed=20240811))
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        spec = ExperimentSpec(
            dataset_path=str(data_path), loss="logistic", constraint="l1_ball",
            radius=RADIUS, algorithms=["fw", "sarah_fw", "saga_sarah_fw"],
            epochs=100, seeds=[1], out_dir=str(out),
        )
        code = run_experiment(spec, log=lambda m: None)
        assert code == 0
        outs.append(out)
    files = sorted(f.name for f in outs[0].glob("*.csv"))
    identical = bool(files) and all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files)
    report(11, "experiment-determinism", identical,
           f"{len(files)} CSVs byte-identical across reruns")
