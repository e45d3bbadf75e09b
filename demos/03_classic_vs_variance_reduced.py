# Convex benchmark: classic Frank-Wolfe vs the two variance-reduced solvers.
#
# l1-constrained logistic regression on a synthetic near-separable dataset
# (683 samples x 10 features, the shape of the usual small benchmark). All
# methods get the same stochastic-oracle budget of 100 epochs; the plot-ready
# quantity is relative suboptimality vs the number of full-gradient
# equivalents (SFO / n), mirroring the usual benchmark axes.

from math import ceil

import numpy as np

from stochfw import (
    ConstraintSet,
    EstimatorConfig,
    Objective,
    SolverConfig,
    normalize_labels,
    parse_libsvm,
    relative_suboptimality,
    solve,
)
from stochfw.estimators import ALGORITHMS
from stochfw.schedules import default_batch, default_params


def synthetic_classification(n, d, seed, margin=0.3):
    rng = np.random.default_rng(seed)
    w_true = rng.normal(size=d)
    w_true /= np.linalg.norm(w_true)
    lines = []
    while len(lines) < n:
        x = np.round(rng.uniform(-1, 1, size=d), 6)
        m = x @ w_true
        if abs(m) < margin:
            continue
        feats = " ".join(f"{j + 1}:{x[j]:.17g}" for j in range(d))
        lines.append(f"{1 if m > 0 else -1:+d} {feats}")
    return "\n".join(lines) + "\n"


n, d = 683, 10
ds = normalize_labels(parse_libsvm(synthetic_classification(n, d, 7), name="synth"), "logistic")
obj = Objective("logistic", ds)
cset = ConstraintSet("l1_ball", 2e3, dim=d)
x0 = np.zeros(d)

b = default_batch(n)                      # ceil(n/100) = 7
p, _ = default_params("sarah", n, b)      # 2b/(n+2b)
_, lam = default_params("saga_sarah", n, b)  # b/(2n)
epochs = 100
budget = epochs * n
print(f"n={n} d={d} b={b} p={p:.5f} lambda={lam:.5f} budget={epochs} epochs")

# equal SFO budgets -> different horizons: each algorithm's expected SFO
# cost of one iteration turns the budget into K, as `stochfw run --epochs` does
K_fw, K_sarah, K_saga = (ceil(budget / ALGORITHMS[name].sfo_per_iteration(n, b, p))
                         for name in ("fw", "sarah_fw", "saga_sarah_fw"))

runs = {
    "fw": solve(
        SolverConfig("fw", K_fw, "classic_fw",
                     EstimatorConfig(kind="full"), seeds=(1,)),
        obj, cset, x0).runs[0],
    "sarah_fw": solve(
        SolverConfig("sarah_fw", K_sarah, "theorem1",
                     EstimatorConfig(kind="sarah", b=b, p=p), seeds=(1,)),
        obj, cset, x0).runs[0],
    "saga_sarah_fw": solve(
        SolverConfig("saga_sarah_fw", K_saga, "theorem3",
                     EstimatorConfig(kind="saga_sarah", b=b, lam=lam), seeds=(1,)),
        obj, cset, x0).runs[0],
}

# f_min from the best run, continued 10x longer
K_ref = 10 * K_sarah
ref = solve(
    SolverConfig("sarah_fw", K_ref, "theorem1",
                 EstimatorConfig(kind="sarah", b=b, p=p), seeds=(99,),
                 record_every=K_ref),
    obj, cset, x0).runs[0]
f_min = min(obj.loss_full(ref.x_final), *[r.trace.f_values().min() for r in runs.values()])
print(f"f_min = {f_min:.3e} (reference run, 10x budget)\n")

print(f"{'method':15s} {'K':>6s} {'SFO':>7s} {'LMO':>6s} {'final rel.subopt':>17s} {'SFO @ rel<=1e-3':>16s}")
curves = {}
for name, res in runs.items():
    rel = relative_suboptimality(res.trace, f_min)
    sfo = np.array([row.sfo for row in res.trace.rows])
    curves[name] = (sfo / n, rel)
    hit = np.nonzero(rel <= 1e-3)[0]
    first = f"{sfo[hit[0]]}" if len(hit) else f">{budget}"
    print(f"{name:15s} {len(res.trace.rows) - 1:6d} {res.sfo_total:7d} "
          f"{res.lmo_total:6d} {rel[-1]:17.3e} {first:>16s}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for name, (x, y) in curves.items():
        ax.semilogy(x, np.maximum(y, 1e-16), label=name)
    ax.set_xlabel("full-gradient equivalents (SFO / n)")
    ax.set_ylabel("relative suboptimality")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo_convex_convergence.png", dpi=120)
    print("\nwrote demo_convex_convergence.png")
except ImportError:
    print("\nmatplotlib not installed; skipped the plot")
