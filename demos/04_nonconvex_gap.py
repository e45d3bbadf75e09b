# Non-convex benchmark: the Frank-Wolfe gap under the flat 1/sqrt(K) step.
#
# The non-linear least-squares loss is non-convex, so convergence is measured
# by the Frank-Wolfe gap gap(y) = max_x <grad f(y), y - x>: non-negative,
# and zero exactly at stationary points. The guarantee is on the minimum
# recorded gap, which should shrink roughly like 1/sqrt(K) as the horizon
# grows.

from math import ceil

import numpy as np

from stochfw import (
    ConstraintSet,
    EstimatorConfig,
    Objective,
    SolverConfig,
    min_gap_so_far,
    normalize_labels,
    parse_libsvm,
    solve,
)
from stochfw.schedules import default_batch, default_params


def synthetic_classification(n, d, seed, margin=0.3, scale=1e-3):
    rng = np.random.default_rng(seed)
    w_true = rng.normal(size=d)
    w_true /= np.linalg.norm(w_true)
    lines = []
    while len(lines) < n:
        x = np.round(rng.uniform(-1, 1, size=d), 6)
        m = x @ w_true
        if abs(m) < margin:
            continue
        feats = " ".join(f"{j + 1}:{x[j] * scale:.17g}" for j in range(d))
        lines.append(f"{1 if m > 0 else 0} {feats}")
    return "\n".join(lines) + "\n"


n, d = 683, 10
ds = normalize_labels(parse_libsvm(synthetic_classification(n, d, 7), name="synth"), "nlls")
obj = Objective("nlls", ds)
cset = ConstraintSet("l1_ball", 2e3, dim=d)
x0 = np.zeros(d)
b = default_batch(n)
p, _ = default_params("sarah", n, b)
_, lam = default_params("saga_sarah", n, b)

print(f"nlls objective, f(x0) = {obj.loss_full(x0)}  (prediction 1/2 everywhere)\n")
print(f"{'method':15s} {'K':>7s} {'eta':>8s} {'min recorded gap':>17s}")
for alg, est in (
    ("sarah_fw", EstimatorConfig(kind="sarah", b=b, p=p)),
    ("saga_sarah_fw", EstimatorConfig(kind="saga_sarah", b=b, lam=lam)),
):
    for K in (100, 1_000, 10_000):
        gap_every = max(1, ceil(K / 50))
        cfg = SolverConfig(alg, K, "sqrt_k", est, seeds=(11,),
                           gap_every=gap_every, record_every=gap_every)
        res = solve(cfg, obj, cset, x0).runs[0]
        min_gap = min_gap_so_far(res.trace)[-1]
        print(f"{alg:15s} {K:7d} {1 / np.sqrt(K):8.4f} {min_gap:17.8f}")
    print()
