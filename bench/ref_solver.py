"""Reference trajectories the benchmark checks `stochfw run` against.

This is a frozen, self-contained restatement of the solver as it stood when
the benchmark was defined: the same update formulas, step sizes, LMOs,
RNG draw order and recording cadence, evaluated with plain numpy/scipy on
the generator's own arrays. It imports nothing from ``stochfw``, so a change
to the package cannot move the reference with it.

Oracle totals (K, SFO, LMO, gap SFO, gap LMO) depend only on n, the grid and
the solver seeds, never on the data values, so they are also stored in
``reference.json`` and compared exactly. ``final_f``, ``min_gap`` and every
trace row (k, SFO, LMO, f, gap) are recomputed here for whatever workload seed
is given. Only what the benchmark's workloads use is restated: the default
batch size, p and lambda, K from the epoch budget, and the l1-ball and box
LMOs.

Regenerate the stored totals (only when a workload's grid changes) with

    python3 bench/ref_solver.py > bench/reference.json
"""

from __future__ import annotations

import json
import sys
from math import ceil, sqrt

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import expit

_SAGA_RECOMPUTE_EVERY = 10_000
_GAP_CLAMP = 1e-12
_ESTIMATOR = {"fw": "full", "sarah_fw": "sarah", "saga_sarah_fw": "saga_sarah",
              "momentum_fw": "momentum"}
_AUTO_SCHEDULE = {"fw": "classic_fw", "sarah_fw": "theorem1",
                  "saga_sarah_fw": "theorem3", "momentum_fw": "classic_fw"}
_DEFAULT_ALGORITHMS = ["fw", "sarah_fw", "saga_sarah_fw"]


class _Problem:
    def __init__(self, inp, loss, constraint, radius):
        self.loss = loss
        self.kind = constraint
        self.r = radius
        self.n, self.d = inp.n, inp.d
        self.X = csr_matrix((inp.values, inp.indices, inp.indptr), shape=(self.n, self.d))
        lo, hi = (-1.0, 1.0) if loss == "logistic" else (0.0, 1.0)
        self.y = np.where(inp.labels == np.unique(inp.labels)[0], lo, hi)

    def coefs(self, z, y):
        if self.loss == "logistic":
            return -y * expit(-y * z)
        s = expit(-z)
        return 2.0 * (y - s) * s * (1.0 - s)

    def loss_full(self, w):
        z = np.asarray(self.X @ w).ravel()
        if self.loss == "logistic":
            return float(np.mean(np.logaddexp(0.0, -self.y * z)))
        return float(np.mean((self.y - expit(-z)) ** 2))

    def grad_full(self, w):
        c = self.coefs(np.asarray(self.X @ w).ravel(), self.y)
        return np.asarray(self.X.T @ c).ravel() / self.n

    def lmo(self, g):
        if self.kind == "l1_ball":
            i = int(np.argmax(np.abs(g)))
            s = np.zeros(self.d)
            s[i] = -self.r if g[i] > 0 else self.r
            return s
        return np.where(g > 0, -self.r, self.r)

    def fw_gap(self, x):
        g = self.grad_full(x)
        gap = float(g @ (x - self.lmo(g)))
        return 0.0 if -_GAP_CLAMP <= gap < 0.0 else gap


def _plateau_then_harmonic(k, K, plateau, half_life):
    if K <= half_life:
        return plateau
    k0 = ceil(K / 2)
    return plateau if k <= k0 else 2.0 / (2.0 * half_life + k - k0)


def _eta(kind, k, K, p, b, n):
    if kind == "classic_fw":
        return 2.0 / (k + 2.0)
    if kind == "sqrt_k":
        return 1.0 / sqrt(K)
    if kind == "theorem1":
        return _plateau_then_harmonic(k, K, p / 2.0, 2.0 / p)
    return _plateau_then_harmonic(k, K, b / n / 4.0, 4.0 / (b / n))


class _Estimator:
    def __init__(self, kind, pb, x0, seed, b, p, lam):
        self.kind, self.pb, self.b, self.p, self.lam = kind, pb, b, p, lam
        self.rng = np.random.default_rng(seed)
        self.sfo = pb.n
        if kind == "saga_sarah":
            self.table = pb.coefs(np.asarray(pb.X @ x0).ravel(), pb.y)
            self.avg = np.asarray(pb.X.T @ self.table).ravel() / pb.n
            self.g = self.avg.copy()
            self.since_recompute = 0
        else:
            self.g = pb.grad_full(x0)

    def _batch_coefs(self, S, *points):
        XS = self.pb.X[S]
        yS = self.pb.y[S]
        return XS, [self.pb.coefs(np.asarray(XS @ x).ravel(), yS) for x in points]

    def update(self, x_new, x_old, k):
        pb, b = self.pb, self.b
        if self.kind == "full":
            self.g = pb.grad_full(x_new)
            self.sfo += pb.n
        elif self.kind == "sarah":
            if self.rng.random() < self.p:
                self.g = pb.grad_full(x_new)
                self.sfo += pb.n
                return
            S = self.rng.integers(0, pb.n, size=b)
            XS, (c_new, c_old) = self._batch_coefs(S, x_new, x_old)
            self.g = self.g + np.asarray(XS.T @ (c_new - c_old)).ravel() / len(S)
            self.sfo += 2 * b
        elif self.kind == "momentum":
            rho = (k + 1.0) ** (-2.0 / 3.0)
            S = self.rng.integers(0, pb.n, size=b)
            XS, (c,) = self._batch_coefs(S, x_new)
            self.g = (1.0 - rho) * self.g + rho * (np.asarray(XS.T @ c).ravel() / S.size)
            self.sfo += b
        else:
            S = self.rng.integers(0, pb.n, size=b)
            XS, (c_new, c_old) = self._batch_coefs(S, x_new, x_old)
            sarah_term = np.asarray(XS.T @ (c_new - c_old)).ravel() / b
            saga_term = np.asarray(XS.T @ (c_old - self.table[S])).ravel() / b + self.avg
            self.g = sarah_term + (1.0 - self.lam) * self.g + self.lam * saga_term
            self.sfo += 2 * b
            uniq, first = np.unique(S, return_index=True)
            delta = np.zeros(b)
            delta[first] = c_new[first] - self.table[uniq]
            self.avg = self.avg + np.asarray(XS.T @ delta).ravel() / pb.n
            self.table[uniq] = c_new[first]
            self.since_recompute += 1
            if self.since_recompute >= _SAGA_RECOMPUTE_EVERY:
                self.avg = np.asarray(pb.X.T @ self.table).ravel() / pb.n
                self.since_recompute = 0


def _expected_sfo_per_iteration(alg, n, b, p):
    return {"fw": float(n), "sarah_fw": p * n + (1.0 - p) * 2.0 * b,
            "saga_sarah_fw": 2.0 * b, "momentum_fw": float(b)}[alg]


def reference_grid(inp, spec):
    """One summary row per (algorithm, seed), in the grid's order.

    Each row's ``trace`` lists the recorded rows as (k, sfo, lmo, f, gap),
    with gap None where none is recorded.
    """
    pb = _Problem(inp, spec["loss"], spec.get("constraint", "l1_ball"), spec["radius"])
    n = pb.n
    b = max(1, ceil(n / 100))
    p = 2.0 * b / (n + 2.0 * b)
    lam = b / (2.0 * n)
    rows = []
    for alg in spec.get("algorithms", _DEFAULT_ALGORITHMS):
        K = max(1, ceil(spec["epochs"] * n / _expected_sfo_per_iteration(alg, n, b, p)))
        gap_every = spec.get("gap_every")
        if gap_every is None:
            gap_every = max(1, ceil(K / 50))
        record_every = spec.get("record_every", 1)
        schedule = spec.get("schedule", "auto")
        if schedule == "auto":
            schedule = _AUTO_SCHEDULE[alg]
        for seed in spec["seeds"]:
            x = np.zeros(pb.d)
            est = _Estimator(_ESTIMATOR[alg], pb, x, seed, b, p, lam)
            trace, gaps = [], []

            def record(k, x_k):
                gap = None
                if gap_every > 0 and k % gap_every == 0:
                    gap = pb.fw_gap(x_k)
                    gaps.append(gap)
                trace.append((k, est.sfo, k, pb.loss_full(x_k), gap))

            for k in range(K):
                if k % record_every == 0:
                    record(k, x)
                s = pb.lmo(est.g)
                x_new = x + _eta(schedule, k, K, p, b, n) * (s - x)
                est.update(x_new, x, k)
                x = x_new
            record(K, x)
            rows.append({
                "algorithm": alg, "seed": seed, "K": K,
                "sfo_total": est.sfo, "lmo_total": K,
                "gap_sfo_total": n * len(gaps), "gap_lmo_total": len(gaps),
                "final_f": pb.loss_full(x),
                "min_gap": min(gaps) if gaps else None,
                "trace": trace,
            })
    return rows


COUNT_KEYS = ("algorithm", "seed", "K", "sfo_total", "lmo_total", "gap_sfo_total", "gap_lmo_total")


def main():
    from inputs import SHAPES, generate
    from workloads import WORKLOADS

    stored = {}
    for w in WORKLOADS.values():
        stored[w.name] = {}
        for scale in SHAPES[w.data]:
            rows = reference_grid(generate(w.data, 0, scale), w.spec)
            stored[w.name][scale] = [{k: r[k] for k in COUNT_KEYS} for r in rows]
    json.dump(stored, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
