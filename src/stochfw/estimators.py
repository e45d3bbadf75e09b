"""Stochastic gradient estimators: full, SARAH, SAGA-SARAH, and momentum.

Each estimator owns its estimate g, its seeded RNG, and its stochastic
first-order oracle (SFO) counter; the counter increments by exactly the
number of per-sample gradient evaluations performed. Random choices go
through ``draw_refresh`` (SARAH's coin) and ``draw_batch``. The coin is drawn
before any batch so the refresh branch consumes exactly one RNG draw, which
keeps seeded reruns bit-exact.

Update rules (x_new = x^{k+1}, x_old = x^k, batch S of size b):

    full        g = grad f(x_new)                                  [n SFO]
    sarah       with prob p: g = grad f(x_new)                     [n SFO]
                else: g += mean_S[grad f_i(x_new) - grad f_i(x_old)]
                                                                   [2b SFO]
    saga_sarah  g = mean_S[grad f_i(x_new) - grad f_i(x_old)]
                    + (1-lam) g
                    + lam (mean_S[grad f_i(x_old) - y_i] + avg_j y_j)
                then y_i = grad f_i(x_new) for i in S              [2b SFO]
    momentum    g = (1-rho_k) g + rho_k mean_S[grad f_i(x_new)]    [b SFO]

Both losses have grad f_i = c_i * x_i, so every batch term above is a
weighted sum of the rows of S. An update gathers those rows once
(``Objective.batch``) and evaluates each term as margins at a point, then
scalar coefficients, then one scatter of the coefficients back onto the
rows: O(b * nnz_row) work per term in scipy's compiled sparse loops, with no
sparse matrix object built per call. Full refreshes, the SAGA initial pass
and the table recomputation cover all n rows and go through the objective's
full passes (``grad_full``, ``grad_coefs``, ``mean_rows``) instead. The
batch kernel runs the loops behind scipy's ``X[S] @ w`` and ``X[S].T @ c``
(see ``stochfw.objectives``), so every batch term has their bits.

Inside ``solve`` an estimator reads margins from the solve's ``Margins``:
full refreshes and the SAGA initial pass take X x from it, and sarah and
saga_sarah take a batch's margins as ``z.take(S)`` at a point where z
already is, or where the next recorded row will put it; elsewhere the
batch kernel computes them. Built without one (``init_estimator(cfg, obj,
x0, seed)``), an estimator makes every full pass itself.

The SAGA table stores each y_i in factored form, one scalar c_i per
sample. The table average is maintained incrementally (O(b * nnz) per
step) and recomputed from scratch every 10^4 updates to wash out float
drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import Margins

__all__ = [
    "Algorithm",
    "ALGORITHMS",
    "EstimatorConfig",
    "FullGradEstimator",
    "SarahEstimator",
    "SagaSarahEstimator",
    "MomentumEstimator",
    "init_estimator",
    "ESTIMATOR_KINDS",
    "SAMPLING_MODES",
]

SAMPLING_MODES = ("with_replacement", "without_replacement")

_SAGA_RECOMPUTE_EVERY = 10_000


def default_momentum_rho(k):
    return (k + 1.0) ** (-2.0 / 3.0)


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run and its parameters.

    ``p`` is required for sarah, ``lam`` for saga_sarah; ``momentum_rho``
    overrides the default (k+1)^(-2/3) rule. ``cold_start`` starts
    saga_sarah from a single sampled gradient and an all-zero table instead
    of a full-gradient pass.
    """

    kind: str
    b: int = 1
    p: float | None = None
    lam: float | None = None
    momentum_rho: object = None
    sampling: str = "with_replacement"
    cold_start: bool = False

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"unknown sampling mode {self.sampling!r}")
        if self.b < 1:
            raise ValueError("batch size must be >= 1")
        if self.kind == "sarah" and (
            self.p is None or not 0 < self.p <= 1 or self.p / 2.0 == 0.0
        ):
            # theorem1 steps p/2, which must not round to 0
            raise ValueError("sarah needs refresh probability p in (0, 1] with p/2 > 0")
        if self.kind == "saga_sarah" and (self.lam is None or not 0 < self.lam <= 1):
            raise ValueError("saga_sarah needs mixing weight lam in (0, 1]")
        if self.cold_start and self.kind != "saga_sarah":
            raise ValueError("cold_start only applies to saga_sarah")


class _Estimator:
    kind = None

    def __init__(self, cfg, obj, seed, margins):
        if cfg.kind != self.kind:
            raise ValueError(f"config kind {cfg.kind!r} does not match {self.kind!r}")
        if cfg.sampling == "without_replacement" and cfg.b > obj.n:
            raise ValueError("batch size exceeds n for without-replacement sampling")
        self.cfg = cfg
        self.obj = obj
        self.rng = np.random.default_rng(seed)
        self.sfo_count = 0
        self.g = None
        self.margins = Margins(obj) if margins is None else margins

    def draw_batch(self):
        n, b = self.obj.n, self.cfg.b
        if self.cfg.sampling == "with_replacement":
            return self.rng.integers(0, n, size=b)
        return self.rng.choice(n, size=b, replace=False)

    def _full_refresh(self, x):
        self.g = self.obj.grad_full(x, self.margins.at(x))
        self.sfo_count += self.obj.n

    def _batch_coefs(self, B, x_new, x_old):
        """Gradient multipliers of batch B at x_new and at x_old, with margins
        taken from the solve's z where it holds them."""
        # x_old first, while z may still be there: reading x_new can replay
        # z past it, and x_old then costs the batch kernel
        c_old = B.coefs(x_old, self.margins.held(x_old))
        return B.coefs(x_new, self.margins.held(x_new)), c_old


class FullGradEstimator(_Estimator):
    """Deterministic baseline: g is always the exact full gradient."""

    kind = "full"

    def __init__(self, cfg, obj, x0, seed, margins=None):
        super().__init__(cfg, obj, seed, margins)
        self._full_refresh(x0)

    def update(self, x_new, x_old, k):
        self._full_refresh(x_new)


class SarahEstimator(_Estimator):
    """Loopless SARAH: recursive correction, full refresh with probability p."""

    kind = "sarah"

    def __init__(self, cfg, obj, x0, seed, margins=None):
        super().__init__(cfg, obj, seed, margins)
        self._full_refresh(x0)
        self.refreshes = 0

    def draw_refresh(self):
        """The refresh coin: True with probability p."""
        return self.rng.random() < self.cfg.p

    def update(self, x_new, x_old, k):
        # Coin first, then batch: the refresh branch consumes one RNG draw.
        if self.draw_refresh():
            self._full_refresh(x_new)
            self.refreshes += 1
        else:
            B = self.obj.batch(self.draw_batch())
            c_new, c_old = self._batch_coefs(B, x_new, x_old)
            self.g = self.g + B.scatter(c_new - c_old) / B.size
            self.sfo_count += 2 * B.size


class SagaSarahEstimator(_Estimator):
    """SARAH recursion mixed with a SAGA-table correction; no full gradients."""

    kind = "saga_sarah"

    def __init__(self, cfg, obj, x0, seed, margins=None):
        super().__init__(cfg, obj, seed, margins)
        n = obj.n
        if cfg.cold_start:
            i0 = int(self.rng.integers(0, n))
            self.g = obj.grad_sample(i0, x0)
            self.sfo_count += 1
            self.table_coefs = np.zeros(n)
            self.saga_avg = np.zeros(obj.d)
        else:
            # One pass fills the table and the initial estimate together.
            coefs = obj.grad_coefs(x0, self.margins.at(x0))
            self.table_coefs = coefs
            self.saga_avg = obj.mean_rows(coefs)
            self.g = self.saga_avg.copy()
            self.sfo_count += n
        self._updates_since_recompute = 0

    def table_mean(self):
        """Recompute (1/n) sum_j y_j from the stored table."""
        return self.obj.mean_rows(self.table_coefs)

    def update(self, x_new, x_old, k):
        obj, lam = self.obj, self.cfg.lam
        S = self.draw_batch()
        B = obj.batch(S)
        b = B.size

        c_new, c_old = self._batch_coefs(B, x_new, x_old)
        sarah_term = B.scatter(c_new - c_old) / b
        saga_term = B.scatter(c_old - self.table_coefs[S]) / b + self.saga_avg
        self.g = sarah_term + (1.0 - lam) * self.g + lam * saga_term
        self.sfo_count += 2 * b

        # Table write-back on unique indices; duplicates in S only affect
        # the averages above, each y_i is overwritten once. Zeroing the
        # non-first duplicate positions makes the scatter of delta_vec equal
        # the sum of per-unique-row deltas without gathering again.
        uniq, first_pos = np.unique(S, return_index=True)
        delta_vec = np.zeros(b)
        delta_vec[first_pos] = c_new[first_pos] - self.table_coefs[uniq]
        self.saga_avg = self.saga_avg + B.scatter(delta_vec) / obj.n
        self.table_coefs[uniq] = c_new[first_pos]

        self._updates_since_recompute += 1
        if self._updates_since_recompute >= _SAGA_RECOMPUTE_EVERY:
            self.saga_avg = self.table_mean()
            self._updates_since_recompute = 0


class MomentumEstimator(_Estimator):
    """Exponential-average baseline: g = (1 - rho_k) g + rho_k batch gradient."""

    kind = "momentum"

    def __init__(self, cfg, obj, x0, seed, margins=None):
        super().__init__(cfg, obj, seed, margins)
        self._full_refresh(x0)
        self.rho = cfg.momentum_rho or default_momentum_rho

    def update(self, x_new, x_old, k):
        rho = self.rho(k)
        S = self.draw_batch()
        self.g = (1.0 - rho) * self.g + rho * self.obj.grad_batch(S, x_new)
        self.sfo_count += len(S)


@dataclass(frozen=True)
class Algorithm:
    """A Frank-Wolfe variant of ``ALGORITHMS``, the one table of them: its
    estimator class, the step-size rule that ``schedule = auto`` picks, and
    its expected SFO cost of one iteration, ``sfo_per_iteration(n, b, p)``,
    the unit that turns epochs into K."""

    estimator: type
    schedule: str
    sfo_per_iteration: object


ALGORITHMS = {
    "fw": Algorithm(FullGradEstimator, "classic_fw", lambda n, b, p: n),
    "sarah_fw": Algorithm(SarahEstimator, "theorem1", lambda n, b, p: p * n + (1 - p) * 2 * b),
    "saga_sarah_fw": Algorithm(SagaSarahEstimator, "theorem3", lambda n, b, p: 2 * b),
    "momentum_fw": Algorithm(MomentumEstimator, "classic_fw", lambda n, b, p: b),
}

_CLASSES = {a.estimator.kind: a.estimator for a in ALGORITHMS.values()}
ESTIMATOR_KINDS = tuple(_CLASSES)


def init_estimator(cfg, obj, x0, seed, margins=None):
    """Build the estimator named by ``cfg.kind`` with g initialized at x0.

    ``margins`` is the solve's ``Margins``; full passes then read X x from it.
    Without it every full pass makes its own.
    """
    return _CLASSES[cfg.kind](cfg, obj, np.asarray(x0, dtype=np.float64), seed, margins)
