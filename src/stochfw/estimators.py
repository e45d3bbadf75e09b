"""Stochastic gradient estimators: full, SARAH, SAGA-SARAH, and momentum.

An estimator serves the m seeds of a lockstep solve, or one seed. Each
seed has its own estimate (a row of g), seeded RNG and stochastic
first-order oracle (SFO) counter; the counter increments by exactly the
number of per-sample gradient evaluations performed. Random choices go
through ``draw_refresh`` (SARAH's coins) and ``draw_batch``, seed by seed. A
seed's coin is drawn before its batch, so its refresh branch consumes
exactly one RNG draw, which keeps seeded reruns bit-exact and each seed's
draws those of its solve alone.

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
sparse matrix object built per call. The m seeds' batches are gathered
into one block (``Objective.batch`` of an (m, b) array), so each term is one
loop for all of them, and all arithmetic on estimates is elementwise on
(m, d) blocks, so each seed's bits are those of its update alone. A SARAH
seed that refreshes takes its full gradient alone, and the block holds
the other seeds' batches only. Full refreshes, the SAGA initial pass
and the table recomputation cover all n rows and go through the objective's
full passes (``grad_full``, ``grad_coefs``, ``mean_rows``) instead. The
batch kernel runs the loops behind scipy's ``X[S] @ w`` and ``X[S].T @ c``
(see ``stochfw.objectives``), so every batch term has their bits.

A batch's margins always come from the batch kernel. Inside ``solve``,
full refreshes and the SAGA initial pass read X x at each seed's current
iterate from that seed's ``Margins``. Built without them
(``init_estimator(cfg, obj, x0, seed)``), an estimator leaves every full
pass to the objective.

The SAGA table stores each y_i in factored form, one scalar c_i per
sample. The table average is maintained incrementally (O(b * nnz) per
step) and recomputed from scratch every 10^4 updates to wash out float
drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
_NO_POSITION = np.iinfo(np.intp).max


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


class _PerSeed:
    """An estimator array kept with a leading seed axis, read and set without
    it on an estimator built for one seed. Setting copies the value."""

    def __set_name__(self, owner, name):
        self.attr = "_" + name

    def __get__(self, est, owner=None):
        if est is None:
            return self
        value = getattr(est, self.attr)
        return value[0] if est.single else value

    def __set__(self, est, value):
        value = np.array(value, dtype=np.float64)
        setattr(est, self.attr, value[None] if est.single else value)


class _Estimator:
    """State shared by every estimator, held per seed: the RNGs, the margins
    each seed reads, the SFO counters and the estimates ``g``, one row per
    seed. ``single`` estimators show ``g`` and the other per-seed arrays
    without the seed axis."""

    kind = None
    g = _PerSeed()

    def __init__(self, cfg, obj, x0, seeds, margins):
        if cfg.kind != self.kind:
            raise ValueError(f"config kind {cfg.kind!r} does not match {self.kind!r}")
        if cfg.sampling == "without_replacement" and cfg.b > obj.n:
            raise ValueError("batch size exceeds n for without-replacement sampling")
        self.cfg = cfg
        self.obj = obj
        self.single = x0.ndim == 1
        if self.single:
            seeds = [seeds]
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self.margins = margins
        self.sfo_counts = [0] * len(self.rngs)
        self._g = np.empty((len(self.rngs), obj.d))
        self._every_seed = range(len(self.rngs))

    @property
    def sfo_count(self):
        """SFO calls of all seeds together."""
        return sum(self.sfo_counts)

    @property
    def rng(self):
        """The RNG of a single-seed estimator."""
        (rng,) = self.rngs
        return rng

    def _block(self, x):
        """x as an (m, d) block: a single seed's vector gains the seed axis."""
        return x[None] if self.single else x

    def _z(self, j):
        """X x at seed j's current iterate from its margins; None without them."""
        return None if self.margins is None else self.margins[j].at()

    def draw_batch(self, seeds):
        """One batch of b sample indices from each listed seed's RNG, as a
        (len(seeds), b) block."""
        n, b = self.obj.n, self.cfg.b
        if self.cfg.sampling == "with_replacement":
            draws = [self.rngs[j].integers(0, n, size=b) for j in seeds]
        else:
            draws = [self.rngs[j].choice(n, size=b, replace=False) for j in seeds]
        return np.array(draws)

    def _full_refresh(self, j, x):
        self._g[j] = self.obj.grad_full(x, self._z(j))
        self.sfo_counts[j] += self.obj.n


class FullGradEstimator(_Estimator):
    """Deterministic baseline: g is always the exact full gradient."""

    kind = "full"

    def __init__(self, cfg, obj, x0, seed, margins=None):
        super().__init__(cfg, obj, x0, seed, margins)
        for j, x in enumerate(self._block(x0)):
            self._full_refresh(j, x)

    def update(self, x_new, x_old, k):
        for j, x in enumerate(self._block(x_new)):
            self._full_refresh(j, x)


class SarahEstimator(_Estimator):
    """Loopless SARAH: recursive correction, full refresh with probability p."""

    kind = "sarah"

    def __init__(self, cfg, obj, x0, seed, margins=None):
        super().__init__(cfg, obj, x0, seed, margins)
        for j, x in enumerate(self._block(x0)):
            self._full_refresh(j, x)
        self._refreshes = [0] * len(self.rngs)

    @property
    def refreshes(self):
        """Full refreshes so far, per seed (a count for a single seed)."""
        return self._refreshes[0] if self.single else list(self._refreshes)

    def draw_refresh(self):
        """The refresh coins, one per seed: True with probability p."""
        return [rng.random() < self.cfg.p for rng in self.rngs]

    def update(self, x_new, x_old, k):
        x_new, x_old = self._block(x_new), self._block(x_old)
        # Coin first, then batch: the refresh branch consumes one RNG draw.
        seeds = []
        for j, coin in enumerate(self.draw_refresh()):
            if coin:
                self._full_refresh(j, x_new[j])
                self._refreshes[j] += 1
            else:
                seeds.append(j)
        if not seeds:
            return
        B = self.obj.batch(self.draw_batch(seeds))
        c_new = B.coefs(x_new.take(seeds, axis=0))
        step = B.scatter(c_new - B.coefs(x_old.take(seeds, axis=0))) / B.size
        for t, j in enumerate(seeds):
            self._g[j] += step[t]
            self.sfo_counts[j] += 2 * B.size


class SagaSarahEstimator(_Estimator):
    """SARAH recursion mixed with a SAGA-table correction; no full gradients."""

    kind = "saga_sarah"
    table_coefs = _PerSeed()
    saga_avg = _PerSeed()

    def __init__(self, cfg, obj, x0, seed, margins=None):
        super().__init__(cfg, obj, x0, seed, margins)
        m, n = len(self.rngs), obj.n
        self._table_coefs = np.zeros((m, n))
        self._saga_avg = np.zeros((m, obj.d))
        for j, x in enumerate(self._block(x0)):
            if cfg.cold_start:
                i0 = int(self.rngs[j].integers(0, n))
                self._g[j] = obj.grad_sample(i0, x)
                self.sfo_counts[j] += 1
            else:
                # One pass fills the table and the initial estimate together.
                self._table_coefs[j] = obj.grad_coefs(x, self._z(j))
                self._saga_avg[j] = obj.mean_rows(self._table_coefs[j])
                self._g[j] = self._saga_avg[j]
                self.sfo_counts[j] += n
        # seed j's entries start at j n in the flattened table; ``_first``
        # finds each entry's first position in a batch, and is reset after
        self._table_start = np.arange(0, m * n, n)[:, None]
        self._positions = np.arange(m * cfg.b)
        self._first = np.full(m * n, _NO_POSITION)
        self._updates_since_recompute = 0

    def table_mean(self):
        """Recompute (1/n) sum_j y_j from the stored table, per seed."""
        means = np.array([self.obj.mean_rows(coefs) for coefs in self._table_coefs])
        return means[0] if self.single else means

    def update(self, x_new, x_old, k):
        obj, lam = self.obj, self.cfg.lam
        seeds = self._every_seed
        S = self.draw_batch(seeds)
        B = obj.batch(S)
        b = B.size
        table = self._table_coefs.reshape(-1)
        entries = S + self._table_start
        y_S = table.take(entries)

        c_new, c_old = B.coefs(self._block(x_new)), B.coefs(self._block(x_old))
        sarah_term = B.scatter(c_new - c_old) / b
        saga_term = B.scatter(c_old - y_S) / b + self._saga_avg
        self._g = sarah_term + (1.0 - lam) * self._g + lam * saga_term
        for j in seeds:
            self.sfo_counts[j] += 2 * b

        # Table write-back on each seed's unique indices; duplicates in S only
        # affect the averages above, each y_i is overwritten once, from its
        # first position in S. Zeroing the other positions makes the scatter
        # of delta equal the sum of per-unique-row deltas without gathering
        # again.
        flat = entries.reshape(-1)
        np.minimum.at(self._first, flat, self._positions)
        first = (self._first.take(flat) == self._positions).reshape(S.shape)
        self._first[flat] = _NO_POSITION
        delta = np.zeros(S.shape)
        np.subtract(c_new, y_S, out=delta, where=first)
        self._saga_avg = self._saga_avg + B.scatter(delta) / obj.n
        table[entries[first]] = c_new[first]

        self._updates_since_recompute += 1
        if self._updates_since_recompute >= _SAGA_RECOMPUTE_EVERY:
            self.saga_avg = self.table_mean()
            self._updates_since_recompute = 0


class MomentumEstimator(_Estimator):
    """Exponential-average baseline: g = (1 - rho_k) g + rho_k batch gradient."""

    kind = "momentum"

    def __init__(self, cfg, obj, x0, seed, margins=None):
        super().__init__(cfg, obj, x0, seed, margins)
        for j, x in enumerate(self._block(x0)):
            self._full_refresh(j, x)
        self.rho = cfg.momentum_rho or default_momentum_rho

    def update(self, x_new, x_old, k):
        rho = self.rho(k)
        B = self.obj.batch(self.draw_batch(self._every_seed))
        # grad_batch's sum, on iterates the solve produced: no check of x_new
        self._g = (1.0 - rho) * self._g + rho * (B.scatter(B.coefs(self._block(x_new))) / B.size)
        for j in self._every_seed:
            self.sfo_counts[j] += B.size


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

    For one seed, x0 is a vector and ``seed`` an int. For a lockstep solve,
    x0 is the (m, d) block of starting points and ``seed`` a sequence of m
    seeds; ``g`` is then an (m, d) block and ``update(x_new, x_old, k)``
    takes blocks. ``margins``, if given, holds one ``Margins`` per seed,
    stepped by the solve, and full passes read X x from it; without it the
    objective makes every full pass.
    """
    return _CLASSES[cfg.kind](cfg, obj, np.asarray(x0, dtype=np.float64), seed, margins)
