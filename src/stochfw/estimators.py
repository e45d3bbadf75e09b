"""Stochastic gradient estimators: full, SARAH, SAGA-SARAH, and momentum.

An estimator serves the m seeds of a lockstep solve. Each seed has its
own estimate (a row of the (m, d) block g) and stochastic first-order
oracle (SFO) counter; the counter increments by exactly the number of
per-sample gradient evaluations performed. The three estimators that draw
(sarah, saga_sarah, momentum) also hold a seeded RNG per seed; the full
estimator holds none, so a process that runs only fw never loads
``numpy.random`` (numpy loads it at first use). Random choices go
through ``draw_refresh`` (SARAH's coins) and ``draw_batch``, seed by seed. A
seed's coin is drawn before its batch, so its refresh branch consumes
exactly one RNG draw, which keeps seeded reruns bit-exact and each seed's
draws those of its solve alone.

``draw_batch`` serves each seed's batches, drawn uniformly with replacement,
from a block of that seed's future draws, refilled with one
``integers(0, n, size=(C, b))`` call of C = max(1, 2048 // b) steps. numpy
gives that block the bits of C per-step calls and leaves the RNG where they
would, so every batch is the one a per-step draw gives. It holds for momentum
and saga_sarah, whose batches are the only draws from their RNGs after
``__init__`` (saga_sarah's cold-start draw comes first: the first block is
drawn at the first update). SARAH's coin is drawn from the same RNG between its
batches, so its blocks hold one step. The one visible effect: after updates, a
seed's RNG may be up to one block ahead of the last batch it served.

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
weighted sum of the rows of S. An update gathers those rows once into an
``objectives.Batch``, as ``Objective.grad_batch`` does, and evaluates each
term as margins at a point, then scalar coefficients, then one scatter of
the coefficients back onto the rows: O(b * nnz_row) work per term in
scipy's compiled sparse loops, with no sparse matrix object built per call.
The m seeds' batches are gathered into one block (a ``Batch`` of an (m, b)
array), so each term is one loop for all of them, and all arithmetic on
estimates is elementwise on (m, d) blocks, so each seed's bits are those of
its update alone. A SARAH seed that refreshes takes its full gradient
alone, and the block holds the other seeds' batches only. Full refreshes,
the SAGA initial pass and the table recomputation cover all n rows and go
through the objective's full passes (``grad_full``, ``grad_coefs``,
``mean_rows``) instead. ``Batch`` runs the loops behind scipy's ``X[S] @ w``
and ``X[S].T @ c``, so every batch term has their bits.

A batch's margins always come from the batch kernel. Inside ``solve``,
full refreshes and the SAGA initial pass are handed each seed's
``Margins`` and read from them X x at its current iterate and the loss
terms of it. Built without them, an estimator leaves every full pass to
the objective.

Every estimator holds its state with a leading seed axis: g, the SAGA
table and its average are (m, .) arrays and the refresh counts a per-seed
list. One seed's vector form is only a promotion at the entry points:
``init_estimator`` turns a vector x0 and an int seed into ``x0[None]`` and
``(seed,)``, and ``update`` gives a vector iterate the seed axis.

The SAGA table stores each y_i in factored form, one scalar c_i per
sample. The table average is maintained incrementally (O(b * nnz) per
step) and recomputed from scratch every 10^4 updates to wash out float
drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import Batch

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
]

_SAGA_RECOMPUTE_EVERY = 10_000
# sample indices in a block of a seed's future batches
_BLOCK_INDICES = 2048
_NO_POSITION = np.iinfo(np.intp).max


def _block(x):
    """x as an (m, d) block: one seed's vector gains the seed axis, and a
    block passes through."""
    return x[None] if x.ndim == 1 else x


@dataclass(frozen=True)
class EstimatorConfig:
    """Which estimator to run and its parameters.

    ``p`` is required for sarah, ``lam`` for saga_sarah. ``cold_start`` starts
    saga_sarah from a single sampled gradient and an all-zero table instead
    of a full-gradient pass.
    """

    kind: str
    b: int = 1
    p: float | None = None
    lam: float | None = None
    cold_start: bool = False

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
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
    """State shared by every estimator, held per seed: the margins each seed
    reads, the SFO counters and the estimates ``g``, one row per seed. It
    holds no RNG: only the estimators that draw (``_Drawing``) build one,
    so the full estimator never loads ``numpy.random``."""

    kind = None

    def __init__(self, cfg, obj, x0, seeds, margins=None):
        if cfg.kind != self.kind:
            raise ValueError(f"config kind {cfg.kind!r} does not match {self.kind!r}")
        self.cfg = cfg
        self.obj = obj
        self.margins = margins or [None] * len(seeds)
        self.sfo_counts = [0] * len(seeds)
        self.g = np.empty((len(seeds), obj.d))
        self._every_seed = range(len(seeds))
        for j, x in enumerate(x0):
            self._start(j, x)

    @property
    def sfo_count(self):
        """SFO calls of all seeds together."""
        return sum(self.sfo_counts)

    def _full_refresh(self, j, x):
        self.g[j] = self.obj.grad_full(x, self.margins[j])
        self.sfo_counts[j] += self.obj.n

    # g's first value at seed j's x0; saga_sarah starts without a full gradient
    _start = _full_refresh


class _Drawing(_Estimator):
    """An estimator that draws: each seed's RNG and the batches drawn from it
    ahead. The RNGs exist before the base's ``_start`` runs, which may draw."""

    _block_indices = _BLOCK_INDICES

    def __init__(self, cfg, obj, x0, seeds, margins=None):
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        # each seed's drawn batches not yet served; the first block is drawn
        # at the first update, after any draw of __init__
        self._ahead = [iter(())] * len(seeds)
        self._block_steps = max(1, self._block_indices // cfg.b)
        super().__init__(cfg, obj, x0, seeds, margins)

    def draw_batch(self, seeds):
        """One batch of b sample indices from each listed seed's RNG, as a
        (len(seeds), b) block: each seed's next row of its drawn block."""
        rows = []
        for j in seeds:
            row = next(self._ahead[j], None)
            if row is None:
                self._ahead[j] = iter(self._draw_block(self.rngs[j]))
                row = next(self._ahead[j])
            rows.append(row)
        return np.array(rows)

    def _draw_block(self, rng):
        """The next ``_block_steps`` batches of one RNG, one row each: the
        bits and the RNG state of as many per-step draws."""
        return rng.integers(0, self.obj.n, size=(self._block_steps, self.cfg.b))


class FullGradEstimator(_Estimator):
    """Deterministic baseline: g is always the exact full gradient."""

    kind = "full"

    def update(self, x_new, x_old, k):
        for j, x in enumerate(_block(x_new)):
            self._full_refresh(j, x)


class SarahEstimator(_Drawing):
    """Loopless SARAH: recursive correction, full refresh with probability p."""

    kind = "sarah"
    # a coin is drawn from the RNG between two batches: blocks of one step
    _block_indices = 1

    def __init__(self, cfg, obj, x0, seeds, margins=None):
        super().__init__(cfg, obj, x0, seeds, margins)
        self.refreshes = [0] * len(self.rngs)  # full refreshes so far, per seed

    def draw_refresh(self):
        """The refresh coins, one per seed: True with probability p."""
        return [rng.random() < self.cfg.p for rng in self.rngs]

    def update(self, x_new, x_old, k):
        x_new, x_old = _block(x_new), _block(x_old)
        # Coin first, then batch: the refresh branch consumes one RNG draw.
        seeds = []
        for j, coin in enumerate(self.draw_refresh()):
            if coin:
                self._full_refresh(j, x_new[j])
                self.refreshes[j] += 1
            else:
                seeds.append(j)
        if not seeds:
            return
        B = Batch(self.obj, self.draw_batch(seeds))
        c_new = B.coefs(x_new.take(seeds, axis=0))
        step = B.scatter(c_new - B.coefs(x_old.take(seeds, axis=0))) / B.size
        for t, j in enumerate(seeds):
            self.g[j] += step[t]
            self.sfo_counts[j] += 2 * B.size


class SagaSarahEstimator(_Drawing):
    """SARAH recursion mixed with a SAGA-table correction; no full gradients."""

    kind = "saga_sarah"

    def __init__(self, cfg, obj, x0, seeds, margins=None):
        m, n = len(seeds), obj.n
        self.table_coefs = np.zeros((m, n))
        self.saga_avg = np.zeros((m, obj.d))
        super().__init__(cfg, obj, x0, seeds, margins)
        # seed j's entries start at j n in the flattened table; ``_first``
        # finds each entry's first position in a batch, and is reset after
        self._table_start = np.arange(0, m * n, n)[:, None]
        self._positions = np.arange(m * cfg.b)
        self._first = np.full(m * n, _NO_POSITION)
        self._updates_since_recompute = 0

    def _start(self, j, x):
        obj = self.obj
        if self.cfg.cold_start:
            i0 = int(self.rngs[j].integers(0, obj.n))
            self.g[j] = obj.grad_batch([i0], x)
            self.sfo_counts[j] += 1
        else:
            # One pass fills the table and the initial estimate together.
            self.table_coefs[j] = obj.grad_coefs(x, self.margins[j])
            self.saga_avg[j] = obj.mean_rows(self.table_coefs[j])
            self.g[j] = self.saga_avg[j]
            self.sfo_counts[j] += obj.n

    def table_mean(self):
        """Recompute (1/n) sum_j y_j from the stored table, per seed."""
        return np.array([self.obj.mean_rows(coefs) for coefs in self.table_coefs])

    def update(self, x_new, x_old, k):
        obj, lam = self.obj, self.cfg.lam
        seeds = self._every_seed
        S = self.draw_batch(seeds)
        B = Batch(obj, S)
        b = B.size
        table = self.table_coefs.reshape(-1)
        entries = S + self._table_start
        y_S = table.take(entries)

        c_new, c_old = B.coefs(_block(x_new)), B.coefs(_block(x_old))
        sarah_term = B.scatter(c_new - c_old) / b
        saga_term = B.scatter(c_old - y_S) / b + self.saga_avg
        self.g = sarah_term + (1.0 - lam) * self.g + lam * saga_term
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
        self.saga_avg = self.saga_avg + B.scatter(delta) / obj.n
        table[entries[first]] = c_new[first]

        self._updates_since_recompute += 1
        if self._updates_since_recompute >= _SAGA_RECOMPUTE_EVERY:
            self.saga_avg = self.table_mean()
            self._updates_since_recompute = 0


class MomentumEstimator(_Drawing):
    """Exponential-average baseline: g = (1 - rho_k) g + rho_k batch gradient,
    with rho_k = (k+1)^(-2/3), so the first update takes the batch gradient."""

    kind = "momentum"

    def update(self, x_new, x_old, k):
        rho = (k + 1.0) ** (-2.0 / 3.0)
        B = Batch(self.obj, self.draw_batch(self._every_seed))
        # grad_batch's sum, on iterates the solve produced: no check of x_new
        self.g = (1.0 - rho) * self.g + rho * (B.scatter(B.coefs(_block(x_new))) / B.size)
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

    x0 is the (m, d) block of starting points and ``seed`` a sequence of m
    seeds; ``g`` is an (m, d) block and ``update(x_new, x_old, k)`` takes
    blocks. A vector x0 with an int seed is promoted to ``x0[None]`` and
    ``(seed,)``: an estimator of one seed, whose ``update`` also takes
    vectors. ``margins``, if given, holds one ``Margins`` per seed, stepped
    by the solve, and full passes read X x from it; without it the
    objective makes every full pass.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    seeds = (seed,) if x0.ndim == 1 else seed
    return _CLASSES[cfg.kind](cfg, obj, _block(x0), seeds, margins)
