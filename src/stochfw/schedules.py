"""Step-size schedules and default algorithm parameters.

Four step-size rules are provided. ``classic_fw`` is the parameter-free
2/(k+2). ``theorem1`` and ``theorem3`` are the horizon-aware rules used by
the variance-reduced solvers in the convex case: constant on a plateau for
the first half of the run, then harmonic decay, continuous at the switch
index k0 = ceil(K/2). ``sqrt_k`` is the flat 1/sqrt(K) rule for the
non-convex case. All emitted values lie in (0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, sqrt

__all__ = ["Schedule", "eta", "default_params", "default_batch", "SCHEDULE_KINDS"]

SCHEDULE_KINDS = ("classic_fw", "theorem1", "theorem3", "sqrt_k")


@dataclass(frozen=True)
class Schedule:
    """Step-size rule with its planned horizon K and rule parameters."""

    kind: str
    K: int
    p: float | None = None  # theorem1
    b: int | None = None  # theorem3
    n: int | None = None  # theorem3

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.K < 0:
            raise ValueError("K must be non-negative")
        if self.kind == "theorem1":
            if self.p is None or not 0 < self.p <= 1:
                raise ValueError("theorem1 schedule needs p in (0, 1]")
        if self.kind == "theorem3":
            if self.b is None or self.n is None or not 1 <= self.b <= self.n:
                raise ValueError("theorem3 schedule needs 1 <= b <= n")

    @classmethod
    def classic_fw(cls, K):
        return cls(kind="classic_fw", K=K)

    @classmethod
    def theorem1(cls, K, p):
        return cls(kind="theorem1", K=K, p=p)

    @classmethod
    def theorem3(cls, K, b, n):
        return cls(kind="theorem3", K=K, b=b, n=n)

    @classmethod
    def sqrt_k(cls, K):
        return cls(kind="sqrt_k", K=K)


def _plateau_then_harmonic(k, K, plateau, half_life):
    # plateau = 1/d and half_life = d of the underlying recursion lemma:
    # eta_k = 1/d until k0 = ceil(K/2), then 2/(2d + k - k0). At k = k0 the
    # tail equals the plateau in exact arithmetic, so emit the plateau there
    # rather than risk 1-ulp double rounding of 2/(2d) vs 1/d; the sequence
    # is then exactly continuous and non-increasing.
    if K <= half_life:
        return plateau
    k0 = ceil(K / 2)
    if k <= k0:
        return plateau
    return 2.0 / (2.0 * half_life + k - k0)


def eta(schedule, k):
    """Step size eta_k; valid for 0 <= k < K."""
    if not 0 <= k < schedule.K:
        raise ValueError(f"iteration {k} outside horizon [0, {schedule.K})")
    if schedule.kind == "classic_fw":
        return 2.0 / (k + 2.0)
    if schedule.kind == "sqrt_k":
        return 1.0 / sqrt(schedule.K)
    if schedule.kind == "theorem1":
        return _plateau_then_harmonic(k, schedule.K, schedule.p / 2.0, 2.0 / schedule.p)
    # theorem3: plateau b/(4n), switch at K = 4n/b, tail 2/(8n/b + k - k0)
    ratio = schedule.b / schedule.n
    return _plateau_then_harmonic(k, schedule.K, ratio / 4.0, 4.0 / ratio)


def default_params(algorithm, n, b):
    """Theory-prescribed (p, lambda) for a given dataset size and batch.

    sarah:       p = 2b/(n + 2b)  (balances full vs batch oracle cost)
    saga_sarah:  lambda = b/(2n)

    Returns a ``(p, lam)`` pair; the entry the algorithm does not use is None.
    """
    if not 1 <= b <= n:
        raise ValueError(f"need 1 <= b <= n, got b={b}, n={n}")
    if algorithm == "sarah":
        return 2.0 * b / (n + 2.0 * b), None
    if algorithm == "saga_sarah":
        return None, b / (2.0 * n)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def default_batch(n):
    """Default batch size: ceil(n/100)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ceil(n / 100)
