"""Step-size schedules and default algorithm parameters.

Four step-size rules are provided. ``classic_fw`` is the parameter-free
2/(k+2). ``theorem1`` and ``theorem3`` are the horizon-aware rules used by
the variance-reduced solvers in the convex case: constant on a plateau for
the first half of the run, then harmonic decay, continuous at the switch
index k0 = ceil(K/2). ``sqrt_k`` is the flat 1/sqrt(K) rule for the
non-convex case. All emitted values lie in (0, 1].

A rule is named by its kind alone. ``eta`` takes the horizon K and the
rule's parameters (p for theorem1, b and n for theorem3) from the run it
steps, so a rule cannot disagree with the estimator or the data it drives.
"""

from __future__ import annotations

from math import ceil, sqrt

__all__ = ["eta", "default_params", "default_batch", "SCHEDULE_KINDS"]

SCHEDULE_KINDS = ("classic_fw", "theorem1", "theorem3", "sqrt_k")


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


def eta(kind, k, K, p=None, b=None, n=None):
    """Step size eta_k of rule ``kind`` for 0 <= k < K.

    theorem1 reads SARAH's refresh probability p, theorem3 the batch size b
    and the dataset size n; ``solve`` passes the run's own values.
    """
    if kind not in SCHEDULE_KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}")
    if not 0 <= k < K:
        raise ValueError(f"iteration {k} outside horizon [0, {K})")
    if kind == "classic_fw":
        return 2.0 / (k + 2.0)
    if kind == "sqrt_k":
        return 1.0 / sqrt(K)
    if kind == "theorem1":
        if p is None or not 0 < p <= 1:
            raise ValueError("theorem1 schedule needs p in (0, 1]")
        return _plateau_then_harmonic(k, K, p / 2.0, 2.0 / p)
    if b is None or n is None or not 1 <= b <= n:
        raise ValueError("theorem3 schedule needs 1 <= b <= n")
    # theorem3: plateau b/(4n), switch at K = 4n/b, tail 2/(8n/b + k - k0)
    ratio = b / n
    return _plateau_then_harmonic(k, K, ratio / 4.0, 4.0 / ratio)


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
