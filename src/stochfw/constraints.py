"""Convex compact constraint sets with closed-form linear minimization oracles.

Three sets are supported, each with vertex-valued LMO and known Euclidean
diameter:

    l1_ball   {x : ||x||_1 <= r}          vertices {+-r e_i},  D = 2r
    simplex   {x >= 0, sum x = r}         vertices {r e_i},    D = r*sqrt(2)
    linf_box  {x : ||x||_inf <= r}        corners {+-r}^d,     D = 2r*sqrt(d)

Ties (including g = 0, which can occur at stationary points) are broken
toward the lowest index / positive sign so that runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

__all__ = ["ConstraintSet", "lmo", "contains", "diameter", "CONSTRAINT_KINDS"]

CONSTRAINT_KINDS = ("l1_ball", "simplex", "linf_box")


@dataclass(frozen=True)
class ConstraintSet:
    """Constraint set descriptor: kind plus radius (or simplex scale).

    ``dim`` is only required where the geometry needs it (the linf_box
    diameter grows with dimension); the LMO infers dimension from its input.
    """

    kind: str
    radius: float
    dim: int | None = None

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if not 0 < self.radius < inf:
            raise ValueError("radius must be positive and finite")


def lmo(cset, g):
    """Vertex s minimizing <g, s> over the set.

    For the l1 ball the minimizer is -r*sign(g_i*) e_i* at the coordinate
    of largest |g|; for the simplex it is r e_i* at the smallest g; for the
    box each coordinate independently takes -r*sign(g_j). Zero gradient
    components fall back to the tie-break vertex (+r at the lowest index).
    ``g`` may also be an (m, d) block with one gradient per row, as a
    lockstep solve holds them; then row t of the result is row t's vertex.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim not in (1, 2):
        raise ValueError("g must be a vector or an (m, d) block")
    if cset.dim is not None and g.shape[-1] != cset.dim:
        raise ValueError(f"g has shape {g.shape}, expected rows of length {cset.dim}")
    if not np.isfinite(g).all():
        raise ValueError("g contains NaN or Inf")
    r = cset.radius
    if cset.kind == "linf_box":
        # argmax corners per coordinate, +r where g_j <= 0
        return np.where(g > 0, -r, r)

    s = np.zeros(g.shape)
    g2, s2 = g.reshape(-1, g.shape[-1]), s.reshape(-1, g.shape[-1])
    if cset.kind == "l1_ball":
        for t, i in enumerate(np.abs(g2).argmax(axis=1).tolist()):
            s2[t, i] = -r if g2[t, i] > 0 else r
    else:  # simplex
        for t, i in enumerate(g2.argmin(axis=1).tolist()):
            s2[t, i] = r
    return s


def contains(cset, x, tol):
    """Membership in the set expanded by ``tol`` in its defining norm."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    r = cset.radius
    if cset.kind == "l1_ball":
        return bool(np.sum(np.abs(x)) <= r + tol)
    if cset.kind == "simplex":
        return bool(np.all(x >= -tol) and abs(np.sum(x) - r) <= tol)
    return bool(np.max(np.abs(x)) <= r + tol)


def diameter(cset):
    """Euclidean diameter D = max ||x - y|| over the set."""
    r = cset.radius
    if cset.kind == "l1_ball":
        return 2.0 * r
    if cset.kind == "simplex":
        return r * sqrt(2.0)
    if cset.dim is None:
        raise ValueError("linf_box diameter needs dim")
    return 2.0 * r * sqrt(cset.dim)
