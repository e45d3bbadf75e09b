"""Finite-sum objectives f(x) = (1/n) sum_i f_i(x) for two linear-model losses.

Both losses depend on the per-sample margin z_i = <w, x_i>, so every
per-sample gradient is a scalar multiple of the (sparse) sample:
grad f_i(w) = c_i(w) * x_i. A batch gradient is therefore a gather of
margins followed by a scatter of scalars, and the SAGA table can store one
float per sample.

Two kernels do that work:

* Batches (``Objective.batch``) gather the rows of S once from the
  dataset's CSR arrays into flat (row, column, value) entries; margins and
  weighted row sums are then one ``np.bincount`` each over those entries.
* Full passes (``loss_full``, ``grad_full``, ``grad_coefs``) go through the
  scipy CSR copy ``Objective.X``, whose compiled matvec is faster over all n
  rows.

The batch kernel reproduces scipy's bits: ``np.bincount`` starts every bin
at 0.0 and adds the entries' products in storage order, exactly as scipy's
``csr_matvec`` (margins) and ``csc_matvec`` (``X.T @ c``) accumulate them,
so ``batch(S).margins(w)`` equals ``X[S] @ w`` and ``batch(S).scatter(c)``
equals ``X[S].T @ c`` bit for bit.

logistic:  f_i(w) = log(1 + exp(-y_i z_i)),          y_i in {-1, +1}
nlls:      f_i(w) = (y_i - 1/(1 + exp(z_i)))^2,      y_i in {0, 1}
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = ["Objective", "Batch", "SmoothnessInfo", "LOSS_KINDS"]

LOSS_KINDS = ("logistic", "nlls")

# Uniform bound on |d^2/dt^2 (y - 1/(1+e^t))^2| over y in [0, 1]; the true
# supremum is ~0.26, so 0.3 is safe but not tight.
_NLLS_CURVATURE_BOUND = 0.3


@dataclass(frozen=True)
class SmoothnessInfo:
    """Per-sample smoothness bounds; diagnostics only, no schedule uses them."""

    L_i: np.ndarray
    L_tilde: float
    L_bound: float


def _sum_by(bins, weights, length):
    # An empty gather makes bincount return int64 zeros; keep float64.
    return np.bincount(bins, weights=weights, minlength=length).astype(
        np.float64, copy=False
    )


class Batch:
    """The rows of a batch S, gathered once from the dataset's CSR arrays.

    Gathered entry t belongs to batch position ``rows[t]`` (duplicates in S
    are gathered once per occurrence), feature ``cols[t]``, value
    ``vals[t]``; entries keep the storage order of the rows. ``y`` holds the
    labels of S. A Batch is built per call and never cached, so one
    Objective can serve several threads.
    """

    __slots__ = ("_obj", "size", "y", "rows", "cols", "vals")

    def __init__(self, obj, S):
        ds = obj.dataset
        start = ds.indptr.take(S)
        lens = ds.indptr.take(S + 1) - start
        # position of gathered entry t in the CSR arrays: the start of its
        # row plus its offset within the row
        pos = (start - lens.cumsum() + lens).repeat(lens)
        pos += np.arange(len(pos))
        self._obj = obj
        self.size = len(S)
        self.y = obj.y.take(S)
        self.rows = np.arange(self.size).repeat(lens)
        self.cols = ds.indices.take(pos)
        self.vals = ds.values.take(pos)

    def margins(self, w):
        """<w, x_i> for every i in S, w a float64 array of length d;
        equals ``X[S] @ w`` bit for bit."""
        return _sum_by(self.rows, self.vals * w.take(self.cols), self.size)

    def coefs(self, w):
        """Gradient multipliers c_i(w) for every i in S."""
        return self._obj._coefs(self.margins(w), self.y)

    def scatter(self, c):
        """sum_t c[t] x_{S[t]} for a float64 array c of length |S|, as a
        dense length-d vector; equals ``X[S].T @ c`` bit for bit."""
        return _sum_by(self.cols, self.vals * c.take(self.rows), self._obj.d)


class Objective:
    """One of the two losses bound to a dataset with normalized labels."""

    def __init__(self, kind, dataset):
        if kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {kind!r}")
        expected = {-1.0, 1.0} if kind == "logistic" else {0.0, 1.0}
        seen = set(np.unique(dataset.labels))
        if not seen <= expected:
            raise ValueError(
                f"labels {sorted(seen)} not normalized for {kind}; "
                f"expected values in {sorted(expected)}"
            )
        self.kind = kind
        self.dataset = dataset
        self.X = dataset.to_csr()
        self.y = dataset.labels

    @property
    def n(self):
        return self.dataset.n

    @property
    def d(self):
        return self.dataset.d

    def _check_w(self, w):
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.d,):
            raise ValueError(f"w has shape {w.shape}, expected ({self.d},)")
        if not np.all(np.isfinite(w)):
            raise ValueError("w contains NaN or Inf")
        return w

    def margins(self, w, rows=None):
        X = self.X if rows is None else self.X[rows]
        return np.asarray(X @ w).ravel()

    def _losses(self, z, y):
        if self.kind == "logistic":
            return np.logaddexp(0.0, -y * z)
        s = expit(-z)  # 1 / (1 + e^z)
        return (y - s) ** 2

    def _coefs(self, z, y):
        # grad f_i(w) = c_i * x_i with c_i = d f_i / d z_i
        if self.kind == "logistic":
            return -y * expit(-y * z)
        s = expit(-z)
        return 2.0 * (y - s) * s * (1.0 - s)

    def loss_sample(self, i, w):
        """f_i(w) for one sample."""
        if not 0 <= i < self.n:
            raise IndexError(f"sample index {i} out of range [0, {self.n})")
        w = self._check_w(w)
        z = self.margins(w, rows=[i])
        return float(self._losses(z, self.y[[i]])[0])

    def loss_full(self, w):
        """f(w) = (1/n) sum_i f_i(w); overflow-safe for any finite w."""
        w = self._check_w(w)
        z = self.margins(w)
        return float(np.mean(self._losses(z, self.y)))

    def grad_coefs(self, w, rows=None):
        """Scalar multipliers c_i with grad f_i(w) = c_i * x_i.

        ``rows=None`` evaluates every sample in storage order.
        """
        w = self._check_w(w)
        if rows is None:
            return self._coefs(self.margins(w), self.y)
        rows = np.asarray(rows, dtype=np.int64)
        z = self.margins(w, rows=rows)
        return self._coefs(z, self.y[rows])

    def batch(self, S):
        """Gather the rows of the sample indices S (duplicates allowed)."""
        S = np.asarray(S, dtype=np.int64)
        if S.ndim != 1:
            raise ValueError("batch indices must be a vector")
        if S.size and (S.min() < 0 or S.max() >= self.n):
            raise IndexError(f"batch index out of range [0, {self.n})")
        return Batch(self, S)

    def grad_sample(self, i, w):
        """grad f_i(w) as a dense length-d vector."""
        if not 0 <= i < self.n:
            raise IndexError(f"sample index {i} out of range [0, {self.n})")
        c = self.grad_coefs(w, [i])[0]
        g = np.zeros(self.d)
        row = self.dataset.row(i)
        g[row.indices] = c * row.values
        return g

    def grad_batch(self, S, w):
        """(1/|S|) sum_{i in S} grad f_i(w); duplicates count with multiplicity."""
        S = np.asarray(S, dtype=np.int64)
        if S.size == 0:
            raise ValueError("empty batch")
        w = self._check_w(w)
        B = self.batch(S)
        return B.scatter(B.coefs(w)) / S.size

    def grad_full(self, w):
        """grad f(w), the average of all n per-sample gradients."""
        w = self._check_w(w)
        z = self.margins(w)
        c = self._coefs(z, self.y)
        return np.asarray(self.X.T @ c).ravel() / self.n

    def smoothness(self):
        """Per-sample curvature bounds L_i and their root-mean-square L_tilde."""
        sq_norms = np.asarray(self.X.power(2).sum(axis=1)).ravel()
        if self.kind == "logistic":
            L_i = sq_norms / 4.0
        else:
            L_i = _NLLS_CURVATURE_BOUND * sq_norms
        L_tilde = float(np.sqrt(np.mean(L_i**2)))
        return SmoothnessInfo(L_i=L_i, L_tilde=L_tilde, L_bound=L_tilde)
