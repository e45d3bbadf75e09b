"""Finite-sum objectives f(x) = (1/n) sum_i f_i(x) for two linear-model losses.

Both losses depend on the per-sample margin z_i = <w, x_i>, so every
per-sample gradient is a scalar multiple of the (sparse) sample:
grad f_i(w) = c_i(w) * x_i. A batch gradient is therefore a gather of
margins followed by a scatter of scalars, and the SAGA table can store one
float per sample.

Three kernels do that work:

* Batches and single samples (``Objective.batch``) gather the rows of S
  once into a CSR triple; margins and weighted row sums are then one
  compiled loop each, with no sparse matrix built. A lockstep solve
  gathers one batch per seed into one block-diagonal triple, so each loop
  serves all of its seeds at once.
* Full passes (``margins``, ``mean_rows``) run the same compiled loops over
  the dataset's own CSR arrays, ``indptr``, ``indices`` and ``values``. No
  scipy matrix is built; only the ``smoothness`` diagnostic makes one.
* A solve's margins z = X x (``Margins``) follow its Frank-Wolfe steps:
  a step toward a one-hot vertex r e_i moves z by one column of X, which
  ``Objective.column`` reads from a column view built on first use.
  ``loss_full``, ``grad_coefs`` and ``grad_full`` take such a z instead
  of making a pass of their own. A batch's margins always come from the
  batch kernel.

Every kernel runs the loops behind scipy's ``X[S]``, ``X[S] @ w``,
``X[S].T @ c``, ``X @ w`` and ``X.T @ c``, from the private
``scipy.sparse._sparsetools``, so it has their bits; the bit-for-bit
properties in ``tests/test_batch_kernel.py`` fail if a scipy release
changes them. They are bound where an Objective is built, so ``import
stochfw`` does not load ``scipy.sparse``.

logistic:  f_i(w) = log(1 + exp(-y_i z_i)),          y_i in {-1, +1}
nlls:      f_i(w) = (y_i - 1/(1 + exp(z_i)))^2,      y_i in {0, 1}
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import LABEL_TARGETS

__all__ = ["Objective", "Batch", "Margins", "SmoothnessInfo", "LOSS_KINDS"]

LOSS_KINDS = tuple(LABEL_TARGETS)

# Uniform bound on |d^2/dt^2 (y - 1/(1+e^t))^2| over y in [0, 1]; the true
# supremum is ~0.26, so 0.3 is safe but not tight.
_NLLS_CURVATURE_BOUND = 0.3


@dataclass(frozen=True)
class SmoothnessInfo:
    """Per-sample smoothness bounds; diagnostics only, no schedule uses them."""

    L_i: np.ndarray
    L_tilde: float


def _check_shape(a, shape, name):
    # the compiled loops read as many entries as the shape says, unchecked
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")


class Batch:
    """The rows of a batch S, gathered once into a CSR triple (``indptr``,
    ``indices``, ``values``) with the dataset's index dtype; its row t is
    sample S[t], duplicates included, and ``y`` holds the labels of S. Built
    per call and never cached, so one Objective can serve several threads.

    S may also be an (m, b) block holding one batch per seed of a lockstep
    solve. Row t b + u is then sample S[t, u], and its column indices are
    shifted by t d, so the triple is block-diagonal: margins read (m, d)
    iterates as one vector and a scatter fills m d outputs, and every output
    still sums its own seed's entries in storage order. ``size`` is b, the
    batch size of each seed.
    """

    __slots__ = ("_obj", "S", "size", "y", "indptr", "indices", "values", "_w_shape")

    def __init__(self, obj, S):
        S = np.asarray(S, dtype=np.int64)
        if S.ndim not in (1, 2):
            raise ValueError("batch indices must be a vector or an (m, b) block")
        rows = S.reshape(-1)
        if rows.size and (rows.min() < 0 or rows.max() >= obj.n):
            raise IndexError(f"batch index out of range [0, {obj.n})")
        ds, ptr = obj.dataset, obj.dataset.indptr
        # as scipy's X[S]: a running sum of the row lengths, then one compiled copy
        self.indptr = np.zeros(len(rows) + 1, dtype=ptr.dtype)
        np.add.accumulate(obj._row_nnz.take(rows), out=self.indptr[1:])
        self.indices = np.empty(self.indptr[-1], dtype=ptr.dtype)
        self.values = np.empty(self.indptr[-1])
        obj._loops.csr_row_index(len(rows), rows.astype(ptr.dtype), ptr, ds.indices, ds.values,
                                 self.indices, self.values)
        m, b = len(S) if S.ndim == 2 else 1, S.shape[-1]
        if m * obj.d >= 2 ** (8 * ptr.itemsize - 1):
            raise ValueError("block of iterates too wide for the dataset's index dtype")
        for t in range(1, m):
            self.indices[self.indptr[t * b]:self.indptr[(t + 1) * b]] += t * obj.d
        self._obj, self.S, self.size, self.y = obj, S, b, obj.y.take(S)
        self._w_shape = S.shape[:-1] + (obj.d,)  # the iterates it reads, the sums it makes

    def margins(self, w):
        """<w, x_i> for every row, w a float64 array of length d, or (m, d)
        for a block; equals ``X[S] @ w`` bit for bit, seed by seed."""
        _check_shape(w, self._w_shape, "w")
        out = np.zeros(self.S.shape)
        self._obj._loops.csr_matvec(out.size, w.size, self.indptr, self.indices,
                                    self.values, w, out)
        return out

    def coefs(self, w):
        """Gradient multipliers c_i(w) for every row, from the margins at w."""
        return self._obj._coefs(self.margins(w), self.y)

    def scatter(self, c):
        """sum_t c[t] x_{S[t]} for a float64 array c shaped like S, as a dense
        length-d vector, or (m, d) for a block; equals ``X[S].T @ c`` bit for
        bit, seed by seed."""
        _check_shape(c, self.S.shape, "c")
        out = np.zeros(self._w_shape)
        # the triple read in CSC form is X[S].T
        self._obj._loops.csc_matvec(out.size, c.size, self.indptr, self.indices,
                                    self.values, c, out)
        return out


class Objective:
    """One of the two losses bound to a dataset with normalized labels."""

    def __init__(self, kind, dataset):
        if kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {kind!r}")
        expected = set(LABEL_TARGETS[kind])
        seen = set(np.unique(dataset.labels))
        if not seen <= expected:
            raise ValueError(
                f"labels {sorted(seen)} not normalized for {kind}; "
                f"expected values in {sorted(expected)}"
            )
        self.kind = kind
        self.dataset = dataset
        from scipy.sparse import _sparsetools  # the compiled loops of every kernel
        self._loops = _sparsetools
        self.y = dataset.labels
        self._row_nnz = np.diff(dataset.indptr)  # the row lengths, for Batch
        # the column view, built by the first ``column`` call of any thread
        self._columns = None
        self._columns_lock = threading.Lock()

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

    def margins(self, w):
        """X w for a float64 array w of length d, one pass over all nnz
        entries; equals ``X @ w`` bit for bit."""
        _check_shape(w, (self.d,), "w")
        ds, out = self.dataset, np.zeros(self.n)
        self._loops.csr_matvec(self.n, self.d, ds.indptr, ds.indices, ds.values, w, out)
        return out

    def column(self, i):
        """Column i of X as ``(rows, values)``, rows increasing."""
        with self._columns_lock:
            if self._columns is None:
                self._columns = _column_view(self.dataset, self._loops)
        starts, rows, positions = self._columns
        lo, hi = starts[i], starts[i + 1]
        return rows[lo:hi], self.dataset.values.take(positions[lo:hi])

    def _losses(self, z, y):
        if self.kind == "logistic":
            # numpy's logaddexp(0, t), term for term, on the vector loops of
            # exp and log1p instead of its scalar loop: within 2 ulps of it
            t = -y * z
            return np.log1p(np.exp(-np.abs(t))) + np.maximum(t, 0.0)
        s = expit(-z)  # 1 / (1 + e^z)
        return (y - s) ** 2

    def _coefs(self, z, y):
        # grad f_i(w) = c_i * x_i with c_i = d f_i / d z_i
        if self.kind == "logistic":
            ny = -y
            return ny * expit(ny * z)
        s = expit(-z)
        return 2.0 * (y - s) * s * (1.0 - s)

    def loss_sample(self, i, w):
        """f_i(w) for one sample."""
        w = self._check_w(w)
        B = self.batch([i])
        return float(self._losses(B.margins(w), B.y)[0])

    def loss_full(self, w, z=None):
        """f(w) = (1/n) sum_i f_i(w); overflow-safe for any finite w. ``z``,
        if given, is X w, and no pass over X is made."""
        if z is None:
            z = self.margins(self._check_w(w))
        # np.mean's sum and division, without its per-call argument handling
        return float(np.add.reduce(self._losses(z, self.y)) / self.n)

    def grad_coefs(self, w, z=None):
        """Scalar multipliers c_i with grad f_i(w) = c_i * x_i, every sample
        in storage order; ``z`` as for ``loss_full``."""
        if z is None:
            z = self.margins(self._check_w(w))
        return self._coefs(z, self.y)

    def batch(self, S):
        """Gather the rows of the sample indices S (duplicates allowed), a
        vector or an (m, b) block of them, as for ``Batch``."""
        return Batch(self, S)

    def grad_sample(self, i, w):
        """grad f_i(w) as a dense length-d vector."""
        w = self._check_w(w)
        B = self.batch([i])
        return B.scatter(B.coefs(w))

    def grad_batch(self, S, w):
        """(1/|S|) sum_{i in S} grad f_i(w); duplicates count with multiplicity."""
        w = self._check_w(w)
        B = self.batch(S)
        if B.size == 0:
            raise ValueError("empty batch")
        return B.scatter(B.coefs(w)) / B.size

    def mean_rows(self, c):
        """(1/n) sum_i c_i x_i = (1/n) X^T c over all n samples, for a float64
        array c of length n, as a dense length-d vector; the sum equals
        ``X.T @ c`` bit for bit."""
        _check_shape(c, (self.n,), "c")
        ds, out = self.dataset, np.zeros(self.d)
        # the CSR arrays read in CSC form are X.T
        self._loops.csc_matvec(self.d, self.n, ds.indptr, ds.indices, ds.values, c, out)
        return out / self.n

    def grad_full(self, w, z=None):
        """grad f(w), the average of all n per-sample gradients; ``z`` as for
        ``loss_full``."""
        return self.mean_rows(self.grad_coefs(w, z))

    def smoothness(self):
        """Per-sample curvature bounds L_i and their root-mean-square L_tilde."""
        # scipy's row sums: a csr_matvec of the squares rounds differently on some inputs
        sq_norms = np.asarray(self.dataset.to_csr().power(2).sum(axis=1)).ravel()
        if self.kind == "logistic":
            L_i = sq_norms / 4.0
        else:
            L_i = _NLLS_CURVATURE_BOUND * sq_norms
        L_tilde = float(np.sqrt(np.mean(L_i**2)))
        return SmoothnessInfo(L_i=L_i, L_tilde=L_tilde)


def _column_view(ds, loops):
    """X in CSC form as ``(indptr, rows, positions)``, by the loop of scipy's ``tocsc``:
    each entry's position in the CSR arrays in place of its value, so the values stay shared."""
    nnz, index = len(ds.values), ds.indptr.dtype
    view = np.empty(ds.d + 1, index), np.empty(nnz, index), np.empty(nnz, index)
    loops.csr_tocsc(ds.n, ds.d, ds.indptr, ds.indices, np.arange(nnz, dtype=index), *view)
    return view


class Margins:
    """z = X x at the current iterate x of one seed of a solve.

    The solve reports each step x' = x + eta (s - x) to ``step``. When s is
    a one-hot vertex r e_i (the l1 ball and the simplex), the margins follow
    z' = z + eta (r X[:, i] - z): one column of X and one O(n) pass. ``at``
    replays the steps taken since the last read, in that association, unless
    the replay would touch more entries than a pass over X (n + nnz/d per
    step against nnz); then it recomputes X x. A dense vertex (the box) is
    never replayed, so there z is only shared between reads at one iterate.
    Replayed margins differ from X x by rounding only; each solve replays
    the same steps, so its results stay bit-reproducible. The array ``at``
    returns is overwritten by the next replay.
    """

    def __init__(self, obj, x):
        self._obj = obj
        self._x = x
        self._z = None
        self._steps = None  # vertex steps since z was read; None: recompute
        self._scaled = None  # replay buffer
        n, d, nnz = obj.n, obj.d, len(obj.dataset.values)
        self._max_steps = nnz * d // (n * d + nnz)

    def step(self, x_new, eta, s):
        """The solve moved to x_new = x + eta (s - x)."""
        self._x = x_new
        steps = self._steps
        if steps is None:
            return
        if len(steps) < self._max_steps:
            (nz,) = s.nonzero()
            if len(nz) == 1:
                steps.append((eta, nz[0], s[nz[0]]))
                return
        self._steps = None

    def at(self):
        """X x at the current iterate."""
        if self._steps is None:
            self._z = self._obj.margins(self._x)
        else:
            for eta, i, r in self._steps:
                self._replay(eta, i, r)
        self._steps = []
        return self._z

    def _replay(self, eta, i, r):
        z = self._z
        if self._scaled is None:
            self._scaled = np.empty_like(z)
        rows, vals = self._obj.column(i)
        zc = z.take(rows)
        column = r * vals
        column -= zc
        column *= eta
        column += zc  # z + eta (r X[:, i] - z) on the column's rows
        np.multiply(z, eta, out=self._scaled)
        z -= self._scaled  # z + eta (0 - z) elsewhere
        z[rows] = column
