"""Finite-sum objectives f(x) = (1/n) sum_i f_i(x) for two linear-model losses.

Both losses depend on the per-sample margin z_i = <w, x_i>, so every
per-sample gradient is a scalar multiple of the (sparse) sample:
grad f_i(w) = c_i(w) * x_i. A batch gradient is therefore a gather of
margins followed by a scatter of scalars, and the SAGA table can store one
float per sample.

Three kernels do that work:

* Batches (``Batch``, which ``Objective.grad_batch`` builds; a sample is
  a batch of one) gather their rows once into a CSR triple; margins and
  weighted row sums are then one compiled loop each, with no sparse matrix
  built. A lockstep solve gathers one batch per seed into one
  block-diagonal triple, so each loop serves all of its seeds at once.
* Full passes run the same compiled loops over all of X. X w
  (``margins``) reads the dataset's own CSR arrays, ``indptr``, ``indices``
  and ``values``, a dot per row. X^T c (``mean_rows``, so every full
  gradient) reads the column view below, a dot per column: each output
  adds its column's products in row order from 0, as the scatter of
  ``X.T @ c`` over the rows does, so it has that scatter's bits without
  its read and write of an output per entry (145 against 177 us by timeit
  at mushrooms shape on a 2-core x86-64 host). No scipy matrix is built;
  only the ``smoothness`` diagnostic makes one.
* A solve's margins z = X x (``Margins``) follow its Frank-Wolfe steps:
  a step toward a one-hot vertex r e_i moves z by one column of X. A read
  collapses the steps since the last one into one scale of z and one
  compiled column add per distinct column (``Objective.add_column``), or
  makes a fresh pass when that would touch more entries than the pass.
  The adds read a column view of X in CSC form, built once per Objective
  at its first replay or its first full gradient, whichever comes first,
  by the loop of scipy's ``tocsc``: row indices, increasing within each
  column, and a float64 copy of the values in column order, so each add is
  one contiguous run. It costs 12 bytes per nnz with int32 indices (about
  2.2 MB at mushrooms shape, 182k nnz; 82 KB at 683 x 10 dense), the copy
  8 of them, 4 more than positions into the CSR values would. Box runs,
  which never replay, build it at their first full gradient. ``loss_full``,
  ``grad_coefs`` and ``grad_full`` take such a z, or the ``Margins``
  themselves, instead of making a pass of their own. A batch's margins
  always come from the batch kernel.

The loss and its gradient multipliers share per-sample terms of z
(``Objective._terms``): s = expit(-z) and y - s for nlls, -y and t = -y z
for logistic. ``Margins.terms`` evaluates them once per z of its seed, so
the recorded loss, the full gradient and the gap's gradient at one iterate
evaluate them once between them, with the bits of an evaluation per read.

Every kernel runs the loops behind scipy's ``X[S]``, ``X[S] @ w``,
``X[S].T @ c``, ``X @ w``, ``X.tocsc().T @ c`` and ``X.tocsc()``, from the
private ``scipy.sparse._sparsetools``, so it has their bits, and
``mean_rows`` also those of ``X.T @ c``; a column add is the
``X.T @ c`` loop over one column, with the bits of ``z[rows] += c *
values``. The bit-for-bit properties in ``tests/test_batch_kernel.py``
fail if a scipy release changes them. The losses' ``expit`` is
``scipy.special.expit``, which the compiled
``scipy.special._special_ufuncs`` holds.

The two compiled modules are loaded once per process, at the first
Objective, straight from their files under scipy's install directory,
so neither ``scipy.sparse`` nor ``scipy.special`` is imported: with scipy
1.17.1 on a 2-core x86-64 host, those imports took about 18 MB of a
mushrooms-shape grid's peak RSS and 0.2 s of a process's start-up. They
are the same module objects scipy's own imports give, before or after. On a scipy whose files
or attributes are laid out otherwise, the packages are imported instead,
which gives the same functions. Only the diagnostics ``Dataset.to_csr``
and ``Objective.smoothness`` import ``scipy.sparse``.

logistic:  f_i(w) = log(1 + exp(-y_i z_i)),          y_i in {-1, +1}
nlls:      f_i(w) = (y_i - 1/(1 + exp(z_i)))^2,      y_i in {0, 1}
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import threading
from dataclasses import dataclass

import numpy as np

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


def _load_compiled(search):
    """``(loops, expit)``: scipy's ``sparse._sparsetools`` module and the
    ``expit`` of its ``special._special_ufuncs``, each loaded from its file in
    the scipy directories ``search`` without running scipy's ``__init__`` or
    its package's. If a file or attribute is missing, imports the packages."""
    try:
        loops = _load_file(search, "sparse", "_sparsetools")
        return loops, _load_file(search, "special", "_special_ufuncs").expit
    except (ImportError, AttributeError):
        from scipy.sparse import _sparsetools
        from scipy.special import expit
        return _sparsetools, expit


def _load_file(search, package, name):
    # under its full name, so an import of its package, before or after,
    # gives the same module
    fullname = f"scipy.{package}.{name}"
    spec = importlib.machinery.PathFinder.find_spec(
        fullname, [os.path.join(d, package) for d in search])
    if spec is None:
        raise ImportError(f"{fullname} not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _compiled():
    """``_load_compiled`` at scipy's install directory, once per process."""
    spec = importlib.util.find_spec("scipy")  # finds scipy without running its __init__
    return _load_compiled(spec.submodule_search_locations if spec else [])


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
        S = np.asarray(S)
        if S.size and S.dtype.kind not in "iu":  # signed or unsigned integers only
            raise ValueError("batch indices must be integers")
        if S.ndim not in (1, 2):
            raise ValueError("batch indices must be a vector or an (m, b) block")
        # range-checked before the cast, so no index wraps around
        if S.size and (S.min() < 0 or S.max() >= obj.n):
            raise IndexError(f"batch index out of range [0, {obj.n})")
        S = S.astype(np.int64, copy=False)
        rows = S.reshape(-1)
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
        obj = self._obj
        return obj._coefs(obj._terms(self.margins(w), self.y))

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
        # the compiled loops of every kernel, and the losses' expit
        self._loops, self._expit = _compiled()
        self.n, self.d, self.y = dataset.n, dataset.d, dataset.labels
        self._ny = -self.y  # the logistic terms read -y once per Objective
        self._row_nnz = np.diff(dataset.indptr)  # the row lengths, for Batch
        # the column view, built at the first replay or full gradient of any
        # thread, not here: an Objective costs no pass over X until it is used
        self._columns = None
        self._columns_lock = threading.Lock()

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

    def _view(self):
        # (starts, rows, values, nnz): X in CSC form and each column's nnz
        if self._columns is None:
            with self._columns_lock:
                if self._columns is None:
                    self._columns = _column_view(self.dataset, self._loops)
        return self._columns

    def column(self, i):
        """Column i of X as ``(rows, values)``, rows increasing."""
        starts, rows, values, _ = self._view()
        lo, hi = starts[i], starts[i + 1]
        return rows[lo:hi], values[lo:hi]

    def add_column(self, z, i, c):
        """z += c X[:, i] in place, for a float64 array z of length n and a
        float c; equals ``z[rows] += c * values`` of ``column(i)`` bit for bit."""
        _check_shape(z, (self.n,), "z")
        if not 0 <= i < self.d:
            raise IndexError(f"column {i} out of range [0, {self.d})")
        starts, rows, values, _ = self._view()
        # the column's two bounds read as a CSC matrix of one column
        self._loops.csc_matvec(self.n, 1, starts[i:i + 2], rows, values, [c], z)

    def _terms(self, z, y=None):
        # what f_i and c_i share at margins z, labels y (default: every
        # sample's): (-y, t = -y z) for logistic, (s = 1 / (1 + e^z), y - s)
        # for nlls
        if self.kind == "logistic":
            ny = self._ny if y is None else -y
            return ny, ny * z
        s = self._expit(-z)
        return s, (self.y if y is None else y) - s

    def _losses(self, terms):
        if self.kind == "logistic":
            # numpy's logaddexp(0, t), term for term, on the vector loops of
            # exp and log1p instead of its scalar loop: within 2 ulps of it.
            # log1p(exp(-|t|)) + max(t, 0), in one buffer and the max's
            t = terms[1]
            out = np.abs(t)
            np.negative(out, out=out)
            np.exp(out, out=out)
            np.log1p(out, out=out)
            return np.add(out, np.maximum(t, 0.0), out=out)
        return terms[1] ** 2

    def _coefs(self, terms):
        # grad f_i(w) = c_i * x_i with c_i = d f_i / d z_i
        if self.kind == "logistic":
            ny, t = terms
            return ny * self._expit(t)
        s, r = terms
        return 2.0 * r * s * (1.0 - s)

    def _full_terms(self, w, z):
        # z: X w, the Margins of w (which evaluate the terms once per z), or
        # None for a pass over X
        if isinstance(z, Margins):
            return z.terms()
        if z is None:
            z = self.margins(self._check_w(w))
        return self._terms(z)

    def loss_sample(self, i, w):
        """f_i(w) for one sample."""
        w = self._check_w(w)
        B = Batch(self, [i])
        return float(self._losses(self._terms(B.margins(w), B.y))[0])

    def loss_full(self, w, z=None):
        """f(w) = (1/n) sum_i f_i(w); overflow-safe for any finite w. ``z``,
        if given, is X w or the ``Margins`` at w, and no pass over X is made."""
        # np.mean's sum and division, without its per-call argument handling
        return float(np.add.reduce(self._losses(self._full_terms(w, z))) / self.n)

    def grad_coefs(self, w, z=None):
        """Scalar multipliers c_i with grad f_i(w) = c_i * x_i, every sample
        in storage order; ``z`` as for ``loss_full``."""
        return self._coefs(self._full_terms(w, z))

    def grad_batch(self, S, w):
        """(1/|S|) sum_{i in S} grad f_i(w), duplicates with multiplicity; [i] gives grad f_i(w)."""
        w = self._check_w(w)
        B = Batch(self, S)
        if B.size == 0:
            raise ValueError("empty batch")
        return B.scatter(B.coefs(w)) / B.size

    def mean_rows(self, c):
        """(1/n) sum_i c_i x_i = (1/n) X^T c over all n samples, for a float64
        array c of length n, as a dense length-d vector; the sum equals
        ``X.T @ c`` bit for bit. A dot per column of the column view, which
        the first call builds if no replay has."""
        _check_shape(c, (self.n,), "c")
        starts, rows, values, _ = self._view()
        out = np.zeros(self.d)
        # the column view read in CSR form is X.T: a dot per column
        self._loops.csr_matvec(self.d, self.n, starts, rows, values, c, out)
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
    """X in CSC form as ``(starts, rows, values, nnz)``, by the loop of scipy's
    ``tocsc``, with a float64 copy of the values in column order; ``nnz`` lists
    each column's entry count."""
    nnz, index = len(ds.values), ds.indptr.dtype
    view = np.empty(ds.d + 1, index), np.empty(nnz, index), np.empty(nnz)
    loops.csr_tocsc(ds.n, ds.d, ds.indptr, ds.indices, ds.values, *view)
    return *view, np.diff(view[0]).tolist()


# The fixed costs of a replay, in entries of a pass over X, measured at
# mushrooms shape (8124 x 112, 182k nnz) on a 2-core x86-64 host, where
# ``Objective.margins`` took 0.9-1.2 ns an entry: an add of an empty column
# (the method call, its checks, the slice and the compiled loop's set-up)
# took as long as 1500-2200 entries (median 1900; 1.4-3.1 us), and each step
# of the collapse as long as 160-230 (150-240 ns).
_COLUMN_COST = 2000
_STEP_COST = 200


class Margins:
    """z = X x at the current iterate x of one seed of a solve.

    The solve reports each step x' = x + eta (s - x) to ``step``. When s is
    a one-hot vertex r e_i (the l1 ball and the simplex), the margins follow
    z' = (1 - eta) z + eta r X[:, i]. ``at`` collapses the steps taken since
    the last read, from the last one back, into one scale and one
    coefficient per distinct column,

        a = prod_t (1 - eta_t),   c_i = sum_{t: i_t = i} eta_t r_t prod_{u>t} (1 - eta_u),

    and applies them as ``z *= a`` and one compiled ``Objective.add_column``
    per column. That touches n entries for the scale and each column's nnz
    for its add, plus the fixed costs ``_STEP_COST`` per step and
    ``_COLUMN_COST`` per column; when the sum passes nnz, ``at`` makes a
    fresh pass over X instead. ``step`` stops keeping steps once their fixed
    cost alone would pass it, which also bounds the memory they hold. A
    dense vertex (the box) is never replayed, so there z is only shared
    between reads at one iterate. Replayed margins differ from X x by
    rounding only; each solve replays the same steps, so its results stay
    bit-reproducible. The array ``at`` returns is overwritten by the next
    replay.

    ``terms`` gives ``Objective._terms`` of ``at()`` and holds them until z
    moves: every replay and every fresh pass drops them, and they are kept
    with the array they came from, so an ``at`` that returns another array
    gets its own. ``Objective.loss_full``, ``grad_coefs`` and ``grad_full``
    read them when given the margins.
    """

    def __init__(self, obj, x):
        self._obj = obj
        self._x = x
        self._z = None
        self._memo = None  # (z, the terms at z) of the last terms() call
        self._steps = None  # (eta, i, r) of the vertex steps since z was read; None: recompute
        self._room = len(obj.dataset.values) - obj.n  # entries a replay may touch past the scale
        self._max_steps = self._room // _STEP_COST

    def step(self, x_new, eta, vertex):
        """The solve moved to x_new = x + eta (s - x), toward the vertex s =
        r e_i given as ``vertex = (i, r)``, or None for a vertex with more
        than one nonzero."""
        self._x = x_new
        steps = self._steps
        if steps is None:
            return
        if vertex is not None and len(steps) < self._max_steps:
            steps.append((eta, *vertex))
            return
        self._steps = None

    def at(self):
        """X x at the current iterate."""
        steps, obj = self._steps, self._obj
        if steps == []:  # no step since the last read
            return self._z
        self._memo = None  # a replay or a pass moves z
        if steps:
            coefs, a = {}, 1.0
            for eta, i, r in reversed(steps):
                coefs[i] = coefs.get(i, 0.0) + eta * r * a
                a *= 1.0 - eta
            nnz = obj._view()[3]
            cost = _STEP_COST * len(steps) + sum(nnz[i] + _COLUMN_COST for i in coefs)
            if cost <= self._room:
                z = self._z
                z *= a
                for i, c in coefs.items():
                    obj.add_column(z, i, c)
            else:
                steps = None
        if steps is None:
            self._z = obj.margins(self._x)
        self._steps = []
        return self._z

    def terms(self):
        """``Objective._terms`` of ``at()``, evaluated once per z."""
        z = self.at()
        if self._memo is None or self._memo[0] is not z:
            self._memo = z, self._obj._terms(z)
        return self._memo[1]
