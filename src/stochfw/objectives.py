"""Finite-sum objectives f(x) = (1/n) sum_i f_i(x) for two linear-model losses.

Both losses depend on the per-sample margin z_i = <w, x_i>, so every
per-sample gradient is a scalar multiple of the (sparse) sample:
grad f_i(w) = c_i(w) * x_i. A batch gradient is therefore a gather of
margins followed by a scatter of scalars, and the SAGA table can store one
float per sample.

Three kernels do that work, on scipy's compiled sparse loops, with no
sparse matrix built:

* Batches. ``Batches`` prepares the batches of C steps of a lockstep solve
  at once, a (C, m, b) block with one batch of b samples per seed and step:
  it checks the indices and does all other work that depends on them
  alone. ``Batch(steps, t)`` gathers step t's rows into one block-diagonal
  CSR triple, so each margin or weighted row sum is one loop for all m
  seeds. ``Objective.grad_batch`` and ``loss_sample`` take the one step of
  a one-seed block.
* Full passes. X w (``margins``) is a dot per row of the dataset's own CSR
  arrays; X^T c (``mean_rows``, so every full gradient) is a dot per column
  of the column view, which adds each column's products in row order from
  0, as the scatter of ``X.T @ c`` over the rows does.
* Margins. A solve's z = X x (``Margins``) follows its Frank-Wolfe steps: a
  step toward a one-hot vertex r e_i moves z by one column of X, so a read
  applies the steps since the last one as one scale of z and one compiled
  column add per distinct column, or makes a fresh pass when that would
  touch fewer entries.

The column view is X in CSC form, built by the loop of scipy's ``tocsc``
once per Objective, at its first replay or full gradient: row indices,
increasing within each column, and a float64 copy of the values, 12 bytes
per nnz with int32 indices. ``loss_full``, ``grad_coefs`` and ``grad_full``
take X w, or the ``Margins`` themselves, instead of making a pass of their
own; a batch's margins always come from the batch kernel. The loss and its
gradient multipliers share per-sample terms of z (``Objective._terms``),
which ``Margins.terms`` evaluates once per z.

Bits. The kernels run the loops behind scipy's ``X[S]``, ``X[S] @ w``,
``X[S].T @ c``, ``X @ w``, ``X.T @ c`` and ``X.tocsc()``, from the private
``scipy.sparse._sparsetools``, and match those forms bit for bit, seed by
seed; a column add has the bits of ``z[rows] += c * values``. Replayed
margins differ from X x by rounding only, and every solve replays the same
steps, so results are bit-reproducible. ``tests/test_batch_kernel.py``
fails if a scipy release changes those bits. The losses' ``expit`` is
``scipy.special.expit``, from the compiled ``scipy.special._special_ufuncs``.

Checks. The loops check no bounds, so ``Batches`` checks the indices
(integers in [0, n), and m d within the dataset's index dtype), and every
kernel that reads or fills a caller's array checks its shape; a replay's
column adds, on the margins' own z, check nothing. An Objective keeps no
per-call state and builds its column view under a lock, so one Objective
can serve several threads.

Both compiled modules are loaded once per process, at the first Objective,
from their files under scipy's install directory, without importing the
``scipy.sparse`` or ``scipy.special`` package; they are the same module
objects scipy's own imports give. Where the files or attributes are laid
out otherwise, the packages are imported instead, with the same functions.
Only the diagnostics ``Dataset.to_csr`` and ``Objective.smoothness`` import
``scipy.sparse``.

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

__all__ = ["Objective", "Batch", "Batches", "Margins", "SmoothnessInfo", "LOSS_KINDS"]

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
    """Step t of the prepared ``steps``, its rows gathered once into a CSR
    triple (``indptr``, ``indices``, ``values``) with the dataset's index
    dtype. ``S`` is the step's (m, b) block, one batch per seed, ``y`` its
    labels and ``size`` b, the batch size of each seed. Row u b + v is
    sample S[u, v], duplicates included, and its column indices are shifted
    by u d, so the triple is block-diagonal: margins read (m, d) iterates as
    one vector, a scatter fills m d outputs, and every output sums its own
    seed's entries in storage order. Built per call and never cached.
    """

    __slots__ = ("_obj", "S", "size", "y", "indptr", "indices", "values", "_w_shape")

    def __init__(self, steps, t):
        # what depends on the step alone: the two buffers, one compiled copy
        # of the rows and the seed shift
        obj, ends, S = steps._obj, steps._ends[t], steps.S[t]
        self.indptr = steps._indptr[t]
        self.indices = np.empty(ends[-1], dtype=self.indptr.dtype)
        self.values = np.empty(ends[-1])
        rows, ds = steps._rows[t], obj.dataset
        obj._loops.csr_row_index(len(rows), rows, ds.indptr, ds.indices, ds.values,
                                 self.indices, self.values)
        for u in range(1, len(ends)):  # seed u's entries, shifted by u d
            self.indices[ends[u - 1]:ends[u]] += u * obj.d
        self._obj, self.S, self.size, self.y = obj, S, S.shape[-1], steps.y[t]
        self._w_shape = (len(S), obj.d)  # the iterates it reads, the sums it makes

    def margins(self, w):
        """<w[u], x_i> for every row of seed u's batch, w an (m, d) float64
        array; equals ``X[S[u]] @ w[u]`` bit for bit, seed by seed."""
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
        """sum_v c[u, v] x_{S[u, v]} for every seed u, c a float64 array
        shaped like S, as an (m, d) array; equals ``X[S[u]].T @ c[u]`` bit
        for bit, seed by seed."""
        _check_shape(c, self.S.shape, "c")
        out = np.zeros(self._w_shape)
        # the triple read in CSC form is X[S].T
        self._obj._loops.csc_matvec(out.size, c.size, self.indptr, self.indices,
                                    self.values, c, out)
        return out


class Batches:
    """The batches of C steps, prepared at once: S is a (C, m, b) array,
    and S[t, u] is seed u's batch at step t. Everything that depends on the
    indices alone is done here, for all C steps together: the checks, the
    cast to the dataset's index dtype, each step's running sum of row
    lengths (its ``indptr``) and the labels. ``Batch(steps, t)`` then
    gathers step t's rows.
    """

    __slots__ = ("_obj", "S", "y", "_rows", "_indptr", "_ends")

    def __init__(self, obj, S):
        S = np.asarray(S)
        if S.ndim != 3:
            raise ValueError(f"batch indices must be a (C, m, b) block, got shape {S.shape}")
        if S.size and S.dtype.kind not in "iu":  # signed or unsigned integers only
            raise ValueError("batch indices must be integers")
        # one range check for both ends: the cast keeps every index's bits
        # modulo 2^64, so read as unsigned, a negative one or one wrapped by
        # the cast is 2^63 or more
        self.S = S.astype(np.int64, copy=False)
        if S.size and self.S.view(np.uint64).max() >= obj.n:
            raise IndexError(f"batch index out of range [0, {obj.n})")
        ds, (C, m, b) = obj.dataset, S.shape
        if m * obj.d >= 2 ** (8 * ds.indptr.itemsize - 1):
            raise ValueError("block of iterates too wide for the dataset's index dtype")
        # one row of sample indices per step; as scipy's X[S], each step's
        # indptr is a running sum of its row lengths from 0
        self._rows = self.S.reshape(C, m * b).astype(ds.indptr.dtype)
        self._indptr = np.zeros((C, m * b + 1), dtype=ds.indptr.dtype)
        np.add.accumulate(obj._row_nnz.take(self._rows), axis=1, out=self._indptr[:, 1:])
        # where each seed's entries end in each step's triple
        self._ends = self._indptr[:, b::b].tolist() if b else [[0]] * C
        self._obj, self.y = obj, obj.y.take(self.S)


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
        self._row_nnz = np.diff(dataset.indptr)  # the row lengths, for Batches
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

    def _one_seed(self, S, w, ndim):
        # S, a vector of sample indices (ndim 1) or one index (ndim 0), as the
        # one step of a one-seed block, and w checked as its (1, d) iterates
        S = np.asarray(S)
        if S.ndim != ndim:
            what = "batch indices must be a vector" if ndim else "sample index must be a scalar"
            raise ValueError(f"{what}, got shape {S.shape}")
        return Batch(Batches(self, S.reshape(1, 1, -1)), 0), self._check_w(w)[None]

    def loss_sample(self, i, w):
        """f_i(w) for one sample: the per-sample oracle that finite
        differences of the gradients are checked against."""
        B, w = self._one_seed(i, w, 0)
        return float(self._losses(self._terms(B.margins(w), B.y))[0, 0])

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
        """(1/|S|) sum_{i in S} grad f_i(w) for a vector S of sample indices,
        duplicates with multiplicity; [i] gives grad f_i(w)."""
        B, w = self._one_seed(S, w, 1)
        if B.size == 0:
            raise ValueError("empty batch")
        return B.scatter(B.coefs(w))[0] / B.size

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


# The fixed costs of a replay, in entries of a pass over X: each distinct
# column's add (the slice and the compiled loop's set-up) and each step of
# the collapse, as measured at mushrooms shape. They decide which reads
# replay and which make a pass, and so the bits of every trace; they are not
# retuned when the costs they stand for move.
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

    and applies them as ``z *= a`` and one call per column of the compiled
    loop behind ``X.T @ c`` over that column of the view, with the bits of
    ``z[rows] += c * values``. That touches n entries for the scale and each column's nnz for its add,
    plus the fixed costs ``_STEP_COST`` per step and ``_COLUMN_COST`` per
    column; when the sum passes nnz, ``at`` makes a fresh pass over X
    instead. ``step`` stops keeping steps once their fixed cost alone
    would pass it, which also bounds the memory they hold. A
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
            starts, rows, values, nnz = obj._view()
            cost = _STEP_COST * len(steps) + sum(nnz[i] + _COLUMN_COST for i in coefs)
            if cost <= self._room:
                z = self._z
                z *= a
                # the loop checks nothing: z is this seed's own n entries and
                # every i a column the LMO picked; the column's two bounds
                # read as a CSC matrix of one column
                add, n, coef = obj._loops.csc_matvec, obj.n, np.empty(1)
                for i, c in coefs.items():
                    coef[0] = c
                    add(n, 1, starts[i:i + 2], rows, values, coef, z)
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
