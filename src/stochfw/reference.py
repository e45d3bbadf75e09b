"""Brute-force reference oracles for validating the fast paths.

Everything here trades speed for independence: vertex enumeration instead
of closed-form LMOs, central differences instead of analytic gradients,
exhaustive batch enumeration instead of sampling, a per-token Python loop
instead of the vectorised LibSVM parser. Budgets are deliberately
tiny (n <= 8, b <= 4, d <= 10) so enumerations stay under 10^4 cases.
These oracles are shipped with the library (not buried in test code) so
any reimplementation can be checked against the same fixtures.
"""

from __future__ import annotations

import itertools

import numpy as np

from .data import Dataset, ParseError

__all__ = [
    "parse_libsvm_by_tokens",
    "lmo_by_enumeration",
    "finite_diff_grad",
    "expected_estimator_update",
    "enumerate_batches",
]


# the largest n, b and d the enumerations take
_MAX_N, _MAX_B, _MAX_D = 8, 4, 10


def vertex_matrix(cset, d):
    """All vertices, one per row, in canonical tie-break order: ascending
    coordinate index with +r before -r (box corners in that lexicographic
    order)."""
    r = cset.radius
    if cset.kind == "l1_ball":
        V = np.zeros((2 * d, d))
        for i in range(d):
            V[2 * i, i] = r
            V[2 * i + 1, i] = -r
        return V
    if cset.kind == "simplex":
        return r * np.eye(d)
    return np.array(list(itertools.product((r, -r), repeat=d)))


def lmo_by_enumeration(cset, g):
    """Score every vertex and return the first minimizer."""
    g = np.asarray(g, dtype=np.float64)
    d = g.shape[0]
    if d > _MAX_D:
        raise ValueError(f"enumeration budget exceeded: d={d} > {_MAX_D}")
    V = vertex_matrix(cset, d)
    scores = V @ g
    return V[int(np.argmin(scores))].copy()


def finite_diff_grad(fn, w, h=1e-5):
    """Central differences (fn(w + h e_j) - fn(w - h e_j)) / 2h per coordinate."""
    if h <= 0:
        raise ValueError("h must be positive")
    w = np.asarray(w, dtype=np.float64)
    grad = np.zeros_like(w)
    for j in range(w.shape[0]):
        wp = w.copy()
        wm = w.copy()
        wp[j] += h
        wm[j] -= h
        grad[j] = (fn(wp) - fn(wm)) / (2.0 * h)
    return grad


def enumerate_batches(n, b, sampling):
    """All batches the estimator could draw, as equally likely outcomes.

    with_replacement: all n^b ordered tuples; without_replacement: all
    C(n, b) combinations. Matches the estimator's configured sampling mode.
    """
    if n > _MAX_N or b > _MAX_B:
        raise ValueError(f"enumeration budget exceeded: n={n}, b={b} (max {_MAX_N}, {_MAX_B})")
    if sampling == "with_replacement":
        return [list(t) for t in itertools.product(range(n), repeat=b)]
    if sampling == "without_replacement":
        return [list(t) for t in itertools.combinations(range(n), b)]
    raise ValueError(f"unknown sampling mode {sampling!r}")


def expected_estimator_update(kind, obj, state, x_new, x_old, *, b, sampling,
                              p=None, lam=None, k=None):
    """Exact E[g^{k+1}] by enumerating every batch (and both SARAH branches).

    ``state`` is a snapshot dict: ``g`` (current estimate) and, for
    saga_sarah, ``table`` as an (n, d) array of stored per-sample gradients
    y_i. The update formulas are recomputed here per-sample from
    ``obj.grad_sample``, independently of the estimator's vectorized path.
    """
    x_new = np.asarray(x_new, dtype=np.float64)
    x_old = np.asarray(x_old, dtype=np.float64)
    g = np.asarray(state["g"], dtype=np.float64)
    n = obj.n
    batches = enumerate_batches(n, b, sampling)

    def batch_mean(fn, S):
        total = np.zeros(obj.d)
        for i in S:
            total += fn(i)
        return total / len(S)

    if kind == "sarah":
        if p is None:
            raise ValueError("sarah expectation needs p")
        full_new = batch_mean(lambda i: obj.grad_sample(i, x_new), range(n))
        batch_avg = np.zeros(obj.d)
        for S in batches:
            diff = batch_mean(
                lambda i: obj.grad_sample(i, x_new) - obj.grad_sample(i, x_old), S
            )
            batch_avg += g + diff
        batch_avg /= len(batches)
        return p * full_new + (1.0 - p) * batch_avg

    if kind == "saga_sarah":
        if lam is None:
            raise ValueError("saga_sarah expectation needs lam")
        table = np.asarray(state["table"], dtype=np.float64)
        table_avg = table.mean(axis=0)
        acc = np.zeros(obj.d)
        for S in batches:
            sarah_term = batch_mean(
                lambda i: obj.grad_sample(i, x_new) - obj.grad_sample(i, x_old), S
            )
            saga_term = (
                batch_mean(lambda i: obj.grad_sample(i, x_old) - table[i], S)
                + table_avg
            )
            acc += sarah_term + (1.0 - lam) * g + lam * saga_term
        return acc / len(batches)

    if kind == "momentum":
        if k is None:
            raise ValueError("momentum expectation needs k")
        rho = (k + 1.0) ** (-2.0 / 3.0)
        acc = np.zeros(obj.d)
        for S in batches:
            acc += (1.0 - rho) * g + rho * batch_mean(
                lambda i: obj.grad_sample(i, x_new), S
            )
        return acc / len(batches)

    raise ValueError(f"unknown estimator kind {kind!r}")


def parse_libsvm_by_tokens(text, d=None, name=""):
    """LibSVM text to a :class:`~stochfw.data.Dataset`, one token at a time.

    The oracle for :func:`stochfw.data.parse_libsvm`: ``float``/``int`` on
    each token and the checks in the order a reader meets them. On ASCII
    input in the parser's grammar both return equal Datasets or raise the
    same :class:`~stochfw.data.ParseError`. This loop also takes what Python
    spells as numbers beyond that grammar (``1_0``, non-ASCII digits and
    spaces) and decodes ``text`` as UTF-8.
    """
    content = text.decode("utf-8") if isinstance(text, bytes) else text

    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    labels: list[float] = []
    max_index = 0  # 1-based

    for lineno, line in enumerate(content.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(lineno, f"non-numeric label {tokens[0]!r}") from None
        if not np.isfinite(label):
            raise ParseError(lineno, f"non-finite label {tokens[0]!r}")

        prev_index = 0
        for tok in tokens[1:]:
            idx_str, _, val_str = tok.partition(":")
            if not val_str:
                raise ParseError(lineno, f"malformed feature token {tok!r}")
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise ParseError(lineno, f"malformed feature token {tok!r}") from None
            if idx < 1:
                raise ParseError(lineno, f"feature index {idx} is not positive")
            if idx == prev_index:
                raise ParseError(lineno, f"duplicate feature index {idx}")
            if idx < prev_index:
                raise ParseError(
                    lineno, f"feature index {idx} not increasing (after {prev_index})"
                )
            if not np.isfinite(val):
                raise ParseError(lineno, f"non-finite value in token {tok!r}")
            indices.append(idx - 1)
            values.append(val)
            prev_index = idx
        max_index = max(max_index, prev_index)
        labels.append(label)
        indptr.append(len(indices))

    if not labels:
        raise ParseError(0, "empty file: no data lines")

    if d is None:
        d = max_index
        if d == 0:
            raise ParseError(0, "no features present and no explicit d given")
    elif max_index > d:
        raise ParseError(0, f"feature index {max_index} exceeds explicit d={d}")

    return Dataset(
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.float64),
        d=int(d),
        name=name,
    )
