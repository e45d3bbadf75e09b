"""LibSVM text parsing and the in-memory sparse dataset container.

The reader accepts the plain LibSVM text format: one sample per line,
``label idx:val idx:val ...`` with 1-based, strictly increasing feature
indices. Indices are converted to 0-based on load. Rows are stored in CSR
form (one shared ``indices``/``values`` pair plus ``indptr``), which keeps
memory proportional to the number of nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SparseRow",
    "Dataset",
    "ParseError",
    "parse_libsvm",
    "normalize_labels",
    "to_libsvm",
]


class ParseError(ValueError):
    """Malformed LibSVM input; carries the 1-based line number."""

    def __init__(self, lineno, message):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


@dataclass(frozen=True, eq=False)
class SparseRow:
    """One sample: 0-based feature indices (strictly increasing) and values."""

    indices: np.ndarray
    values: np.ndarray

    def __len__(self):
        return len(self.indices)

    def __eq__(self, other):
        if not isinstance(other, SparseRow):
            return NotImplemented
        return np.array_equal(self.indices, other.indices) and np.array_equal(
            self.values, other.values
        )


@dataclass(frozen=True, eq=False)
class Dataset:
    """A parsed dataset: CSR-stored rows plus one label per row.

    All arrays are read-only; a Dataset can be shared freely across threads.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    d: int
    name: str = field(default="", compare=False)

    def __post_init__(self):
        for arr in (self.indptr, self.indices, self.values, self.labels):
            arr.setflags(write=False)
        if self.n < 1:
            raise ValueError("dataset must contain at least one sample")
        if self.d < 1:
            raise ValueError("dataset must have at least one feature")
        if len(self.labels) != self.n:
            raise ValueError("labels length does not match row count")

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.d == other.d
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.labels, other.labels)
        )

    @property
    def n(self):
        return len(self.indptr) - 1

    def row(self, i):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return SparseRow(self.indices[lo:hi], self.values[lo:hi])

    def to_csr(self):
        """Rows as a scipy ``csr_matrix`` of shape (n, d)."""
        from scipy.sparse import csr_matrix

        return csr_matrix(
            (self.values, self.indices, self.indptr), shape=(self.n, self.d)
        )


def _decode(text):
    if isinstance(text, bytes):
        return text.decode("utf-8")
    if hasattr(text, "read"):
        raw = text.read()
        return raw.decode("utf-8") if isinstance(raw, bytes) else raw
    return text


def parse_libsvm(text, d=None, name=""):
    """Parse LibSVM text into a :class:`Dataset`.

    Parameters
    ----------
    text : str, bytes, or file-like
        LibSVM content. Blank lines and lines starting with ``#`` are
        skipped; both ``\\n`` and ``\\r\\n`` line endings are accepted.
    d : int, optional
        Feature-count override for splits that do not exercise every
        feature. Defaults to the maximum index seen in the data.
    name : str, optional
        Label carried through to traces and experiment summaries.

    Raises
    ------
    ParseError
        On malformed tokens, non-numeric labels or values, non-increasing
        or duplicate indices within a row, indices beyond an explicit
        ``d``, or when no data lines are present.
    """
    content = _decode(text)

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


def normalize_labels(ds, loss_kind):
    """Remap the two raw label values onto the targets a loss expects.

    ``logistic`` targets {-1, +1}; ``nlls`` targets {0, 1}. The smaller raw
    value maps to the smaller target. Raises ``ValueError`` unless exactly
    two distinct label values are present.
    """
    targets = {"logistic": (-1.0, 1.0), "nlls": (0.0, 1.0)}
    if loss_kind not in targets:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    distinct = np.unique(ds.labels)
    if len(distinct) != 2:
        raise ValueError(
            f"expected exactly 2 distinct label values, found {len(distinct)}"
        )
    lo, hi = targets[loss_kind]
    new_labels = np.where(ds.labels == distinct[0], lo, hi)
    return Dataset(
        indptr=ds.indptr,
        indices=ds.indices,
        values=ds.values,
        labels=new_labels,
        d=ds.d,
        name=ds.name,
    )


def to_libsvm(ds):
    """Serialize back to LibSVM text. Parsing the result reproduces ``ds``."""
    lines = []
    for i in range(ds.n):
        row = ds.row(i)
        parts = [f"{ds.labels[i]:.17g}"]
        parts.extend(
            f"{idx + 1}:{val:.17g}" for idx, val in zip(row.indices, row.values)
        )
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
