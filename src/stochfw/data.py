"""LibSVM text parsing and the in-memory sparse dataset container.

The reader accepts the plain LibSVM text format: one sample per line,
``label idx:val idx:val ...`` with 1-based, strictly increasing feature
indices. Indices are converted to 0-based on load. Rows are stored in CSR
form (one shared ``indices``/``values`` pair plus ``indptr``), which keeps
memory proportional to the number of nonzeros.

Accepted grammar:

* The input is ASCII; any other byte is a ``ParseError`` at its line.
* Lines end at ``\n``. Space, ``\t``, ``\r``, ``\v``, ``\f`` and
  ``\x1c``-``\x1f`` separate tokens. Blank lines and lines whose first token
  starts with ``#`` are skipped.
* An index is a decimal integer ``[+-]digits`` of at most 18 significant
  digits; leading zeros do not count.
* A label or value is a decimal number as C ``strtod`` reads it,
  ``[+-](digits[.[digits]] | .digits)[(e|E)[+-]digits]``, or ``inf``,
  ``infinity`` or ``nan`` in any case, which are then rejected as
  non-finite. ``_`` digit separators and hexadecimal numbers are malformed.

The parser reads the bytes in line-aligned chunks and checks and converts
each chunk with whole-array operations, so its temporaries are bounded by
the chunk size. ``stochfw.reference.parse_libsvm_by_tokens`` is the
per-token loop it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
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


# Feature indices and CSR positions are int32, so d and nnz stay below this.
INDEX_LIMIT = 2**31

# The two label values each loss expects, smaller first; the losses are its keys.
LABEL_TARGETS = {"logistic": (-1.0, 1.0), "nlls": (0.0, 1.0)}


@dataclass(frozen=True, eq=False)
class Dataset:
    """A parsed dataset: CSR-stored rows plus one label per row.

    ``indptr`` and ``indices`` are int32; only a d or nnz of 2^31 or more,
    which ``parse_libsvm`` rejects, keeps them int64. ``Objective`` runs every
    kernel on these three arrays, and ``to_csr`` wraps them without a copy.
    All arrays are read-only; a Dataset can be shared freely across threads.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    d: int
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dataset must contain at least one sample")
        if self.d < 1:
            raise ValueError("dataset must have at least one feature")
        if len(self.labels) != self.n:
            raise ValueError("labels length does not match row count")
        # the kernels hand these arrays to scipy's unchecked compiled loops;
        # they are checked as given, since the cast below wraps 2^32 + 1 to 1
        indptr, indices = np.asarray(self.indptr), np.asarray(self.indices)
        if indptr[0] != 0 or np.any(indptr[1:] < indptr[:-1]):
            raise ValueError("indptr must start at 0 and never decrease")
        if not indptr[-1] == len(indices) == len(self.values):
            raise ValueError("indptr must end at len(indices) == len(values)")
        if len(indices) and not (indices.min() >= 0 and indices.max() < self.d):
            raise ValueError(f"feature indices must lie in [0, d={self.d})")
        index = np.int32 if max(self.d, len(indices)) < INDEX_LIMIT else np.int64
        object.__setattr__(self, "indptr", indptr.astype(index, copy=False))
        object.__setattr__(self, "indices", indices.astype(index, copy=False))
        for arr in (self.indptr, self.indices, self.values, self.labels):
            arr.setflags(write=False)

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
        """Sample i as ``(indices, values)``: its 0-based feature indices,
        strictly increasing, and their values."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def to_csr(self):
        """Rows as a scipy ``csr_matrix`` of shape (n, d)."""
        from scipy.sparse import csr_matrix

        return csr_matrix(
            (self.values, self.indices, self.indptr), shape=(self.n, self.d)
        )


# Bytes per parse chunk. A chunk ends at a line break, so only a line longer
# than this makes a longer chunk; every temporary of the parse is sized by
# the chunk, not by the file.
_CHUNK_BYTES = 1 << 18

# Classes of the non-digit bytes of a token.
_DOT, _EXP, _SIGN, _OTHER = range(4)
_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_CLASS[ord(".")] = _DOT
_CLASS[[ord("e"), ord("E")]] = _EXP
_CLASS[[ord("+"), ord("-")]] = _SIGN

# What a label, index or value segment spells: nothing valid, a signed
# digit run, any other decimal number, or inf / infinity / nan in any case.
_BAD, _INT, _FLOAT, _WORD = range(4)

# At most this many significant digits are read exactly in int64
# (10^18 < 2^63).
_MAX_INT_DIGITS = 18

# Per-token error codes and their messages; a feature token's checks run
# in this order.
(_OK, _MALFORMED, _NOT_POSITIVE, _DUPLICATE, _NOT_INCREASING, _NONFINITE_VALUE,
 _NON_NUMERIC_LABEL, _NONFINITE_LABEL) = range(8)
_MESSAGES = {
    _MALFORMED: "malformed feature token {tok!r}",
    _NOT_POSITIVE: "feature index {idx} is not positive",
    _DUPLICATE: "duplicate feature index {idx}",
    _NOT_INCREASING: "feature index {idx} not increasing (after {prev})",
    _NONFINITE_VALUE: "non-finite value in token {tok!r}",
    _NON_NUMERIC_LABEL: "non-numeric label {tok!r}",
    _NONFINITE_LABEL: "non-finite label {tok!r}",
}


def _chunks(raw):
    """(start, stop) of consecutive line-aligned pieces of ``raw``."""
    start, size = 0, len(raw)
    while start < size:
        stop = start + _CHUNK_BYTES
        if stop >= size:
            stop = size
        else:
            cut = raw.rfind(b"\n", start, stop)
            if cut < 0:
                cut = raw.find(b"\n", stop)
            stop = size if cut < 0 else cut + 1
        yield start, stop
        start = stop


def _kinds(a, special, s, e):
    """Kind of each segment ``a[s:e]`` and whether it opens with a sign.

    ``special`` holds the sorted positions of the chunk's non-digit token
    bytes. A segment holding none of them is a digit run unless empty; the
    others are checked against the number grammar ``[sign] (digits [.
    digits*] | . digits) [(e|E) [sign] digits]`` or a spelled-out non-finite.
    """
    kind = np.where(e > s, _INT, _BAD).astype(np.int8)
    lead = np.zeros(len(s), dtype=bool)
    if not len(s):
        return kind, lead
    # the segment of each special byte; bytes between segments (other
    # segment kinds, comment lines) belong to none
    seg = np.searchsorted(s, special, side="right") - 1
    inside = (seg >= 0) & (special < e[np.maximum(seg, 0)])
    sp, seg = special[inside], seg[inside]
    spc = _CLASS[a[sp]]
    # the segments holding a special byte, and each byte's place among them
    held = seg[np.flatnonzero(np.diff(seg, prepend=-1))]
    at = np.searchsorted(held, seg)
    s, e = s[held], e[held]

    def count(c):
        return np.bincount(at[spc == c], minlength=len(held))

    def position(c):
        pos = e.copy()
        pos[at[spc == c]] = sp[spc == c]
        return pos

    n_dot, n_exp, n_sign, n_other = (count(c) for c in (_DOT, _EXP, _SIGN, _OTHER))
    dot_at, exp_at = position(_DOT), position(_EXP)
    lead_h = _CLASS[a[s]] == _SIGN
    body = s + lead_h
    exp_sign = (exp_at + 1 < e) & (_CLASS[a[np.minimum(exp_at + 1, e - 1)]] == _SIGN)
    number = (
        (n_other == 0)
        & (n_dot <= 1)
        & (n_exp <= 1)
        & (n_sign == lead_h.astype(np.int64) + exp_sign)
        & ((n_dot == 0) | (dot_at < exp_at))
        & (exp_at - body - n_dot >= 1)
        & ((n_exp == 0) | (e - exp_at - 1 - exp_sign >= 1))
    )
    kind_h = np.where(number, np.where(n_dot + n_exp == 0, _INT, _FLOAT), _BAD)
    maybe_word = (n_other > 0) & (n_dot + n_exp == 0) & (n_sign == lead_h)
    for word in (b"inf", b"nan", b"infinity"):
        c = np.flatnonzero(maybe_word & (e - body == len(word)))
        hit = np.ones(len(c), dtype=bool)
        for k, ch in enumerate(word):
            hit &= (a[body[c] + k] | 0x20) == ch
        kind_h[c[hit]] = _WORD
    kind[held] = kind_h
    lead[held] = lead_h
    return kind, lead


def _digits(a, start, stop):
    """Value of each ASCII digit run ``a[start:stop]`` of at most 18 digits."""
    acc = np.zeros(len(start), dtype=np.int64)
    width = int((stop - start).max()) if len(start) else 0
    at = np.empty(len(start), dtype=np.intp)  # take() would copy other ints
    live = np.empty(len(start), dtype=bool)
    digit = np.empty(len(start), dtype=np.uint8)
    for k in range(width):
        np.add(start, k, out=at)
        np.less(at, stop, out=live)
        # a finished run reads any byte in range; ``live`` zeroes it
        np.minimum(at, len(a) - 1, out=at)
        np.take(a, at, out=digit)
        digit -= np.uint8(48)
        digit *= live
        # Horner step acc = 10 acc + digit on the runs still going; the
        # small-int operands are cast in buffers, not in int64 temporaries
        acc *= live * np.int8(9) + np.int8(1)
        acc += digit
    return acc


def _zeros(a, start, stop):
    """Whether each nonempty run ``a[start:stop]`` holds only ``0`` bytes."""
    size = stop - start
    offset = np.cumsum(size) - size
    at = np.arange(size.sum()) + np.repeat(start - offset, size)
    return np.logical_and.reduceat(a[at] == ord("0"), offset)


def _signed_digits(a, s, e, kind, lead):
    """Which segments are digit runs of at most 18 significant digits, with
    their magnitudes and whether they carry a minus sign."""
    body = s + lead
    # only the last 18 digits are read; any before them must be zeros
    head = np.maximum(e - _MAX_INT_DIGITS, body)
    exact = kind == _INT
    long = np.flatnonzero(exact & (head > body))
    exact[long] = _zeros(a, body[long], head[long])
    del body
    magnitude = _digits(a, head[exact], e[exact])
    return exact, magnitude, lead[exact] & (a[s[exact]] == ord("-"))


def _indices(a, s, e, kind, lead):
    """Feature indices (int64) and whether each was a valid index."""
    exact, magnitude, neg = _signed_digits(a, s, e, kind, lead)
    np.negative(magnitude, out=magnitude, where=neg)
    out = np.zeros(len(s), dtype=np.int64)
    out[exact] = magnitude
    return out, exact


def _numbers(a, s, e, kind, lead):
    """float64 of each label or value segment; NaN where it is no number."""
    exact, magnitude, neg = _signed_digits(a, s, e, kind, lead)
    value = magnitude.astype(np.float64)
    # negating the float, not the integer, keeps the sign of "-0"
    np.negative(value, out=value, where=neg)
    out = np.full(len(s), np.nan)
    out[exact] = value
    rest = np.flatnonzero((kind == _FLOAT) | ((kind == _INT) & ~exact))
    # np.fromstring reads [-1.] from a buffer holding no number
    if len(rest):
        out[rest] = _strtod(a, s[rest], e[rest])
    return out


def _strtod(a, start, stop):
    """C ``strtod`` of each (already validated) number ``a[start:stop]``."""
    edge = np.zeros(len(a) + 1, dtype=np.int8)
    edge[start] = 1
    edge[stop] = -1
    inside = np.cumsum(edge[:-1], dtype=np.int8).view(bool)
    # Every other byte becomes a blank, which the separator skips. strtod
    # reads a number until a byte that cannot extend it, so one more blank
    # ends the buffer: a number at the very end must not run on into
    # whatever memory follows.
    text = np.full(len(a) + 1, ord(" "), dtype=np.uint8)
    np.copyto(text[:-1], a, where=inside)
    values = np.fromstring(text.tobytes(), sep=" ")
    if len(values) != len(start):
        raise RuntimeError("number conversion disagrees with token validation")
    return values


def _tokens(a, blank, breaks):
    """Start, end and first-of-line flag of each token outside comment lines."""
    edges = np.flatnonzero(np.diff(~blank, prepend=False, append=False))
    edges = edges.astype(np.int32)
    start, end = edges[0::2], edges[1::2]
    first = np.zeros(len(start), dtype=bool)
    if len(start):
        # the token after each line break opens its line
        first[np.searchsorted(start, breaks[breaks < start[-1]])] = True
        first[0] = True
    comment = first & (a[start] == ord("#"))
    if comment.any():
        keep = ~comment[np.flatnonzero(first)][np.cumsum(first) - 1]
        start, end, first = start[keep], end[keep], first[keep]
    return start, end, first


def _split(a, start, end):
    """Position of each token's first colon (``end`` without one)."""
    colons = np.flatnonzero(a == ord(":")).astype(np.int32)
    if not len(colons):
        return end.copy(), np.zeros(len(start), dtype=bool)
    j = np.searchsorted(colons, start)
    colon = colons[np.minimum(j, len(colons) - 1)]
    has = (j < len(colons)) & (colon < end)
    return np.where(has, colon, end), has


def _parse_chunk(a, line0):
    """Parse a line-aligned chunk whose first line is line ``line0 + 1``.

    Returns the labels, the feature count of each row, and the 1-based
    indices and values of the chunk's features, or raises the
    :class:`ParseError` of its first bad line.
    """
    # Python's ASCII whitespace: 9-13 and 28-32 (uint8 arithmetic wraps)
    blank = ((a - np.uint8(9)) < 5) | ((a - np.uint8(28)) < 5)
    breaks = np.flatnonzero(a == 10)
    start, end, first = _tokens(a, blank, breaks)
    feat = ~first
    ls, le = start[first], end[first]
    fs, fe = start[feat], end[feat]
    del start, end  # a token's span is read back from these four
    colon, has_colon = _split(a, fs, fe)
    vs = np.minimum(colon + 1, fe)
    # non-digit token bytes, except the index/value separators
    special = ~blank & ((a - np.uint8(48)) > 9)
    del blank
    special[colon[has_colon]] = False
    special = np.flatnonzero(special)
    lab_kind, lab_lead = _kinds(a, special, ls, le)
    idx_kind, idx_lead = _kinds(a, special, fs, colon)
    val_kind, val_lead = _kinds(a, special, vs, fe)
    lab = _numbers(a, ls, le, lab_kind, lab_lead)
    idx, idx_ok = _indices(a, fs, colon, idx_kind, idx_lead)
    val = _numbers(a, vs, fe, val_kind, val_lead)

    # a row's first index follows 0; a non-positive index fails before
    # the comparisons with its predecessor are looked at
    follows = ~first[:-1][feat[1:]]
    same, down = np.zeros_like(follows), np.zeros_like(follows)
    same[1:] = follows[1:] & (idx[1:] == idx[:-1])
    down[1:] = follows[1:] & (idx[1:] < idx[:-1])
    code = np.empty(len(first), dtype=np.int8)
    code[first] = np.where(
        lab_kind == _BAD,
        _NON_NUMERIC_LABEL,
        np.where(np.isfinite(lab), _OK, _NONFINITE_LABEL),
    )
    code[feat] = np.select(
        [
            ~(has_colon & idx_ok & (val_kind != _BAD)),
            idx < 1,
            same,
            down,
            ~np.isfinite(val),
        ],
        [_MALFORMED, _NOT_POSITIVE, _DUPLICATE, _NOT_INCREASING, _NONFINITE_VALUE],
        _OK,
    )

    bad = np.flatnonzero(code)
    if len(bad):
        # the first bad token is feature k, or label t - k
        t = int(bad[0])
        k = int(np.count_nonzero(feat[:t]))
        lo, hi = (fs[k], fe[k]) if feat[t] else (ls[t - k], le[t - k])
    high = int(np.argmax(a >= 0x80))
    if a[high] >= 0x80:
        line = int(np.searchsorted(breaks, high))
        if not len(bad) or line <= np.searchsorted(breaks, lo):
            raise ParseError(line0 + line + 1, f"non-ASCII byte 0x{a[high]:02x}")
    if len(bad):
        message = _MESSAGES[code[t]].format(
            tok=a[lo:hi].tobytes().decode("ascii"),
            idx=int(idx[k]) if feat[t] else 0,
            prev=int(idx[k - 1]) if feat[t] and follows[k] else 0,
        )
        raise ParseError(line0 + int(np.searchsorted(breaks, lo)) + 1, message)
    counts = np.diff(np.flatnonzero(first), append=len(first)) - 1
    return lab, counts, idx, val


def parse_libsvm(text, d=None, name=""):
    """Parse LibSVM text into a :class:`Dataset`.

    Parameters
    ----------
    text : str or bytes
        LibSVM content, ASCII only (see the module docstring for the
        grammar). Blank lines and lines starting with ``#`` are skipped;
        both ``\\n`` and ``\\r\\n`` line endings are accepted.
    d : int, optional
        Feature-count override for splits that do not exercise every
        feature. Defaults to the maximum index seen in the data.
    name : str, optional
        Label carried through to traces and experiment summaries.

    Raises
    ------
    ParseError
        On a non-ASCII byte, malformed tokens, non-numeric or non-finite
        labels or values, non-increasing or duplicate indices within a
        row, indices beyond an explicit ``d``, or when no data lines are
        present.
    """
    # surrogatepass turns lone surrogates into non-ASCII bytes, which are
    # then reported like any other non-ASCII character
    raw = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    rows = raw.count(b"\n") + 1
    labels = np.empty(rows, dtype=np.float64)
    indptr = np.empty(rows + 1, dtype=np.int32)
    indptr[0] = 0
    nnz_cap = raw.count(b":")
    indices = np.empty(nnz_cap, dtype=np.int32)
    values = np.empty(nnz_cap, dtype=np.float64)
    n = nnz = line = max_index = 0
    for lo, hi in _chunks(raw):
        a = np.frombuffer(raw, dtype=np.uint8, count=hi - lo, offset=lo)
        lab, counts, idx, val = _parse_chunk(a, line)
        line += raw.count(b"\n", lo, hi)
        m, k = len(lab), len(idx)
        labels[n:n + m] = lab
        np.cumsum(counts, out=indptr[n + 1:n + m + 1])
        indptr[n + 1:n + m + 1] += nnz
        np.subtract(idx, 1, out=indices[nnz:nnz + k])
        values[nnz:nnz + k] = val
        if k:
            max_index = max(max_index, int(idx.max()))
        n, nnz = n + m, nnz + k
        # the next chunk's temporaries must not stack on this chunk's
        del lab, counts, idx, val

    if not n:
        raise ParseError(0, "empty file: no data lines")

    if d is None:
        d = max_index
        if d == 0:
            raise ParseError(0, "no features present and no explicit d given")
    elif max_index > d:
        raise ParseError(0, f"feature index {max_index} exceeds explicit d={d}")
    if d >= INDEX_LIMIT:
        raise ParseError(0, f"d={d} is not below 2^31 (feature indices are int32)")
    if nnz >= INDEX_LIMIT:
        raise ParseError(0, f"{nnz} nonzeros is not below 2^31 (CSR positions are int32)")

    # shrink in place: the arrays stay the only owners of their memory
    for arr, size in ((labels, n), (indptr, n + 1), (indices, nnz), (values, nnz)):
        arr.resize(size, refcheck=False)
    return Dataset(
        indptr=indptr,
        indices=indices,
        values=values,
        labels=labels,
        d=int(d),
        name=name,
    )


def normalize_labels(ds, loss_kind):
    """Remap the two raw label values onto the targets a loss expects.

    ``logistic`` targets {-1, +1}; ``nlls`` targets {0, 1}. The smaller raw
    value maps to the smaller target. Raises ``ValueError`` unless exactly
    two distinct label values are present.
    """
    if loss_kind not in LABEL_TARGETS:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    distinct = np.unique(ds.labels)
    if len(distinct) != 2:
        raise ValueError(
            f"expected exactly 2 distinct label values, found {len(distinct)}"
        )
    lo, hi = LABEL_TARGETS[loss_kind]
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
        parts = [f"{ds.labels[i]:.17g}"]
        parts.extend(f"{idx + 1}:{val:.17g}" for idx, val in zip(*ds.row(i)))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
