"""Property tests: the vectorised LibSVM parser against the per-token oracle.

``parse_libsvm`` must return a Dataset equal to
``reference.parse_libsvm_by_tokens``'s bit for bit (same dtypes, same ``d``,
the sign of ``-0.0`` kept), or raise a ``ParseError`` with the same line
number and message. Inputs are random ASCII LibSVM files: blank and ``#``
lines, CRLF, tabs and the other ASCII separators, signs, exponents, 17-digit
values, an explicit ``d``, and one injected fault of each class the parser
reports. The chunk size is shrunk down to one byte, so comments, blank lines
and CRLF endings straddle chunk boundaries.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochfw import data
from stochfw.data import Dataset, ParseError, parse_libsvm, to_libsvm
from stochfw.reference import parse_libsvm_by_tokens

from conftest import binary_sparse_libsvm_text

_SEPARATORS = st.sampled_from([" "] * 6 + ["  ", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x1f"])
_DIGITS = st.text("0123456789", min_size=1, max_size=20)
_SIGNS = st.sampled_from(["", "", "+", "-"])
_NON_FINITE = ["inf", "-inf", "+Infinity", "iNfInItY", "nan", "NaN", "-nan", "1e999", "-1e400"]
_BAD_NUMBERS = ["", "abc", "1.2.3", "1e", "e5", ".", "+-1", "0x1p3", "1:2", "in",
                "infinit", "nan(1)", "1e5.0", "--1", "1e+", "\x00", "#", "5-"]
_BAD_INDICES = ["", "abc", "1.0", "1e2", "x1", "+", "2-"]
_CHUNKS = st.sampled_from([1, 2, 3, 5, 8, 13, 64, data._CHUNK_BYTES])
_FAULTS = [
    None, None, None, None, None, "malformed_value", "malformed_index", "no_colon",
    "non_numeric_label", "non_finite_label", "non_finite_value", "not_positive",
    "duplicate", "not_increasing", "beyond_d",
]


@st.composite
def numbers(draw):
    """A decimal number as both Python's ``float`` and C's ``strtod`` read it."""
    shape = draw(st.sampled_from(["int", "int", "point", "float17", "any"]))
    if shape == "int":
        return draw(_SIGNS) + draw(st.integers(0, 10**6).map(str))
    if shape == "float17":
        x = draw(st.floats(allow_nan=False, allow_infinity=False))
        return f"{x:.17g}"
    if shape == "point":
        return f"{draw(_SIGNS)}{draw(st.integers(0, 999))}.{draw(_DIGITS)}"
    mantissa = draw(st.sampled_from(["d", "d.", "d.d", ".d"])).replace(
        "d", draw(_DIGITS), 1).replace("d", draw(_DIGITS))
    exponent = ""
    if draw(st.booleans()):
        exponent = draw(st.sampled_from("eE")) + draw(_SIGNS) + draw(
            st.text("0123456789", min_size=1, max_size=3))
    return draw(_SIGNS) + mantissa + exponent


def index_spelling(i):
    """A positive index, sometimes with a plus sign or leading zeros, at
    times more than the 18 significant digits an index may have."""
    zeros = st.sampled_from([0, 0, 1, 2, 24])
    return st.tuples(st.sampled_from(["", "", "+"]), zeros).map(
        lambda p: f"{p[0]}{'0' * p[1]}{i}")


@st.composite
def data_line(draw):
    """A label and its feature tokens, indices strictly increasing."""
    label = draw(numbers())
    cols = sorted(draw(st.sets(st.integers(1, 40), max_size=6)))
    feats = [[draw(index_spelling(i)), draw(numbers())] for i in cols]
    return [label, feats]


def inject(draw, fault, line):
    """Put one fault of class ``fault`` into a data line (label, features)."""
    label, feats = line
    if fault == "non_numeric_label":
        line[0] = draw(st.sampled_from(["abc", "1:1", "--1", "+", ".", "1e", "0x10"]))
    elif fault == "non_finite_label":
        line[0] = draw(st.sampled_from(_NON_FINITE))
    elif not feats:
        feats.append(["1", "1"])
        inject(draw, fault, line)
    else:
        at = draw(st.integers(0, len(feats) - 1))
        if fault == "malformed_value":
            feats[at][1] = draw(st.sampled_from(_BAD_NUMBERS))
        elif fault == "malformed_index":
            feats[at][0] = draw(st.sampled_from(_BAD_INDICES))
        elif fault == "no_colon":
            feats[at] = [feats[at][0] + feats[at][1]]
        elif fault == "non_finite_value":
            feats[at][1] = draw(st.sampled_from(_NON_FINITE))
        elif fault == "not_positive":
            feats[at][0] = draw(st.sampled_from(["0", "-2", "+0", "-0", "000", "-17"]))
        elif fault == "duplicate":
            feats.insert(at, list(feats[at]))
        elif fault == "not_increasing" and len(feats) > 1:
            other = at + 1 if at + 1 < len(feats) else at - 1
            feats[at], feats[other] = feats[other], feats[at]
        elif fault == "not_increasing":
            feats.append(["1", "2"])


@st.composite
def libsvm_files(draw):
    """(bytes, d): a random LibSVM file, possibly with one injected fault."""
    fault = draw(st.sampled_from(_FAULTS))
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["data"] * 5 + ["blank", "comment"]))
        if kind == "data":
            lines.append(draw(data_line()))
        elif kind == "blank":
            lines.append(draw(st.text(" \t\r\x0b", max_size=3)))
        else:
            body = draw(st.text("abc 1:2.-#\t", max_size=12))
            lines.append(draw(st.text(" \t", max_size=2)) + "#" + body)
    rows = [line for line in lines if isinstance(line, list)]
    if rows and fault not in (None, "beyond_d"):
        inject(draw, fault, draw(st.sampled_from(rows)))
    out = []
    for line in lines:
        if isinstance(line, list):
            label, feats = line
            toks = [label] + [":".join(f) for f in feats]
            text = draw(st.text(" \t", max_size=2))
            for tok in toks:
                text += tok + draw(_SEPARATORS)
            line = text.rstrip(" ") if draw(st.booleans()) else text
        out.append(line + draw(st.sampled_from(["\n", "\n", "\r\n"])))
    text = "".join(out)
    if out and draw(st.booleans()):
        text = text.rstrip("\r\n")
    d = None
    if fault == "beyond_d":
        d = draw(st.integers(1, 20))
    elif draw(st.booleans()):
        d = draw(st.integers(40, 60))
    return text.encode("ascii"), d


def outcome(parse, raw, d):
    try:
        return parse(raw, d=d)
    except ParseError as err:
        return err.lineno, str(err)


def assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, Dataset), got
    assert got.d == want.d
    for field in ("indptr", "indices", "values", "labels"):
        x, y = getattr(got, field), getattr(want, field)
        assert x.dtype == y.dtype, field
        # compare bits, so that -0.0 and 0.0 differ
        assert np.array_equal(x.view(np.uint8), y.view(np.uint8)), field


@settings(max_examples=300, deadline=None)
@given(libsvm_files(), _CHUNKS, st.booleans())
def test_parser_matches_token_oracle(file, chunk, as_str):
    raw, d = file
    want = outcome(parse_libsvm_by_tokens, raw, d)
    with mock.patch.object(data, "_CHUNK_BYTES", chunk):
        got = outcome(parse_libsvm, raw.decode("ascii") if as_str else raw, d)
    assert_same(got, want)


@st.composite
def datasets(draw):
    """Random CSR data, rows possibly empty, any finite float64 values."""
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, 12))
    indptr, indices = [0], []
    for _ in range(n):
        indices.extend(sorted(draw(st.sets(st.integers(0, d - 1), max_size=d))))
        indptr.append(len(indices))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(finite, min_size=len(indices), max_size=len(indices)))
    labels = draw(st.lists(finite, min_size=n, max_size=n))
    return Dataset(
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.float64),
        d=d,
    )


@settings(max_examples=200, deadline=None)
@given(datasets(), _CHUNKS)
def test_round_trip_on_random_csr(ds, chunk):
    with mock.patch.object(data, "_CHUNK_BYTES", chunk):
        again = parse_libsvm(to_libsvm(ds), d=ds.d)
    assert_same(again, ds)


# one input per fault class, with the oracle's message spelled out
_FAULT_CASES = [
    ("+1 1:1\n-1 1:0.5 oops\n", None, 2, "malformed feature token 'oops'"),
    ("+1 1:1 2:\n", None, 1, "malformed feature token '2:'"),
    ("+1 :1\n", None, 1, "malformed feature token ':1'"),
    ("+1 1:1:1\n", None, 1, "malformed feature token '1:1:1'"),
    ("+1 1.0:1\n", None, 1, "malformed feature token '1.0:1'"),
    ("+1 1:0x1p3\n", None, 1, "malformed feature token '1:0x1p3'"),
    ("abc 1:0.5\n", None, 1, "non-numeric label 'abc'"),
    ("1e 1:0.5\n", None, 1, "non-numeric label '1e'"),
    ("+1 1:1\nnan 1:1\n", None, 2, "non-finite label 'nan'"),
    ("-Infinity 1:1\n", None, 1, "non-finite label '-Infinity'"),
    ("+1 1:1e999\n", None, 1, "non-finite value in token '1:1e999'"),
    ("+1 1:-inf\n", None, 1, "non-finite value in token '1:-inf'"),
    ("+1 0:1\n", None, 1, "feature index 0 is not positive"),
    ("+1 -05:1\n", None, 1, "feature index -5 is not positive"),
    ("+1 1:1 1:2\n", None, 1, "duplicate feature index 1"),
    ("+1 1:1\n\n-1 3:1 2:1\n", None, 3, "feature index 2 not increasing (after 3)"),
    ("# only a comment\n\n", None, 0, "empty file: no data lines"),
    ("", None, 0, "empty file: no data lines"),
    ("+1\n-1\n", None, 0, "no features present and no explicit d given"),
    ("+1 1:1 5:1\n", 3, 0, "feature index 5 exceeds explicit d=3"),
]


@pytest.mark.parametrize("text,d,lineno,message", _FAULT_CASES)
def test_each_fault_class_matches_oracle(text, d, lineno, message):
    with pytest.raises(ParseError) as want:
        parse_libsvm_by_tokens(text, d=d)
    assert (want.value.lineno, str(want.value)) == (lineno, f"line {lineno}: {message}")
    with pytest.raises(ParseError) as got:
        parse_libsvm(text, d=d)
    assert (got.value.lineno, str(got.value)) == (want.value.lineno, str(want.value))


# inputs at the edges of the chunk shortcuts: one colon strictly inside each
# feature token skips the colon search, and all-integer segments skip the
# masks; every other input must take the general path
_SHORTCUT_EDGES = [
    # a comment line that holds colons
    "# a:b 1:2\n+1 1:1 3:2\n-1 2:5\n",
    "+1 1:1\n  # 1:1 2:2 3:3\n-1 2:5\n",
    # a label that holds a colon
    "1:1 2:3\n",
    "+1 1:1\n-1:2 4\n",
    # 1:2:3 beside a token with no colon: as many colons as tokens
    "+1 1:2:3 4\n",
    "+1 4 5:2:3\n",
    "-1 2:1\n+1 1:1 2:2:3 4\n",
    # a token that starts with a colon
    "+1 :1\n",
    "+1 1:1 :2 3:4\n",
    "+1 1:1\n-1 :\n",
    # values that mix integers and decimals
    "+1 1:1 2:0.5 3:-2\n-1 1:2.5e-3 4:7\n",
    "1.5 1:1\n-1 2:1\n",
    "+1 1:-0 2:0.0 3:-0.0\n-1 1:3\n",
    # negative zeros on the all-integer path
    "-0 1:-0 2:+0\n1 1:1\n",
    # digit runs past 18 significant digits, beside exact ones
    "+1 1:1 2:12345678901234567890 0000000000000000000003:4\n",
    "123456789012345678901 1:1\n-1 2:2\n",
]


@pytest.mark.parametrize("chunk", [1, data._CHUNK_BYTES])
@pytest.mark.parametrize("text", _SHORTCUT_EDGES)
def test_shortcut_edges_match_oracle(text, chunk):
    raw = text.encode("ascii")
    want = outcome(parse_libsvm_by_tokens, raw, None)
    with mock.patch.object(data, "_CHUNK_BYTES", chunk):
        got = outcome(parse_libsvm, raw, None)
    assert_same(got, want)


def test_multi_chunk_file_matches_oracle():
    # four real chunks; every seventh line gets a CRLF ending and a comment
    # or blank line before it, so all three fall on both sides of chunk edges
    lines = []
    for i, line in enumerate(binary_sparse_libsvm_text(8124, 112, seed=11).splitlines()):
        if i % 7 == 0:
            lines += ["# comment 1:2" if i % 2 else "  \t", line + "\r"]
        else:
            lines.append(line)
    raw = "\n".join(lines).encode("ascii")
    assert len(raw) > 3 * data._CHUNK_BYTES
    assert_same(parse_libsvm(raw), parse_libsvm_by_tokens(raw))
    # the same file with a fault on its last line
    bad = raw + b"\n-1 3:1 3:1\n"
    assert_same(outcome(parse_libsvm, bad, None), outcome(parse_libsvm_by_tokens, bad, None))
