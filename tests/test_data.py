import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stochfw import data
from stochfw.data import Dataset, ParseError, normalize_labels, parse_libsvm, to_libsvm
from stochfw.objectives import Objective
from stochfw.reference import parse_libsvm_by_tokens

from conftest import binary_sparse_libsvm_text

A9A_PATH = Path(__file__).parent / "data" / "a9a"


def test_parse_basic():
    ds = parse_libsvm("+1 1:0.5 3:2.0\n-1 2:1.0")
    assert ds.n == 2
    assert ds.d == 3
    assert np.array_equal(ds.labels, [1.0, -1.0])
    indices, values = ds.row(0)
    assert np.array_equal(indices, [0, 2])
    assert np.array_equal(values, [0.5, 2.0])
    indices, values = ds.row(1)
    assert np.array_equal(indices, [1])
    assert np.array_equal(values, [1.0])


def test_parse_accepts_bytes_and_crlf_and_comments():
    text = "# header comment\r\n+1 1:1\r\n\r\n-1 2:3\r\n"
    ds = parse_libsvm(text.encode("utf-8"))
    assert ds.n == 2
    assert ds.d == 2


def test_parse_empty_file_errors():
    with pytest.raises(ParseError):
        parse_libsvm("")
    with pytest.raises(ParseError):
        parse_libsvm("# only a comment\n\n")


@pytest.mark.parametrize(
    "bad,what",
    [
        ("+1 1:0.5 oops\n", "malformed token"),
        ("abc 1:0.5\n", "non-numeric label"),
        ("+1 1:xyz\n", "non-numeric value"),
        ("+1 2:1 1:1\n", "non-increasing index"),
        ("+1 1:1 1:2\n", "duplicate index"),
        ("+1 0:1\n", "index not positive"),
        ("+1 1:nan\n", "non-finite value"),
    ],
)
def test_parse_malformed_lines(bad, what):
    with pytest.raises(ParseError) as err:
        parse_libsvm(bad)
    assert err.value.lineno == 1, what


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError) as err:
        parse_libsvm("+1 1:1\n+1 1:1\n-1 3:bad\n")
    assert err.value.lineno == 3


def test_d_override():
    ds = parse_libsvm("+1 1:1\n-1 2:1\n", d=20)
    assert ds.d == 20
    with pytest.raises(ParseError):
        parse_libsvm("+1 5:1\n", d=3)


def test_parse_is_order_preserving():
    lines = [f"{(-1) ** i} {i % 3 + 1}:{i + 0.5}" for i in range(10)]
    ds = parse_libsvm("\n".join(lines))
    for i in range(10):
        assert ds.labels[i] == (-1) ** i
        indices, values = ds.row(i)
        assert indices[0] == i % 3
        assert values[0] == i + 0.5


def test_round_trip_identity():
    rng = np.random.default_rng(3)
    lines = []
    for i in range(50):
        nnz = rng.integers(1, 6)
        idx = np.sort(rng.choice(12, size=nnz, replace=False))
        feats = " ".join(f"{j + 1}:{rng.normal():.17g}" for j in idx)
        lines.append(f"{rng.choice([-1, 1])} {feats}")
    ds = parse_libsvm("\n".join(lines))
    again = parse_libsvm(to_libsvm(ds))
    assert again == ds
    # serialized form is also stable under a second pass
    assert to_libsvm(again) == to_libsvm(ds)


def test_dataset_arrays_are_read_only():
    ds = parse_libsvm("+1 1:1\n-1 2:1\n")
    with pytest.raises(ValueError):
        ds.values[0] = 9.0
    with pytest.raises(ValueError):
        ds.labels[0] = 9.0


def test_dataset_invariant_checks():
    with pytest.raises(ValueError):
        Dataset(
            indptr=np.array([0, 1]),
            indices=np.array([0]),
            values=np.array([1.0]),
            labels=np.array([1.0, -1.0]),  # length mismatch
            d=1,
        )
    # CSR arrays that scipy's unchecked loops would read or write out of bounds
    for indptr, indices in [([0, 3], [0]),            # indptr past the nonzeros
                            ([0, 1], [5]),            # index >= d
                            ([0, 1], [-1]),           # negative index
                            ([1, 1], [0]),            # indptr not starting at 0
                            ([0, 1], [2**32 + 1])]:   # wraps to 1 in int32
        with pytest.raises(ValueError):
            Dataset(indptr=np.array(indptr), indices=np.array(indices),
                    values=np.array([1.0]), labels=np.array([1.0]), d=2)


def test_normalize_labels_remaps_two_values():
    ds = parse_libsvm("0 1:1\n1 1:2\n0 1:3\n")
    logi = normalize_labels(ds, "logistic")
    assert np.array_equal(logi.labels, [-1.0, 1.0, -1.0])
    nlls = normalize_labels(parse_libsvm("-1 1:1\n+1 1:2\n"), "nlls")
    assert np.array_equal(nlls.labels, [0.0, 1.0])


def test_normalize_labels_smaller_raw_to_smaller_target():
    ds = parse_libsvm("4 1:1\n2 1:2\n")
    out = normalize_labels(ds, "logistic")
    assert np.array_equal(out.labels, [1.0, -1.0])  # 2 -> -1, 4 -> +1


def test_normalize_labels_rejects_wrong_cardinality():
    with pytest.raises(ValueError):
        normalize_labels(parse_libsvm("1 1:1\n2 1:1\n3 1:1\n"), "logistic")
    with pytest.raises(ValueError):
        normalize_labels(parse_libsvm("1 1:1\n1 1:2\n"), "nlls")


@pytest.mark.skipif(not A9A_PATH.exists(), reason="a9a not bundled; drop the "
                    "LibSVM file at tests/data/a9a to enable")
def test_a9a_shape():
    ds = parse_libsvm(A9A_PATH.read_bytes(), name="a9a")
    assert ds.n == 22696
    assert ds.d == 123


def test_to_csr_matches_rows():
    ds = parse_libsvm("+1 1:0.5 3:2.0\n-1 2:1.0\n")
    X = ds.to_csr()
    assert X.shape == (2, 3)
    dense = X.toarray()
    assert np.array_equal(dense, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])


def test_parse_memory_stays_near_the_output_size():
    text = binary_sparse_libsvm_text(8124, 112, seed=5)
    tracemalloc.start()
    try:
        ds = parse_libsvm(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(a.nbytes for a in (ds.indptr, ds.indices, ds.values, ds.labels))
    assert peak <= 3 * out, (peak, out)


def test_parsed_arrays_own_contiguous_memory_that_scipy_shares():
    ds = parse_libsvm(binary_sparse_libsvm_text(300, 40, seed=2) + "# trailing\n")
    for arr in (ds.indptr, ds.indices, ds.values, ds.labels):
        assert arr.flags.c_contiguous
        assert arr.base is None
    obj = Objective("logistic", normalize_labels(ds, "logistic"))
    assert np.shares_memory(obj.dataset.to_csr().data, ds.values)


@pytest.mark.parametrize(
    "raw,lineno,byte",
    [
        (b"+1 1:1\n-1 2:\xff\n", 2, 0xFF),  # not UTF-8 at all
        ("+1 1:1\n-1 \uff12:1\n".encode(), 2, 0xEF),  # full-width digit
        ("+1\u00a01:1\n".encode(), 1, 0xC2),  # no-break space
        ("# caf\u00e9\n+1 1:1\n".encode(), 1, 0xC3),  # even in a comment
    ],
)
def test_non_ascii_byte_is_a_parse_error_at_its_line(raw, lineno, byte):
    with pytest.raises(ParseError) as err:
        parse_libsvm(raw)
    assert err.value.lineno == lineno
    assert str(err.value) == f"line {lineno}: non-ASCII byte 0x{byte:02x}"
    with pytest.raises(ParseError):
        parse_libsvm(raw.decode("utf-8", "surrogateescape"))


def test_non_ascii_line_after_a_bad_line_reports_the_bad_line():
    with pytest.raises(ParseError, match="^line 1: duplicate"):
        parse_libsvm("+1 1:1 1:2\n-1 \u00e9:1\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("+1 1:1_0\n", "malformed feature token '1:1_0'"),  # digit separator
        ("+1 1_0:1\n", "malformed feature token '1_0:1'"),
        ("1_0 1:1\n", "non-numeric label '1_0'"),
        ("+1 1000000000000000000:1\n",  # more than 18 significant digits
         "malformed feature token '1000000000000000000:1'"),
        ("+1 01000000000000000000:1\n",
         "malformed feature token '01000000000000000000:1'"),
    ],
)
def test_python_only_spellings_are_malformed(text, message):
    # Python's int() and float() read these; the token oracle accepts them
    parse_libsvm_by_tokens(text)
    with pytest.raises(ParseError) as err:
        parse_libsvm(text)
    assert str(err.value) == f"line 1: {message}"


def test_long_digit_runs_count_only_their_significant_digits():
    text = (
        "+1 0000000000000000000003:1 000000000000000000000000000012:-0.5\n"
        "-1 1:10000000000000000001 2:00000000000000000000000000007\n"
    )
    ds = parse_libsvm(text)
    assert ds == parse_libsvm_by_tokens(text)
    assert ds.indices.tolist() == [2, 11, 0, 1]
    assert ds.values.tolist() == [1.0, -0.5, 1.0000000000000000001e19, 7.0]


def test_index_arrays_are_int32_and_shared_with_scipy():
    ds = normalize_labels(parse_libsvm(binary_sparse_libsvm_text(300, 40, seed=2)), "logistic")
    assert ds.indptr.dtype == ds.indices.dtype == np.int32
    X = Objective("logistic", ds).dataset.to_csr()
    for mine, scipys in ((ds.indptr, X.indptr), (ds.indices, X.indices), (ds.values, X.data)):
        assert np.shares_memory(mine, scipys)


def test_d_or_nnz_of_2_to_the_31_is_a_parse_error(monkeypatch):
    ds = parse_libsvm("+1 2147483647:1\n")  # the largest d int32 indices hold
    assert ds.d == 2**31 - 1 and ds.indices.tolist() == [2**31 - 2]
    with pytest.raises(ParseError, match=r"^line 0: d=2147483648 is not below 2\^31"):
        parse_libsvm("+1 2147483648:1\n")
    with pytest.raises(ParseError, match=r"^line 0: d=2147483648 is not below 2\^31"):
        parse_libsvm("+1 1:1\n", d=2**31)
    # nnz at the limit, with the limit lowered so the file stays small
    monkeypatch.setattr(data, "INDEX_LIMIT", 3)
    parse_libsvm("+1 1:1\n-1 2:1\n")
    with pytest.raises(ParseError, match=r"^line 0: 3 nonzeros is not below 2\^31"):
        parse_libsvm("+1 1:1 2:1\n-1 2:1\n")
