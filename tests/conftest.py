"""Shared fixtures: seeded synthetic datasets in LibSVM text form.

No LibSVM files ship with the repository, so experiment-scale tests run on
synthetic stand-ins with the same shapes as the reference datasets
(683 x 10 dense rows, 8124 x 112 sparse binary rows). Everything is seeded
and goes through the real text parser so the full pipeline is exercised.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from stochfw.data import Dataset, normalize_labels, parse_libsvm
from stochfw.objectives import Batch, Batches, Margins, Objective

ROOT = Path(__file__).resolve().parent.parent


def separable_libsvm_text(n, d, seed, margin_floor=0.3, scale=1.0):
    """Dense rows, features uniform in [-scale, scale], labels linearly
    separable through the origin with the given margin floor."""
    rng = np.random.default_rng(seed)
    w_true = rng.normal(size=d)
    w_true /= np.linalg.norm(w_true)
    lines = []
    while len(lines) < n:
        x = np.round(rng.uniform(-1.0, 1.0, size=d), 6)
        m = x @ w_true
        if abs(m) < margin_floor:
            continue
        label = 1 if m > 0 else -1
        feats = " ".join(f"{j + 1}:{x[j] * scale:.17g}" for j in range(d))
        lines.append(f"{label:+d} {feats}")
    return "\n".join(lines) + "\n"


def binary_sparse_libsvm_text(n, d, seed, density=0.2):
    """Sparse 0/1 rows (mushrooms flavor) with random two-valued labels."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        nnz = max(1, rng.binomial(d, density))
        idx = np.sort(rng.choice(d, size=nnz, replace=False))
        label = 1 if rng.random() < 0.5 else 2
        lines.append(f"{label} " + " ".join(f"{j + 1}:1" for j in idx))
    return "\n".join(lines) + "\n"


def tiny_objective(kind="logistic", n=6, d=4, seed=0):
    """Small dense objective for enumeration-scale tests."""
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n):
        label = (1 if i % 2 == 0 else -1) if kind == "logistic" else i % 2
        feats = " ".join(f"{j + 1}:{rng.normal():.6f}" for j in range(d))
        lines.append(f"{label} {feats}")
    return Objective(kind, parse_libsvm("\n".join(lines), name="tiny"))


@st.composite
def sparse_objectives(draw, n=(1, 12), d=(1, 8), bound=1e3):
    """A random sparse dataset of n rows and d columns in the given ranges,
    entries in [-bound, bound], bound to either loss. Rows may be empty, and
    so may columns."""
    n = draw(st.integers(*n))
    d = draw(st.integers(*d))
    kind = draw(st.sampled_from(["logistic", "nlls"]))
    indptr, indices = [0], []
    for _ in range(n):
        cols = draw(st.sets(st.integers(0, d - 1), max_size=d))
        indices.extend(sorted(cols))
        indptr.append(len(indices))
    entries = st.floats(-bound, bound, allow_nan=False, allow_infinity=False)
    values = draw(st.lists(entries, min_size=len(indices), max_size=len(indices)))
    low = -1.0 if kind == "logistic" else 0.0
    labels = draw(st.lists(st.sampled_from([low, 1.0]), min_size=n, max_size=n))
    ds = Dataset(
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.float64),
        d=d,
    )
    return Objective(kind, ds)


def one_step(obj, S):
    """The ``Batch`` of S, an (m, b) block of one batch per seed or one
    seed's vector, as the one step of a prepared block."""
    S = np.asarray(S)
    return Batch(Batches(obj, S[None] if S.ndim == 2 else S[None, None]), 0)


def scripted(est, refresh=None, batch=None):
    """Replace the random draws of an estimator of one seed with fixed ones;
    returns ``est``.

    ``refresh`` is the SARAH coin: one bool for every update, or a sequence
    with one bool per update. ``batch`` is the index array every update
    uses, drawn as blocks of one step. A draw left as None stays random.
    """
    if refresh is not None:
        coins = itertools.repeat(refresh) if isinstance(refresh, bool) else iter(refresh)
        est.draw_refresh = lambda: [next(coins)]
    if batch is not None:
        S = np.asarray(batch, dtype=np.int64)
        est._draw_block = lambda rng: S[None]
    return est


def poison_margins(monkeypatch, calls_ok):
    """Make every ``Margins.at`` read after the first ``calls_ok`` return NaN
    margins; every full-data loss and gradient of a solve reads them there."""
    at = Margins.at
    calls = []

    def poisoned(self):
        calls.append(self)
        z = at(self)
        return z if len(calls) <= calls_ok else z * np.nan

    monkeypatch.setattr(Margins, "at", poisoned)


@pytest.fixture(scope="session")
def bc_logistic():
    """Breast-cancer-shaped stand-in (n=683, d=10), logistic labels."""
    text = separable_libsvm_text(683, 10, seed=20240811)
    ds = normalize_labels(parse_libsvm(text, name="bc-synth"), "logistic")
    return Objective("logistic", ds)


@pytest.fixture(scope="session")
def bc_nlls():
    """Same shape for the non-convex loss; features scaled down so margins
    stay in the sigmoid's non-saturated range over the radius-2e3 ball."""
    text = separable_libsvm_text(683, 10, seed=20240811, scale=1e-3)
    ds = normalize_labels(parse_libsvm(text, name="bc-synth-nlls"), "nlls")
    return Objective("nlls", ds)


@pytest.fixture(scope="session")
def mushrooms_scale_logistic():
    """Mushrooms-shaped stand-in (n=8124, d=112), sparse binary features."""
    text = binary_sparse_libsvm_text(8124, 112, seed=5)
    ds = normalize_labels(parse_libsvm(text, name="mushrooms-synth"), "logistic")
    return Objective("logistic", ds)


def run_process(*args, cwd=None):
    """Run ``python *args`` in a fresh interpreter on this checkout's src;
    the finished process, with its exit code and both streams as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run([sys.executable, *map(str, args)], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter on this checkout's src; its last
    line of standard output."""
    proc = run_process("-c", code, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]
