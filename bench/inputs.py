"""Seeded LibSVM inputs for the benchmark workloads.

Two data shapes, following the synthetic stand-ins of the test suite:

    mushrooms  8124 x 112 sparse 0/1 rows, ~20% dense, labels {1, 2}
    bc          683 x 10 dense rows, features uniform in [-1, 1] (rounded
                to 6 decimals) times 1e-3, labels +-1 linearly separable
                through the origin with margin >= 0.3

Each generator returns the CSR arrays together with the LibSVM text, so the
benchmark's reference solver works on exactly the numbers the parser reads
(every value is written with 17 significant digits, which round-trips).

Run standalone to write the inputs and their manifest:

    python3 bench/inputs.py --seed 3 --out bench/out/inputs
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# name -> (n, d) at full and at smoke-test scale
SHAPES = {
    "mushrooms": {"full": (8124, 112), "tiny": (400, 112)},
    "bc": {"full": (683, 10), "tiny": (120, 10)},
}


@dataclass(frozen=True)
class Input:
    """One generated dataset: raw labels, CSR arrays and their LibSVM text."""

    name: str
    labels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    d: int
    text: bytes

    @property
    def n(self):
        return len(self.labels)


def _mushrooms(n, d, rng, density=0.2):
    nnz = np.maximum(1, rng.binomial(d, density, size=n))
    # the first nnz_i columns of a per-row random permutation, sorted
    order = np.argsort(rng.random((n, d)), axis=1)
    keep = np.arange(d)[None, :] < nnz[:, None]
    cols = np.sort(np.where(keep, order, d), axis=1)
    indices = cols[cols < d].astype(np.int64)
    labels = np.where(rng.random(n) < 0.5, 1.0, 2.0)
    indptr = np.concatenate([[0], np.cumsum(nnz)]).astype(np.int64)
    values = np.ones(len(indices))
    lines = []
    for i in range(n):
        row = indices[indptr[i]:indptr[i + 1]] + 1
        lines.append(f"{int(labels[i])} " + " ".join(f"{j}:1" for j in row.tolist()))
    return labels, indptr, indices, values, lines


def _bc(n, d, rng, margin_floor=0.3, scale=1e-3):
    w_true = rng.normal(size=d)
    w_true /= np.linalg.norm(w_true)
    rows, labels = [], []
    while len(rows) < n:
        x = np.round(rng.uniform(-1.0, 1.0, size=d), 6)
        m = x @ w_true
        if abs(m) < margin_floor:
            continue
        rows.append(x * scale)
        labels.append(1.0 if m > 0 else -1.0)
    values = np.concatenate(rows)
    indices = np.tile(np.arange(d, dtype=np.int64), n)
    indptr = np.arange(0, n * d + 1, d, dtype=np.int64)
    lines = [
        f"{int(lab):+d} " + " ".join(f"{j + 1}:{v:.17g}" for j, v in enumerate(row.tolist()))
        for lab, row in zip(labels, rows)
    ]
    return np.array(labels), indptr, indices, values, lines


_GENERATORS = {"mushrooms": _mushrooms, "bc": _bc}


def generate(name, seed, scale="full"):
    """Build dataset ``name`` from ``seed``; the same seed gives the same bytes."""
    n, d = SHAPES[name][scale]
    # one stream per dataset name, so datasets never share draws
    rng = np.random.default_rng([seed, *name.encode()])
    labels, indptr, indices, values, lines = _GENERATORS[name](n, d, rng)
    if len(np.unique(labels)) != 2:
        raise ValueError(f"{name} seed {seed}: generated a single label class")
    return Input(
        name=name,
        labels=labels,
        indptr=indptr,
        indices=indices,
        values=values,
        d=int(indices.max()) + 1,
        text=("\n".join(lines) + "\n").encode(),
    )


def seed_arg(text):
    """A workload seed from the command line; negative seeds map to 64 bits."""
    return int(text) % 2**64


def describe(inp):
    """Identity of one input file: shape, size and content hash."""
    return {
        "n": inp.n,
        "d": inp.d,
        "nnz": int(len(inp.values)),
        "bytes": len(inp.text),
        "sha256": hashlib.sha256(inp.text).hexdigest(),
    }


def _git_sha():
    if not (ROOT / ".git").exists():  # an exported checkout
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment():
    """What the numbers were measured on."""
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=seed_arg, required=True)
    parser.add_argument("--out", required=True, help="directory for the files")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"seed": args.seed, "environment": environment(), "inputs": {}}
    for name in SHAPES:
        inp = generate(name, args.seed)
        (out / f"{name}.libsvm").write_bytes(inp.text)
        manifest["inputs"][name] = describe(inp)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(json.dumps(manifest, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
