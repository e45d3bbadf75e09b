# The experiment harness end to end: config file -> CSV traces -> summary.
#
# A grid (algorithms x seeds) over one dataset is described by a declarative
# key = value file; command-line flags override file values. Each run writes
# one CSV (k, sfo, lmo, f, gap, wall_ns) and the grid writes a summary.
# Reruns with the same seeds produce byte-identical CSVs. Everything goes
# into a temporary directory that is removed when the demo ends.

import tempfile
from pathlib import Path

import numpy as np

from stochfw.cli import main, read_csv

rng = np.random.default_rng(3)
w_true = rng.normal(size=8)
lines = []
while len(lines) < 200:
    x = np.round(rng.uniform(-1, 1, size=8), 6)
    if abs(x @ w_true) < 0.3:
        continue
    feats = " ".join(f"{j + 1}:{x[j]:.17g}" for j in range(8))
    lines.append(f"{1 if x @ w_true > 0 else -1:+d} {feats}")

with tempfile.TemporaryDirectory(prefix="stochfw_demo_") as tmp:
    workdir = Path(tmp)
    dataset = workdir / "synth.libsvm"
    dataset.write_text("\n".join(lines) + "\n")

    config = workdir / "experiment.cfg"
    config.write_text(f"""\
    # l1-constrained logistic regression, three solvers, shared 20-epoch budget
    dataset = {dataset}
    loss = logistic
    constraint = l1_ball
    radius = 100
    alg = fw, sarah_fw, saga_sarah_fw
    epochs = 20
    seed = 0
    out = {workdir / "runs"}
    """)

    code = main(["run", "--config", str(config)])
    assert code == 0

    # flags win over the config file: rerun just one algorithm with a fixed K
    code = main(["run", "--config", str(config), "--alg", "sarah_fw",
                 "--K", "500", "--out", str(workdir / "runs_flags")])
    assert code == 0

    print("\nsummary.csv:")
    print((workdir / "runs" / "summary.csv").read_text())

    trace = read_csv(workdir / "runs" / "sarah_fw_seed0.csv")
    print(f"sarah_fw trace: {len(trace.rows)} rows, "
          f"final f = {trace.rows[-1].f:.6f}, total SFO = {trace.rows[-1].sfo}")
