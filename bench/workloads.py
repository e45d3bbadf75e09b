"""The benchmark's workloads: which input, which `stochfw run` grid, how many threads.

Each workload is one closed-loop client running one grid at a time. The
``spec`` fields are ``ExperimentSpec`` field names; a field left out takes the
CLI's default, which is the point of ``mushrooms-rows``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    data: str
    threads: int
    why: str
    spec: dict = field(default_factory=dict)
    # host-speed probe (hostspeed.py): spec overrides for one short reference
    # solve, and a typical time of it on the host the benchmark was defined
    # on, which only sets the scale of the reported times
    probe: dict = field(default_factory=dict)
    probe_s: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mushrooms-vr",
            data="mushrooms",
            threads=1,
            why="variance-reduced solvers with thinned trace rows, so the "
            "estimators' batch update does most of the work",
            spec=dict(
                loss="logistic",
                constraint="l1_ball",
                radius=2000.0,
                algorithms=["sarah_fw", "saga_sarah_fw", "momentum_fw"],
                epochs=20.0,
                seeds=[0, 1],
                record_every=25,
                gap_every=250,
            ),
            probe=dict(algorithms=["sarah_fw"], seeds=[0], epochs=1.0),
            probe_s=0.012,
        ),
        Workload(
            name="mushrooms-rows",
            data="mushrooms",
            threads=2,
            why="the CLI defaults (a row each iteration, a gap every K/50) on "
            "two threads, so full passes, CSV writing and the pool do the work",
            spec=dict(loss="logistic", radius=2000.0, epochs=5.0, seeds=[0, 1]),
            probe=dict(algorithms=["sarah_fw"], seeds=[0], epochs=0.5),
            probe_s=0.025,
        ),
        Workload(
            name="bc-dense-fw",
            data="bc",
            threads=1,
            why="deterministic fw on a tiny dense nlls problem in a box, so "
            "fixed per-call overhead dominates",
            spec=dict(
                loss="nlls",
                constraint="linf_box",
                radius=2000.0,
                algorithms=["fw"],
                epochs=2000.0,
                seeds=[0],
                schedule="sqrt_k",
            ),
            probe=dict(epochs=100.0),
            probe_s=0.018,
        ),
    )
}

# ExperimentSpec field -> config-file key
_CONFIG_KEY = {"dataset_path": "dataset", "algorithms": "alg", "seeds": "seed"}


def config_text(spec):
    """Render spec fields as a `stochfw run` config file."""
    lines = []
    for name, value in spec.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{_CONFIG_KEY.get(name, name)} = {value}")
    return "\n".join(lines) + "\n"
