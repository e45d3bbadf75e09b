"""Experiment harness: configure runs, execute solves, write CSV traces.

A run grid is the cross product of requested algorithms and seeds over one
dataset. Each run writes ``<algorithm>_seed<seed>.csv`` with the schema

    k,sfo,lmo,f,gap,wall_ns

(floats printed with 17 significant digits, gap empty where not evaluated)
plus a ``summary.csv`` with final objective, minimum recorded gap, and
oracle totals per run. Runs with the same spec and seeds are byte-identical
because row timestamps default to 0; pass ``timing = true`` in the config
to stamp real wall times instead.

Configuration is a declarative ``key = value`` file; command-line flags
override file values. An ``epochs`` request is converted to an iteration
horizon K per algorithm through its expected per-iteration SFO cost, so a
shared budget means a shared x-axis of full-gradient equivalents:

    fw: n    sarah_fw: p*n + (1-p)*2b    saga_sarah_fw: 2b    momentum_fw: b

Exit codes: 0 success, 1 invalid spec, 2 unreadable/malformed dataset,
3 non-finite objective, gradient estimate or full gradient.
``SARAH_FW_THREADS`` caps how many grid runs execute in parallel (default 1).
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path

from .constraints import CONSTRAINT_KINDS, ConstraintSet
from .data import ParseError, normalize_labels, parse_libsvm
from .estimators import EstimatorConfig
from .metrics import Trace, TraceRow
from .objectives import LOSS_KINDS, Objective
from .schedules import SCHEDULE_KINDS, Schedule, default_batch, default_params
from .solver import ALGORITHMS, NanAbort, SolverConfig, default_x0, solve

__all__ = [
    "ExperimentSpec",
    "SpecError",
    "run_experiment",
    "emit_csv",
    "read_csv",
    "expected_sfo_per_iteration",
    "main",
]

EXIT_OK = 0
EXIT_INVALID_SPEC = 1
EXIT_PARSE_ERROR = 2
EXIT_NAN_ABORT = 3


class SpecError(ValueError):
    """The experiment request is inconsistent or incomplete."""


@dataclass
class ExperimentSpec:
    """Declarative description of an experiment grid.

    ``p`` and ``lam`` default to the theory-prescribed values for the
    resolved batch size; ``batch`` defaults to ceil(n/100); ``schedule``
     'auto' picks classic_fw / theorem1 / theorem3 per algorithm.
    """

    dataset_path: str
    loss: str = "logistic"
    constraint: str = "l1_ball"
    radius: float = 2e3
    algorithms: list = field(default_factory=lambda: ["fw", "sarah_fw", "saga_sarah_fw"])
    K: int | None = None
    epochs: float | None = None
    batch: int | None = None
    p: float | None = None
    lam: float | None = None
    schedule: str = "auto"
    seeds: list = field(default_factory=lambda: [0])
    gap_every: int | None = None
    record_every: int = 1
    out_dir: str = "runs"
    timing: bool = False
    d_override: int | None = None

    def validate(self):
        if self.loss not in LOSS_KINDS:
            raise SpecError(f"unknown loss {self.loss!r}")
        if self.constraint not in CONSTRAINT_KINDS:
            raise SpecError(f"unknown constraint {self.constraint!r}")
        if self.radius <= 0:
            raise SpecError("radius must be positive")
        if not self.algorithms:
            raise SpecError("no algorithms requested")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise SpecError(f"unknown algorithm {alg!r}")
        if (self.K is None) == (self.epochs is None):
            raise SpecError("exactly one of K or epochs must be given")
        if self.K is not None and self.K < 1:
            raise SpecError("K must be >= 1")
        if self.epochs is not None and self.epochs <= 0:
            raise SpecError("epochs must be positive")
        if self.schedule != "auto" and self.schedule not in SCHEDULE_KINDS:
            raise SpecError(f"unknown schedule {self.schedule!r}")
        if not self.seeds:
            raise SpecError("no seeds requested")


def expected_sfo_per_iteration(algorithm, n, b, p):
    """Average SFO cost of one iteration, the unit for epoch conversion."""
    if algorithm == "fw":
        return float(n)
    if algorithm == "sarah_fw":
        return p * n + (1.0 - p) * 2.0 * b
    if algorithm == "saga_sarah_fw":
        return 2.0 * b
    if algorithm == "momentum_fw":
        return float(b)
    raise SpecError(f"unknown algorithm {algorithm!r}")


def _schedule_for(spec, algorithm, K, n, b, p):
    kind = spec.schedule
    if kind == "auto":
        kind = {
            "fw": "classic_fw",
            "sarah_fw": "theorem1",
            "saga_sarah_fw": "theorem3",
            "momentum_fw": "classic_fw",
        }[algorithm]
    if kind == "classic_fw":
        return Schedule.classic_fw(K)
    if kind == "sqrt_k":
        return Schedule.sqrt_k(K)
    if kind == "theorem1":
        return Schedule.theorem1(K, p)
    return Schedule.theorem3(K, b, n)


def _estimator_cfg_for(spec, algorithm, b, p, lam):
    kind = ALGORITHMS[algorithm]
    if kind == "sarah":
        return EstimatorConfig(kind=kind, b=b, p=p)
    if kind == "saga_sarah":
        return EstimatorConfig(kind=kind, b=b, lam=lam)
    return EstimatorConfig(kind=kind, b=b)


def build_solver_configs(spec, n):
    """Resolve defaults and expand the grid into concrete SolverConfigs."""
    b = spec.batch if spec.batch is not None else default_batch(n)
    if not 1 <= b <= n:
        raise SpecError(f"batch size {b} outside [1, n={n}]")
    p = spec.p if spec.p is not None else default_params("sarah", n, b)[0]
    lam = spec.lam if spec.lam is not None else default_params("saga_sarah", n, b)[1]
    if not 0 < p <= 1:
        raise SpecError(f"p={p} outside (0, 1]")
    if not 0 < lam <= 1:
        raise SpecError(f"lambda={lam} outside (0, 1]")

    configs = []
    for alg in spec.algorithms:
        if spec.K is not None:
            K = spec.K
        else:
            cost = expected_sfo_per_iteration(alg, n, b, p)
            K = max(1, ceil(spec.epochs * n / cost))
        gap_every = spec.gap_every
        if gap_every is None:
            gap_every = max(1, ceil(K / 50))
        for seed in spec.seeds:
            configs.append(
                SolverConfig(
                    algorithm=alg,
                    K=K,
                    schedule=_schedule_for(spec, alg, K, n, b, p),
                    estimator_cfg=_estimator_cfg_for(spec, alg, b, p, lam),
                    seed=seed,
                    gap_every=gap_every,
                    record_every=spec.record_every,
                    timing=spec.timing,
                )
            )
    return configs


def _format_float(x):
    return f"{x:.17g}"


def emit_csv(trace, path):
    """Write a trace as CSV; floats carry 17 significant digits."""
    lines = ["k,sfo,lmo,f,gap,wall_ns"]
    for row in trace.rows:
        gap = "" if row.gap is None else _format_float(row.gap)
        lines.append(
            f"{row.k},{row.sfo},{row.lmo},{_format_float(row.f)},{gap},{row.wall_ns}"
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Parse an emitted CSV back into a Trace (rows only, no metadata)."""
    trace = Trace()
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header != "k,sfo,lmo,f,gap,wall_ns":
            raise ValueError(f"unexpected CSV header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            k, sfo, lmo_c, f, gap, wall = line.split(",")
            trace.append(
                TraceRow(
                    k=int(k),
                    sfo=int(sfo),
                    lmo=int(lmo_c),
                    f=float(f),
                    gap=None if gap == "" else float(gap),
                    wall_ns=int(wall),
                )
            )
    return trace


def run_experiment(spec, log=print):
    """Execute the grid described by ``spec``; returns a process exit code."""
    try:
        spec.validate()
    except SpecError as exc:
        log(f"invalid spec: {exc}")
        return EXIT_INVALID_SPEC

    path = Path(spec.dataset_path)
    try:
        text = path.read_bytes()
    except OSError as exc:
        log(f"cannot read dataset {path}: {exc}")
        return EXIT_PARSE_ERROR
    try:
        ds = parse_libsvm(text, d=spec.d_override, name=path.name)
        ds = normalize_labels(ds, spec.loss)
    except (ParseError, ValueError) as exc:
        log(f"cannot parse dataset {path}: {exc}")
        return EXIT_PARSE_ERROR

    obj = Objective(spec.loss, ds)
    cset = ConstraintSet(spec.constraint, spec.radius, dim=ds.d)
    x0 = default_x0(cset)

    try:
        configs = build_solver_configs(spec, ds.n)
    except (SpecError, ValueError) as exc:
        log(f"invalid spec: {exc}")
        return EXIT_INVALID_SPEC

    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def one_run(cfg):
        result = solve(cfg, obj, cset, x0)
        csv_path = out_dir / f"{cfg.algorithm}_seed{cfg.seed}.csv"
        emit_csv(result.trace, csv_path)
        return cfg, result, csv_path

    threads = max(1, int(os.environ.get("SARAH_FW_THREADS", "1")))
    try:
        if threads == 1:
            outcomes = [one_run(cfg) for cfg in configs]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                outcomes = list(pool.map(one_run, configs))
    except NanAbort as exc:
        log(f"aborted: {exc}")
        return EXIT_NAN_ABORT

    summary_path = out_dir / "summary.csv"
    lines = ["algorithm,seed,K,final_f,min_gap,sfo_total,lmo_total,gap_sfo_total,gap_lmo_total,csv"]
    for cfg, result, csv_path in outcomes:
        gaps = result.trace.gap_values()
        min_gap = _format_float(min(gaps)) if gaps else ""
        final_f = obj.loss_full(result.x_final)
        lines.append(
            ",".join(
                [
                    cfg.algorithm,
                    str(cfg.seed),
                    str(cfg.K),
                    _format_float(final_f),
                    min_gap,
                    str(result.sfo_total),
                    str(result.lmo_total),
                    str(result.gap_sfo_total),
                    str(result.gap_lmo_total),
                    csv_path.name,
                ]
            )
        )
        log(
            f"{cfg.algorithm} seed={cfg.seed}: K={cfg.K} f={final_f:.6g} "
            f"sfo={result.sfo_total} lmo={result.lmo_total} -> {csv_path}"
        )
    with open(summary_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    log(f"summary -> {summary_path}")
    return EXIT_OK


def _parse_bool(value):
    return str(value).strip().lower() in ("1", "true", "yes", "on")


def load_config_file(path):
    """Read a ``key = value`` config file into a dict of strings."""
    values = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, value = line.partition(sep)
                break
        else:
            raise SpecError(f"config line {lineno}: expected 'key = value'")
        values[key.strip().lower()] = value.strip()
    return values


_CONFIG_KEYS = {
    "dataset": ("dataset_path", str),
    "loss": ("loss", str),
    "constraint": ("constraint", str),
    "radius": ("radius", float),
    "alg": ("algorithms", lambda s: [a.strip() for a in s.split(",") if a.strip()]),
    "algorithms": ("algorithms", lambda s: [a.strip() for a in s.split(",") if a.strip()]),
    "k": ("K", int),
    "epochs": ("epochs", float),
    "batch": ("batch", int),
    "p": ("p", float),
    "lambda": ("lam", float),
    "schedule": ("schedule", str),
    "seed": ("seeds", lambda s: [int(x) for x in s.split(",") if x.strip()]),
    "seeds": ("seeds", lambda s: [int(x) for x in s.split(",") if x.strip()]),
    "gap_every": ("gap_every", int),
    "record_every": ("record_every", int),
    "out": ("out_dir", str),
    "timing": ("timing", _parse_bool),
    "d": ("d_override", int),
}


def build_spec(config_values, args):
    """Merge config-file values with flag overrides (flags win)."""
    fields = {}
    for key, raw in config_values.items():
        if key not in _CONFIG_KEYS:
            raise SpecError(f"unknown config key {key!r}")
        name, conv = _CONFIG_KEYS[key]
        try:
            fields[name] = conv(raw)
        except ValueError as exc:
            raise SpecError(f"bad value for {key!r}: {exc}") from None

    if args.dataset is not None:
        fields["dataset_path"] = args.dataset
    if args.loss is not None:
        fields["loss"] = args.loss
    if args.alg is not None:
        fields["algorithms"] = [a.strip() for a in args.alg.split(",") if a.strip()]
    if args.radius is not None:
        fields["radius"] = args.radius
    if args.batch is not None:
        fields["batch"] = args.batch
    if args.K is not None:
        fields["K"] = args.K
        fields.pop("epochs", None)
    if args.epochs is not None:
        fields["epochs"] = args.epochs
        fields.pop("K", None)
    if args.seed is not None:
        fields["seeds"] = [int(x) for x in args.seed.split(",") if x.strip()]
    if args.gap_every is not None:
        fields["gap_every"] = args.gap_every
    if args.out is not None:
        fields["out_dir"] = args.out

    if "dataset_path" not in fields:
        raise SpecError("no dataset given (config 'dataset' or --dataset)")
    if "K" not in fields and "epochs" not in fields:
        raise SpecError("either K or epochs is required")
    return ExperimentSpec(**fields)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stochfw",
        description="Projection-free stochastic optimization experiment runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute an experiment grid")
    run.add_argument("--config", help="key = value experiment file")
    run.add_argument("--dataset", help="LibSVM dataset path")
    run.add_argument("--loss", choices=list(LOSS_KINDS))
    run.add_argument("--alg", help="comma-separated algorithm list")
    run.add_argument("--radius", type=float, help="constraint radius")
    run.add_argument("--batch", type=int, help="mini-batch size b")
    run.add_argument("--K", type=int, help="iteration horizon")
    run.add_argument("--epochs", type=float, help="SFO budget in epochs (n SFO each)")
    run.add_argument("--seed", help="comma-separated seed list")
    run.add_argument("--gap-every", dest="gap_every", type=int)
    run.add_argument("--out", help="output directory")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command != "run":  # argparse enforces this; defensive
        return EXIT_INVALID_SPEC
    try:
        config_values = load_config_file(args.config) if args.config else {}
        spec = build_spec(config_values, args)
    except (SpecError, TypeError) as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    return run_experiment(spec)


if __name__ == "__main__":
    sys.exit(main())
