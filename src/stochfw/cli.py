"""Experiment harness: configure runs, execute solves, write CSV traces.

A run grid is the cross product of requested algorithms and seeds over one
dataset, each named once. Each run writes ``<algorithm>_seed<seed>.csv`` with
the schema

    k,sfo,lmo,f,gap,wall_ns

(floats printed with 17 significant digits, gap empty where not evaluated)
plus a ``summary.csv`` with final objective, minimum recorded gap, and
oracle totals per run. Runs with the same spec and seeds are byte-identical
because row timestamps default to 0; pass ``timing = true`` in the config
to stamp real wall times instead (true/false, 1/0, yes/no, on/off in any
case; any other value is an invalid spec). Every file is written to a temp
file in the output directory and renamed into place, so a reader never sees
a half-written file and a failed write leaves none behind.

Configuration is a declarative UTF-8 file of ``key = value`` lines, each split
at its first ``=``, at most one per setting; a line of any other form, a
repeat or a byte that is not UTF-8 is an invalid spec. Command-line flags
override file values, and both go through one table, ``_SETTINGS``. An
``epochs`` request is converted to an iteration horizon K per algorithm
through the expected per-iteration SFO cost in its ``ALGORITHMS`` record, so a
shared budget means a shared x-axis of full-gradient equivalents.

The grid runs on the calling thread, one algorithm after another: ``solve``
runs all of an algorithm's seeds in lockstep, then each run's CSV, summary
line and log line are written. No environment variable changes the work.

Exit codes: 0 success, 1 invalid spec (bad flags or config values, such
as a non-finite radius or epochs, a negative seed, a K above 2^53, a K
that records more than 2^22 trace rows (``MAX_ROWS``, counted over the
seeds at the given record_every), or a batch, p, lambda, gap or record
period or d out of range, all rejected before the dataset is read; a batch
above n or a K resolved from epochs above 2^53 or past the row bound is
rejected once n is known, before any output is written),
2 unreadable/malformed dataset, 3 non-finite objective, gradient estimate
or full gradient, 4 an output file or directory that cannot be written.
The output directory is made at the first write, so a run that stops
before its first file leaves no output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from math import ceil, inf
from pathlib import Path

from .constraints import CONSTRAINT_KINDS, ConstraintSet
from .data import INDEX_LIMIT, ParseError, normalize_labels, parse_libsvm
from .estimators import ALGORITHMS, EstimatorConfig
from .metrics import Trace, TraceRow
from .objectives import LOSS_KINDS, Objective
from .schedules import SCHEDULE_KINDS, default_batch, default_params
from .solver import NanAbort, SolverConfig, default_x0, solve

__all__ = [
    "ExperimentSpec",
    "SpecError",
    "run_experiment",
    "emit_csv",
    "read_csv",
    "main",
]

EXIT_OK = 0
EXIT_INVALID_SPEC = 1
EXIT_PARSE_ERROR = 2
EXIT_NAN_ABORT = 3
EXIT_WRITE_ERROR = 4

# The largest horizon whose iteration counts are exact as floats: the
# step-size rules compute k + 2.0 and ceil(K / 2).
MAX_K = 2**53
# The most trace rows one solve holds in memory until its CSVs are written,
# at about 225 B a row: under 1 GB.
MAX_ROWS = 2**22


class SpecError(ValueError):
    """The experiment request is inconsistent or incomplete."""


@dataclass
class ExperimentSpec:
    """Declarative description of an experiment grid.

    ``p`` and ``lam`` default to the theory-prescribed values for the
    resolved batch size; ``batch`` defaults to ceil(n/100); ``schedule``
    'auto' picks the rule of each algorithm's ``ALGORITHMS`` record.
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
        if not 0 < self.radius < inf:
            raise SpecError("radius must be positive and finite")
        if not self.algorithms:
            raise SpecError("no algorithms requested")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise SpecError(f"unknown algorithm {alg!r}")
        # a run writes <alg>_seed<seed>.csv: a repeat would write one file twice
        _reject_repeats("algorithm", self.algorithms)
        if (self.K is None) == (self.epochs is None):
            raise SpecError("exactly one of K or epochs must be given")
        if self.K is not None and not 1 <= self.K <= MAX_K:
            raise SpecError("K must be in [1, 2^53]")
        if self.epochs is not None and not 0 < self.epochs < inf:
            raise SpecError("epochs must be positive and finite")
        if self.batch is not None and self.batch < 1:
            raise SpecError(f"batch size {self.batch} is not >= 1")
        if self.p is not None and (not 0 < self.p <= 1 or self.p / 2.0 == 0.0):
            raise SpecError(f"p={self.p} outside (0, 1] or halves to 0")
        if self.lam is not None and not 0 < self.lam <= 1:
            raise SpecError(f"lambda={self.lam} outside (0, 1]")
        if self.gap_every is not None and self.gap_every < 0:
            raise SpecError("gap_every must be >= 0")
        if self.record_every < 1:
            raise SpecError("record_every must be >= 1")
        if self.d_override is not None and not 1 <= self.d_override < INDEX_LIMIT:
            raise SpecError(f"d={self.d_override} outside [1, 2^31)")
        if self.schedule != "auto" and self.schedule not in SCHEDULE_KINDS:
            raise SpecError(f"unknown schedule {self.schedule!r}")
        if not self.seeds:
            raise SpecError("no seeds requested")
        _reject_repeats("seed", self.seeds)
        if min(self.seeds) < 0:
            raise SpecError("seeds must be >= 0")
        if self.K is not None:
            _check_rows(self, self.K, f"K={self.K}")


def _check_rows(spec, K, what):
    """Reject a horizon K whose solve would hold more than MAX_ROWS rows:
    rows 0, r, 2r, ... below K and row K, r = record_every, for every seed."""
    rows = ((K - 1) // spec.record_every + 2) * len(spec.seeds)
    if rows > MAX_ROWS:
        raise SpecError(f"{what} records {rows} trace rows, above 2^22; "
                        f"raise record_every={spec.record_every}")


def _reject_repeats(what, values):
    seen = set()
    for value in values:
        if value in seen:
            raise SpecError(f"{what} {value} requested more than once")
        seen.add(value)


def build_solver_configs(spec, n):
    """Resolve defaults and expand the grid into concrete SolverConfigs. Every
    estimator config carries the resolved b and p, which the step-size rule
    named by each SolverConfig reads in ``solve``."""
    b = spec.batch if spec.batch is not None else default_batch(n)
    if not 1 <= b <= n:
        raise SpecError(f"batch size {b} outside [1, n={n}]")
    p = spec.p if spec.p is not None else default_params("sarah", n, b)[0]
    lam = spec.lam if spec.lam is not None else default_params("saga_sarah", n, b)[1]

    configs = []
    for name in spec.algorithms:
        alg = ALGORITHMS[name]
        if spec.K is not None:
            K = spec.K
        else:
            K = spec.epochs * n / alg.sfo_per_iteration(n, b, p)
            if not K <= MAX_K:
                raise SpecError(f"epochs={spec.epochs} gives {name} a K above 2^53")
            K = max(1, ceil(K))
            _check_rows(spec, K, f"epochs={spec.epochs} gives {name} K={K}, which")
        gap_every = spec.gap_every
        if gap_every is None:
            gap_every = max(1, ceil(K / 50))
        schedule = alg.schedule if spec.schedule == "auto" else spec.schedule
        configs.append(
            SolverConfig(
                algorithm=name,
                K=K,
                schedule=schedule,
                estimator_cfg=EstimatorConfig(kind=alg.estimator.kind, b=b, p=p, lam=lam),
                seeds=tuple(spec.seeds),
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
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_atomic(path, text):
    """Write ``text`` to ``path`` through a temp file in the same directory and
    a rename, so ``path`` holds either its old bytes or all of ``text``, and
    a failed write leaves no file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_csv(path):
    """Parse an emitted CSV back into a Trace."""
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
    del text  # nothing reads the raw bytes after the parse

    obj = Objective(spec.loss, ds)
    cset = ConstraintSet(spec.constraint, spec.radius, dim=ds.d)
    x0 = default_x0(cset)

    try:
        configs = build_solver_configs(spec, ds.n)
    except (SpecError, ValueError) as exc:
        log(f"invalid spec: {exc}")
        return EXIT_INVALID_SPEC

    out_dir = Path(spec.out_dir)
    summary_path = out_dir / "summary.csv"
    lines = ["algorithm,seed,K,final_f,min_gap,sfo_total,lmo_total,gap_sfo_total,gap_lmo_total,csv"]
    target = out_dir  # the path the next write creates, named if it fails
    try:
        for cfg in configs:
            for result in solve(cfg, obj, cset, x0).runs:
                if target is out_dir:  # made at the first write, not before a solve
                    out_dir.mkdir(parents=True, exist_ok=True)
                target = csv_path = out_dir / f"{cfg.algorithm}_seed{result.seed}.csv"
                emit_csv(result.trace, csv_path)
                gaps = result.trace.gap_values()
                min_gap = _format_float(min(gaps)) if gaps else ""
                final_f = result.trace.rows[-1].f  # solve records row K at x_final
                lines.append(
                    ",".join(
                        [
                            cfg.algorithm,
                            str(result.seed),
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
                    f"{cfg.algorithm} seed={result.seed}: K={cfg.K} f={final_f:.6g} "
                    f"sfo={result.sfo_total} lmo={result.lmo_total} -> {csv_path}"
                )
        target = summary_path
        _write_atomic(summary_path, "\n".join(lines) + "\n")
    except NanAbort as exc:
        log(f"aborted: {exc}")
        return EXIT_NAN_ABORT
    except OSError as exc:
        log(f"cannot write {target}: {exc}")
        return EXIT_WRITE_ERROR
    log(f"summary -> {summary_path}")
    return EXIT_OK


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _parse_bool(value):
    key = str(value).strip().lower()
    if key not in _BOOLS:
        raise ValueError(f"{value!r} is not one of {', '.join(_BOOLS)}")
    return _BOOLS[key]


def load_config_file(path):
    """Read a UTF-8 ``key = value`` config file into a dict of strings; a
    leading byte-order mark, as some editors write, is dropped."""
    values, first_line = {}, {}
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # the line of the first bad byte
        # exc.object holds the bytes after the mark, and exc.start counts from there
        lineno = len((exc.object[:exc.start].decode("utf-8") + "x").splitlines())
        raise SpecError(f"config line {lineno}: not UTF-8") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SpecError(f"config line {lineno}: expected 'key = value'")
        key = key.strip().lower()
        # alg and algorithms name one setting, as do seed and seeds
        first = first_line.setdefault(_KEYS.get(key, (key,))[0], lineno)
        if first != lineno:
            raise SpecError(f"config line {lineno}: {key!r} repeats the setting of line {first}")
        values[key] = value.strip()
    return values


def _list_of(conv):
    return lambda s: [conv(x) for x in map(str.strip, s.split(",")) if x]


# setting -> (ExperimentSpec field, converter, help of its ``stochfw run`` flag or None):
# the config key is the lower-cased name, the flags are the rows with help, in order
_SETTINGS = {
    "dataset": ("dataset_path", str, "LibSVM dataset path"),
    "loss": ("loss", str, "logistic or nlls"),
    "constraint": ("constraint", str, None),
    "alg": ("algorithms", _list_of(str), "comma-separated algorithm list"),
    "algorithms": ("algorithms", _list_of(str), None),
    "radius": ("radius", float, "constraint radius"),
    "batch": ("batch", int, "mini-batch size b"),
    "K": ("K", int, "iteration horizon"),
    "epochs": ("epochs", float, "SFO budget in epochs (n SFO each)"),
    "p": ("p", float, None),
    "lambda": ("lam", float, None),
    "schedule": ("schedule", str, None),
    "seed": ("seeds", _list_of(int), "comma-separated seed list"),
    "seeds": ("seeds", _list_of(int), None),
    "gap_every": ("gap_every", int, "Frank-Wolfe gap period; 0 disables"),
    "record_every": ("record_every", int, None),
    "out": ("out_dir", str, "output directory"),
    "timing": ("timing", _parse_bool, None),
    "d": ("d_override", int, None),
}
_KEYS = {name.lower(): setting for name, setting in _SETTINGS.items()}
_FLAGS = {name: help_text for name, (*_, help_text) in _SETTINGS.items() if help_text}


def build_spec(config_values, args):
    """Merge config-file values with flag overrides (flags win).

    A ``--K`` or ``--epochs`` flag replaces both horizon keys of the file.
    """
    flags = {name.lower(): getattr(args, name) for name in _FLAGS}
    flags = {key: raw for key, raw in flags.items() if raw is not None}
    if {"k", "epochs"} & flags.keys():
        config_values = {
            key: raw for key, raw in config_values.items() if key not in ("k", "epochs")
        }

    fields = {}
    for key, raw in [*config_values.items(), *flags.items()]:
        if key not in _KEYS:
            raise SpecError(f"unknown config key {key!r}")
        name, conv, _ = _KEYS[key]
        try:
            fields[name] = conv(raw)
        except ValueError as exc:
            raise SpecError(f"bad value for {key!r}: {exc}") from None

    if "dataset_path" not in fields:
        raise SpecError("no dataset given (config 'dataset' or --dataset)")
    return ExperimentSpec(**fields)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad command line as a SpecError."""

    def error(self, message):
        raise SpecError(message)


def _build_parser():
    parser = _Parser(
        prog="stochfw",
        description="Projection-free stochastic optimization experiment runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute an experiment grid")
    run.add_argument("--config", help="key = value experiment file")
    for name, help_text in _FLAGS.items():
        run.add_argument("--" + name.replace("_", "-"), dest=name, help=help_text)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        config_values = load_config_file(args.config) if args.config else {}
        spec = build_spec(config_values, args)
    except SpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    return run_experiment(spec)


if __name__ == "__main__":
    sys.exit(main())
