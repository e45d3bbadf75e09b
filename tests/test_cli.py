import errno
import itertools

import numpy as np
import pytest

from stochfw import cli
from stochfw.cli import (
    ExperimentSpec,
    SpecError,
    build_solver_configs,
    build_spec,
    emit_csv,
    load_config_file,
    main,
    read_csv,
    run_experiment,
)
from stochfw.estimators import ALGORITHMS
from stochfw.metrics import Trace, TraceRow

from conftest import poison_margins, separable_libsvm_text


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "synth.libsvm"
    path.write_text(separable_libsvm_text(60, 5, seed=1))
    return path


def make_trace(rows):
    t = Trace()
    for r in rows:
        t.append(r)
    return t


def test_emit_csv_empty_trace(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(Trace(), path)
    assert path.read_text() == "k,sfo,lmo,f,gap,wall_ns\n"


def test_emit_csv_one_row(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(make_trace([TraceRow(0, 10, 0, 0.5, None, 0)]), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "0,10,0,0.5,,0"


def test_csv_round_trip_exact(tmp_path):
    rows = [
        TraceRow(0, 10, 0, np.pi, None, 0),
        TraceRow(3, 24, 3, 1.0 / 3.0, 2.3e-17, 12345),
        TraceRow(7, 50, 7, 6.02e23, 0.1 + 0.2, 0),
    ]
    path = tmp_path / "t.csv"
    emit_csv(make_trace(rows), path)
    back = read_csv(path)
    assert back.rows == rows


class _FullDisk:
    """A file whose write stores half of a failing text, then fails as a full
    disk does."""

    def __init__(self, fh, fails):
        self.fh, self.fails = fh, fails

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        if not self.fails(text):
            return self.fh.write(text)
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def fail_writes(monkeypatch, fails=lambda text: True):
    """Make the CLI's file writes of the texts ``fails`` picks fail midway."""
    def open_(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        return _FullDisk(fh, fails) if "w" in mode else fh

    monkeypatch.setattr(cli, "open", open_, raising=False)


@pytest.mark.parametrize("old", [None, "old bytes\n"], ids=["new-file", "replaced-file"])
def test_failed_csv_write_leaves_no_file(tmp_path, monkeypatch, old):
    path = tmp_path / "t.csv"
    if old is not None:
        path.write_text(old)
    fail_writes(monkeypatch)
    with pytest.raises(OSError):
        emit_csv(make_trace([TraceRow(0, 10, 0, 0.5, None, 0)]), path)
    # nothing under the final name but its old bytes, and no temp file
    assert [f.name for f in tmp_path.iterdir()] == ([] if old is None else ["t.csv"])
    if old is not None:
        assert path.read_text() == old


def test_failed_summary_write_leaves_no_summary(dataset_file, tmp_path, monkeypatch):
    def grid(out, fails):
        logs = []
        fail_writes(monkeypatch, fails)
        spec = ExperimentSpec(dataset_path=str(dataset_file), radius=10.0,
                              algorithms=["fw", "sarah_fw"], K=5, seeds=[0], out_dir=str(out))
        assert run_experiment(spec, log=logs.append) == 4
        return logs[-1]

    # the summary write fails: the runs' CSVs stay, and nothing else
    out = tmp_path / "summary-fails"
    msg = grid(out, lambda text: text.startswith("algorithm,seed,"))
    assert msg.startswith(f"cannot write {out / 'summary.csv'}: ") and "No space" in msg
    assert sorted(f.name for f in out.iterdir()) == ["fw_seed0.csv", "sarah_fw_seed0.csv"]

    # the second write, sarah_fw's CSV, fails: the grid stops there, with no summary
    writes = itertools.count(1)
    out = tmp_path / "csv-fails"
    msg = grid(out, lambda text: next(writes) == 2)
    assert msg.startswith(f"cannot write {out / 'sarah_fw_seed0.csv'}: ")
    assert sorted(f.name for f in out.iterdir()) == ["fw_seed0.csv"]


def test_expected_sfo_per_iteration_formulas():
    n, b, p = 683, 7, 0.02
    cost = {name: alg.sfo_per_iteration(n, b, p) for name, alg in ALGORITHMS.items()}
    assert cost["fw"] == n
    assert cost["sarah_fw"] == p * n + (1 - p) * 2 * b
    assert cost["saga_sarah_fw"] == 2 * b
    assert cost["momentum_fw"] == b


def test_epochs_to_horizon_conversion(dataset_file):
    n, b = 60, 3
    spec = ExperimentSpec(
        dataset_path=str(dataset_file), algorithms=["sarah_fw"], epochs=50,
        batch=b, seeds=[0],
    )
    spec.validate()
    cfgs = build_solver_configs(spec, n)
    p = 2 * b / (n + 2 * b)
    expect_K = int(np.ceil(50 * n / (p * n + (1 - p) * 2 * b)))
    assert cfgs[0].K == expect_K


def test_row_bound_accepts_exactly_max_rows(dataset_file):
    # two seeds at record_every 4 record rows 0, 4, ... below K and row K
    K = 4 * (cli.MAX_ROWS // 2 - 2) + 1
    spec = ExperimentSpec(dataset_path=str(dataset_file), K=K, record_every=4, seeds=[0, 1])
    spec.validate()  # exactly MAX_ROWS rows
    spec.K = K + 4
    with pytest.raises(cli.SpecError, match="record_every=4"):
        spec.validate()


def test_row_bound_checks_a_horizon_resolved_from_epochs(dataset_file):
    # fw costs n SFO an iteration, so epochs is K: K - 1 + 2 rows
    spec = ExperimentSpec(dataset_path=str(dataset_file), algorithms=["fw"],
                          epochs=float(cli.MAX_ROWS - 1))
    spec.validate()
    assert build_solver_configs(spec, 60)[0].K == cli.MAX_ROWS - 1
    spec.epochs = float(cli.MAX_ROWS)
    with pytest.raises(cli.SpecError, match="record_every=1"):
        build_solver_configs(spec, 60)


def test_run_experiment_grid(dataset_file, tmp_path):
    out = tmp_path / "out"
    spec = ExperimentSpec(
        dataset_path=str(dataset_file), loss="logistic", radius=10.0,
        algorithms=["fw", "sarah_fw", "saga_sarah_fw"], K=30, batch=2,
        seeds=[0], out_dir=str(out),
    )
    logs = []
    assert run_experiment(spec, log=logs.append) == 0
    csvs = sorted(f.name for f in out.iterdir())  # no temp file left behind
    assert csvs == [
        "fw_seed0.csv", "saga_sarah_fw_seed0.csv", "sarah_fw_seed0.csv",
        "summary.csv",
    ]
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 4
    header = summary[0].split(",")
    for line in summary[1:]:
        fields = dict(zip(header, line.split(",")))
        trace = read_csv(out / fields["csv"])
        assert int(fields["sfo_total"]) == trace.rows[-1].sfo
        assert int(fields["lmo_total"]) == int(fields["K"]) == 30


def test_rerun_is_byte_identical(dataset_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        spec = ExperimentSpec(
            dataset_path=str(dataset_file), radius=10.0,
            algorithms=["sarah_fw"], K=40, batch=2, seeds=[3, 4],
            out_dir=str(out),
        )
        assert run_experiment(spec, log=lambda m: None) == 0
        outs.append(out)
    for f in sorted(outs[0].glob("*.csv")):
        assert f.read_bytes() == (outs[1] / f.name).read_bytes()


def test_unwritable_out_dir_exits_4(dataset_file, tmp_path, capsys):
    # a regular file where the output directory's parent should be
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = blocker / "out"
    argv = ["run", "--dataset", str(dataset_file), "--alg", "fw", "--K", "5", "--out", str(out)]
    assert main(argv) == 4
    assert f"cannot write {out}: " in capsys.readouterr().out
    assert blocker.read_text() == "not a directory\n"


def test_threads_variable_changes_nothing(dataset_file, tmp_path, monkeypatch):
    # SARAH_FW_THREADS is not read: an unset, a number and a non-number all
    # give exit 0 and the same bytes
    results = {}
    for threads in (None, "3", "abc"):
        if threads is None:
            monkeypatch.delenv("SARAH_FW_THREADS", raising=False)
        else:
            monkeypatch.setenv("SARAH_FW_THREADS", threads)
        out = tmp_path / f"t{threads}"
        assert main(["run", "--dataset", str(dataset_file), "--alg", "fw,sarah_fw",
                     "--radius", "10", "--batch", "2", "--K", "25", "--seed", "0,1",
                     "--out", str(out)]) == 0
        results[threads] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert results[None] == results["3"] == results["abc"]


def test_missing_dataset_exits_2(tmp_path):
    spec = ExperimentSpec(dataset_path=str(tmp_path / "nope.libsvm"), K=5)
    assert run_experiment(spec, log=lambda m: None) == 2


def test_malformed_dataset_exits_2(tmp_path):
    bad = tmp_path / "bad.libsvm"
    bad.write_text("+1 1:1 1:2\n")
    spec = ExperimentSpec(dataset_path=str(bad), K=5)
    assert run_experiment(spec, log=lambda m: None) == 2


def test_three_class_labels_exit_2(tmp_path):
    bad = tmp_path / "multi.libsvm"
    bad.write_text("1 1:1\n2 1:1\n3 1:1\n")
    spec = ExperimentSpec(dataset_path=str(bad), K=5)
    assert run_experiment(spec, log=lambda m: None) == 2


def test_invalid_spec_exits_1(dataset_file):
    spec = ExperimentSpec(dataset_path=str(dataset_file), K=5,
                          algorithms=["gradient_descent"])
    assert run_experiment(spec, log=lambda m: None) == 1
    spec2 = ExperimentSpec(dataset_path=str(dataset_file))  # neither K nor epochs
    assert run_experiment(spec2, log=lambda m: None) == 1


def test_nan_abort_exits_3(tmp_path):
    # radius * feature overflows the margin to inf, so the misclassified
    # sample's softplus is inf at the first post-step evaluation
    ds = tmp_path / "overflow.libsvm"
    ds.write_text("0 1:1e300\n1 1:1e300\n")
    spec = ExperimentSpec(dataset_path=str(ds), loss="logistic", radius=1e10,
                          K=10, batch=1, seeds=[0], algorithms=["fw"],
                          out_dir=str(tmp_path / "out"))
    assert run_experiment(spec, log=lambda m: None) == 3


def test_abort_in_first_solve_leaves_no_out_dir(tmp_path, capsys):
    # fw's first gradient overflows, so the run stops before its first file
    ds = tmp_path / "overflow.libsvm"
    ds.write_text("+1 1:1.7e308\n-1 1:-1.7e308\n+1 1:1.7e308\n")
    out = tmp_path / "nan_out"
    assert main(["run", "--dataset", str(ds), "--alg", "fw", "--K", "5", "--out", str(out)]) == 3
    assert "non-finite gradient estimate at iteration 0" in capsys.readouterr().out
    assert not out.exists()


def test_nan_gradient_between_recorded_rows_exits_3(tmp_path, dataset_file,
                                                   monkeypatch, capsys):
    # margins turn NaN after fw's init pass and row 0; with record_every = 5
    # the LMO at k=1 sees the estimate before any recorded row does.
    poison_margins(monkeypatch, 2)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"dataset = {dataset_file}\n"
        "alg = fw\n"
        "K = 10\n"
        "seed = 0\n"
        "record_every = 5\n"
        "gap_every = 0\n"
        f"out = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 3
    assert "non-finite gradient estimate at iteration 1" in capsys.readouterr().out


def test_nan_full_gradient_at_gap_row_exits_3(tmp_path, dataset_file, monkeypatch,
                                              capsys):
    # margins turn NaN after sarah's init pass and row 0's loss, so the gap
    # at k=0 is the first to see them
    poison_margins(monkeypatch, 2)
    assert main(["run", "--dataset", str(dataset_file), "--alg", "sarah_fw",
                 "--K", "10", "--gap-every", "1", "--out", str(tmp_path / "out")]) == 3
    assert "non-finite full gradient at iteration 0" in capsys.readouterr().out


def test_non_ascii_dataset_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.libsvm"
    bad.write_bytes(b"+1 1:1\n-1 2:\xe9\n")
    assert main(["run", "--dataset", str(bad), "--K", "5",
                 "--out", str(tmp_path / "out")]) == 2
    assert "line 2: non-ASCII byte 0xe9" in capsys.readouterr().out


def test_config_file_parsing(tmp_path, dataset_file):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# experiment\n"
        f"dataset = {dataset_file}\n"
        "loss = logistic\n"
        "alg = fw, sarah_fw\n"
        "radius = 12.5\n"
        "epochs = 5\n"
        "batch = 2\n"
        "seed = 1, 2\n"
        "out = runs\n"
    )
    values = load_config_file(cfg)
    assert values["radius"] == "12.5"

    class Args:
        dataset = None
        loss = None
        alg = None
        radius = 99.0  # flag override wins
        batch = None
        K = 10         # flag K replaces config epochs
        epochs = None
        seed = None
        gap_every = None
        out = None

    spec = build_spec(values, Args())
    assert spec.radius == 99.0
    assert spec.K == 10 and spec.epochs is None
    assert spec.algorithms == ["fw", "sarah_fw"]
    assert spec.seeds == [1, 2]


@pytest.mark.parametrize(
    "raw, value",
    [("true", True), ("On", True), ("YES", True), ("1", True),
     ("false", False), ("Off", False), ("no", False), (" 0 ", False)],
)
def test_timing_spellings(dataset_file, raw, value):
    class Args:
        dataset = loss = alg = radius = batch = K = epochs = seed = gap_every = out = None

    spec = build_spec({"dataset": str(dataset_file), "k": "5", "timing": raw}, Args())
    assert spec.timing is value


def test_main_end_to_end(dataset_file, tmp_path, capsys):
    out = tmp_path / "cli_out"
    code = main([
        "run", "--dataset", str(dataset_file), "--loss", "logistic",
        "--alg", "fw", "--radius", "10", "--batch", "2", "--K", "15",
        "--seed", "0", "--gap-every", "5", "--out", str(out),
    ])
    assert code == 0
    assert (out / "fw_seed0.csv").exists()
    assert (out / "summary.csv").exists()


def test_main_invalid_spec(tmp_path):
    assert main(["run", "--K", "5"]) == 1  # no dataset anywhere


# a dataset path that names no file in the test's working directory: a
# value checked before the dataset is read exits 1, not 2
MISSING = ["--dataset", "missing.libsvm"]


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--K", "abc"], None),
        (["--K", "5", "--loss", "bad"], None),
        (["--K", "5", "--epochs", "2"], None),
        (["--K", "5", "--no-such-flag", "1"], None),
        (["--K", "5"], "timing = ture\n"),
        (["--K", "5"], "timing = 2\n"),
        (["--K", "5", "--alg", "fw,sarah_fw,fw"], None),
        (["--K", "5", "--seed", "3,4,3"], None),
        (["--K", "5"], "alg = fw,fw\nseed = 3,3\n"),
        (["--K", "5", "--radius", "nan"], None),
        (["--K", "5", "--radius", "inf"], None),
        (["--epochs", "inf"], None),
        (["--K", "5", "--seed", "-1"], None),
        (["--epochs", "1e300"], None),
        (["--K", str(2**53 + 1)], None),
        (["--K", str(2**53)], None),
        (["--epochs", str(2**22), "--alg", "fw"], None),
        ([], None),
        (["--K", "5", *MISSING], "record_every = 0\n"),
        (["--K", "5", "--gap-every", "-1", *MISSING], None),
        (["--K", "5", "--batch", "0", *MISSING], None),
        (["--K", "5", *MISSING], "p = 2\n"),
        (["--K", "5", *MISSING], "lambda = 0\n"),
        (["--K", "5", *MISSING], "d = 0\n"),
        (["--K", "5"], "d = 0\n"),
        (["--K", "5"], "d = -3\n"),
        (["--K", "5"], f"d = {2**31}\n"),
        ([], "k: 5\n"),
        ([], b"K = 5\n# caf\xe9\n"),
        ([], "K = 5\nk = 3\n"),
        (["--K", "5"], "alg = fw\nalgorithms = sarah_fw\n"),
        (["--K", "5"], "Seeds = 1\nseed = 2\n"),
    ],
    ids=["bad-int", "bad-loss", "K-and-epochs", "unknown-flag",
         "config-timing-typo", "config-timing-2", "repeated-alg", "repeated-seed",
         "config-repeats", "radius-nan", "radius-inf", "epochs-inf", "negative-seed",
         "epochs-1e300", "K-above-2^53", "K-2^53-rows", "epochs-past-row-bound",
         "no-horizon", "record-every-0", "gap-every-negative",
         "batch-0", "p-2", "lambda-0", "d-0-missing-dataset", "d-0", "d-negative",
         "d-2^31", "config-colon", "config-not-utf8", "config-K-twice",
         "config-alg-and-algorithms", "config-seeds-and-seed"],
)
def test_command_line_spec_errors_exit_1(dataset_file, tmp_path, capsys, monkeypatch,
                                         flags, config):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    argv = ["run", "--dataset", str(dataset_file), "--out", str(out), *flags]
    if config is not None:
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(config if isinstance(config, bytes) else config.encode())
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "invalid spec:" in captured.out + captured.err
    assert not out.exists()  # rejected before any run wrote output


@pytest.mark.parametrize(
    "config, message",
    [
        (b"K = 5\n\n# comment\nalg = fw # caf\xe9\n", "config line 4: not UTF-8"),
        (b"K = 5\r\n\xff", "config line 2: not UTF-8"),
        (b"\xef\xbb\xbfK = 5\n\xff", "config line 2: not UTF-8"),
        (b"\xef\xbb\xbf\xffK = 5\n", "config line 1: not UTF-8"),
        (b"K = 5\nalg = fw\nepochs = 1\nk = 3\n", "config line 4: 'k' repeats the setting of line 1"),
        (b"algorithms = fw\nALG = sarah_fw\n", "config line 2: 'alg' repeats the setting of line 1"),
    ],
    ids=["not-utf8", "not-utf8-after-crlf", "not-utf8-after-bom", "not-utf8-at-bom",
         "K-twice", "alg-and-algorithms"],
)
def test_config_file_errors_name_the_line(tmp_path, config, message):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(config)
    with pytest.raises(SpecError, match=message):
        load_config_file(cfg)


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, dataset_file):
    # as some editors save UTF-8; the mark is not part of the first key
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfK = 5\nalg = fw\n")
    assert load_config_file(cfg) == {"k": "5", "alg": "fw"}
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(dataset_file), "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert (out / "summary.csv").is_file()


def test_run_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--epochs" in capsys.readouterr().out
