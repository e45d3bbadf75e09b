"""What a script sees of ``stochfw run`` when it fails: each case runs
``python -m stochfw.cli run`` in a fresh interpreter on this checkout's src,
as the installed console script would run, and checks its exit code, one
failure line with that code's prefix on standard error alone, no traceback
and no output directory. The CI step "Installed console script" makes the
same checks against an installed package."""

import pytest

from conftest import run_process

_TINY = b"+1 1:1 2:0.5\n-1 1:-1\n+1 2:2\n"

# case: (files written beside the tiny dataset, arguments after the dataset,
# exit code, prefix of the failure line)
FAILURES = {
    "malformed token": ({"data.libsvm": b"+1 1:2:3\n-1 1:1\n"}, ["--K", "5"], 2,
                        "cannot parse dataset data.libsvm: line 1:"),
    "batch above n": ({}, ["--batch", "4", "--K", "5"], 1, "invalid spec:"),
    "epochs 1e300": ({}, ["--epochs", "1e300"], 1, "invalid spec:"),
    "config not UTF-8": ({"run.cfg": b"K = 5\n# caf\xe9\n"}, ["--config", "run.cfg"], 1,
                         "invalid spec: config line 2:"),
    "overflow": ({"data.libsvm": b"+1 1:1.7e308\n-1 1:-1.7e308\n+1 1:1.7e308\n"},
                 ["--alg", "fw", "--K", "5"], 3, "aborted:"),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_a_failed_run_exits_with_one_line_on_stderr(tmp_path, case):
    files, args, code, prefix = FAILURES[case]
    for name, data in {"data.libsvm": _TINY, **files}.items():
        (tmp_path / name).write_bytes(data)
    proc = run_process("-m", "stochfw.cli", "run", "--dataset", "data.libsvm", *args,
                       "--out", "out", cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(prefix), proc.stderr
    assert "Traceback" not in proc.stderr
    assert prefix.split(":")[0] not in proc.stdout
    assert not (tmp_path / "out").exists()
