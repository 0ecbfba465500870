"""End-to-end CLI tests via subprocess: exit codes, output contract."""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hawkpair import cli
from hawkpair import sweep as sweep_module
from hawkpair.closed_form import ConvergenceError
from hawkpair.sweep import CSV_HEADER, NumericCapError, SweepPointError


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hawkpair.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


# ------------------------------------------------------------------- exit 0


def test_point_by_r():
    res = run_cli("point", "--r", "0.3")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "3.00000000000e-01"


def test_point_by_mass_omega():
    res = run_cli("point", "--mass", "0.05", "--omega", "1.0", "--methods", "closed")
    assert res.returncode == 0
    assert res.stdout.startswith(CSV_HEADER)


def test_readme_mass_omega_example_has_numeric_columns():
    # resolves cutoff 20: within the oracle cap, so both method families run
    res = run_cli("point", "--mass", "0.05", "--omega", "1.0")
    assert res.returncode == 0
    cells = dict(zip(CSV_HEADER.split(","), res.stdout.strip().split("\n")[1].split(",")))
    assert cells["n_max"] == "20"
    assert cells["e_n_num"] != "" and cells["i_num"] != ""


def test_point_json_format():
    res = run_cli("point", "--r", "0.3", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert len(payload) == 1
    assert payload[0]["r_a"] == 0.3
    assert payload[0]["i_num"] is not None


def test_point_closed_only_large_r():
    # numeric would blow the cap; restricting methods keeps it runnable
    res = run_cli("point", "--r", "3.0", "--methods", "closed")
    assert res.returncode == 0
    cells = dict(zip(CSV_HEADER.split(","), res.stdout.strip().split("\n")[1].split(",")))
    assert cells["e_n_num"] == ""
    assert float(cells["e_n_block00"]) < 0.01


def test_sweep_to_file_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("sweep", "--r-min", "0", "--r-max", "0.4", "--steps", "5")
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().strip().split("\n")) == 6


def test_sweep_explicit_nmax():
    res = run_cli("sweep", "--r-min", "0", "--r-max", "1", "--steps", "3", "--nmax", "8", "--methods", "closed")
    assert res.returncode == 0
    for line in res.stdout.strip().split("\n")[1:]:
        assert line.split(",")[2] == "8"


def test_compare_reports_differences():
    res = run_cli("compare", "--r", "0.2")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert set(payload) == {"n_max", "diff_e_n", "diff_s_a", "diff_s_ab", "diff_i", "warnings"}
    # exact PT negativity sits ~0.11 below the single-block value at r = 0.2
    assert 0.05 < payload["diff_e_n"] < 0.2
    assert any("per-block" in w for w in payload["warnings"])


def test_compare_respects_explicit_nmax_cap():
    # an explicit cutoff above the numeric oracle cap still refuses to run
    res = run_cli("compare", "--r", "1.0", "--nmax", "201")
    assert res.returncode == 3
    assert "oracle cap" in res.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("point", "--r", "0.3", "--format", "csv"),
        ("point", "--r", "0.3", "--format", "json"),
        ("sweep", "--r-min", "0", "--r-max", "0.4", "--steps", "3", "--format", "csv"),
        ("sweep", "--r-min", "0", "--r-max", "0.4", "--steps", "3", "--format", "json"),
        ("compare", "--r", "0.2"),
    ],
    ids=["point-csv", "point-json", "sweep-csv", "sweep-json", "compare"],
)
def test_stdout_and_out_file_are_the_same_bytes(tmp_path, args):
    path = tmp_path / "out"
    command = [sys.executable, "-m", "hawkpair.cli", *args]
    to_stdout = subprocess.run(command, capture_output=True, timeout=300)
    to_file = subprocess.run([*command, "--out", str(path)], capture_output=True, timeout=300)
    assert to_stdout.returncode == to_file.returncode == 0
    assert to_file.stdout == b""
    assert to_stdout.stdout == path.read_bytes()


# ------------------------------------------------------------------- exit 2


@pytest.mark.parametrize(
    "args",
    [
        ("point",),  # neither --r nor --mass/--omega
        ("point", "--r", "0.5", "--mass", "0.1"),  # both selectors
        ("point", "--r", "0.5", "--methods", "bogus"),
        ("point", "--r", "-1.0"),
        ("sweep", "--r-min", "1", "--r-max", "0", "--steps", "3"),
        ("sweep", "--r-min", "0", "--r-max", "1", "--steps", "1"),
        ("nosuchcommand",),
        ("point", "--r", "0.5", "--nmax", "8", "--tail-tol", "1e-8"),  # mutually exclusive
        ("point", "--r", "0.3", "--omega-prime", "5"),  # --omega-prime needs --mass/--omega
        ("point", "--mass", "0.05", "--omega", "1.0", "--omega-prime", "0"),  # omega' must be positive
        ("point", "--r", "1000", "--methods", "closed"),  # cosh r overflows a float
        ("point", "--r", "800", "--nmax", "5"),
        ("sweep", "--r-min", "0", "--r-max", "1", "--steps", "3", "--methods", "closed,bogus"),
        ("point", "--r", "0.5", "--methods", ","),  # no method named
        ("compare", "--r", "0.3", "--warn-threshold", "nan"),  # would switch the gap report off
        ("compare", "--r", "0.3", "--warn-threshold", "-1"),  # would flag every measure
        ("sweep", "--r-min", "0", "--r-max", "inf", "--steps", "3"),
        ("sweep", "--r-min", "0", "--r-max", "1", "--steps", "3", "--omega-ratio", "nan"),
        ("sweep", "--r-min", "0", "--r-max", "1", "--steps", "3", "--omega-ratio", "inf"),
        ("point", "--mass", "1e-300", "--omega", "1e-300", "--methods", "closed"),  # r = inf
    ],
)
def test_invalid_arguments_exit_2(args):
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stderr != ""
    assert "Traceback" not in res.stderr


# ------------------------------------------------------------------- exit 3


def test_cutoff_cap_exit_3():
    res = run_cli("point", "--r", "7.0", "--methods", "closed")
    assert res.returncode == 3
    assert "cap" in res.stderr


def test_saturated_squeezing_exit_3():
    # tanh 20 == 1.0 in floating point: no cutoff can meet the tail tolerance
    res = run_cli("point", "--r", "20", "--methods", "closed")
    assert res.returncode == 3
    assert "rounds to 1" in res.stderr
    assert "Traceback" not in res.stderr


def test_numeric_cap_exit_3():
    res = run_cli("point", "--r", "2.0")  # resolved cutoff 395 > numeric cap 200
    assert res.returncode == 3
    assert "oracle cap" in res.stderr


@pytest.mark.parametrize(
    "error,code",
    [
        (ConvergenceError("stubbed: no cutoff"), 3),
        (NumericCapError("stubbed: above the oracle cap"), 3),
        (ValueError("stubbed: bad value"), 2),
        (OSError("stubbed: disk gone"), 4),
    ],
)
def test_sweep_point_failure_keeps_exit_code_of_cause(monkeypatch, capsys, error, code):
    # a failed sweep point is reported with its r and exits as its cause would
    def failing_point(**kwargs):
        raise error

    monkeypatch.setattr(sweep_module, "run_point", failing_point)
    assert cli.main(["sweep", "--r-min", "0.1", "--r-max", "0.2", "--steps", "2", "--methods", "closed"]) == code
    err = capsys.readouterr().err
    assert "sweep failed at r = 0.1" in err and "stubbed" in err


def test_sweep_point_failure_with_unmapped_cause_propagates(monkeypatch):
    def failing_point(**kwargs):
        raise KeyError("stubbed")

    monkeypatch.setattr(sweep_module, "run_point", failing_point)
    with pytest.raises(SweepPointError) as info:
        cli.main(["sweep", "--r-min", "0.1", "--r-max", "0.2", "--steps", "2", "--methods", "closed"])
    assert isinstance(info.value.__cause__, KeyError)


# ------------------------------------------------------------------- exit 4


def test_unwritable_output_exit_4(tmp_path):
    res = run_cli("point", "--r", "0.3", "--out", str(tmp_path / "missing" / "x.csv"))
    assert res.returncode == 4
    assert "failed to write" in res.stderr


# ------------------------------------------------------------------- presets


def test_fig_presets_help(tmp_path):
    # presets take only output flags; full runs live in the acceptance suite
    for name in ("fig2", "fig3"):
        res = run_cli(name, "--help")
        assert res.returncode == 0
        assert "--out" in res.stdout
        assert run_cli(name, "--r-min", "0").returncode == 2


# ------------------------------------------------------------ console script

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_console_script(name):
    """Return the `module:attr` spec that pyproject.toml declares for `name`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_console_entry_point(tmp_path):
    # Checks the entry point this checkout declares, through a launcher of the
    # kind pip writes on install, so no install is needed.
    module, _, attr = _declared_console_script("hawkpair").partition(":")
    assert callable(getattr(importlib.import_module(module), attr))

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "hawkpair"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)
    env = {**os.environ, "PATH": os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")])}

    def run(*args):
        return subprocess.run(["hawkpair", *args], capture_output=True, text=True, timeout=120, env=env)

    res = run("point", "--r", "0.2")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith(CSV_HEADER)
    # main()'s return value must reach the shell as the process exit code
    res = run("point")
    assert res.returncode == 2
    assert res.stderr != ""


@pytest.mark.skipif(shutil.which("hawkpair") is None, reason="hawkpair not installed")
def test_installed_console_script():
    res = subprocess.run(["hawkpair", "point", "--r", "0.2"], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith(CSV_HEADER)
