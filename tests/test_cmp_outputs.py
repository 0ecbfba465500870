"""Tests for tools/cmp_outputs.py, which compares the CLI outputs of two
checkouts: it passes a checkout against itself, catches a changed byte and
reports a moved JSON value in ulps."""

import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
QUICK_CALL = ("point", "--r", "0.3", "--nmax", "8", "--format", "json")


def load_tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("cmp_outputs", ROOT / "tools" / "cmp_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "CALLS", (QUICK_CALL,))
    return tool


def compare(tool, monkeypatch, parent, change) -> int:
    monkeypatch.setattr(sys, "argv", ["cmp_outputs.py", str(parent), str(change)])
    return tool.main()


def test_same_checkout_compares_equal(monkeypatch, capsys):
    tool = load_tool(monkeypatch)
    assert compare(tool, monkeypatch, ROOT, ROOT) == 0
    assert capsys.readouterr().out.endswith("0 of 1 calls differ\n")


def test_changed_json_indent_is_caught(monkeypatch, capsys, tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "hawkpair" / "cli.py"
    source = cli.read_text()
    assert source.count("indent=2") == 1
    cli.write_text(source.replace("indent=2", "indent=3"))
    tool = load_tool(monkeypatch)
    assert compare(tool, monkeypatch, ROOT, tmp_path) == 1
    out = capsys.readouterr().out
    assert "DIFFERS in stdout" in out and out.endswith("1 of 1 calls differ\n")


def test_moved_json_value_is_reported_in_ulps(monkeypatch, capsys, tmp_path):
    # the copy's e_n_block00 is one ulp above the checkout's; nothing else moves
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    closed_form = tmp_path / "src" / "hawkpair" / "closed_form.py"
    source = closed_form.read_text()
    value = "return 1.0 / (sq_a.cosh_r * sq_b.cosh_r)"
    assert source.count(value) == 1
    closed_form.write_text(source.replace(value, f"return math.nextafter({value[7:]}, math.inf)"))
    tool = load_tool(monkeypatch)
    assert compare(tool, monkeypatch, ROOT, tmp_path) == 1
    out = capsys.readouterr().out
    assert "DIFFERS in stdout" in out
    assert "\n    e_n_block00: 1 moved, at most 1 ulp (1.2" in out
    assert out.count("moved") == 1 and out.endswith("1 of 1 calls differ\n")
