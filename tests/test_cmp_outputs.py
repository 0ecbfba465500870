"""Tests for tools/cmp_outputs.py, which compares the CLI outputs of two
checkouts: it passes a checkout against itself and catches a changed byte."""

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
    sweep = tmp_path / "src" / "hawkpair" / "sweep.py"
    source = sweep.read_text()
    assert source.count("indent=2") == 1
    sweep.write_text(source.replace("indent=2", "indent=3"))
    tool = load_tool(monkeypatch)
    assert compare(tool, monkeypatch, ROOT, tmp_path) == 1
    out = capsys.readouterr().out
    assert "DIFFERS in stdout" in out and out.endswith("1 of 1 calls differ\n")
