"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    # the values the example's comments give
    assert [value[:6] for value in capsys.readouterr().out.split()] == ["0.4199", "1.8495", "0.6110", "0.5950"]
