"""README.md's library quick tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs_and_prints_its_six_lines(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    # The comments promise a strict certificate, then a converged run.
    assert lines[0].startswith("True True ") and lines[2].startswith("True ")
