"""Golden `--help` text: the top-level parser and every subcommand, byte for byte.

argparse wraps help to the terminal width it reads from COLUMNS, so every
capture fixes COLUMNS at 80. Its layout also differs between Python minor
versions; the files were recorded with CPython 3.11. After a deliberate change
of the help text, rebuild them with `PYTHONPATH=src python tests/test_cli_help.py`
and review the diff.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from weierstrass.cli import main

HELP = Path(__file__).parent / "data" / "golden" / "help"

#: (name, argv) for every help page the CLI prints.
PAGES = [("weierstrass", ["--help"])] + [
    (command, [command, "--help"]) for command in ("solve", "certify", "compare-sor", "radii")
]


def capture(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("name, argv", PAGES, ids=[name for name, _ in PAGES])
def test_help_is_byte_identical(name, argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert capture(argv) == (HELP / f"{name}.txt").read_text()


def regenerate() -> None:
    os.environ["COLUMNS"] = "80"
    HELP.mkdir(parents=True, exist_ok=True)
    for name, argv in PAGES:
        (HELP / f"{name}.txt").write_text(capture(argv))


if __name__ == "__main__":
    regenerate()
