"""Golden CLI reports: every subcommand in both output formats, byte for byte.

The problem set `data/golden/problems.jsonl` covers n = 2, 5, 20 and 60, plus
z^100 - c from exact coefficients. Across its documents it uses p = 1, 2 and
inf, all four methods, a conjugate-symmetric start (every coordinate shares
its real part with a partner) and a run that stops at `max_iter`.

The reports are a behaviour lock for refactors and speed-ups that must not
change a single output byte. After a deliberate change of output, rebuild
them with `PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import cmath
import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from weierstrass.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
PROBLEMS = GOLDEN / "problems.jsonl"

#: (name, argv); the problem file path is appended to every argv but radii's.
COMMANDS = [
    (f"{command}-{fmt}", ["--output", fmt, command])
    for command in ("solve", "certify", "compare-sor")
    for fmt in ("json", "text")
] + [
    (f"radii-n{n}-p{p}-{fmt}", ["--output", fmt, "radii", "--n", str(n), "--p", p])
    for n, p in ((2, "inf"), (5, "1"), (20, "2"), (100, "inf"))
    for fmt in ("json", "text")
]


def _pairs(zs):
    return [[z.real, z.imag] for z in zs]


def build_problems() -> list[dict]:
    """The fixed problem set; its points are written out in full, so the
    file, not this function, is the reference."""
    docs = [
        {"roots": [[1, 0], [-1, 0]], "initial": [[2, 0], [-2, 0]], "p": "inf", "method": "plain"},
        {
            "roots": [[0.9, 0.1], [-0.4, 0.7], [-0.6, -0.5], [0.2, -0.8], [0.05, 0.02]],
            "initial": [[0.93, 0.12], [-0.42, 0.73], [-0.58, -0.52], [0.21, -0.77], [0.07, 0.0]],
            "p": 1,
            "method": "sor_wz",
        },
        {
            "roots": _pairs(
                0.8 * cmath.exp(2j * math.pi * (k + 0.25) / 20) * (1 + 0.05 * (k % 3)) for k in range(20)
            ),
            "initial": {"perturb_roots": 1e-3},
            "p": 2,
            "method": "sor_new",
        },
        {
            "coefficients": [[-0.3, 0.4]] + [[0, 0]] * 59,
            "initial": _pairs(
                0.97 * cmath.exp(2j * math.pi * (k + 0.1) / 60) for k in range(60)
            ),
            "p": 1,
            "method": "sor_fixed",
            "h": 0.9,
        },
        {
            "roots": [[1, 2], [1, -2], [-1, 1], [-1, -1], [0.5, 0]],
            "initial": [[1.1, 2.1], [1.1, -2.1], [-0.9, 1.2], [-0.9, -1.2], [0.4, 0]],
            "p": 2,
            "method": "plain",
        },
        {
            "roots": [[1, 0], [-1, 0]],
            "initial": [[100, 0], [-100, 0]],
            "p": "inf",
            "method": "plain",
            "max_iter": 3,
        },
    ]
    n, phi = 100, 0.137
    spacing = 2 * math.sin(math.pi / n)
    roots = [cmath.exp(2j * math.pi * (phi + k) / n) for k in range(n)]
    docs.append(
        {
            "coefficients": _pairs([-cmath.exp(2j * math.pi * phi)] + [0j] * (n - 1)),
            "initial": _pairs(
                r + 0.3 * spacing * cmath.exp(2j * math.pi * ((0.618034 * k) % 1))
                for k, r in enumerate(roots)
            ),
            "p": "inf",
            "method": "plain",
        }
    )
    return docs


def run_command(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def full_argv(argv: list[str]) -> list[str]:
    return argv if "radii" in argv else argv + [str(PROBLEMS)]


@pytest.mark.parametrize("name, argv", COMMANDS, ids=[name for name, _ in COMMANDS])
def test_report_is_byte_identical(name, argv):
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out = run_command(full_argv(argv))
    assert code == expected_codes[name]
    assert out == (GOLDEN / f"{name}.out").read_text()


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    PROBLEMS.write_text("".join(json.dumps(doc) + "\n" for doc in build_problems()))
    codes = {}
    for name, argv in COMMANDS:
        codes[name], out = run_command(full_argv(argv))
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
