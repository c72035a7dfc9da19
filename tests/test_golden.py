"""Golden CLI reports: every subcommand in both output formats, byte for byte.

The problem set `data/golden/problems.jsonl` covers n = 2, 3, 4, 5, 12, 20
and 60, plus z^100 - c from exact coefficients. Across its documents it uses
p = 1, 2 and inf, all four methods, a conjugate-symmetric start (every
coordinate shares its real part with a partner), the benchmark's batch
document shape, entries that are not plain [re, im] pairs and a document
that sets no option at all. Its runs reach every way a run can stop:
`tol_e`, `tol_step` (after one update), `max_iter`, and an abort when the
first update makes two coordinates coincide.

The reports are a behaviour lock for refactors and speed-ups that must not
change a single output byte. After a deliberate change of output, rebuild
them with `PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import cmath
import contextlib
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import weierstrass.numerics
import weierstrass.operator
import weierstrass.solver
from conftest import compensated_sum
from weierstrass.cli import compare_sor_report, main, parse_problem, solve_report
from weierstrass.solver import _DAMPING, run_sor

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
    docs += [
        # Stops by tol_step after one update.
        {
            "roots": [[1, 0], [-1, 0]],
            "initial": [[2, 0], [-2, 0]],
            "p": "inf",
            "method": "plain",
            "tol_step": 10,
            "tol_e": 0,
        },
        # The first update moves both points to 0: the run aborts at k = 1.
        {"coefficients": [[-2, 0], [0, 0]], "initial": [[2, 0], [1, 0]], "p": 2, "method": "plain"},
        # The shape of the cli-batch benchmark documents: roots, a perturbed
        # start and an integer p, with every other field left at its default.
        {
            "roots": _pairs(
                (1 + 0.03 * (k % 3 - 1))
                * cmath.exp(2j * math.pi * (k + 0.3 + 0.2 * (k % 4 - 1.5)) / 12)
                for k in range(12)
            ),
            "initial": {"perturb_roots": 1e-4},
            "p": 1,
        },
        # Bare-number coefficients, a leading pair, ints beside floats and
        # signed zeros: entries that are not plain [re, im] pairs of numbers.
        {
            "coefficients": [-6, [0, 1.5], 2.25, [-0.0, -1]],
            "leading": [2, -0.0],
            "initial": [[-0.0, 1.9], [1, 0], [0.1, -1.2], [-1.2, -0.0]],
            "p": 2,
        },
        # No option set: p, method, h, max_iter and the tolerances all take
        # the SolverOptions defaults.
        {
            "roots": [[1, 0], [-0.5, 0.9], [-0.5, -0.9]],
            "initial": [[1.1, 0.1], [-0.4, 1], [-0.6, -0.8]],
        },
    ]
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
    # Line by line, byte for byte, through pytest.fail: pytest's own diff of
    # two whole reports takes close to a minute to render. Line i of a JSON
    # report is document i.
    lines = out.split("\n")
    golden = (GOLDEN / f"{name}.out").read_text().split("\n")
    if len(lines) != len(golden):
        pytest.fail(f"{len(lines)} lines, the golden report has {len(golden)}")
    for i, (line, expected) in enumerate(zip(lines, golden)):
        if line != expected:
            pytest.fail(f"line {i} differs\n  got:      {line}\n  expected: {expected}")


# ROADMAP item 20: from Python 3.12 the built-in sum() of floats is
# compensated. Patching a compensated sum into every library module that sums
# floats stands in for 3.12+ here. The text reports keep every byte; the JSON
# reports print the last digits that the summation moves. An explicit
# left-to-right sum in the library makes every case pass, and the xfail
# marker must then go.
ITEM_20 = "ROADMAP item 20: the JSON reports depend on how the built-in sum() adds floats"
SUMMED = [
    pytest.param(
        name,
        argv,
        id=name,
        marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_20)
        if name.endswith("-json")
        else (),
    )
    for name, argv in COMMANDS
    if "radii" not in name
]


@pytest.mark.parametrize("name, argv", SUMMED)
def test_report_is_byte_identical_under_a_compensated_sum(monkeypatch, name, argv):
    for module in (weierstrass.operator, weierstrass.solver, weierstrass.numerics):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    expected_code = json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    code, out = run_command(full_argv(argv))
    lines = out.split("\n")
    golden = (GOLDEN / f"{name}.out").read_text().split("\n")
    differ = [i for i, (line, expected) in enumerate(zip(lines, golden)) if line != expected]
    assert (code, len(lines), differ) == (expected_code, len(golden), [])


def _stop_branch(trace) -> str:
    """Why a run stopped, read from its trace alone."""
    if trace.error is not None:
        return "aborted"
    if not trace.converged:
        return "max_iter"
    # A tol_e stop returns the last recorded iterate; a tol_step stop takes
    # one more update.
    return "tol_e" if trace.steps == trace.records[-1].k else "tol_step"


def test_problems_use_every_mode_and_reach_every_stop():
    # A new mode or a new way to stop must bring a golden document with it.
    problems = [parse_problem(json.loads(line)) for line in PROBLEMS.read_text().splitlines()]
    assert {problem.options.mode for problem in problems} == set(_DAMPING)
    stops = {_stop_branch(run_sor(problem.poly, problem.z0, problem.options)) for problem in problems}
    assert stops == {"tol_e", "tol_step", "max_iter", "aborted"}


def test_stop_reason_agrees_with_the_trace_rule():
    for line in PROBLEMS.read_text().splitlines():
        problem = parse_problem(json.loads(line))
        trace = run_sor(problem.poly, problem.z0, problem.options)
        assert trace.stop_reason == _stop_branch(trace)


def test_reports_carry_the_trace_stop_reason():
    for line in PROBLEMS.read_text().splitlines():
        problem = parse_problem(json.loads(line))
        trace = run_sor(problem.poly, problem.z0, problem.options)
        assert solve_report(problem)[0]["result"]["stop_reason"] == trace.stop_reason
        compared = compare_sor_report(problem)[0]["result"]
        for label, mode in (("wz", "sor_wz"), ("new", "sor_new")):
            run = run_sor(problem.poly, problem.z0, replace(problem.options, mode=mode))
            assert compared[label]["stop_reason"] == run.stop_reason


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
