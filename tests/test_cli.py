import cmath
import functools
import json
import math
import runpy
import sys
from pathlib import Path

import pytest

import weierstrass.cli as cli
from weierstrass.cli import _emit, _encode, main, parse_problem
from weierstrass.errors import ParseError
from weierstrass.solver import SolverOptions, run_sor

WALKTHROUGH = {
    "roots": [[1, 0], [-1, 0]],
    "initial": [[2, 0], [-2, 0]],
    "p": "inf",
    "method": "plain",
}


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_walkthrough(tmp_path, capsys):
    path = write_problem(tmp_path, WALKTHROUGH)
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"input", "certificate", "trace", "result"}
    assert report["certificate"]["e0"] == pytest.approx(0.1875)
    assert report["certificate"]["satisfied"] is True
    assert report["trace"]["records"][0]["step_norm"] == pytest.approx(0.75)
    assert report["result"]["converged"] is True
    roots = [complex(re, im) for re, im in report["result"]["roots"]]
    assert sorted(z.real for z in roots) == pytest.approx([-1.0, 1.0], abs=1e-9)


def test_solve_perturbed_roots(tmp_path, capsys):
    doc = {"roots": [[1, 0], [2, 0]], "initial": {"perturb_roots": 1e-3}, "p": 2}
    path = write_problem(tmp_path, doc)
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["converged"] is True
    assert report["result"]["iterations"] <= 6


def test_solve_reports_nonconvergence(tmp_path, capsys):
    doc = dict(WALKTHROUGH, initial=[[100, 0], [-100, 0]], max_iter=3)
    path = write_problem(tmp_path, doc)
    code, out, _ = run_cli(capsys, "solve", path)
    assert code == 2
    assert json.loads(out)["result"]["converged"] is False


@pytest.mark.parametrize("command", ["certify", "solve", "compare-sor"])
def test_overflowing_differences_are_an_input_error(tmp_path, capsys, command):
    # Every point is finite, but |z0 - z1| is beyond the double range.
    doc = {
        "coefficients": [[0.5, 0], [0.5, 0], [0.5, 0]],
        "initial": [[1.5e308, 0], [1, 1.5e308], [0.5, 0]],
    }
    code, out, err = run_cli(capsys, command, write_problem(tmp_path, doc))
    assert (code, out) == (1, "")
    assert err == "error: absolute value too large\n"


def test_overflowing_later_iterate_is_an_abort_not_an_input_error(tmp_path, capsys):
    # z0 is fine; the first update makes a difference overflow. The run is
    # recorded as aborted, and the next document of the batch still runs.
    overflow = {"coefficients": [[1.3e300, 0], [0, 0]], "initial": [[0, 0], [1e-8, 1e-8]], "method": "plain"}
    path = tmp_path / "batch.jsonl"
    path.write_text(json.dumps(overflow) + "\n" + json.dumps(WALKTHROUGH) + "\n")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, err) == (2, "")
    aborted, solved = [json.loads(line) for line in out.splitlines()]
    assert aborted["trace"]["error"] == "aborted at k = 1: absolute value too large"
    assert aborted["result"]["iterations"] == 0
    assert solved["result"]["converged"] is True


@pytest.mark.parametrize("command, method", [("compare-sor", "plain"), ("solve", "sor_wz"), ("solve", "sor_new")])
def test_damping_that_rounds_to_zero_is_an_input_error(tmp_path, capsys, command, method):
    # sum |W_i| at z0 overflows to inf, so the damped factor would be 0.
    doc = {"coefficients": [[1.3e300, 0], [0, 0]], "initial": [[0, 0], [1e-8, 1e-8]], "method": method}
    code, out, err = run_cli(capsys, command, write_problem(tmp_path, doc))
    assert (code, out) == (1, "")
    assert err.startswith("error: damping h = ")
    assert err.endswith(" / inf is 0, outside (0, 1]\n")
    assert err.count("\n") == 1


def test_malformed_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json\n")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 1
    assert out == ""
    assert "error" in err


def test_missing_file_is_an_input_error(tmp_path, capsys):
    path = str(tmp_path / "absent.jsonl")
    code, out, err = run_cli(capsys, "solve", path)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {path}: ")


def test_blank_lines_between_documents_are_skipped(tmp_path, capsys):
    path = tmp_path / "batch.jsonl"
    path.write_text(json.dumps(WALKTHROUGH) + "\n\n   \n\t\n" + json.dumps(WALKTHROUGH) + "\n")
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert len(out.splitlines()) == 2


def test_whitespace_only_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "blank.jsonl"
    path.write_text("  \n\n\t \n")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: no JSON documents found\n"


def test_decode_error_names_the_line_where_decoding_failed(tmp_path, capsys):
    path = tmp_path / "pretty.json"
    path.write_text(
        '{\n  "roots": [[1, 0], [-1, 0]],\n  "method": plain,\n  "initial": [[2, 0], [-2, 0]]\n}\n'
    )
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}:3: invalid JSON: Expecting value: line 3 column 13 ")


def test_decode_error_in_a_later_line_keeps_its_line_number(tmp_path, capsys):
    path = tmp_path / "batch.jsonl"
    path.write_text(json.dumps(WALKTHROUGH) + "\n" + '{"p": inf}\n')
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}:2: invalid JSON: Expecting value: line 2 column 7 ")


def test_deeply_nested_document_is_an_input_error(tmp_path, capsys):
    # The C decoder raises RecursionError at about 1,000 levels of nesting.
    doc = dict(WALKTHROUGH, roots="@")
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc).replace('"@"', "[" * 2000 + "]" * 2000) + "\n")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("roots", [[1, 0], "@"], "roots[1]: expected a number or [re, im] pair"),
        ("initial", [[1, 0], "@"], "initial[1]: expected a number or [re, im] pair"),
        ("initial", {"perturb_roots": "@"}, '"perturb_roots" must be a positive number'),
        ("initial", [[1, 0], "@NaN"], "initial[1][0][0][0]"),
        ("initial", {"a": "{"}, '"initial" object form must be'),
    ],
    ids=["roots-entry", "initial-entry", "perturb", "nan-at-the-bottom", "objects"],
)
def test_nesting_the_decoder_accepts_is_an_input_error(tmp_path, capsys, field, value, message):
    # 700 levels decode, and the validation walk must take them without a
    # RecursionError: one frame per level.
    deep = "[" * 700 + "]" * 700
    text = json.dumps(dict(WALKTHROUGH, **{field: value}))
    text = text.replace('"@NaN"', deep.replace("[]", "[NaN]")).replace('"@"', deep)
    text = text.replace('"{"', '{"a": ' * 700 + "1" + "}" * 700)
    path = tmp_path / "deep.json"
    path.write_text(text + "\n")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"initial": [[1, 0], [2, 0]]},  # no polynomial
        {"roots": [[1, 0], [2, 0]], "coefficients": [[1, 0], [2, 0]], "initial": [[0, 0], [3, 0]]},
        {"roots": [[1, 0], [2, 0]]},  # no initial
        {"roots": [[1, 0], [2, 0]], "initial": [[1, 0]]},  # wrong length
        {"coefficients": [[-1, 0], [0, 0]], "initial": {"perturb_roots": 1e-3}},
        {"roots": [[1, 0], [2, 0]], "initial": [[0, 0], [3, 0]], "p": 0.5},
        {"roots": [[1, 0], [2, 0]], "initial": [[0, 0], [3, 0]], "method": "vaporize"},
        {"roots": [[1, 0], [2, 0]], "initial": [[0, 0], [3, 0]], "zzz": 1},
        {"roots": [[1, 0], [1, 0]], "initial": [[0, 0], [3, 0]]},  # duplicate roots
    ],
)
def test_invalid_documents_exit_one(tmp_path, capsys, doc):
    path = write_problem(tmp_path, doc)
    code, _, err = run_cli(capsys, "solve", path)
    assert code == 1
    assert err


def test_coefficients_that_overflow_when_divided_by_leading_are_an_input_error(tmp_path, capsys):
    doc = {"coefficients": [1e308, 1], "leading": 1e-10, "initial": [[1, 1], [-1, 0.5]]}
    code, out, err = run_cli(capsys, "solve", write_problem(tmp_path, doc))
    assert (code, out) == (1, "")
    assert err.startswith("error: coefficient 0 divided by leading (1e-10+0j) is ")
    assert err.count("\n") == 1


LONG_LIST = list(range(50_000))
LONG_TEXT = "x" * 100_000


@pytest.mark.parametrize(
    "fault, value, prefix",
    [
        (
            {"roots": [LONG_LIST, [1, 0]]},
            LONG_LIST,
            "roots[0]: expected a number or [re, im] pair, got ",
        ),
        ({"p": LONG_TEXT}, LONG_TEXT, 'p must be a number >= 1 or "inf", got '),
        ({"method": LONG_LIST}, LONG_LIST, '"method" must be a string, got '),
        ({"max_iter": LONG_LIST}, LONG_LIST, '"max_iter" must be an integer, got '),
        (
            {"initial": {"perturb_roots": LONG_LIST}},
            LONG_LIST,
            '"perturb_roots" must be a positive number, got ',
        ),
        (None, LONG_TEXT, '--p must be a number or "inf", got '),
    ],
    ids=["entry", "p", "method", "numeric-option", "perturb_roots", "radii-p"],
)
def test_long_rejected_values_are_shortened_in_error_messages(capsys, fault, value, prefix):
    if fault is None:
        code, out, err = run_cli(capsys, "radii", "--n", "4", "--p", value)
        assert (code, out) == (1, "")
        message = err.removeprefix("error: ").removesuffix("\n")
    else:
        with pytest.raises(ParseError) as excinfo:
            parse_problem(dict(WALKTHROUGH, **fault))
        message = str(excinfo.value)
    assert message == prefix + repr(value)[:57] + "..."
    assert len(message) <= 150


@pytest.mark.parametrize(
    "fault, message",
    [
        ({LONG_TEXT: 1}, "unknown keys: " + repr([LONG_TEXT])[:57] + "..."),
        (
            {"initial": {LONG_TEXT: math.nan}},
            ("initial." + LONG_TEXT)[:57] + "...: expected a finite number, got nan",
        ),
        ({"p": -(10**300)}, "p must be at least 1, got " + repr(-(10**300))[:57] + "..."),
    ],
    ids=["unknown-key", "key-path", "p-below-one"],
)
def test_long_keys_and_numbers_are_shortened_in_error_messages(fault, message):
    with pytest.raises(ParseError) as excinfo:
        parse_problem(dict(WALKTHROUGH, **fault))
    assert str(excinfo.value) == message
    assert len(message) <= 150


def test_values_up_to_sixty_characters_are_shown_whole():
    fits, too_long = "x" * 58, "x" * 59  # reprs of 60 and 61 characters
    with pytest.raises(ParseError, match=f"got '{fits}'$"):
        parse_problem(dict(WALKTHROUGH, p=fits))
    with pytest.raises(ParseError, match=f"got '{too_long[:56]}\\.\\.\\.$"):
        parse_problem(dict(WALKTHROUGH, p=too_long))


def test_leading_is_rejected_on_a_root_given_document(tmp_path, capsys):
    path = write_problem(tmp_path, dict(WALKTHROUGH, leading=5))
    code, out, err = run_cli(capsys, "solve", path)
    assert (code, out) == (1, "")
    assert err == 'error: "leading" needs the polynomial given by its coefficients\n'


def test_undecodable_file_is_an_input_error_that_names_it(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(json.dumps(WALKTHROUGH).encode("utf-16"))  # starts with the BOM ff fe
    code, out, err = run_cli(capsys, "solve", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff ")


def test_certify_walkthrough(tmp_path, capsys):
    path = write_problem(tmp_path, WALKTHROUGH)
    code, out, _ = run_cli(capsys, "certify", path)
    assert code == 0
    report = json.loads(out)
    assert report["trace"] is None
    assert report["result"]["satisfied"] is True
    checks = {row["name"]: row for row in report["result"]["thresholds"]}
    assert checks["exact"]["pass"] is True
    assert checks["simple"]["threshold"] == pytest.approx(0.25)
    assert checks["exp-majorant"]["threshold"] == pytest.approx(0.209942, abs=1e-5)
    assert checks["exp-majorant"]["pass"] is True
    assert checks["han"]["pass"] is True
    assert checks["inf-linear"]["pass"] is True
    assert checks["wang-zhao-inf"]["kind"] == "w_over_delta"
    # ||W||_inf / delta = 0.75/4
    assert checks["wang-zhao-inf"]["quantity"] == pytest.approx(0.1875)
    omitted = {row["name"] for row in report["result"]["omitted"]}
    assert "sum-norm" in omitted


def test_certify_failure_exits_two(tmp_path, capsys):
    doc = dict(WALKTHROUGH, initial=[[10, 0], [9.9, 0]])
    path = write_problem(tmp_path, doc)
    code, out, _ = run_cli(capsys, "certify", path)
    assert code == 2
    report = json.loads(out)
    assert report["result"]["satisfied"] is False
    assert report["certificate"]["lambda"] == "inf"


def test_radii_table_degree_two(capsys):
    code, out, _ = run_cli(capsys, "radii", "--n", "2", "--p", "inf")
    assert code == 0
    report = json.loads(out)
    rows = {row["name"]: row for row in report["result"]["radii"]}
    assert rows["exact"]["value"] == pytest.approx(0.25, abs=1e-9)
    assert rows["simple"]["value"] == pytest.approx(0.25)
    assert rows["exp-majorant"]["value"] == pytest.approx(0.209942, abs=1e-5)
    assert rows["inf-linear"]["value"] == pytest.approx(0.237338, abs=1e-6)
    values = [row["value"] for row in report["result"]["radii"]]
    assert values == sorted(values, reverse=True)
    assert {row["name"] for row in report["result"]["omitted"]} == {
        "sum-norm",
        "wang-zhao-l1",
        "zhao-wang-l1",
    }


def test_radii_table_sum_norm(capsys):
    code, out, _ = run_cli(capsys, "radii", "--n", "4", "--p", "1")
    assert code == 0
    report = json.loads(out)
    rows = {row["name"]: row for row in report["result"]["radii"]}
    assert rows["sum-norm"]["value"] == pytest.approx(0.307541, abs=1e-5)
    assert rows["sum-norm"]["kind"] == "ratio"
    assert rows["wang-zhao-l1"]["value"] == pytest.approx(0.279, abs=1e-3)
    assert rows["wang-zhao-l1"]["kind"] == "w_over_delta"
    assert rows["wang-zhao-l1"]["majorant"] is None


def test_radii_table_sum_norm_past_the_overflow_of_the_wang_zhao_series(capsys):
    code, out, err = run_cli(capsys, "radii", "--n", "648", "--p", "1")
    assert (code, err) == (0, "")
    rows = {row["name"]: row for row in json.loads(out)["result"]["radii"]}
    assert 0.0 < rows["wang-zhao-l1"]["value"] < 0.279


def test_radii_rejects_bad_arguments(capsys):
    assert run_cli(capsys, "radii", "--n", "1", "--p", "inf")[0] == 1
    assert run_cli(capsys, "radii", "--n", "4", "--p", "0.5")[0] == 1
    assert run_cli(capsys, "radii", "--n", "4", "--p", "abc")[0] == 1
    # NaN is not >= 1, so it fails the CLI's own p rule.
    assert run_cli(capsys, "radii", "--n", "4", "--p", "nan") == (1, "", "error: p must be at least 1, got nan\n")


def test_compare_sor_walkthrough(tmp_path, capsys):
    path = write_problem(tmp_path, WALKTHROUGH)
    code, out, _ = run_cli(capsys, "compare-sor", path)
    assert code == 0
    report = json.loads(out)
    ratios = report["result"]["ratios"]
    assert ratios and ratios[0]["k"] == 0
    assert ratios[0]["ratio"] == pytest.approx(0.307541 / 0.204378, abs=1e-9)
    assert ratios[0]["h_new"] == pytest.approx(0.820109, abs=1e-6)
    assert ratios[0]["h_wz"] == pytest.approx(0.545008, abs=1e-6)


def test_compare_sor_with_zero_correction(tmp_path, capsys):
    doc = {"roots": [[1, 0], [-1, 0]], "initial": [[1, 0], [-1, 0]], "p": "inf"}
    path = write_problem(tmp_path, doc)
    code, out, _ = run_cli(capsys, "compare-sor", path)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["ratios"] == []
    assert report["result"]["wz"]["h"] == [1.0]
    assert report["result"]["new"]["h"] == [1.0]


def test_report_input_round_trip(tmp_path, capsys):
    doc = {
        "coefficients": [[-2, 0], [0, 0]],
        "leading": [2, 0],
        "initial": [[2, 0], [-2, 0]],
        "p": 2,
        "method": "sor_new",
    }
    path = write_problem(tmp_path, doc)
    _, out, _ = run_cli(capsys, "solve", path)
    report = json.loads(out)
    assert report["input"] == parse_problem(doc).echo
    assert parse_problem(report["input"]).echo == report["input"]


def test_reports_are_byte_identical(tmp_path, capsys):
    path = write_problem(tmp_path, WALKTHROUGH)
    _, first, _ = run_cli(capsys, "solve", path)
    _, second, _ = run_cli(capsys, "solve", path)
    assert first == second


@pytest.mark.parametrize("h", [1e-20, 1e-3])
def test_iterations_count_a_step_that_rounds_to_nothing(tmp_path, capsys, h):
    # Both runs stop by tol_step at k = 0 after one update. With h = 1e-20 the
    # update leaves every coordinate unchanged in floating point, so comparing
    # points cannot tell whether it was taken; the solver's count can.
    doc = dict(WALKTHROUGH, method="sor_fixed", h=h, tol_step=1, tol_e=0)
    problem = parse_problem(doc)
    trace = run_sor(problem.poly, problem.z0, problem.options)
    assert trace.records[-1].k == 0
    assert trace.steps == 1
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, doc))
    assert code == 0
    assert json.loads(out)["result"]["iterations"] == 1


def test_batch_files_emit_one_line_each(tmp_path, capsys):
    good = json.dumps(WALKTHROUGH)
    stuck = json.dumps(dict(WALKTHROUGH, initial=[[100, 0], [-100, 0]], max_iter=2))
    path = tmp_path / "batch.jsonl"
    path.write_text(good + "\n" + stuck + "\n")
    code, out, _ = run_cli(capsys, "solve", str(path))
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 2
    assert code == 2  # one of the runs did not converge


@pytest.mark.parametrize("command, per_document", [("certify", 1), ("solve", 0), ("compare-sor", 0)])
def test_certificate_is_computed_once_per_document(tmp_path, capsys, monkeypatch, command, per_document):
    # Counts the CLI's own calls only: run_sor binds the solver module's name.
    calls = []
    real = cli.certificate_from_quantity
    monkeypatch.setattr(cli, "certificate_from_quantity", lambda *a: calls.append(a) or real(*a))
    docs = [WALKTHROUGH, dict(WALKTHROUGH, p=2), dict(WALKTHROUGH, initial=[[1.5, 0.2], [-1.5, 0.1]])]
    path = tmp_path / "batch.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    code, out, _ = run_cli(capsys, command, str(path))
    assert code == 0
    assert len(out.splitlines()) == len(docs)
    assert len(calls) == per_document * len(docs)


def test_parser_is_built_once_per_process(tmp_path, capsys):
    cli._build_parser.cache_clear()
    path = write_problem(tmp_path, WALKTHROUGH)
    for argv in (("certify", path), ("--output", "text", "solve", path), ("radii", "--n", "3")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
    assert cli._build_parser.cache_info().misses == 1


def test_shared_parser_is_unchanged_by_an_argument_error(capsys):
    golden = Path(__file__).parent / "data" / "golden"
    for bad in (
        ["radii", "--n", "five"],
        ["--output", "text", "bogus"],
        ["--output", "xml", "radii", "--n", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err
    # A text report, then a JSON one with every option at its default.
    for argv, name in (
        (["--output", "text", "radii", "--n", "5", "--p", "1"], "radii-n5-p1-text"),
        (["radii", "--n", "2"], "radii-n2-pinf-json"),
    ):
        assert run_cli(capsys, *argv) == (0, (golden / f"{name}.out").read_text(), "")


def test_text_output_smoke(tmp_path, capsys):
    path = write_problem(tmp_path, WALKTHROUGH)
    for command in ("solve", "certify", "compare-sor"):
        code, out, _ = run_cli(capsys, "--output", "text", command, path)
        assert code == 0
        assert "certificate:" in out or "converged" in out
    code, out, _ = run_cli(capsys, "--output", "text", "radii", "--n", "3", "--p", "2")
    assert code == 0
    assert "exact" in out


def test_perturb_directions_are_deterministic():
    doc = {"roots": [[1, 0], [-1, 0]], "initial": {"perturb_roots": 0.125}}
    problem = parse_problem(doc)
    # angle 0 and angle pi
    assert problem.z0[0] == pytest.approx(1.125)
    assert problem.z0[1] == pytest.approx(-1.125)


def test_omitted_options_take_the_solver_defaults(tmp_path, capsys, monkeypatch):
    # The CLI restates no default: whatever SolverOptions gives a field the
    # document leaves out is what the report echoes and the run uses.
    patched = functools.partial(SolverOptions, max_iter=7, tol_e=1e-9)
    monkeypatch.setattr(cli, "SolverOptions", patched)
    converging = {"roots": [[1, 0], [-1, 0]], "initial": [[2, 0], [-2, 0]]}
    stuck = dict(converging, initial=[[100, 0], [-100, 0]])
    code, out, _ = run_cli(capsys, "solve", write_problem(tmp_path, [converging, stuck]))
    assert code == 2
    first, second = map(json.loads, out.splitlines())
    for report in (first, second):
        assert report["input"]["max_iter"] == 7 and report["input"]["tol_e"] == 1e-9
    errors = [record["e"] for record in first["trace"]["records"]]
    assert first["result"]["converged"] and errors[-1] <= 1e-9 < errors[-2]
    assert not second["result"]["converged"] and second["result"]["iterations"] == 7


def test_integer_p_matches_float_p():
    a = parse_problem(dict(WALKTHROUGH, p=2))
    b = parse_problem(dict(WALKTHROUGH, p=2.0))
    assert a.options.p == b.options.p
    assert a.echo["p"] == b.echo["p"] == 2.0


NON_FINITE = [
    ("initial[0][0]", '{"roots": [[1, 0], [-1, 0]], "initial": [[NaN, 0], [-2, 0]]}'),
    ("roots[1][1]", '{"roots": [[1, 0], [-1, Infinity]], "initial": [[2, 0], [-2, 0]]}'),
    ("coefficients[0]", '{"coefficients": [-Infinity, 0], "initial": [[2, 0], [-2, 0]]}'),
    ("initial.perturb_roots", '{"roots": [[1, 0], [-1, 0]], "initial": {"perturb_roots": Infinity}}'),
    ("p", '{"roots": [[1, 0], [-1, 0]], "initial": [[2, 0], [-2, 0]], "p": Infinity}'),
    ("tol_e", '{"roots": [[1, 0], [-1, 0]], "initial": [[2, 0], [-2, 0]], "tol_e": NaN}'),
    ("initial[1][1]", '{"roots": [[1, 0], [-1, 0]], "initial": [[2, 0], [-2, 1%s]]}' % ("0" * 400)),
]


@pytest.mark.parametrize("field, text", NON_FINITE, ids=[field for field, _ in NON_FINITE])
def test_non_finite_numbers_are_rejected_at_parse_time(tmp_path, capsys, field, text):
    path = tmp_path / "problem.json"
    path.write_text(text + "\n")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {field}: expected a finite number")


EMIT_REPORTS = [
    {"input": {"p": 2.0, "initial": [(1.5, -0.0), (0.1, 1e-300)]}, "trace": None},
    {"a": [(1, (2.5, None)), True, "x"], "b": {"c": ()}},
    {"e0": math.inf, "lambda": -math.inf, "theta": math.nan, "rows": [(0.5, math.inf)]},
    {"nested": ({"deep": [(math.nan,), None]}, 1e308, -0.0)},
]


@pytest.mark.parametrize("report", EMIT_REPORTS)
def test_emit_prints_exactly_the_encoded_report(capsys, report):
    _emit("solve", report, "json")
    assert capsys.readouterr().out == json.dumps(_encode(report)) + "\n"


def test_emit_rejects_what_encode_rejects(capsys):
    with pytest.raises(TypeError, match="cannot encode complex"):
        _emit("solve", {"z": 1j}, "json")
    assert capsys.readouterr().out == ""


def test_module_entry_point_exits_with_the_code_of_main(capsys, monkeypatch):
    # In-process, so a line-coverage run sees the entry point execute. runpy
    # warns that it runs a module the package has already imported.
    expected_code = main(["radii", "--n", "3"])
    expected_out = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["weierstrass", "radii", "--n", "3"])
    with pytest.warns(RuntimeWarning), pytest.raises(SystemExit) as excinfo:
        runpy.run_module("weierstrass.cli", run_name="__main__")
    assert excinfo.value.code == expected_code
    assert capsys.readouterr().out.encode() == expected_out.encode()


# ROADMAP item 15: f(z_i) has n factors of size |z_i - r_j| and underflows to
# 0 while the denominator does not, so W = 0 and E = 0 at a point that is not
# a root. certify then reports e0 0.0 and satisfied, and solve stops at k = 0
# by tol_e. Each case asserts the correct behaviour; fixing item 15 makes it
# pass, and the xfail marker must then go.
ITEM_15 = "ROADMAP item 15: an underflowing f(z_i) gives E = 0"
UNDERFLOWING_F = {"n100-modulus-10^-3.25": (100, 10**-3.25), "n20-modulus-2^-55": (20, 2.0**-55)}


def _circle_document(n, modulus):
    """n roots of one modulus evenly spaced on a circle, started 1% further
    out along each root's ray, at p = inf."""
    roots = [modulus * cmath.exp(2j * math.pi * k / n) for k in range(n)]
    return {
        "roots": [[z.real, z.imag] for z in roots],
        "initial": [[1.01 * z.real, 1.01 * z.imag] for z in roots],
        "p": "inf",
    }


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_15)
@pytest.mark.parametrize("case", sorted(UNDERFLOWING_F))
def test_certify_does_not_certify_a_wrong_point_with_e0_zero(tmp_path, capsys, case):
    path = write_problem(tmp_path, _circle_document(*UNDERFLOWING_F[case]))
    code, out, _ = run_cli(capsys, "certify", path)
    assert code != 0 or json.loads(out)["certificate"]["e0"] > 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_15)
@pytest.mark.parametrize("case", sorted(UNDERFLOWING_F))
def test_solve_does_not_converge_at_a_wrong_start_in_zero_steps(tmp_path, capsys, case):
    path = write_problem(tmp_path, _circle_document(*UNDERFLOWING_F[case]))
    code, out, _ = run_cli(capsys, "solve", path)
    result = code == 0 and json.loads(out)["result"]
    assert not (result and result["converged"] and result["iterations"] == 0)
