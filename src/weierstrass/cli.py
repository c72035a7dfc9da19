"""Command-line front end: solve, certify, radii, and compare-sor.

Problem files hold JSON documents separated by whitespace, one per line or
over several; a file that holds exactly one array is a batch, and a decode
error names its line. Complex numbers are [re, im] pairs; p = inf is encoded
as the string "inf". Reports are JSON objects with fixed top-level keys
input/certificate/trace/result, one line per problem, with floats at full
round-trip precision so identical inputs produce byte-identical output. Exit
codes: 0 success/convergence, 1 input or domain error, 2 non-convergence (or
a failed certificate check).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Any, Sequence

from .certificates import (
    Certificate,
    certificate_from_quantity,
    convergence_radius,
    radius_table,
)
from .errors import ParseError, WeierstrassError
from .operator import NormIndex, certificate_quantity, p_norm
from .polynomial import Polynomial
from .solver import SolverOptions, run_sor
from . import __version__

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2

#: The numeric SolverOptions fields a document may set, in the order they are
#: checked, with the type each must have; numbers are passed on as floats.
_NUMERIC_OPTIONS = {"h": float, "max_iter": int, "tol_e": float, "tol_step": float}

_PROBLEM_KEYS = {"coefficients", "leading", "roots", "initial", "p", "method", *_NUMERIC_OPTIONS}

#: The exact types json.loads gives a JSON number. bool subclasses int, so
#: `type(v) in _NUMBER` also keeps out true and false.
_NUMBER = (int, float)


@dataclass(frozen=True)
class Problem:
    poly: Polynomial
    z0: tuple[complex, ...]
    options: SolverOptions
    echo: dict


def _cut(text: str) -> str:
    """text for an error message, cut to 57 characters and "..." past 60."""
    return text if len(text) <= 60 else text[:57] + "..."


def _brief(value: Any) -> str:
    """repr(value) for an error message, cut as `_cut` cuts."""
    return _cut(repr(value))


def _as_complex(value: Any, field: str, index: int | None = None) -> complex:
    """value as a complex number; an error names it as field, or as
    field[index] for a list entry."""
    if type(value) in _NUMBER:
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and type(value[0]) in _NUMBER
        and type(value[1]) in _NUMBER
    ):
        return complex(value[0], value[1])
    where = field if index is None else f"{field}[{index}]"
    raise ParseError(f"{where}: expected a number or [re, im] pair, got {_brief(value)}")


def _non_finite_path(value: Any) -> list | None:
    """The keys and indices, innermost first, that lead from value to its
    first NaN, infinity or integer too large for a double; None if it has
    none. A list of numbers is tested in one pass; any other list, entry by
    entry."""
    if type(value) is float:
        return None if math.isfinite(value) else []
    if type(value) is int:
        try:
            float(value)
        except OverflowError:
            return []
        return None
    if isinstance(value, list):
        try:
            if all(map(math.isfinite, value)):
                return None
        except (TypeError, ValueError, OverflowError):
            pass
        entries = enumerate(value)
    elif isinstance(value, dict):
        entries = value.items()
    else:
        return None
    for key, item in entries:
        path = _non_finite_path(item)
        if path is not None:
            path.append(key)
            return path
    return None


def _reject_non_finite(doc: dict) -> None:
    """Reject JSON's NaN and Infinity literals, and integers too large for a
    double, which no problem field can take, naming the first by its path."""
    path = _non_finite_path(doc)
    if path is None:
        return
    where, value = "", doc
    for key in reversed(path):
        if isinstance(value, list):
            where += f"[{key}]"
        else:
            where += f".{key}" if where else key
        value = value[key]
    got = repr(value) if type(value) is float else "an integer beyond the double range"
    raise ParseError(f"{_cut(where)}: expected a finite number, got {got}")


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _parse_p(value: Any) -> float:
    if isinstance(value, str) and value.lower() == "inf":
        return math.inf
    if type(value) not in _NUMBER:
        raise ParseError(f'p must be a number >= 1 or "inf", got {_brief(value)}')
    if not value >= 1:
        raise ParseError(f"p must be at least 1, got {_brief(value)}")
    return float(value)


def _encode_p(p: float) -> Any:
    return "inf" if math.isinf(p) else p


def parse_problem(doc: Any) -> Problem:
    """Validate one problem document and normalize it into solver inputs."""
    if not isinstance(doc, dict):
        raise ParseError(f"problem document must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - _PROBLEM_KEYS
    if unknown:
        raise ParseError(f"unknown keys: {_brief(sorted(unknown))}")
    _reject_non_finite(doc)
    has_coeffs = "coefficients" in doc
    if has_coeffs == ("roots" in doc):
        raise ParseError('exactly one of "coefficients" or "roots" is required')
    field = "coefficients" if has_coeffs else "roots"
    raw = doc[field]
    if not isinstance(raw, list) or len(raw) < 2:
        raise ParseError(f'"{field}" must be a list of at least 2 entries')
    values = tuple([_as_complex(v, field, i) for i, v in enumerate(raw)])

    if has_coeffs:
        leading = _as_complex(doc.get("leading", 1), "leading")
        poly = Polynomial.from_coefficients(values, leading)
    else:
        poly = Polynomial.from_roots(values)
    poly_echo = {field: [_pair(c) for c in poly.coeffs or poly.roots]}

    n = poly.degree
    if "initial" not in doc:
        raise ParseError('"initial" is required')
    raw_initial = doc["initial"]
    if isinstance(raw_initial, dict):
        if set(raw_initial) != {"perturb_roots"}:
            raise ParseError('"initial" object form must be {"perturb_roots": eps}')
        if not poly.roots:
            raise ParseError('"perturb_roots" needs the polynomial given by its roots')
        eps = raw_initial["perturb_roots"]
        if type(eps) not in _NUMBER or eps <= 0:
            raise ParseError(f'"perturb_roots" must be a positive number, got {_brief(eps)}')
        # Deterministic unit directions at angles 2*pi*i/n, no RNG involved.
        z0 = tuple(
            r + eps * cmath.exp(2j * cmath.pi * i / n) for i, r in enumerate(poly.roots)
        )
    elif isinstance(raw_initial, list):
        if len(raw_initial) != n:
            raise ParseError(f'"initial" has {len(raw_initial)} entries, polynomial degree is {n}')
        z0 = tuple([_as_complex(v, "initial", i) for i, v in enumerate(raw_initial)])
    else:
        raise ParseError('"initial" must be a list of points or {"perturb_roots": eps}')

    # Only the fields the document sets reach SolverOptions, which holds every
    # default.
    settings: dict[str, Any] = {}
    if "p" in doc:
        settings["p"] = _parse_p(doc["p"])
    if "method" in doc:
        if not isinstance(doc["method"], str):
            raise ParseError(f'"method" must be a string, got {_brief(doc["method"])}')
        settings["mode"] = doc["method"]
    for name, kind in _NUMERIC_OPTIONS.items():
        if name in doc:
            value = doc[name]
            if type(value) not in (int, kind):
                what = "an integer" if kind is int else "a number"
                raise ParseError(f'"{name}" must be {what}, got {_brief(value)}')
            settings[name] = kind(value)
    try:
        options = SolverOptions(**settings)
    except ValueError as exc:
        raise ParseError(str(exc))
    if "leading" in doc and not has_coeffs:
        raise ParseError('"leading" needs the polynomial given by its coefficients')

    echo = dict(
        poly_echo,
        initial=[_pair(z) for z in z0],
        p=_encode_p(options.p.p),
        method=options.mode,
        **{name: getattr(options, name) for name in _NUMERIC_OPTIONS},
    )
    return Problem(poly=poly, z0=z0, options=options, echo=echo)


#: Whitespace between documents is what str.isspace accepts, so blank lines of
#: form feeds or other Unicode spaces separate documents as newlines do.
_SPACE = re.compile(r"\s*")
_DECODER = json.JSONDecoder()


def load_documents(path: str) -> list[Any]:
    """Read problem documents: whitespace-separated JSON values; one array is a batch."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    docs, end = [], 0
    while (pos := _SPACE.match(text, end).end()) < len(text):
        try:
            doc, end = _DECODER.raw_decode(text, pos)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}: invalid JSON: {exc}")
        except RecursionError:
            line = text.count("\n", 0, pos) + 1
            raise ParseError(f"{path}:{line}: invalid JSON: nested too deeply")
        docs.append(doc)
    if not docs:
        raise ParseError(f"{path}: no JSON documents found")
    return docs[0] if len(docs) == 1 and isinstance(docs[0], list) else docs


def _encode(obj: Any) -> Any:
    """Make a report JSON-safe: non-finite floats become strings."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, dict):
        return {key: _encode(value) for key, value in obj.items()}
    raise TypeError(f"cannot encode {type(obj).__name__}")


def _certificate_block(cert: Certificate, n: int, p: NormIndex) -> dict:
    return {
        "e0": cert.e0,
        "lambda": cert.lam,
        "theta": cert.theta,
        "satisfied": cert.satisfied,
        "strict": cert.strict,
        "radius": convergence_radius(n, p),
    }


def _trace_block(trace) -> dict:
    return {
        "converged": trace.converged,
        "error": trace.error,
        "records": [
            {
                "k": r.k,
                "e": r.e,
                "w_norm": r.w_norm,
                "step_norm": r.step_norm,
                "h": r.h,
                "lambda": r.lam,
                "theta": r.theta,
                "apost_bound": r.apost_bound,
            }
            for r in trace.records
        ],
        "apriori_curve": list(trace.apriori_curve),
    }


def _run_result(trace) -> dict:
    return {
        "converged": trace.converged,
        "iterations": trace.steps,
        "stop_reason": trace.stop_reason,
    }


def solve_report(problem: Problem) -> tuple[dict, int]:
    trace = run_sor(problem.poly, problem.z0, problem.options)
    n, p = problem.poly.degree, problem.options.p
    report = {
        "input": problem.echo,
        "certificate": _certificate_block(trace.certificate, n, p),
        "trace": _trace_block(trace),
        "result": dict(_run_result(trace), roots=[_pair(z) for z in trace.final]),
    }
    return report, EXIT_OK if trace.converged else EXIT_NOT_CONVERGED


def certify_report(problem: Problem) -> tuple[dict, int]:
    n, p = problem.poly.degree, problem.options.p
    data = certificate_quantity(problem.poly, problem.z0, p)
    cert = certificate_from_quantity(data.e, n, p)
    entries, omitted = radius_table(n, p)
    checks = []
    for entry in entries:
        if entry.kind == "ratio":
            quantity = data.e
        else:
            quantity = p_norm(data.w, entry.norm) / data.delta
        checks.append(
            {
                "name": entry.name,
                "kind": entry.kind,
                "threshold": entry.value,
                "quantity": quantity,
                "pass": quantity <= entry.value,
            }
        )
    report = {
        "input": problem.echo,
        "certificate": _certificate_block(cert, n, p),
        "trace": None,
        "result": {
            "satisfied": cert.satisfied,
            "strict": cert.strict,
            "thresholds": checks,
            "omitted": [{"name": name, "reason": reason} for name, reason in omitted],
        },
    }
    return report, EXIT_OK if cert.satisfied else EXIT_NOT_CONVERGED


def radii_report(n: int, p_value: float) -> tuple[dict, int]:
    entries, omitted = radius_table(n, NormIndex(p_value))
    report = {
        "input": {"n": n, "p": _encode_p(p_value)},
        "certificate": None,
        "trace": None,
        "result": {
            "radii": [
                {
                    "name": entry.name,
                    "value": entry.value,
                    "kind": entry.kind,
                    "majorant": entry.majorant_at_value,
                }
                for entry in entries
            ],
            "omitted": [{"name": name, "reason": reason} for name, reason in omitted],
        },
    }
    return report, EXIT_OK


def compare_sor_report(problem: Problem) -> tuple[dict, int]:
    runs = {
        label: run_sor(problem.poly, problem.z0, replace(problem.options, mode=mode))
        for label, mode in (("wz", "sor_wz"), ("new", "sor_new"))
    }
    result: dict = {
        label: dict(_run_result(trace), h=[r.h for r in trace.records])
        for label, trace in runs.items()
    }
    result["ratios"] = [
        {"k": k, "h_new": h_new, "h_wz": h_wz, "ratio": h_new / h_wz}
        for k, (h_wz, h_new) in enumerate(zip(result["wz"]["h"], result["new"]["h"]))
        if h_new < 1.0
    ]
    n, p = problem.poly.degree, problem.options.p
    report = {
        "input": problem.echo,
        "certificate": _certificate_block(runs["wz"].certificate, n, p),
        "trace": {label: _trace_block(trace) for label, trace in runs.items()},
        "result": result,
    }
    ok = all(trace.converged for trace in runs.values())
    return report, EXIT_OK if ok else EXIT_NOT_CONVERGED


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def _fmt(x: float | None) -> str:
    return "-" if x is None else f"{x:.6e}"


def _certificate_text(block: dict) -> list[str]:
    return [
        "certificate: "
        f"E0={_fmt(block['e0'])} lambda={_fmt(block['lambda'])} theta={_fmt(block['theta'])} "
        f"satisfied={'yes' if block['satisfied'] else 'no'} "
        f"strict={'yes' if block['strict'] else 'no'} radius={_fmt(block['radius'])}"
    ]


def _records_text(records: list[dict]) -> list[str]:
    lines = [f"{'k':>4} {'E':>13} {'step norm':>13} {'h':>10} {'apost bound':>13}"]
    for r in records:
        lines.append(
            f"{r['k']:>4} {_fmt(r['e']):>13} {_fmt(r['step_norm']):>13} "
            f"{_fmt(r['h']):>10} {_fmt(r['apost_bound']):>13}"
        )
    return lines


def _solve_text(report: dict) -> str:
    lines = _certificate_text(report["certificate"])
    lines += _records_text(report["trace"]["records"])
    if report["trace"]["error"]:
        lines.append(f"error: {report['trace']['error']}")
    lines.append("roots:")
    for re_part, im_part in report["result"]["roots"]:
        lines.append(f"  {re_part!r} {'+' if im_part >= 0 else '-'} {abs(im_part)!r}j")
    result = report["result"]
    lines.append(
        f"converged: {'yes' if result['converged'] else 'no'} "
        f"({result['iterations']} steps, {result['stop_reason']})"
    )
    return "\n".join(lines)


def _omitted_text(rows: list[dict]) -> list[str]:
    return [f"{row['name']:<20} omitted ({row['reason']})" for row in rows]


def _certify_text(report: dict) -> str:
    lines = _certificate_text(report["certificate"])
    lines.append(f"{'name':<20} {'kind':<14} {'threshold':>13} {'quantity':>13}  verdict")
    for row in report["result"]["thresholds"]:
        lines.append(
            f"{row['name']:<20} {row['kind']:<14} {_fmt(row['threshold']):>13} "
            f"{_fmt(row['quantity']):>13}  {'pass' if row['pass'] else 'fail'}"
        )
    return "\n".join(lines + _omitted_text(report["result"]["omitted"]))


def _radii_text(report: dict) -> str:
    lines = [f"{'name':<20} {'kind':<14} {'value':>13} {'majorant':>13}"]
    for row in report["result"]["radii"]:
        lines.append(
            f"{row['name']:<20} {row['kind']:<14} {_fmt(row['value']):>13} "
            f"{_fmt(row['majorant']):>13}"
        )
    return "\n".join(lines + _omitted_text(report["result"]["omitted"]))


def _compare_text(report: dict) -> str:
    result = report["result"]
    lines = [
        f"{label:<3}: converged={'yes' if result[label]['converged'] else 'no'} "
        f"iterations={result[label]['iterations']}"
        for label in ("wz", "new")
    ]
    lines.append(f"{'k':>4} {'h_new':>12} {'h_wz':>12} {'ratio':>10}")
    for row in result["ratios"]:
        lines.append(
            f"{row['k']:>4} {_fmt(row['h_new']):>12} {_fmt(row['h_wz']):>12} "
            f"{row['ratio']:.6f}"
        )
    if not result["ratios"]:
        lines.append("  (no damped steps: h_new = 1 throughout)")
    return "\n".join(lines)


#: Each command's report builder and text renderer; radii builds from (n, p).
_COMMANDS = {
    "solve": (solve_report, _solve_text),
    "certify": (certify_report, _certify_text),
    "radii": (radii_report, _radii_text),
    "compare-sor": (compare_sor_report, _compare_text),
}


def _emit(command: str, report: dict, output: str) -> None:
    """Print one report; JSON output is always exactly json.dumps(_encode(report))."""
    if output == "json":
        # Without non-finite floats, _encode changes nothing json.dumps would
        # print differently (tuples already encode as lists), so its walk runs
        # only when the strict pass, on a fresh tree that cannot be circular,
        # refuses the report.
        try:
            text = json.dumps(report, allow_nan=False, check_circular=False)
        except (TypeError, ValueError):
            text = json.dumps(_encode(report))
        print(text)
    else:
        print(_COMMANDS[command][1](report))


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state between calls.
    parser = argparse.ArgumentParser(
        prog="weierstrass",
        description="Simultaneous polynomial root finding with certified convergence.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--output", choices=("json", "text"), default="json", help="report format"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("solve", "run the iteration on each problem in FILE"),
        ("certify", "evaluate the initial-point certificate without iterating"),
        ("compare-sor", "run both damped variants and compare their parameters"),
    ):
        cmd = sub.add_parser(name, help=desc)
        cmd.add_argument("file", help="problem file (line-delimited JSON)")
    radii = sub.add_parser("radii", help="tabulate certified radii for a degree and norm")
    radii.add_argument("--n", type=int, required=True, help="polynomial degree (>= 2)")
    radii.add_argument("--p", default="inf", help='norm exponent, a number >= 1 or "inf"')
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    build = _COMMANDS[args.command][0]
    try:
        if args.command == "radii":
            if args.n < 2:
                raise ParseError(f"--n must be at least 2, got {args.n}")
            inputs = [(args.n, _parse_p(_number(args.p)))]
        else:
            # Lazy, so document k is parsed only after report k - 1 is out.
            inputs = ((parse_problem(doc),) for doc in load_documents(args.file))
        worst = EXIT_OK
        for arguments in inputs:
            report, code = build(*arguments)
            _emit(args.command, report, args.output)
            worst = max(worst, code)
        return worst
    except (WeierstrassError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f'--p must be a number or "inf", got {_brief(text)}')


if __name__ == "__main__":
    sys.exit(main())
