"""`cli.parse_problem` against a frozen copy of its validation.

The reference below walks every value for NaN, infinities and integers beyond
the double range, then converts each entry on its own, naming the bad field by
its path. A faster parser must give the same doubles, the same echo and the
same exception, message included, on valid documents and on faulty ones, with
one rule of its own: a root-given document with a "leading" field, which the
reference accepts and drops, is rejected once every other check has passed.
"""

import cmath
import copy
import math
import random
from typing import Any

import pytest

from weierstrass.cli import _PROBLEM_KEYS, Problem, _encode_p, _pair, parse_problem
from weierstrass.errors import ParseError
from weierstrass.operator import NormIndex
from weierstrass.polynomial import Polynomial
from weierstrass.solver import SolverOptions


# --- the reference: the full walk, then per-entry conversion ------------------


def _ref_as_complex(value: Any, where: str) -> complex:
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a number or [re, im] pair, got {value!r}")
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in value)
    ):
        return complex(value[0], value[1])
    raise ParseError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _ref_reject_non_finite(value: Any, where: str) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"{where}: expected a finite number, got {value!r}")
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            raise ParseError(
                f"{where}: expected a finite number, got an integer beyond the double range"
            )
    if isinstance(value, list):
        for i, item in enumerate(value):
            _ref_reject_non_finite(item, f"{where}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            _ref_reject_non_finite(item, f"{where}.{key}" if where else key)


def _ref_parse_p(value: Any) -> float:
    if isinstance(value, str):
        if value.lower() == "inf":
            return math.inf
        raise ParseError(f'p must be a number >= 1 or "inf", got {value!r}')
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f'p must be a number >= 1 or "inf", got {value!r}')
    if value < 1:
        raise ParseError(f"p must be at least 1, got {value}")
    return float(value)


def reference_parse_problem(doc: Any) -> Problem:
    if not isinstance(doc, dict):
        raise ParseError(f"problem document must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - _PROBLEM_KEYS
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    _ref_reject_non_finite(doc, "")
    has_coeffs = "coefficients" in doc
    has_roots = "roots" in doc
    if has_coeffs == has_roots:
        raise ParseError('exactly one of "coefficients" or "roots" is required')

    roots = None
    if has_coeffs:
        raw = doc["coefficients"]
        if not isinstance(raw, list) or len(raw) < 2:
            raise ParseError('"coefficients" must be a list of at least 2 entries')
        coeffs = [_ref_as_complex(c, f"coefficients[{i}]") for i, c in enumerate(raw)]
        leading = _ref_as_complex(doc.get("leading", 1), "leading")
        poly = Polynomial.from_coefficients(coeffs, leading)
        poly_echo: dict = {"coefficients": [_pair(c) for c in poly.coeffs]}
    else:
        raw = doc["roots"]
        if not isinstance(raw, list) or len(raw) < 2:
            raise ParseError('"roots" must be a list of at least 2 entries')
        roots = tuple(_ref_as_complex(r, f"roots[{i}]") for i, r in enumerate(raw))
        poly = Polynomial.from_roots(roots)
        poly_echo = {"roots": [_pair(r) for r in roots]}

    n = poly.degree
    if "initial" not in doc:
        raise ParseError('"initial" is required')
    raw_initial = doc["initial"]
    if isinstance(raw_initial, dict):
        if set(raw_initial) != {"perturb_roots"}:
            raise ParseError('"initial" object form must be {"perturb_roots": eps}')
        if roots is None:
            raise ParseError('"perturb_roots" needs the polynomial given by its roots')
        eps = raw_initial["perturb_roots"]
        if isinstance(eps, bool) or not isinstance(eps, (int, float)) or eps <= 0:
            raise ParseError(f'"perturb_roots" must be a positive number, got {eps!r}')
        z0 = tuple(
            r + eps * cmath.exp(2j * cmath.pi * i / n) for i, r in enumerate(roots)
        )
    elif isinstance(raw_initial, list):
        if len(raw_initial) != n:
            raise ParseError(f'"initial" has {len(raw_initial)} entries, polynomial degree is {n}')
        z0 = tuple(_ref_as_complex(v, f"initial[{i}]") for i, v in enumerate(raw_initial))
    else:
        raise ParseError('"initial" must be a list of points or {"perturb_roots": eps}')

    p_value = _ref_parse_p(doc.get("p", "inf"))
    method = doc.get("method", "plain")
    if not isinstance(method, str):
        raise ParseError(f'"method" must be a string, got {method!r}')
    h = doc.get("h", 1.0)
    if isinstance(h, bool) or not isinstance(h, (int, float)):
        raise ParseError(f'"h" must be a number, got {h!r}')
    max_iter = doc.get("max_iter", 100)
    if isinstance(max_iter, bool) or not isinstance(max_iter, int):
        raise ParseError(f'"max_iter" must be an integer, got {max_iter!r}')
    tol_e = doc.get("tol_e", 1e-13)
    tol_step = doc.get("tol_step", 0.0)
    for name, value in (("tol_e", tol_e), ("tol_step", tol_step)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(f'"{name}" must be a number, got {value!r}')
    try:
        options = SolverOptions(
            p=NormIndex(p_value),
            mode=method,
            h=float(h),
            max_iter=max_iter,
            tol_e=float(tol_e),
            tol_step=float(tol_step),
        )
    except ValueError as exc:
        raise ParseError(str(exc))

    echo = dict(poly_echo)
    echo.update(
        {
            "initial": [_pair(z) for z in z0],
            "p": _encode_p(p_value),
            "method": method,
            "h": float(h),
            "max_iter": max_iter,
            "tol_e": float(tol_e),
            "tol_step": float(tol_step),
        }
    )
    return Problem(poly=poly, z0=z0, options=options, echo=echo)


# --- comparison ----------------------------------------------------------------


def _hex_parts(zs):
    return [(z.real.hex(), z.imag.hex()) for z in zs]


def _outcome(parse, doc):
    try:
        problem = parse(copy.deepcopy(doc))
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return (
        _hex_parts(problem.z0),
        _hex_parts(problem.poly.coeffs),
        _hex_parts(problem.poly.roots),
        repr(problem.echo),
        repr(problem.options),
    )


#: What the parser raises, after every other check, where the reference drops
#: a "leading" field from a root-given document.
LEADING_WITH_ROOTS = (ParseError, '"leading" needs the polynomial given by its coefficients')


def assert_same_parse(doc):
    expected = _outcome(reference_parse_problem, doc)
    if isinstance(expected[0], list) and "roots" in doc and "leading" in doc:
        expected = LEADING_WITH_ROOTS
    assert _outcome(parse_problem, doc) == expected, doc
    return expected


# --- seeded valid documents, n = 2 to 100 -------------------------------------


def _part(rng):
    """A coordinate part: mostly a float, sometimes an int or a signed zero."""
    r = rng.random()
    if r < 0.15:
        return rng.randint(-3, 3)
    if r < 0.2:
        return rng.choice((0.0, -0.0))
    return rng.uniform(-2.0, 2.0)


def _points(rng, n):
    return [[_part(rng), _part(rng)] for _ in range(n)]


def _distinct_roots(rng, n):
    turn = rng.random()
    return [
        [z.real, z.imag]
        for z in (
            (1 + 0.05 * rng.uniform(-1, 1)) * cmath.exp(2j * math.pi * (k + turn) / n)
            for k in range(n)
        )
    ]


def _options(rng):
    extra = {"p": rng.choice((1, 2, 2.5, 3.0, "inf", "INF"))}
    if rng.random() < 0.5:
        extra["method"] = rng.choice(("plain", "sor_wz", "sor_new", "sor_fixed"))
    if rng.random() < 0.3:
        extra.update(h=rng.choice((0.5, 1, 0.9)), max_iter=rng.randint(1, 200))
    if rng.random() < 0.3:
        extra.update(tol_e=rng.choice((0, 1e-10, 1)), tol_step=rng.choice((0.0, 1e-14, 2)))
    return extra


def valid_documents(n, rng):
    roots = _distinct_roots(rng, n)
    coefficients = _points(rng, n)
    mixed = [c if rng.random() < 0.7 else _part(rng) for c in coefficients]
    return [
        {"roots": roots, "initial": _points(rng, n), **_options(rng)},
        {
            "roots": roots,
            "initial": {"perturb_roots": rng.choice((1e-4, 1e-3, 1))},
            **_options(rng),
        },
        {"coefficients": coefficients, "initial": _points(rng, n), **_options(rng)},
        {
            "coefficients": mixed,
            "leading": rng.choice(([2, -0.0], 3, 0.5, [0, 1])),
            "initial": _points(rng, n),
            **_options(rng),
        },
    ]


@pytest.mark.parametrize("lo, hi", [(2, 26), (26, 51), (51, 76), (76, 101)])
def test_valid_documents_parse_bit_for_bit(lo, hi):
    rng = random.Random(f"parse-valid-{lo}")
    for n in range(lo, hi):
        for doc in valid_documents(n, rng):
            outcome = assert_same_parse(doc)
            assert isinstance(outcome[0], list), (doc, outcome)


# --- faulty documents ----------------------------------------------------------

BASES = {
    "roots": {
        "roots": [[1, 0], [-0.5, 0.8], [-0.5, -0.8]],
        "initial": [[1.2, 0.1], [-0.4, 1], [-0.6, -0.9]],
        "p": 2,
        "method": "sor_wz",
        "h": 0.9,
        "max_iter": 50,
        "tol_e": 1e-12,
        "tol_step": 0.0,
    },
    "coefficients": {
        "coefficients": [[-1, 0], [0, 0.5], 0.25],
        "leading": [2, 0],
        "initial": [[1.2, 0.1], [-0.4, 1], [-0.6, -0.9]],
        "p": "inf",
    },
    "perturb": {"roots": [[1, 0], [-1, 0.5]], "initial": {"perturb_roots": 1e-3}, "p": 1},
}

NON_FINITE = [math.nan, math.inf, -math.inf, float("1e400"), 10**400, -(10**400)]
#: Wrong shapes; bare numbers are accepted as reals where an entry may be one.
SHAPES = [
    True,
    None,
    "x",
    {"re": 1.0},
    {1.0: math.nan},
    [[1.0, 2.0], 3.0],
    (1.0, 2.0),
    (math.nan, 0.0),
    [1.0],
    [1.0, 2.0, 3.0],
    [True, 0.0],
    2.5,
    3,
]


def locations(doc):
    """Every place a value can be put: each field, each entry and each part,
    plus a "leading" field added where the document has none."""
    for key, value in doc.items():
        yield (key,)
        if isinstance(value, list):
            for i, entry in enumerate(value):
                yield (key, i)
                if isinstance(entry, list):
                    for j in range(len(entry)):
                        yield (key, i, j)
        elif isinstance(value, dict):
            for inner in value:
                yield (key, inner)
    if "leading" not in doc:
        yield ("leading",)


def with_value(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize("base", sorted(BASES))
def test_non_finite_values_in_every_field(base):
    doc = BASES[base]
    for path in locations(doc):
        for value in NON_FINITE:
            outcome = assert_same_parse(with_value(doc, path, value))
            assert outcome[0] is ParseError and "expected a finite number" in outcome[1]


@pytest.mark.parametrize("base", sorted(BASES))
def test_wrong_shapes_in_every_field(base):
    doc = BASES[base]
    for path in locations(doc):
        for value in SHAPES:
            assert_same_parse(with_value(doc, path, value))


@pytest.mark.parametrize("base", sorted(BASES))
def test_documents_with_two_faults(base):
    # Which fault is reported, when there are two, must not change.
    rng = random.Random(f"parse-two-{base}")
    doc = BASES[base]
    paths = list(locations(doc))
    values = NON_FINITE + SHAPES
    for _ in range(300):
        first, second = rng.sample(paths, 2)
        twice = with_value(doc, first, rng.choice(values))
        try:
            twice = with_value(twice, second, rng.choice(values))
        except (TypeError, IndexError, KeyError):
            continue  # the first fault replaced the second one's container
        assert_same_parse(twice)


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        {"roots": [[1, 0], [2, 0]], "initial": [[0, 0], [3, 0]], "zzz": math.nan},
        {"initial": [[1, 0], [2, 0]], "p": math.nan},
        {"roots": [[1, 0]], "initial": [[0, 0]]},
        {"roots": [], "initial": []},
        {"roots": [[1, 0], [1, 0]], "initial": [[0, 0], [3, 0]]},
        {"roots": [[1, 0], [2, 0]], "initial": [[0, 0]], "tol_e": 10**400},
        {"roots": [[1, 0], [2, 0]], "initial": {"perturb_roots": [1e-3]}},
        {"roots": [[1, 0], [2, 0]], "initial": {"perturb_roots": {"x": math.inf}}},
    ],
)
def test_structural_faults(doc):
    assert_same_parse(doc)


# --- numbers at the edge of the double range, and bools ----------------------

#: The least integer that float() rounds up to 2**1024 and so rejects.
BEYOND_DOUBLE = 2**1024 - 2**970


@pytest.mark.parametrize(
    "value, finite",
    [
        (BEYOND_DOUBLE, False),
        (-BEYOND_DOUBLE, False),
        (BEYOND_DOUBLE - 1, True),
        (-(BEYOND_DOUBLE - 1), True),
        (True, True),
        (False, True),
    ],
    ids=["beyond", "-beyond", "largest", "-largest", "true", "false"],
)
@pytest.mark.parametrize("path", [("tol_e",), ("initial", 1, 0)], ids=["top-level", "in-initial"])
def test_numbers_at_the_edge_of_the_double_range_and_bools(value, finite, path):
    outcome = assert_same_parse(with_value(BASES["roots"], path, value))
    rejected_as_non_finite = outcome[0] is ParseError and "expected a finite number" in outcome[1]
    assert rejected_as_non_finite is not finite
    if type(value) is bool:
        # A bool is no number in any position, in the fast pass too.
        assert outcome[0] is ParseError
    elif finite and path[0] == "initial":
        assert outcome[0][1][0] == math.copysign(1.7976931348623157e308, value).hex()
