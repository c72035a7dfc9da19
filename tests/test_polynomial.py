import cmath
import math
import random

import pytest

from conftest import random_distinct_points, random_unit_disk
from weierstrass import (
    DegreeTooLarge,
    DegreeTooSmall,
    DuplicateRoots,
    NonFiniteValue,
    Polynomial,
    ZeroLeadingCoefficient,
)


def test_from_coefficients_identity():
    poly = Polynomial.from_coefficients([-1, 0])
    assert poly.coeffs == (-1 + 0j, 0j)
    assert poly.degree == 2


def test_from_coefficients_scaling():
    assert Polynomial.from_coefficients([-2, 0], leading=2).coeffs == (-1 + 0j, 0j)


def test_from_coefficients_rejects_degree_one():
    with pytest.raises(DegreeTooSmall, match=r"^degree must be at least 2, got 1$"):
        Polynomial.from_coefficients([-1])


def test_from_coefficients_rejects_zero_leading():
    with pytest.raises(ZeroLeadingCoefficient):
        Polynomial.from_coefficients([1, 2], leading=0)


@pytest.mark.parametrize(
    "coeffs, leading, index",
    [
        ([1e308, 1], 1e-10, 0),
        ([1e308, 1], 1e-320, 0),
        ([1, 1e300], 1e-10, 1),
        ([1, 2], complex(math.inf, math.inf), 0),
        ([1, 2], complex(math.nan, 1), 0),
    ],
    ids=["overflow", "subnormal-leading", "second-entry", "inf-leading", "nan-leading"],
)
def test_from_coefficients_rejects_a_non_finite_quotient_of_finite_input(coeffs, leading, index):
    with pytest.raises(NonFiniteValue, match=rf"^coefficient {index} divided by leading .* is "):
        Polynomial.from_coefficients(coeffs, leading)


def test_from_coefficients_passes_on_non_finite_values_given_directly():
    # Only a quotient of finite input is checked; inf / 2 is inf + nan j.
    inf, nan = math.inf, math.nan
    assert cmath.isinf(Polynomial.from_coefficients([inf, 1], 2).coeffs[0])
    assert cmath.isnan(Polynomial.from_coefficients([1, nan], 2).coeffs[1])
    assert cmath.isnan(Polynomial.from_coefficients([nan, 1]).coeffs[0])
    assert Polynomial.from_coefficients([1e308, 1]).coeffs == (1e308 + 0j, 1 + 0j)


def test_from_roots_difference_of_squares():
    poly = Polynomial.from_roots([1, -1])
    assert poly.roots == (1 + 0j, -1 + 0j)
    assert poly.coeffs == ()
    assert poly.degree == 2
    assert poly.evaluate(3) == 8  # (3 - 1)(3 + 1)
    assert poly.evaluate(0) == -1


def test_from_roots_cubic():
    poly = Polynomial.from_roots([0, 1, -1])
    assert poly.roots == (0j, 1 + 0j, -1 + 0j)
    assert poly.coeffs == ()
    assert poly.evaluate(2) == 6  # 2 * 1 * 3
    assert poly.evaluate(-3) == -24  # -3 * -4 * -2


def test_from_roots_hand_expansion():
    # (z - 1)(z - 2) = z^2 - 3z + 2
    poly = Polynomial.from_roots([1, 2])
    assert poly.roots == (1 + 0j, 2 + 0j)
    assert poly.coeffs == ()
    for x in range(-3, 5):
        assert poly.evaluate(x) == x * x - 3 * x + 2


def test_constructor_takes_coefficients_or_roots_not_both():
    with pytest.raises(ValueError, match="^a polynomial holds coefficients or roots, not both$"):
        Polynomial(coeffs=(1, 2), roots=(3, 4))


def test_constructor_rejects_a_single_root():
    with pytest.raises(DegreeTooSmall, match=r"^degree must be at least 2, got 1$"):
        Polynomial(roots=(1,))


def test_from_roots_rejects_duplicates():
    with pytest.raises(DuplicateRoots):
        Polynomial.from_roots([1, 1])
    with pytest.raises(DegreeTooSmall, match=r"^degree must be at least 2, got 1$"):
        Polynomial.from_roots([1])


def test_from_roots_names_the_first_duplicate_pair_in_index_order():
    # Pairs (i, j) are taken by i, then by j: (0, 5) before (1, 4) and (2, 3).
    with pytest.raises(DuplicateRoots, match=r"^roots 0 and 5 are both \(5\+0j\)$"):
        Polynomial.from_roots([5, 2, 3, 3, 2, 5])
    with pytest.raises(DuplicateRoots, match=r"^roots 1 and 3 are both \(7\+0j\)$"):
        Polynomial.from_roots([4, 7, 3, 7, 7])
    with pytest.raises(DuplicateRoots, match=r"^roots 0 and 1 are both 0j$"):
        Polynomial.from_roots([0.0, -0.0])
    with pytest.raises(DuplicateRoots, match=r"^roots 0 and 2 are both"):
        Polynomial.from_roots([complex(1, 0.0), 2, complex(1, -0.0)])
    # NaN equals nothing, itself included, so it is never a duplicate.
    nan = complex(float("nan"), 0)
    Polynomial.from_roots([nan, nan, 1])


_ROOTS_101 = tuple(complex(i, (i % 7) / 7) for i in range(101))


@pytest.mark.parametrize(
    "fields, error, message",
    [
        ({"roots": (1, 1)}, DuplicateRoots, r"^roots 0 and 1 are both \(1\+0j\)$"),
        ({"coeffs": (0,) * 101}, DegreeTooLarge, r"^degree 101 exceeds cap 100$"),
        ({"roots": _ROOTS_101}, DegreeTooLarge, r"^degree 101 exceeds cap 100$"),
    ],
    ids=["repeated-root", "101-coefficients", "101-roots"],
)
def test_direct_construction_checks_like_the_classmethods(fields, error, message):
    with pytest.raises(error, match=message):
        Polynomial(**fields)


@pytest.mark.parametrize(
    "build",
    [Polynomial.from_roots, Polynomial.from_coefficients, lambda values: Polynomial(roots=values)],
    ids=["from_roots", "from_coefficients", "constructor"],
)
def test_degree_cap_holds_on_every_construction_path(build):
    assert build(_ROOTS_101[:100]).degree == 100
    with pytest.raises(DegreeTooLarge, match=r"^degree 101 exceeds cap 100$"):
        build(_ROOTS_101)


def test_evaluate_examples():
    square = Polynomial.from_coefficients([-1, 0])
    assert square.evaluate(2) == 3 + 0j
    assert square.evaluate(1) == 0j
    cubic = Polynomial.from_roots([0, 1, -1])
    # (2i)^3 - 2i = -8i - 2i = -10i
    assert cubic.evaluate(2j) == pytest.approx(-10j)
    assert cubic(2j) == cubic.evaluate(2j)


def test_evaluate_vanishes_at_construction_roots():
    # The factor x - r is exactly 0 at x = r, so the product is exactly 0.
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(2, 20)
        roots = random_distinct_points(rng, n)
        poly = Polynomial.from_roots(roots)
        for r in roots:
            assert poly.evaluate(r) == 0


def test_evaluate_matches_power_sum():
    rng = random.Random(2)
    for _ in range(120):
        n = rng.randint(2, 20)
        coeffs = [random_unit_disk(rng) for _ in range(n)]
        poly = Polynomial.from_coefficients(coeffs)
        x = random_unit_disk(rng, radius=2.0)
        naive = x ** n + sum(c * x ** k for k, c in enumerate(coeffs))
        assert abs(poly.evaluate(x) - naive) <= 1e-12 * max(1.0, abs(naive))


def test_from_roots_permutation_invariant():
    # Each product takes n subtractions (relative error u) and n complex
    # products (sqrt(2) * 2u, Higham 2002, Lemma 3.5), so two orders of the
    # same roots agree to first order within 2 * (1 + 2 * sqrt(2)) * n * u < 8nu.
    rng = random.Random(3)
    u = 2.0 ** -53
    for _ in range(25):
        n = rng.randint(2, 12)
        roots = list(random_distinct_points(rng, n))
        shuffled = roots[:]
        rng.shuffle(shuffled)
        reference = Polynomial.from_roots(roots)
        other = Polynomial.from_roots(shuffled)
        for _ in range(8):
            x = random_unit_disk(rng, radius=2.0)
            lhs, rhs = reference.evaluate(x), other.evaluate(x)
            assert abs(lhs - rhs) <= 8 * n * u * abs(lhs)


def _plain_horner(coeffs, x):
    """One step acc * x + c per coefficient: the reference the segments must match."""
    acc = 1 + 0j
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _bits(z):
    """Both parts as hex, with every NaN alike."""
    return tuple("nan" if math.isnan(part) else part.hex() for part in (z.real, z.imag))


def _skipped(poly):
    """How many of the Horner steps run as a bare acc * x."""
    return sum(len(zeros) for zeros, _ in poly._segments)


_SIGNED_ZEROS = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))
_EDGE_PARTS = (0.0, -0.0, 5e-324, -1e-310, 1e-200, 1.0, -0.75, 1e200, -math.inf, math.inf, math.nan)
_EDGE_X = tuple(complex(a, b) for a in _EDGE_PARTS for b in _EDGE_PARTS)


def _assert_horner_bits(poly, rng):
    for x in _EDGE_X + tuple(random_unit_disk(rng, radius=1.5) for _ in range(40)):
        assert _bits(poly.evaluate(x)) == _bits(_plain_horner(poly.coeffs, x)), (poly.coeffs, x)


@pytest.mark.parametrize(
    "n, start, length, last, skipped",
    [
        (30, 10, 7, 0j, 0),
        (30, 10, 8, 0j, 7),
        (30, 10, 9, 0j, 8),
        (100, 1, 99, 0j, 98),
        (30, 22, 8, 0j, 7),
        (30, 0, 9, 0j, 8),
        (100, 0, 99, 0j, 98),
        (30, 0, 9, complex(-0.0, 0.0), 0),
        (30, 0, 9, complex(0.0, -0.0), 0),
    ],
    ids=[
        "run-7",
        "run-8",
        "run-9",
        "leading-run-99",
        "leading-run-8",
        "trailing-run-9",
        "trailing-run-99",
        "ends-in-minus-0-real",
        "ends-in-minus-0-imag",
    ],
)
def test_horner_segments_match_plain_horner_bit_for_bit(n, start, length, last, skipped):
    # c[start .. start + length - 1] is the run; c[start] is its last member
    # in Horner order and decides the skip. Its other members take every
    # sign of zero, which the skip may ignore. A zero sign shows in the value
    # only if no later step adds a nonzero part, so the runs ending in a
    # signed zero are trailing ones.
    rng = random.Random(f"segments-{n}-{start}-{length}-{last!r}")
    for _ in range(4):
        coeffs = [random_unit_disk(rng) for _ in range(n)]
        run = [last] + [rng.choice(_SIGNED_ZEROS) for _ in range(length - 1)]
        coeffs[start : start + length] = run
        poly = Polynomial(coeffs=coeffs)
        assert _skipped(poly) == skipped
        _assert_horner_bits(poly, rng)


@pytest.mark.parametrize("shape", ["dense", "parity", "leading-minus-2"])
def test_polynomials_without_a_skip_match_plain_horner_bit_for_bit(shape):
    # Zeros divided by a negative leading coefficient are -0 - 0j, so even
    # z^n - c given with leading -2 keeps every step.
    rng = random.Random(f"segments-{shape}")
    for _ in range(6):
        n = rng.randint(2, 100)
        coeffs = [random_unit_disk(rng) for _ in range(n)]
        if shape == "parity":
            coeffs = [c if k % 2 else 0j for k, c in enumerate(coeffs)]
        if shape == "leading-minus-2":
            coeffs = coeffs[:1] + [0j] * (n - 1)
        poly = Polynomial.from_coefficients(coeffs, -2 if shape == "leading-minus-2" else 1)
        assert _skipped(poly) == 0
        _assert_horner_bits(poly, rng)


def test_sparse_random_coefficients_match_plain_horner_bit_for_bit():
    # Three in four coefficients are zeros of any sign, so runs of every
    # length end in every sign. Half the sets are real, so that zero parts,
    # and their signs, last to the end.
    rng = random.Random("segments-sparse")
    skips = 0
    for i in range(200):
        n = rng.randint(2, 100)
        coeffs = [
            rng.choice(_SIGNED_ZEROS + (0j,) * 4) if rng.random() < 0.75 else random_unit_disk(rng)
            for _ in range(n)
        ]
        if i % 2:
            coeffs = [complex(c.real, 0.0) if c else c for c in coeffs]
        poly = Polynomial(coeffs=coeffs)
        skips += _skipped(poly) > 0
        for x in rng.sample(_EDGE_X, 10) + [random_unit_disk(rng, radius=1.5) for _ in range(5)]:
            assert _bits(poly.evaluate(x)) == _bits(_plain_horner(poly.coeffs, x)), (coeffs, x)
    assert skips >= 50
