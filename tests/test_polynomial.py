import random

import pytest

from conftest import random_distinct_points, random_unit_disk
from weierstrass import (
    DegreeTooLarge,
    DegreeTooSmall,
    DuplicateRoots,
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


def test_degree_cap_is_configurable():
    roots = [complex(i, (i % 7) / 7) for i in range(101)]
    with pytest.raises(DegreeTooLarge):
        Polynomial.from_roots(roots)
    assert Polynomial.from_roots(roots, max_degree=101).degree == 101
    with pytest.raises(DegreeTooLarge):
        Polynomial.from_coefficients([0] * 101)


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
