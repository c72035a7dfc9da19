import itertools
import math
import random

import pytest

from conftest import random_distinct_points
from weierstrass import NoSignChange, bisect, match_roots, minimize_1d, p_norm


def test_bisect_sqrt2():
    root = bisect(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-12)
    assert root == pytest.approx(math.sqrt(2), abs=1e-9)


def test_bisect_exp_fixed_point():
    root = bisect(lambda x: math.exp(1.0 / x) - x, 1.0, 3.0, tol=1e-12)
    assert root == pytest.approx(1.763222, abs=1e-5)


def test_bisect_sum_norm_radius_equation():
    root = bisect(
        lambda x: x / (1 - x) ** 2 * math.exp(x / (1 - x)) - 1.0, 1e-6, 0.9, tol=1e-12
    )
    assert root == pytest.approx(0.307541, abs=1e-5)


def test_bisect_requires_sign_change():
    with pytest.raises(NoSignChange):
        bisect(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisect_result_is_bracket_stable():
    f = lambda x: x * x * x - 5.0
    tol = 1e-10
    root = bisect(f, 1.0, 2.0, tol=tol)
    assert f(root - tol) <= 0.0 <= f(root + tol)


def test_minimize_parabola():
    x, fx = minimize_1d(lambda x: (x - 1.0) ** 2, 0.0, 3.0, tol=1e-10)
    assert x == pytest.approx(1.0, abs=1e-8)
    assert fx == pytest.approx(0.0, abs=1e-10)


def test_minimize_degree_two_damping_objective():
    # x(1+x) - 2x = x^2 - x has minimum -1/4 at 1/2.
    x, fx = minimize_1d(lambda x: x * (1 + x) - 2 * x, 0.0, 1.0, tol=1e-12)
    assert x == pytest.approx(0.5, abs=1e-8)
    assert fx == pytest.approx(-0.25, abs=1e-12)


def test_minimize_degree_four_sum_norm_objective():
    f = lambda x: 0.75 * x ** 2 + 0.25 * x ** 3 + x ** 4 / 24.0 - x
    x, fx = minimize_1d(f, 1e-6, 3.0, tol=1e-12)
    assert fx == pytest.approx(-0.279, abs=1e-3)


def test_minimum_is_interior_local_minimum():
    tol = 1e-12
    f = lambda x: math.cos(x)
    x, fx = minimize_1d(f, 2.0, 4.0, tol=tol)
    assert f(x - 10 * tol) >= fx - 1e-12
    assert f(x + 10 * tol) >= fx - 1e-12


def test_match_roots_swaps():
    perm, err = match_roots((1.0, -1.0), (-1, 1), math.inf)
    assert perm == (1, 0)
    assert err == 0.0


def test_match_roots_direct_distance():
    perm, err = match_roots((1.1, -1.0), (1, -1), math.inf)
    assert perm == (0, 1)
    assert err == pytest.approx(0.1)


def test_match_roots_recovers_generating_permutation():
    rng = random.Random(7)
    for _ in range(20):
        truth = random_distinct_points(rng, 6, radius=1.0, min_sep=0.25)
        idx = list(range(6))
        rng.shuffle(idx)
        computed = [
            truth[idx[i]] + 0.01 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for i in range(6)
        ]
        for p in (1, 2, math.inf):
            perm, _ = match_roots(computed, truth, p)
            assert perm == tuple(idx)


def test_assignment_path_agrees_with_exhaustive():
    rng = random.Random(8)
    for trial in range(150):
        n = rng.randint(2, 8)
        p = (1, 2, math.inf)[trial % 3]
        a = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(n)]
        b = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(n)]
        _, err_exhaustive = match_roots(a, b, p)
        _, err_assignment = match_roots(a, b, p, exhaustive_limit=0)
        assert err_assignment == pytest.approx(err_exhaustive, abs=1e-12)


def test_match_roots_length_mismatch():
    with pytest.raises(ValueError):
        match_roots((1, 2), (1, 2, 3), 2)


# --- the table-driven exhaustive search against a per-permutation reference --


def _reference_match(computed, truth, p):
    """The plain search: p_norm of every permutation's differences, keeping
    the first strict minimum in lexicographic order."""
    a = [complex(c) for c in computed]
    b = [complex(c) for c in truth]
    n = len(a)

    def cost(perm):
        return p_norm([a[i] - b[perm[i]] for i in range(n)], p)

    best_perm = tuple(range(n))
    best = cost(best_perm)
    for perm in itertools.permutations(range(n)):
        err = cost(perm)
        if err < best:
            best, best_perm = err, perm
    return best_perm, best


MATCH_PS = (1, 1.5, 2, 3.5, math.inf, 800, 2000)


def _cloud(rng, n, scale=1.5):
    return [complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(n)]


def _near_match(rng, n, offset):
    truth = _cloud(rng, n)
    idx = list(range(n))
    rng.shuffle(idx)
    return [truth[idx[i]] + offset * _cloud(rng, 1, 1.0)[0] for i in range(n)], truth


def _with_non_finite(rng, n):
    computed, truth = _cloud(rng, n), _cloud(rng, n)
    specials = (math.nan, math.inf, -math.inf)
    for pts in (computed, truth):
        k = rng.randrange(n)
        bad = rng.choice(specials)
        pts[k] = complex(bad, pts[k].imag) if rng.random() < 0.5 else complex(pts[k].real, bad)
    return computed, truth


MATCH_SHAPES = {
    "cloud": lambda rng, n: (_cloud(rng, n), _cloud(rng, n)),
    "near": lambda rng, n: _near_match(rng, n, 1e-3),
    "equal": lambda rng, n: ([_cloud(rng, 1)[0]] * n, _cloud(rng, n)),
    "grid": lambda rng, n: tuple(
        [complex(round(z.real, 1), round(z.imag, 1)) for z in _cloud(rng, n, 0.3)] for _ in "ab"
    ),
    # |offset|^2 underflows at p = 2, so p_norm rescales.
    "tiny": lambda rng, n: _near_match(rng, n, 1e-170),
    # Moduli near 1e155: |d|^p overflows at p = 800 and 2000 (and at p = 2).
    "huge": lambda rng, n: (
        [1e155 * z for z in _cloud(rng, n, 1.0)],
        [1e155 * z for z in _cloud(rng, n, 1.0)],
    ),
    "non_finite": _with_non_finite,
}


def _outcome(match, computed, truth, p):
    # CPython's abs() of a complex with a NaN part raises OverflowError when
    # an earlier caught overflow left errno at ERANGE, so p_norm itself
    # raises on some NaN inputs at large p; the search must do the same.
    try:
        perm, err = match(computed, truth, p)
    except OverflowError:
        return "OverflowError"
    return perm, "nan" if math.isnan(err) else err.hex()


def _assert_matches_reference(computed, truth, p):
    got = _outcome(match_roots, computed, truth, p)
    assert got == _outcome(_reference_match, computed, truth, p), (computed, truth, p)


@pytest.mark.parametrize("shape", sorted(MATCH_SHAPES))
def test_exhaustive_search_is_bit_identical_to_reference(shape):
    rng = random.Random(f"match-{shape}")
    for n in range(1, 8):
        for _ in range(2 if n < 7 else 1):
            computed, truth = MATCH_SHAPES[shape](rng, n)
            for p in MATCH_PS:
                _assert_matches_reference(computed, truth, p)


@pytest.mark.parametrize(
    "shape, p", [("near", 2), ("grid", math.inf), ("tiny", 2), ("huge", 800)]
)
def test_exhaustive_search_is_bit_identical_to_reference_at_n8(shape, p):
    rng = random.Random(f"match8-{shape}")
    computed, truth = MATCH_SHAPES[shape](rng, 8)
    _assert_matches_reference(computed, truth, p)
