import itertools
import math
import random
import sys

import pytest

import weierstrass.numerics
import weierstrass.operator
from conftest import compensated_sum, random_distinct_points
from weierstrass import (
    ConvergenceFailure,
    NonFiniteValue,
    NoSignChange,
    bisect,
    match_roots,
    p_norm,
)


def test_bisect_sqrt2():
    root = bisect(lambda x: x * x - 2.0, 1.0, 2.0)
    assert root == pytest.approx(math.sqrt(2), abs=1e-9)


def test_bisect_exp_fixed_point():
    root = bisect(lambda x: math.exp(1.0 / x) - x, 1.0, 3.0)
    assert root == pytest.approx(1.763222, abs=1e-5)


def test_bisect_sum_norm_radius_equation():
    root = bisect(lambda x: x / (1 - x) ** 2 * math.exp(x / (1 - x)) - 1.0, 1e-6, 0.9)
    assert root == pytest.approx(0.307541, abs=1e-5)


def test_bisect_requires_sign_change():
    with pytest.raises(NoSignChange):
        bisect(lambda x: x * x + 1.0, -1.0, 1.0)


@pytest.mark.parametrize(
    "f",
    [
        lambda x: -1.0 if x < 1.5 else math.nan,
        lambda x: math.nan if x < 1.5 else 1.0,
        lambda x: math.nan,
    ],
)
def test_bisect_refuses_a_nan_at_an_end_of_the_bracket(f):
    # nan < 0 is False, so a sign test on `< 0` alone would take a NaN end
    # for a positive one and bisect the first f down to 1.5, where it has no
    # root.
    with pytest.raises(NoSignChange):
        bisect(f, 0.0, 2.0)


@pytest.mark.parametrize(
    "f",
    [
        lambda x: -1.0 if x < 1.5 else (math.nan if x < 1.9 else 1.0),
        lambda x: 1.0 if x < 1.5 else (math.nan if x < 1.9 else -1.0),
    ],
)
def test_bisect_refuses_a_nan_inside_the_bracket(f):
    # The ends change sign, but the first midpoint, 1.0, and the second, 1.5,
    # straddle no root: f is NaN from 1.5 to 1.9. A NaN is neither below nor
    # above zero, so it must not steer the bracket.
    with pytest.raises(NonFiniteValue, match=r"f\(1\.5\) is nan"):
        bisect(f, 0.0, 2.0)


def test_bisect_result_is_bracket_stable():
    f = lambda x: x * x * x - 5.0
    tol = 1e-12  # bisect's bracket width
    root = bisect(f, 1.0, 2.0)
    assert f(root - tol) <= 0.0 <= f(root + tol)


def test_bisect_raises_when_the_width_is_out_of_reach():
    # Near sqrt(2e10) adjacent doubles are 2.9e-11 apart, wider than 1e-12, so
    # the bracket stops shrinking there, where x * x - 2e10 is never 0, and the
    # 200-step cap is reached.
    with pytest.raises(ConvergenceFailure, match="in 200 iterations"):
        bisect(lambda x: x * x - 2e10, 1e5, 2e5)


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0)])
def test_bisect_needs_lo_below_hi(lo, hi):
    with pytest.raises(ValueError, match=r"need lo < hi"):
        bisect(lambda x: x - 1.5, lo, hi)


def test_bisect_returns_an_endpoint_where_f_is_zero():
    calls = []

    def f(x):
        calls.append(x)
        return x * x - 1.0

    assert bisect(f, 1.0, 3.0) == 1.0
    assert bisect(f, -3.0, -1.0) == -1.0
    assert calls == [1.0, 3.0, -3.0, -1.0]


def _match_with_limit(computed, truth, p, limit):
    """match_roots with the lexicographic search up to `limit` points and the
    assignment path above, to reach either path at any n."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(weierstrass.numerics, "_EXHAUSTIVE_LIMIT", limit)
        return match_roots(computed, truth, p)


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
        _, err_assignment = _match_with_limit(a, b, p, 0)
        assert err_assignment == pytest.approx(err_exhaustive, abs=1e-12)


def test_match_roots_at_p_inf_gives_the_same_result_for_reversed_lists():
    # |inf - (inf + 0.5j)| is NaN, so the identity pairing has no error and
    # is never picked: at p = 1, 2 and inf, both orders and the assignment
    # path pair each infinity with a finite point, at error inf.
    forward = ([math.inf, 1], [complex(math.inf, 0.5), 2])
    backward = ([1, math.inf], [2, complex(math.inf, 0.5)])
    for p in (1, 2, math.inf):
        for computed, truth in (forward, backward):
            assert _match_with_limit(computed, truth, p, 0) == ((1, 0), math.inf)
            assert match_roots(computed, truth, p) == ((1, 0), math.inf)


def test_match_roots_with_a_nan_coordinate(call):
    perm, err = call(match_roots, [complex(math.nan, 0), 1, 2], [0, 1, 2], 2)
    assert perm == (0, 1, 2) and math.isnan(err)


def test_match_roots_when_no_pairing_avoids_a_nan_distance():
    # inf - inf is NaN, so computed 0 and 1 are at a NaN distance from truth
    # 0 and 1, and both can pair only with truth 2. No row or column is all
    # NaN, yet every pairing meets a NaN distance.
    computed = [complex(math.inf, 0), complex(math.inf, 1), 0]
    truth = [complex(math.inf, 0.5), complex(math.inf, 2), 1]
    for p in (1, 2, math.inf):
        for limit in (0, 8):
            perm, err = _match_with_limit(computed, truth, p, limit)
            assert perm == (0, 1, 2) and math.isnan(err)


def test_match_roots_length_mismatch():
    with pytest.raises(ValueError):
        match_roots((1, 2), (1, 2, 3), 2)


def test_match_roots_of_no_points():
    assert match_roots([], []) == ((), 0.0)


# --- the table-driven exhaustive search against a per-permutation reference --


def _reference_match(computed, truth, p):
    """The plain search: p_norm of every permutation's differences, keeping
    the first strict minimum in lexicographic order. A permutation that pairs
    through a NaN distance is skipped; when every one does, the identity and
    NaN are returned."""
    a = [complex(c) for c in computed]
    b = [complex(c) for c in truth]
    n = len(a)
    best_perm, best = None, math.nan
    for perm in itertools.permutations(range(n)):
        diffs = [a[i] - b[perm[i]] for i in range(n)]
        # math.hypot is abs() of a complex without CPython's errno check.
        if any(math.isnan(math.hypot(d.real, d.imag)) for d in diffs):
            continue
        err = p_norm(diffs, p)
        if best_perm is None or err < best:
            best, best_perm = err, perm
    return (tuple(range(n)), math.nan) if best_perm is None else (best_perm, best)


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


def _equal_infinities(rng, n):
    # One computed and one true point at +inf real part with different
    # imaginary parts: their distance is |nan + yj|, NaN.
    computed, truth = _cloud(rng, n), _cloud(rng, n)
    computed[rng.randrange(n)] = complex(math.inf, 0.0)
    truth[rng.randrange(n)] = complex(math.inf, 0.5)
    return computed, truth


def _repeated_point(rng, n):
    # The truth with its first point repeated, computed a shuffled copy of it:
    # two pairings have error 0, and the first in lexicographic order wins.
    truth = _cloud(rng, n)
    truth[-1] = truth[0]
    computed = list(truth)
    rng.shuffle(computed)
    return computed, truth


def _reversed_match(rng, n):
    # computed[i] is truth[n - 1 - i] plus an offset far below the separation,
    # so the optimum is the last permutation in lexicographic order.
    truth = list(random_distinct_points(rng, n, radius=1.5, min_sep=0.1))
    return [z + 1e-3 * _cloud(rng, 1, 1.0)[0] for z in reversed(truth)], truth


MATCH_SHAPES = {
    "cloud": lambda rng, n: (_cloud(rng, n), _cloud(rng, n)),
    "near": lambda rng, n: _near_match(rng, n, 1e-3),
    "equal": lambda rng, n: ([_cloud(rng, 1)[0]] * n, _cloud(rng, n)),
    "equal_truth": lambda rng, n: (_cloud(rng, n), [_cloud(rng, 1)[0]] * n),
    "repeated": _repeated_point,
    "reversed": _reversed_match,
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
    "equal_infinities": _equal_infinities,
}


def _outcome(match, computed, truth, p):
    # Every probe must return: NaN and inf coordinates give a NaN or inf
    # error, never an exception, on both sides.
    perm, err = match(computed, truth, p)
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
    "shape, p",
    [
        ("near", 2),
        ("grid", math.inf),
        ("tiny", 2),
        ("huge", 800),
        ("equal_truth", math.inf),
        ("repeated", math.inf),
        ("reversed", math.inf),
        ("near", 1),
        ("grid", 1),
        ("reversed", 1),
        ("huge", 1),
        ("repeated", 1),
        ("equal", 1),
        ("equal_truth", 1),
    ],
)
def test_exhaustive_search_is_bit_identical_to_reference_at_n8(shape, p):
    rng = random.Random(f"match8-{shape}")
    computed, truth = MATCH_SHAPES[shape](rng, 8)
    _assert_matches_reference(computed, truth, p)


# Inputs on which the p = 1 search goes far. Every computed point equal, or
# every true point: all totals tie in exact arithmetic, rounding picks the
# winner, no prune fires and the search walks its whole tree, 109,601 nodes
# at n = 8. And an independent random cloud that needs 10,545 nodes.
FAR_SEARCHES = (
    ("equal", "match-tie-equal"),
    ("equal_truth", "match-tie-equal_truth"),
    ("cloud", "match-budget-6"),
)


@pytest.mark.parametrize("p, seed, draws", [(1, "match-one", 3), (math.inf, "match-inf", 1)])
def test_match_roots_at_p1_and_p_inf_enumerates_no_permutations(monkeypatch, p, seed, draws):
    # Up to n = 8, p = 1 and p = inf are a pruned search over the table of
    # moduli, not a score of every permutation, and it keeps the reference's
    # permutation and error where it prunes little or nothing.
    far = [MATCH_SHAPES[shape](random.Random(s), 8) for shape, s in FAR_SEARCHES]
    want = [_outcome(_reference_match, computed, truth, p) for computed, truth in far]

    def refuse(*args):
        raise AssertionError(f"itertools.permutations called at p = {p}")

    monkeypatch.setattr(itertools, "permutations", refuse)
    assert [_outcome(match_roots, computed, truth, p) for computed, truth in far] == want
    for shape in sorted(MATCH_SHAPES):
        rng = random.Random(f"{seed}-{shape}")
        for n in range(1, 9):
            for _ in range(draws):
                perm, _ = match_roots(*MATCH_SHAPES[shape](rng, n), p)
                assert sorted(perm) == list(range(n))


def _search_nodes(computed, truth, p):
    """`_outcome` of match_roots, and the number of calls to the search's `extend`."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "extend":
            calls += 1

    sys.setprofile(profile)
    try:
        outcome = _outcome(match_roots, computed, truth, p)
    finally:
        sys.setprofile(None)
    return outcome, calls


@pytest.mark.parametrize("p", [1, math.inf])
def test_search_drops_branches_that_no_nan_free_permutation_completes(p):
    # One computed and one true point with a non-finite part make a row and
    # a column partly NaN. Pruned by its bound alone, the search walks every
    # subtree of row 0 that cannot place the rows left before it meets its
    # first permutation: 13,708, 4,254 and 1,966 nodes on these seeds, where
    # the median over 185 seeds of the shape is 9. Hall's condition on the
    # usable entries drops those subtrees, and each seed takes 9 nodes.
    for seed in (150, 116, 80):
        computed, truth = _with_non_finite(random.Random(seed), 8)
        assert any(abs(a - b) != abs(a - b) for a in computed for b in truth), seed
        outcome, nodes = _search_nodes(computed, truth, p)
        assert outcome == _outcome(_reference_match, computed, truth, p), seed
        assert nodes <= 20, (seed, nodes)


@pytest.mark.parametrize("shape", sorted(MATCH_SHAPES))
def test_p1_search_matches_reference_under_a_compensated_sum(monkeypatch, shape):
    # The search bounds each branch by left-to-right partial sums but scores
    # a complete permutation with sum(), as p_norm does. Its relative margin
    # must keep the prune exact when sum() rounds differently.
    for module in (weierstrass.numerics, weierstrass.operator):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    rng = random.Random(f"match-fsum-{shape}")
    for n in range(1, 9):
        computed, truth = MATCH_SHAPES[shape](rng, n)
        _assert_matches_reference(computed, truth, 1)


# --- the assignment path (n > 8) at large p ----------------------------------


def _shuffled_with_offsets(rng, truth, offset):
    """computed[i] = truth[perm[i]] + an offset of modulus below `offset`."""
    perm = list(range(len(truth)))
    rng.shuffle(perm)
    computed = [truth[j] + offset * _cloud(rng, 1, 0.7)[0] for j in perm]
    return computed, tuple(perm)


def _assert_assignment_near_exhaustive(computed, truth, p):
    perm, err = _match_with_limit(computed, truth, p, 0)
    _, best = _match_with_limit(computed, truth, p, len(truth))
    assert sorted(perm) == list(range(len(truth)))
    assert err == p_norm([a - truth[j] for a, j in zip(computed, perm)], p)
    assert abs(err - best) <= 1e-12 * best, (computed, truth, p)


def test_assignment_path_at_p800_does_not_overflow():
    # Nine points in [-2, 2]^2: distances up to 4, and 4**800 overflows.
    rng = random.Random("assign-p800")
    truth = _cloud(rng, 9, 2.0)
    assert min(abs(a - b) for a, b in itertools.combinations(truth, 2)) > 0.1
    computed, perm = _shuffled_with_offsets(rng, truth, 1e-3)
    got_perm, err = match_roots(computed, truth, 800)
    assert got_perm == perm
    assert err == p_norm([a - truth[j] for a, j in zip(computed, perm)], 800)


def test_assignment_path_when_every_cost_underflows():
    # Points 1e-3 apart, offsets below 1e-6: every d**2000 underflows to 0.
    rng = random.Random("assign-p2000")
    truth = [complex(1e-3 * k, 0) for k in range(5)]
    computed, perm = _shuffled_with_offsets(rng, truth, 1e-6)
    got_perm, err = _match_with_limit(computed, truth, 2000, 0)
    assert got_perm == perm
    assert err < 1e-6
    _assert_assignment_near_exhaustive(computed, truth, 2000)


@pytest.mark.parametrize("p", [2, 3.5, 800, 2000])
def test_assignment_path_is_within_1e12_of_exhaustive(p):
    rng = random.Random(f"assign-{p}")
    for n in range(2, 8):
        for _ in range(3):
            _assert_assignment_near_exhaustive(_cloud(rng, n, 2.0), _cloud(rng, n, 2.0), p)
            truth = random_distinct_points(rng, n, radius=2e-3, min_sep=5e-4)
            computed, _ = _shuffled_with_offsets(rng, truth, 1e-6)
            _assert_assignment_near_exhaustive(computed, truth, p)


def test_assignment_path_keeps_an_exact_match():
    truth = [complex(k, -k) for k in range(10)]
    computed = truth[3:] + truth[:3]
    perm, err = match_roots(computed, truth, 2000)
    assert perm == tuple(range(3, 10)) + (0, 1, 2)
    assert err == 0.0


@pytest.mark.parametrize("side", ["computed", "truth"])
@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_assignment_path_returns_nan_for_a_nan_coordinate(side, p):
    # Nine points take the assignment path. A NaN coordinate makes one row
    # (or column) of distances NaN, so no assignment beats another: return
    # the identity and a NaN error, as the n! search does at n = 8, p = 2.
    rng = random.Random(f"assign-nan-{side}")
    points = {"computed": _cloud(rng, 9), "truth": _cloud(rng, 9)}
    bad = points[side][4]
    points[side][4] = complex(bad.real, math.nan)
    perm, err = match_roots(points["computed"], points["truth"], p)
    assert perm == tuple(range(9))
    assert math.isnan(err)
    perm8, err8 = match_roots(points["computed"][:8], points["truth"][:8], 2)
    assert perm8 == tuple(range(8)) and math.isnan(err8)


def test_assignment_path_keeps_an_inf_error_for_equal_infinities():
    # inf - inf makes one distance NaN, but matchings that avoid it exist, so
    # the error is inf. NaN floats hash by identity: a NaN among the sorted
    # thresholds made the search depend on set order, and the bottleneck
    # search found no matching on some calls and not on others.
    for k in range(30):
        rng = random.Random(f"assign-inf-{k}")
        computed, truth = _cloud(rng, 9), _cloud(rng, 9)
        computed[rng.randrange(9)] = complex(math.inf, 0.0)
        truth[rng.randrange(9)] = complex(math.inf, 0.5)
        for p in (1, 2, math.inf):
            perm, err = match_roots(computed, truth, p)
            assert sorted(perm) == list(range(9)) and err == math.inf
