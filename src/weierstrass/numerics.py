"""Scalar bisection and the root-matching oracle."""

from __future__ import annotations

import itertools
import math
from operator import add
from typing import Callable, Sequence

from .errors import ConvergenceFailure, NonFiniteValue, NoSignChange
from .operator import _MIN_NORMAL, NormIndex, NormLike, _moduli, as_norm, p_norm

#: Bracket width at which bisect stops, and the steps it takes before it
#: gives up on reaching it.
_WIDTH = 1e-12
_STEP_CAP = 200
#: Largest n that match_roots solves by lexicographic search.
_EXHAUSTIVE_LIMIT = 8


def bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisection root of f on [lo, hi], to a bracket width of 1e-12; requires a
    sign change on the bracket, and raises NonFiniteValue at a NaN inside it."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):  # a NaN end fails both
        raise NoSignChange(f"f({lo}) = {flo:.3g} and f({hi}) = {fhi:.3g} do not change sign")
    rise = 1.0 if flo < 0.0 else -1.0  # rise * f is negative at lo, positive at hi
    for _ in range(_STEP_CAP):
        mid = 0.5 * (lo + hi)
        fm = rise * f(mid)
        if fm < 0.0:
            lo = mid
        elif fm > 0.0:
            hi = mid
        elif fm == 0.0:
            return mid
        else:
            raise NonFiniteValue(f"f({mid}) is nan")
        if hi - lo <= _WIDTH:
            return 0.5 * (lo + hi)
    raise ConvergenceFailure(f"bisection did not reach width {_WIDTH} in {_STEP_CAP} iterations")


def match_roots(
    computed: Sequence[complex], truth: Sequence[complex], p: NormLike = 2
) -> tuple[tuple[int, ...], float]:
    """Pair computed values with true roots, minimizing ||computed - truth[perm]||_p.

    Returns (perm, error) where perm[i] is the index of the true root assigned
    to computed[i]. n and p alone choose the algorithm. Up to 8 points the
    first minimal permutation in lexicographic order wins, scored from the
    table of moduli |computed[i] - truth[j]|. At p = 1 and p = inf a
    depth-first search that prunes by the best score found
    (`_least_permutation`) gives the same result as scoring all n!
    permutations, bit for bit. At n = 8 it visits 9 nodes when computed
    point i is nearest truth i, and all 109,601 nodes of its tree on exact
    ties at p = 1, where its prune keeps a relative margin for the rounding
    of sum(). At other p all n! are scored (`_scored_permutation`) from the
    p-th powers of the moduli summed in index order, bit-identical to p_norm
    of each permutation's differences: where p_norm would rescale, the score
    calls it. Beyond 8 points the assignment is still exact: threshold
    bipartite matching gives the least largest distance t*, which is the
    answer for p = inf, and for finite p shortest augmenting paths minimize
    the sum of (d / t*)^p, which can neither overflow nor all underflow to
    zero. On both paths no pairing goes through a NaN distance (equal
    infinities or a NaN coordinate); when every pairing does, the identity is
    returned with a NaN error.
    """
    a = [complex(c) for c in computed]
    b = [complex(c) for c in truth]
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    norm = as_norm(p)
    n = len(a)
    if n == 0:
        return (), 0.0

    dist = [_moduli([ai - bj for bj in b]) for ai in a]
    if n > _EXHAUSTIVE_LIMIT:
        perm = _bottleneck_assignment(dist)
        if perm is not None and not math.isinf(norm.p):
            perm = _min_power_sum_assignment(dist, perm, norm.p)
    elif norm.p == 1 or math.isinf(norm.p):
        perm = _least_permutation(dist, norm.p)
    else:
        perm = _scored_permutation(a, b, dist, norm)
    if perm is None:
        return tuple(range(n)), math.nan
    return tuple(perm), p_norm([a[i] - b[perm[i]] for i in range(n)], norm)


def _least_permutation(dist: list[list[float]], p: float) -> list[int] | None:
    """The first permutation in lexicographic order with the least sum in row
    order (p = 1) or largest (p = inf) of its entries dist[i][perm[i]], among
    those that avoid NaN entries; None when every one meets one.

    Rows are filled depth-first in order, each with its unused columns in
    ascending order; a completed permutation replaces the best only when its
    score is strictly smaller. A branch is dropped when its lower bound, the
    running total joined with the remaining rows' least entries, is at least
    the best score, and the search stops when the best reaches the bound
    over all rows or all columns. `max` rounds nothing. A sum of k
    non-negative terms, left to right or compensated (CPython 3.12+), is
    within about (k - 1) * 2^-53 relative of its exact value, so at p = 1
    the bound's terms are scaled by shrink = 1 - (n + 1) * 2^-51 and no
    dropped branch holds a smaller score. Exact ties (all computed or all
    true points equal) prune nothing at p = 1, and the search walks the
    whole tree: 109,601 nodes at n = 8. When the table holds a NaN, a branch
    is also dropped unless the rows after it can still take distinct unused
    columns through usable entries (Hall's condition, by augmenting paths):
    such a branch completes no permutation.
    """
    n = len(dist)
    summing = p == 1
    whole, join, shrink = (sum, add, 1.0 - (n + 1) * 2.0**-51) if summing else (max, max, 1.0)
    lows = []
    for line in (*dist, *zip(*dist)):
        usable = [d for d in line if d == d]
        if not usable:
            return None
        lows.append(shrink * min(usable))
    floor = max(whole(lows[:n]), whole(lows[n:]))
    rest = list(itertools.accumulate(lows[n - 1 : 0 : -1], join, initial=0.0))[::-1]
    rows = [[(j, d) for j, d in enumerate(row) if d == d] for row in dist]
    has_nan = any(len(row) < n for row in rows)
    pick = list.__getitem__
    used, perm = [False] * n, [0] * n
    best: list[int] | None = None
    best_score = math.nan  # no permutation yet: every comparison with it is False

    def extend(i: int, running: float) -> bool:
        """Fill rows i.. from the running total; True once the search is done."""
        nonlocal best, best_score
        if i == n:
            total = whole(map(pick, dist, perm))
            if not total >= best_score:
                best, best_score = perm.copy(), total
            return best_score <= floor
        below = rest[i]
        for j, d in rows[i]:
            if used[j]:
                continue
            if summing:
                top = running + d
                bound = shrink * top + below
            else:
                top = d if d > running else running
                bound = top if top > below else below
            if bound >= best_score:
                continue
            used[j], perm[i] = True, j
            if has_nan and _augmenting_match(dist, math.inf, range(i + 1, n), used) is None:
                used[j] = False
                continue
            done = extend(i + 1, top)
            used[j] = False
            if done:
                return True
        return False

    extend(0, 0.0)
    return best


def _scored_permutation(
    a: list[complex], b: list[complex], dist: list[list[float]], norm: NormIndex
) -> tuple[int, ...] | None:
    """The first permutation in lexicographic order with the least
    p_norm([a[i] - b[perm[i]] for i], norm) among all n! that avoid NaN
    entries of dist, or None when none does.

    Each score is read from the p-th powers of dist[i][j] = abs(a[i] - b[j]),
    summed in index order: the terms p_norm sums, in its order. Where the
    total is zero, subnormal, overflowed or NaN, p_norm rescales or decides.
    """
    q = norm.p
    inv_q = 1.0 / q
    powers = [[_power_or_inf(d, q) for d in row] for row in dist]
    pick = list.__getitem__

    def score(perm: Sequence[int]) -> float:
        total = sum(map(pick, powers, perm))
        if _MIN_NORMAL <= total < math.inf:
            return total ** inv_q
        return p_norm([a[i] - b[j] for i, j in enumerate(perm)], norm)

    perms = itertools.permutations(range(len(dist)))
    if any(d != d for row in dist for d in row):
        perms = (s for s in perms if all(dist[i][j] == dist[i][j] for i, j in enumerate(s)))
    return min(perms, key=score, default=None)


def _power_or_inf(d: float, q: float) -> float:
    try:
        return d ** q
    except OverflowError:
        return math.inf


def _min_power_sum_assignment(
    dist: list[list[float]], bottleneck: list[int], q: float
) -> list[int]:
    """Exact minimum of sum_i dist[i][perm[i]] ** q, scored without overflow
    or a wholesale underflow to zero.

    t*, the largest distance `bottleneck` uses, is the least any permutation
    can have. An optimum's sum is at most n * t*^q, so an entry above
    n^(1/q) * t* is in no optimum: it costs n + 1, and every other entry
    (d / t*)^q <= n. At t* = 0 `bottleneck` is already optimal, and it is
    returned as it is when t* is not finite either.
    """
    n = len(dist)
    t = max(row[j] for row, j in zip(dist, bottleneck))
    if not 0.0 < t < math.inf:
        return bottleneck
    cutoff = n ** (1.0 / q) * t
    unusable = float(n + 1)
    return _min_sum_assignment(
        [[(d / t) ** q if d <= cutoff else unusable for d in row] for row in dist]
    )


def _min_sum_assignment(cost: list[list[float]]) -> list[int]:
    """Exact minimum-sum assignment (Hungarian, shortest augmenting path, O(n^3))."""
    n = len(cost)
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    matched_row = [0] * (n + 1)  # matched_row[j] = row occupying column j, 1-based
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        matched_row[0] = i
        j0 = 0
        min_slack = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = matched_row[j0]
            delta = math.inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < min_slack[j]:
                    min_slack[j] = cur
                    way[j] = j0
                if min_slack[j] < delta:
                    delta = min_slack[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[matched_row[j]] += delta
                    v[j] -= delta
                else:
                    min_slack[j] -= delta
            j0 = j1
            if matched_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            matched_row[j0] = matched_row[j1]
            j0 = j1
    perm = [0] * n
    for j in range(1, n + 1):
        if matched_row[j]:
            perm[matched_row[j] - 1] = j - 1
    return perm


def _bottleneck_assignment(dist: list[list[float]]) -> list[int] | None:
    """Exact min-max assignment: binary search over the non-NaN thresholds, each
    checked by Kuhn's augmenting paths; None if no threshold admits a matching."""
    n = len(dist)
    values = sorted({d for row in dist for d in row if d == d})
    free = [False] * n
    lo, hi = 0, len(values) - 1
    best: list[int] | None = None
    while lo <= hi:
        mid = (lo + hi) // 2
        found = _augmenting_match(dist, values[mid], range(n), free)
        if found is not None:
            best = found
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        return None
    perm = [0] * n
    for j, i in enumerate(best):
        perm[i] = j
    return perm


def _augmenting_match(
    dist: list[list[float]], limit: float, rows: Sequence[int], taken: list[bool]
) -> list[int] | None:
    """Kuhn's augmenting paths: give each row in `rows` its own column j with
    dist[row][j] <= limit (never a NaN entry) and taken[j] False. Returns
    match[j], the row given column j (-1 for none), or None when the rows
    cannot all be placed."""
    n = len(taken)
    match = [-1] * n

    def augment(i: int, seen: list[bool]) -> bool:
        row = dist[i]
        for j in range(n):
            if row[j] <= limit and not (taken[j] or seen[j]):
                seen[j] = True
                if match[j] == -1 or augment(match[j], seen):
                    match[j] = i
                    return True
        return False

    for i in rows:
        if not augment(i, [False] * n):
            return None
    return match
