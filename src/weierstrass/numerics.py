"""Scalar bisection and the root-matching oracle."""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

from .errors import ConvergenceFailure, NoSignChange
from .operator import _MIN_NORMAL, NormIndex, NormLike, _moduli, as_norm, p_norm

#: Steps bisect takes before giving up on reaching width tol.
_STEP_CAP = 200


def bisect(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12) -> float:
    """Bisection root of f on [lo, hi]; requires a sign change on the bracket."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise NoSignChange(f"f({lo}) = {flo:.3g} and f({hi}) = {fhi:.3g} have equal sign")
    for _ in range(_STEP_CAP):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
    raise ConvergenceFailure(f"bisection did not reach width {tol} in {_STEP_CAP} iterations")


def match_roots(
    computed: Sequence[complex],
    truth: Sequence[complex],
    p: NormLike = 2,
    exhaustive_limit: int = 8,
) -> tuple[tuple[int, ...], float]:
    """Pair computed values with true roots, minimizing ||computed - truth[perm]||_p.

    Returns (perm, error) where perm[i] is the index of the true root assigned
    to computed[i]. Up to `exhaustive_limit` points the first minimal
    permutation in lexicographic order wins; the search serves as its own
    oracle. At finite p every permutation is scored from the table of moduli
    |computed[i] - truth[j]| (and their p-th powers), summed in index order,
    bit-identical to p_norm of that permutation's differences: where p_norm
    would rescale, the score calls it. At p = inf the score is the largest
    table entry, which rounds nothing, so a depth-first search that prunes
    by the best maximum found gives the same permutation as scoring every
    one, typically after tens to hundreds of branches. Beyond the limit the
    assignment is still exact: threshold bipartite matching gives the least
    largest distance t*, which is the answer for p = inf, and for finite p
    shortest augmenting paths minimize the sum of (d / t*)^p, which can
    neither overflow nor all underflow to zero. On both paths no pairing
    goes through a NaN distance (equal infinities or a NaN coordinate); when
    every pairing does, the identity is returned with a NaN error.
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
    if n > exhaustive_limit:
        perm = _bottleneck_assignment(dist)
        if perm is not None and not math.isinf(norm.p):
            perm = _min_power_sum_assignment(dist, perm, norm.p)
    elif math.isinf(norm.p):
        perm = _least_max_permutation(dist)
    else:
        perms = itertools.permutations(range(n))
        if any(d != d for row in dist for d in row):
            perms = (s for s in perms if all(dist[i][j] == dist[i][j] for i, j in enumerate(s)))
        perm = min(perms, key=_table_score(a, b, dist, norm), default=None)
    if perm is None:
        return tuple(range(n)), math.nan
    return tuple(perm), p_norm([a[i] - b[perm[i]] for i in range(n)], norm)


def _table_score(
    a: list[complex], b: list[complex], dist: list[list[float]], norm: NormIndex
) -> Callable[[tuple[int, ...]], float]:
    """Return perm -> p_norm([a[i] - b[perm[i]] for i], norm), read from
    dist[i][j] = abs(a[i] - b[j]) with the same terms in the same order, for
    finite p."""
    pick = list.__getitem__
    if norm.p == 1:
        return lambda perm: sum(map(pick, dist, perm))
    q = norm.p
    inv_q = 1.0 / q
    powers = [[_power_or_inf(d, q) for d in row] for row in dist]

    def score(perm: tuple[int, ...]) -> float:
        total = sum(map(pick, powers, perm))
        if _MIN_NORMAL <= total < math.inf:
            return total ** inv_q
        # Zero, subnormal, overflowed or NaN: p_norm rescales or decides.
        return p_norm([a[i] - b[j] for i, j in enumerate(perm)], norm)

    return score


def _least_max_permutation(dist: list[list[float]]) -> list[int] | None:
    """The first permutation in lexicographic order whose largest entry
    dist[i][perm[i]] is least among those that avoid NaN entries, or None
    when every permutation meets one.

    Rows are filled depth-first in order, each with its unused columns in
    ascending order. A branch whose running maximum is already at least the
    best found cannot do strictly better, so it is dropped, and a completed
    permutation replaces the best only by being strictly smaller. No
    permutation can beat the largest row or column minimum, so the search
    stops when the best reaches it.
    """
    n = len(dist)
    floor = 0.0
    for line in (*dist, *zip(*dist)):
        usable = [d for d in line if d == d]
        if not usable:
            return None
        floor = max(floor, min(usable))
    used = [False] * n
    perm = [0] * n
    best: list[int] | None = None
    best_max = math.nan  # no permutation yet: every comparison with it is False

    def extend(i: int, running: float) -> bool:
        """Fill rows i.. under the running maximum; True once best_max == floor."""
        nonlocal best, best_max
        if i == n:
            best, best_max = perm.copy(), running
            return best_max == floor
        for j, d in enumerate(dist[i]):
            if used[j] or d != d:
                continue
            top = d if d > running else running
            if top >= best_max:
                continue
            used[j], perm[i] = True, j
            done = extend(i + 1, top)
            used[j] = False
            if done:
                return True
        return False

    extend(0, 0.0)
    return best


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

    def matching_under(limit: float) -> list[int] | None:
        match = [-1] * n  # match[j] = row assigned to column j

        def augment(i: int, seen: list[bool]) -> bool:
            for j in range(n):
                if dist[i][j] <= limit and not seen[j]:
                    seen[j] = True
                    if match[j] == -1 or augment(match[j], seen):
                        match[j] = i
                        return True
            return False

        for i in range(n):
            if not augment(i, [False] * n):
                return None
        return match

    lo, hi = 0, len(values) - 1
    best: list[int] | None = None
    while lo <= hi:
        mid = (lo + hi) // 2
        found = matching_under(values[mid])
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
