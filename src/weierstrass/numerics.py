"""Scalar bisection, golden-section minimization, and the root-matching oracle."""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

from .errors import ConvergenceFailure, NoSignChange
from .operator import _MIN_NORMAL, NormIndex, NormLike, as_norm, p_norm

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
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
    for _ in range(max_iter):
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
    raise ConvergenceFailure(f"bisection did not reach width {tol} in {max_iter} iterations")


def minimize_1d(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Golden-section minimum of a unimodal f on [lo, hi]; returns (argmin, min)."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if hi - lo <= tol:
            x = 0.5 * (lo + hi)
            return x, f(x)
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    raise ConvergenceFailure(f"golden section did not reach width {tol} in {max_iter} iterations")


def match_roots(
    computed: Sequence[complex],
    truth: Sequence[complex],
    p: NormLike = 2,
    exhaustive_limit: int = 8,
) -> tuple[tuple[int, ...], float]:
    """Pair computed values with true roots, minimizing ||computed - truth[perm]||_p.

    Returns (perm, error) where perm[i] is the index of the true root assigned
    to computed[i]. Up to `exhaustive_limit` points every permutation is
    scored, and the first minimal one in lexicographic order wins; the search
    serves as its own oracle. Each score comes from the table of moduli
    |computed[i] - truth[j]| (and their p-th powers), summed in index order,
    and is bit-identical to p_norm of that permutation's differences: where
    p_norm would rescale, the score calls it. Beyond the limit the assignment
    is still exact, via shortest augmenting paths for finite p and threshold
    bipartite matching for p = inf.
    """
    a = [complex(c) for c in computed]
    b = [complex(c) for c in truth]
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    norm = as_norm(p)
    n = len(a)
    if n == 0:
        return (), 0.0

    dist = [[abs(ai - bj) for bj in b] for ai in a]
    if n <= exhaustive_limit:
        score = _table_score(a, b, dist, norm)
        best_perm = min(itertools.permutations(range(n)), key=score)
        return best_perm, score(best_perm)

    if math.isinf(norm.p):
        perm = _bottleneck_assignment(dist)
    else:
        perm = _min_sum_assignment([[d ** norm.p for d in row] for row in dist])
    return tuple(perm), p_norm([a[i] - b[perm[i]] for i in range(n)], norm)


def _table_score(
    a: list[complex], b: list[complex], dist: list[list[float]], norm: NormIndex
) -> Callable[[tuple[int, ...]], float]:
    """Return perm -> p_norm([a[i] - b[perm[i]] for i], norm), read from
    dist[i][j] = abs(a[i] - b[j]) with the same terms in the same order."""
    pick = list.__getitem__
    if math.isinf(norm.p):
        return lambda perm: max(map(pick, dist, perm))
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


def _power_or_inf(d: float, q: float) -> float:
    try:
        return d ** q
    except OverflowError:
        return math.inf


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


def _bottleneck_assignment(dist: list[list[float]]) -> list[int]:
    """Exact min-max assignment: binary search over thresholds, each checked by
    a bipartite perfect-matching test (Kuhn's augmenting paths)."""
    n = len(dist)
    values = sorted({d for row in dist for d in row})

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
    assert best is not None  # the full threshold always admits a matching
    perm = [0] * n
    for j, i in enumerate(best):
        perm[i] = j
    return perm
