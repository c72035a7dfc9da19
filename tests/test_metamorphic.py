"""Metamorphic relations: two runs whose inputs are related in a known way
must give outputs related in the same way, on any input.

- Conjugation. IEEE complex +, -, *, / and abs commute with conjugation, so
  conjugating the roots and the start conjugates every iterate and leaves
  every real quantity bit-identical. The same holds for coefficients; the
  zeros of z^n - c conjugate to 0 - 0j, which Horner does not skip, so this
  relation compares the skip with plain Horner.
- Scaling by 2^k. Multiplying by a power of two is exact while every
  intermediate stays normal, and E(z) is scale-free, so every iterate scales
  exactly and E, the step count and the stop reason are unchanged. Scales
  that leave the normal range are outside this module. The same holds for
  match_roots: the pairing is unchanged and the error scales exactly.
  Given by coefficients, the coefficient of z^j scales by s^(n - j), and
  every Horner step scales exactly with it.
- Permutation. Permuting the coordinates of the roots and the start
  reorders the products and sums behind E, so E moves in its last bits
  within a stated ulp budget, while the verdicts, the stop and the matched
  roots are unchanged. Shuffling either list of match_roots maps its pairing
  through the shuffles, and the error keeps its bits at p = inf, where it is
  a max, and moves within a stated ulp budget at p = 1 and 2, where it is a
  sum.
"""

import cmath
import functools
import math
import random

import pytest

from conftest import random_distinct_points, random_unit_disk
from weierstrass import NormIndex, Polynomial, SolverOptions, match_roots, run_sor

MODES = ("plain", "sor_wz", "sor_new", "sor_fixed")
PS = (1.0, 2.0, math.inf)


def _problems(name, count):
    """Seeded root-given problems: n in 2..20, roots in the unit disk at least
    0.1 apart, and a start 0.05-0.3 of that separation off each root."""
    rng = random.Random(f"metamorphic-{name}")
    for i in range(count):
        n = rng.randint(2, 20)
        roots = []
        while len(roots) < n:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(z) <= 1 and all(abs(z - r) >= 0.1 for r in roots):
                roots.append(z)
        rho = rng.uniform(0.005, 0.03)
        z0 = [r + rho * cmath.exp(2j * math.pi * rng.random()) for r in roots]
        opts = SolverOptions(p=NormIndex(PS[i % 3]), mode=MODES[i % 4], h=0.7, max_iter=40)
        yield roots, z0, opts


def _run(roots, z0, opts):
    return run_sor(Polynomial.from_roots(roots), z0, opts)


def _expand(roots):
    """c[0] .. c[n-1] of prod_i (z - r_i), in complex arithmetic."""
    coeffs = [1 + 0j]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0j] + coeffs, coeffs + [0j])]
    return coeffs[:-1]


def _coefficient_problems():
    """z^n - c at n = 10, 50, 100 with c on the unit circle, and two dense
    sets expanded from roots in the unit disk; each start is 0.3 of the root
    spacing off each root. Every mode and p is used, with few iterations."""
    rng = random.Random("metamorphic-coefficients")
    for i, (shape, n) in enumerate(
        [("binomial", 10), ("binomial", 50), ("binomial", 100), ("dense", 8), ("dense", 30)]
    ):
        if shape == "binomial":
            phi = rng.random()
            roots = [cmath.exp(2j * math.pi * (phi + k) / n) for k in range(n)]
            coeffs = [-cmath.exp(2j * math.pi * phi)] + [0j] * (n - 1)
            spacing = 2 * math.sin(math.pi / n)
        else:
            roots = random_distinct_points(rng, n, min_sep=0.1)
            coeffs = _expand(roots)
            spacing = 0.1
        z0 = [r + 0.3 * spacing * cmath.exp(2j * math.pi * rng.random()) for r in roots]
        opts = SolverOptions(p=NormIndex(PS[i % 3]), mode=MODES[i % 4], h=0.7, max_iter=12)
        yield f"{shape}-{n}", coeffs, z0, opts


COEFFICIENT_PROBLEMS = list(_coefficient_problems())


@functools.cache
def _coefficient_trace(index):
    _, coeffs, z0, opts = COEFFICIENT_PROBLEMS[index]
    return run_sor(Polynomial.from_coefficients(coeffs), z0, opts)


def _hex(x):
    return None if x is None else x.hex()


def _ulps(a, b):
    """|a - b| in units in the last place of the larger of the two."""
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def _real_fields(trace):
    """Everything in a trace that is real, as bits."""
    records = [
        tuple(_hex(x) for x in (r.w_norm, r.step_norm, r.e, r.lam, r.theta, r.apost_bound, r.h))
        for r in trace.records
    ]
    curve = [x.hex() for x in trace.apriori_curve]
    return records, curve, trace.steps, trace.stop_reason, trace.converged


def test_conjugating_roots_and_start_conjugates_the_run():
    for roots, z0, opts in _problems("conjugate", 48):
        trace = _run(roots, z0, opts)
        mirror = _run([r.conjugate() for r in roots], [z.conjugate() for z in z0], opts)
        assert _real_fields(mirror) == _real_fields(trace), (roots, z0, opts)
        for got, want in zip(mirror.records, trace.records):
            assert got.z == tuple(z.conjugate() for z in want.z)
        assert mirror.final == tuple(z.conjugate() for z in trace.final)
        for p in PS:
            perm, err = match_roots(trace.final, roots, p)
            mirrored = match_roots(
                [z.conjugate() for z in trace.final], [r.conjugate() for r in roots], p
            )
            assert mirrored == (perm, err) and mirrored[1].hex() == err.hex()


@pytest.mark.parametrize(
    "index", range(len(COEFFICIENT_PROBLEMS)), ids=[c[0] for c in COEFFICIENT_PROBLEMS]
)
def test_conjugating_coefficients_and_start_conjugates_the_run(index):
    # The zeros of z^n - c conjugate to 0 - 0j, so the mirror keeps every
    # Horner step while the original multiplies straight through its run:
    # the relation checks the skip against plain Horner on every iterate.
    name, coeffs, z0, opts = COEFFICIENT_PROBLEMS[index]
    poly = Polynomial.from_coefficients(coeffs)
    mirror_poly = Polynomial.from_coefficients([c.conjugate() for c in coeffs])
    skips = [sum(len(zeros) for zeros, _ in p._segments) for p in (poly, mirror_poly)]
    assert skips == ([len(coeffs) - 2, 0] if name.startswith("binomial") else [0, 0])
    trace = _coefficient_trace(index)
    mirror = run_sor(mirror_poly, [z.conjugate() for z in z0], opts)
    assert _real_fields(mirror) == _real_fields(trace), name
    for got, want in zip(mirror.records, trace.records):
        assert got.z == tuple(z.conjugate() for z in want.z), name
    assert mirror.final == tuple(z.conjugate() for z in trace.final)


@pytest.mark.parametrize("k", range(-4, 5))
def test_scaling_coefficients_and_start_by_a_power_of_two_scales_every_iterate(k):
    s = 2.0**k
    for index, (name, coeffs, z0, opts) in enumerate(COEFFICIENT_PROBLEMS):
        n = len(coeffs)
        trace = _coefficient_trace(index)
        poly = Polynomial.from_coefficients([c * s ** (n - j) for j, c in enumerate(coeffs)])
        scaled = run_sor(poly, [s * z for z in z0], opts)
        assert (scaled.steps, scaled.stop_reason) == (trace.steps, trace.stop_reason), name
        assert [r.e.hex() for r in scaled.records] == [r.e.hex() for r in trace.records], name
        for got, want in zip(scaled.records, trace.records):
            assert got.z == tuple(s * z for z in want.z), (k, name)
        assert scaled.final == tuple(s * z for z in trace.final)


@pytest.mark.parametrize("k", range(-4, 5))
def test_scaling_roots_and_start_by_a_power_of_two_scales_every_iterate(k):
    s = 2.0**k
    for roots, z0, opts in _problems(f"scale{k}", 8):
        trace = _run(roots, z0, opts)
        scaled = _run([s * r for r in roots], [s * z for z in z0], opts)
        assert (scaled.steps, scaled.stop_reason) == (trace.steps, trace.stop_reason)
        assert [r.e.hex() for r in scaled.records] == [r.e.hex() for r in trace.records]
        for got, want in zip(scaled.records, trace.records):
            assert got.z == tuple(s * z for z in want.z), (k, roots, z0, opts)
        assert scaled.final == tuple(s * z for z in trace.final)


@pytest.mark.parametrize("k", range(-4, 5))
def test_scaling_by_a_power_of_two_keeps_the_match_and_scales_its_error(k):
    s = 2.0**k
    rng = random.Random(f"metamorphic-match{k}")
    for roots, z0, _ in _problems(f"match{k}", 8):
        computed = list(z0)
        rng.shuffle(computed)
        for p in PS:
            perm, err = match_roots(computed, roots, p)
            scaled = match_roots([s * z for z in computed], [s * r for r in roots], p)
            assert scaled[0] == perm, (k, roots, computed, p)
            assert scaled[1].hex() == (s * err).hex(), (k, roots, computed, p)


def test_permuting_roots_and_start_permutes_the_run():
    # Each W_i is a product of n factors over a product of n - 1, and E a sum
    # or max over i; permuting the coordinates reorders the factors, so E at
    # z0 moves in its last bits. The budget is 2n ulps: 9,000 seeded probes
    # at n <= 20 and p in {1, 2, inf} moved it by at most 13 ulps (n = 20,
    # p = inf). Later iterates drift apart by rounding and are not compared.
    rng = random.Random("metamorphic-permute")
    for roots, z0, opts in _problems("permute", 30):
        n = len(roots)
        sigma = list(range(n))
        rng.shuffle(sigma)
        trace = _run(roots, z0, opts)
        moved_roots = [roots[s] for s in sigma]
        moved = _run(moved_roots, [z0[s] for s in sigma], opts)
        case = (roots, z0, opts, sigma)
        assert _ulps(moved.records[0].e, trace.records[0].e) <= 2 * n, case
        verdict = (trace.certificate.satisfied, trace.certificate.strict, trace.converged)
        assert (moved.certificate.satisfied, moved.certificate.strict, moved.converged) == verdict
        assert (moved.steps, moved.stop_reason) == (trace.steps, trace.stop_reason), case
        perm, _ = match_roots(trace.final, roots, opts.p)
        moved_perm, _ = match_roots(moved.final, moved_roots, opts.p)
        assert [moved_roots[j] for j in moved_perm] == [roots[perm[s]] for s in sigma], case


@pytest.mark.parametrize("n", [6, 12])
def test_shuffling_both_lists_maps_the_match_through_the_shuffles(n):
    # n = 6 takes the lexicographic search and n = 12 the assignment path.
    # Both pair the same points; only the order of the error's terms moves.
    # A max rounds nothing. A sum of n non-negative terms is within (n - 1) u
    # relative of its exact value in any order, so two orders differ by at
    # most 2n ulps, and the square root at p = 2 halves that.
    rng = random.Random(f"metamorphic-shuffle{n}")
    for _ in range(12):
        truth = random_distinct_points(rng, n, min_sep=0.1)
        computed = [z + 1e-3 * random_unit_disk(rng) for z in truth]
        rng.shuffle(computed)
        alpha, beta = list(range(n)), list(range(n))
        rng.shuffle(alpha)
        rng.shuffle(beta)
        moved_computed = [computed[a] for a in alpha]
        moved_truth = [truth[b] for b in beta]
        for p in PS:
            perm, err = match_roots(computed, truth, p)
            moved_perm, moved_err = match_roots(moved_computed, moved_truth, p)
            case = (computed, truth, alpha, beta, p)
            assert [beta[j] for j in moved_perm] == [perm[a] for a in alpha], case
            if math.isinf(p):
                assert moved_err.hex() == err.hex(), case
            else:
                assert _ulps(moved_err, err) <= 2 * n, case
