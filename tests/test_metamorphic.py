"""Metamorphic relations: two runs whose inputs are related in a known way
must give outputs related in the same way, on any input.

- Conjugation. IEEE complex +, -, *, / and abs commute with conjugation, so
  conjugating the roots and the start conjugates every iterate and leaves
  every real quantity bit-identical.
- Scaling by 2^k. Multiplying by a power of two is exact while every
  intermediate stays normal, and E(z) is scale-free, so every iterate scales
  exactly and E, the step count and the stop reason are unchanged. Scales
  that leave the normal range are outside this module.
"""

import cmath
import math
import random

import pytest

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


def _hex(x):
    return None if x is None else x.hex()


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
