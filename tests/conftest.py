"""Shared helpers and the randomized certified corpus used across test modules."""

import cmath
import math
import random
import time
from dataclasses import dataclass

import pytest

from weierstrass import (
    Certificate,
    IterationTrace,
    NormIndex,
    Polynomial,
    SolverOptions,
    certify,
    match_roots,
    p_norm,
    run_weierstrass,
)

CORPUS_SEED = 20240817
CORPUS_SIZE = 200


def random_unit_disk(rng, radius=1.0):
    while True:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            return z


def random_distinct_points(rng, n, radius=1.0, min_sep=1e-3):
    pts = []
    while len(pts) < n:
        z = random_unit_disk(rng, radius)
        if all(abs(z - q) >= min_sep for q in pts):
            pts.append(z)
    return tuple(pts)


def compensated_sum(iterable, start=0):
    """A stand-in for the compensated float sum() of CPython 3.12+:
    math.fsum, which is correctly rounded."""
    return math.fsum([start, *iterable])


def horner_skip(poly):
    """How many Horner steps a coefficient-held poly takes as a bare acc * x.
    The steps it keeps must be the rest of its coefficients, leading end
    first, signed zeros included."""
    skip, steps = poly._plan
    assert list(map(repr, steps)) == list(map(repr, reversed(poly.coeffs)))[skip:]
    return skip


@dataclass
class CorpusInstance:
    poly: Polynomial
    roots: tuple
    z0: tuple
    p: float
    cert: Certificate
    trace: IterationTrace
    errors: list  # matched true error at every recorded iterate
    candidates: list  # z0 candidates tried while shrinking the perturbation


@dataclass
class Corpus:
    instances: list
    build_seconds: float


def build_certified_instance(rng, n, p):
    """Roots in the unit disk with min separation 0.1; the start is the root
    vector plus a perturbation shrunk until the certificate holds strictly."""
    roots = random_distinct_points(rng, n, radius=1.0, min_sep=0.1)
    poly = Polynomial.from_roots(roots)
    directions = [cmath.exp(2j * math.pi * rng.random()) for _ in range(n)]
    min_sep = min(abs(roots[i] - roots[j]) for i in range(n) for j in range(i + 1, n))
    rho = 0.25 * min_sep
    candidates = []
    while True:
        z0 = tuple(r + rho * d for r, d in zip(roots, directions))
        candidates.append(z0)
        cert = certify(poly, z0, p)
        if cert.strict:
            return poly, roots, z0, cert, candidates
        rho *= 0.6


@pytest.fixture(scope="session")
def corpus():
    start = time.perf_counter()
    rng = random.Random(CORPUS_SEED)
    instances = []
    for i in range(CORPUS_SIZE):
        n = rng.randint(2, 20)
        p = [1.0, 2.0, math.inf][i % 3]
        poly, roots, z0, cert, candidates = build_certified_instance(rng, n, p)
        opts = SolverOptions(p=NormIndex(p), tol_e=1e-10, max_iter=60)
        trace = run_weierstrass(poly, z0, opts)
        perm, _ = match_roots(trace.final, roots, p)
        matched = [roots[perm[j]] for j in range(len(roots))]
        errors = [
            p_norm([zi - ri for zi, ri in zip(rec.z, matched)], p)
            for rec in trace.records
        ]
        instances.append(
            CorpusInstance(poly, roots, z0, p, cert, trace, errors, candidates)
        )
    return Corpus(instances, time.perf_counter() - start)


def _after_overflow(f, *args):
    # CPython's abs() of a complex leaves errno at ERANGE when it raises, and
    # abs() of a complex with a NaN part returns without resetting it, so
    # such a call raises OverflowError until a finite abs() clears errno.
    try:
        abs(complex(1.5e308, 1.5e308))
    except OverflowError:
        return f(*args)
    raise AssertionError("abs() of a modulus above the float range did not overflow")


@pytest.fixture(params=["fresh", "after-overflow"])
def call(request):
    """call(f, *args) runs f(*args) as it is, or right after a caught
    OverflowError, so a NaN contract is checked in both errno states."""
    return _after_overflow if request.param == "after-overflow" else lambda f, *args: f(*args)
