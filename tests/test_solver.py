import cmath
import math
import random

import pytest

import weierstrass.solver as solver
from conftest import build_certified_instance
from weierstrass import (
    DistinctCoordinatesViolated,
    NonFiniteValue,
    NormIndex,
    Polynomial,
    SolverOptions,
    h_ratio,
    h_wangzhao,
    run_sor,
    run_weierstrass,
    weierstrass_correction,
)

SQUARE = Polynomial.from_coefficients([-1, 0])  # z^2 - 1


def test_root_vector_is_fixed_point():
    trace = run_weierstrass(SQUARE, (1, -1))
    assert trace.converged
    assert len(trace.records) == 1
    assert trace.final == (1 + 0j, -1 + 0j)
    assert trace.steps == 0
    assert trace.records[0].e == 0.0
    assert trace.records[0].step_norm == 0.0
    assert trace.apriori_curve == ()


def test_single_step_walkthrough():
    trace = run_weierstrass(SQUARE, (2, -2))
    assert trace.records[1].z == (1.25 + 0j, -1.25 + 0j)
    assert trace.records[0].e == pytest.approx(0.1875)
    assert trace.records[0].step_norm == pytest.approx(0.75)
    assert trace.converged


def test_large_p_does_not_certify_a_wrong_point_as_converged():
    # At p = 2000 the power sum of the ratios (0.1875, 0.1875) underflowed to
    # 0, so E(2, -2) read 0 and the start was reported converged.
    trace = run_weierstrass(Polynomial.from_roots([1, -1]), (2, -2), SolverOptions(p=2000))
    assert trace.records[0].e == pytest.approx(0.1875 * 2 ** (1 / 2000), rel=1e-14)
    assert len(trace.records) > 1
    assert trace.converged
    assert sorted(z.real for z in trace.final) == pytest.approx([-1, 1], abs=1e-12)


def test_single_step_second_polynomial():
    poly = Polynomial.from_roots([1, 2])  # z^2 - 3z + 2
    trace = run_weierstrass(poly, (0, 4))
    z1 = trace.records[1].z
    assert z1[0] == pytest.approx(0.5)
    assert z1[1] == pytest.approx(2.5)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(mode="nope")
    with pytest.raises(ValueError):
        SolverOptions(h=0.0)
    with pytest.raises(ValueError):
        SolverOptions(h=1.5)
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)
    with pytest.raises(ValueError):
        SolverOptions(tol_e=-1.0)


@pytest.mark.parametrize("field", ["tol_e", "tol_step"])
def test_solver_options_reject_a_nan_tolerance(field):
    # nan < 0.0 is False: a NaN tol_e was accepted and never met, so a run on
    # z^2 - 1 went on to the max_iter cap.
    with pytest.raises(ValueError, match="tolerances must be nonnegative"):
        SolverOptions(**{field: math.nan})


@pytest.mark.parametrize("max_iter", [2.5, 100.0, True, "100"])
def test_solver_options_reject_a_max_iter_that_is_not_an_int(max_iter):
    # 2.5 and 100.0 were accepted, and run_sor then raised TypeError in range().
    with pytest.raises(ValueError, match="max_iter must be an int"):
        SolverOptions(max_iter=max_iter)


def test_fixed_unit_damping_reproduces_plain_exactly():
    opts_plain = SolverOptions(p=NormIndex(math.inf))
    opts_fixed = SolverOptions(p=NormIndex(math.inf), mode="sor_fixed", h=1.0)
    plain = run_weierstrass(SQUARE, (2, -2), opts_plain)
    fixed = run_sor(SQUARE, (2, -2), opts_fixed)
    assert plain == fixed


def test_acceleration_walkthrough_values():
    # delta = 4, sum|W| = 1.5, sum|W/d| = 0.375
    assert h_wangzhao(SQUARE, (2, -2)) == pytest.approx(0.545008, rel=1e-12)
    assert h_ratio(SQUARE, (2, -2)) == pytest.approx(0.307541 / 0.375, rel=1e-12)


def test_acceleration_clamps_to_one():
    # near the root vector both parameters saturate at 1
    assert h_wangzhao(SQUARE, (1.001, -1.001)) == 1.0
    assert h_ratio(SQUARE, (1.001, -1.001)) == 1.0
    # exactly at the root vector W = 0 and the clamp returns 1
    assert h_wangzhao(SQUARE, (1, -1)) == 1.0
    assert h_ratio(SQUARE, (1, -1)) == 1.0


def test_damped_first_step():
    opts = SolverOptions(p=NormIndex(math.inf), mode="sor_new")
    trace = run_sor(SQUARE, (2, -2), opts)
    assert trace.records[0].h == pytest.approx(0.820109, abs=1e-6)
    z1 = trace.records[1].z
    assert z1[0].real == pytest.approx(2 - 0.8201093333333334 * 0.75, abs=1e-12)
    assert trace.converged


def test_damped_steps_never_exceed_unit():
    for mode in ("sor_wz", "sor_new"):
        trace = run_sor(SQUARE, (3, -2.5), SolverOptions(mode=mode, max_iter=50))
        assert all(0 < rec.h <= 1.0 for rec in trace.records)


def test_damped_run_with_saturated_clamp_equals_plain():
    z0 = (1.1, -1.05)
    plain = run_weierstrass(SQUARE, z0)
    damped = run_sor(SQUARE, z0, SolverOptions(mode="sor_new"))
    assert all(rec.h == 1.0 for rec in damped.records)
    assert plain == damped


def test_midrun_collision_returns_partial_trace():
    # f = z^2 - 2 from (2, 1): both corrections send the iterate to 0
    poly = Polynomial.from_coefficients([-2, 0])
    trace = run_weierstrass(poly, (2, 1))
    assert not trace.converged
    assert trace.error is not None
    assert len(trace.records) == 1
    assert trace.final == (2 + 0j, 1 + 0j)
    assert trace.steps == 0


def test_midrun_overflow_returns_partial_trace():
    # z0 is fine, but the first update lands at +-6.5e307 (1 - i): finite
    # coordinates whose difference has a modulus beyond the double range.
    poly = Polynomial.from_coefficients([1.3e300, 0])
    trace = run_sor(poly, (0, 1e-8 + 1e-8j), SolverOptions(mode="plain"))
    assert not trace.converged
    assert trace.error == "aborted at k = 1: absolute value too large"
    assert len(trace.records) == 1
    assert trace.final == (0j, 1e-8 + 1e-8j)
    assert trace.steps == 0


# At z0, W is +-6.5e307 (-1 + i): sum_i |W_i| overflows to inf, so both damped
# factors would round to 0 and never move the point.
HUGE = Polynomial.from_coefficients([1.3e300, 0])
HUGE_Z0 = (0, 1e-8 + 1e-8j)


@pytest.mark.parametrize("damping", [h_wangzhao, h_ratio])
def test_damping_that_rounds_to_zero_raises(damping):
    with pytest.raises(NonFiniteValue, match=r"^damping h = .* / inf is 0, outside \(0, 1\]$"):
        damping(HUGE, HUGE_Z0)


@pytest.mark.parametrize("mode", ["sor_wz", "sor_new"])
def test_damped_run_raises_at_a_start_whose_damping_is_zero(mode):
    with pytest.raises(NonFiniteValue, match="^damping h = "):
        run_sor(HUGE, HUGE_Z0, SolverOptions(mode=mode))


def test_damping_that_rounds_to_zero_later_aborts_the_run(monkeypatch):
    # No natural input found reaches this case: the second damping is fed an
    # overflowed sum instead.
    calls = []
    real = solver._damped

    def second_sum_overflows(scale, total):
        calls.append(total)
        return real(scale, math.inf if len(calls) == 2 else total)

    monkeypatch.setattr(solver, "_damped", second_sum_overflows)
    trace = run_sor(SQUARE, (2, -2), SolverOptions(mode="sor_wz"))
    assert len(calls) == 2
    assert not trace.converged
    assert trace.error.startswith("aborted at k = 1: damping h = ")
    assert len(trace.records) == 1
    assert trace.final == (2 + 0j, -2 + 0j)
    assert trace.steps == 0


def test_initial_collision_raises():
    with pytest.raises(DistinctCoordinatesViolated):
        run_weierstrass(SQUARE, (1, 1))


def test_iteration_cap():
    trace = run_weierstrass(SQUARE, (100, -100), SolverOptions(max_iter=3))
    assert not trace.converged
    assert len(trace.records) == 4  # iterates 0..3
    assert trace.records[-1].k == 3
    assert trace.steps == 3


def test_step_rule_fires_before_the_cap_on_the_last_allowed_step():
    # Step norms 0.75 then 0.225: the second step is within tol_step at
    # k = max_iter, so it is taken and the run converges.
    opts = SolverOptions(max_iter=1, tol_e=0.0, tol_step=0.3)
    trace = run_weierstrass(SQUARE, (2, -2), opts)
    assert trace.converged
    assert trace.steps == 2
    assert len(trace.records) == 2
    assert trace.final == (1.025 + 0j, -1.025 + 0j)


def test_step_norm_stopping_rule():
    opts = SolverOptions(tol_step=10.0, tol_e=0.0)
    trace = run_weierstrass(SQUARE, (2, -2), opts)
    assert trace.converged
    assert len(trace.records) == 1
    assert trace.final == (1.25 + 0j, -1.25 + 0j)  # the within-tolerance step is taken
    assert trace.steps == 1


@pytest.mark.parametrize(
    "poly, z0, opts, reason",
    [
        (SQUARE, (2, -2), SolverOptions(), "tol_e"),
        (SQUARE, (2, -2), SolverOptions(tol_step=10.0, tol_e=0.0), "tol_step"),
        (SQUARE, (100, -100), SolverOptions(max_iter=3), "max_iter"),
        (Polynomial.from_coefficients([-2, 0]), (2, 1), SolverOptions(), "aborted"),
    ],
)
def test_stop_reason_names_the_rule_that_ended_the_run(poly, z0, opts, reason):
    trace = run_sor(poly, z0, opts)
    assert trace.stop_reason == reason
    assert trace.converged == (reason in ("tol_e", "tol_step"))


def test_stop_reason_tells_a_step_that_rounds_to_nothing_from_a_tol_e_stop():
    # With h = 1e-20 the one update leaves every coordinate unchanged, so
    # `final` equals the last recorded iterate, as after a tol_e stop.
    opts = SolverOptions(mode="sor_fixed", h=1e-20, tol_step=1.0, tol_e=0.0)
    trace = run_sor(SQUARE, (2, -2), opts)
    assert trace.final == trace.records[-1].z
    assert trace.stop_reason == "tol_step"
    assert trace.steps == 1


def test_unsatisfied_certificate_leaves_bound_empty():
    trace = run_weierstrass(SQUARE, (10, 9.9), SolverOptions(max_iter=2))
    first = trace.records[0]
    assert first.apost_bound is None
    assert math.isinf(first.lam)
    assert not trace.certificate.satisfied
    assert trace.apriori_curve == ()


def test_damped_step_leaves_bound_empty():
    opts = SolverOptions(p=NormIndex(math.inf), mode="sor_fixed", h=0.5, max_iter=5)
    trace = run_sor(SQUARE, (2, -2), opts)
    assert trace.records[0].h == 0.5
    assert trace.records[0].apost_bound is None
    assert trace.apriori_curve == ()


def test_mode_override_in_plain_runner():
    opts = SolverOptions(mode="sor_wz")
    trace = run_weierstrass(SQUARE, (2, -2), opts)
    assert all(rec.h == 1.0 for rec in trace.records)


def test_trace_identity_along_corpus_runs(corpus):
    for inst in corpus.instances[:40]:
        target = sum(inst.roots)
        for rec in inst.trace.records:
            w = weierstrass_correction(inst.poly, rec.z)
            lhs = sum(zi - wi for zi, wi in zip(rec.z, w))
            scale = max(1.0, abs(target), sum(abs(zi) for zi in rec.z))
            assert abs(lhs - target) <= 1e-9 * scale


def test_bounds_dominate_true_error_on_corpus_sample(corpus):
    for inst in corpus.instances[:30]:
        assert inst.trace.converged
        records = inst.trace.records
        for k in range(1, len(records)):
            assert inst.errors[k] <= inst.trace.apriori_curve[k - 1] + 1e-9
        for k in range(len(records) - 1):
            bound = records[k].apost_bound
            assert bound is not None
            assert inst.errors[k + 1] <= bound + 1e-9


def test_every_reported_bound_holds_on_converged_corpus_runs(corpus):
    # The promise itself, with no absolute slack: apriori_curve[k - 1] bounds
    # iterate k, and record k's apost_bound bounds iterate k + 1.
    checks, failures = 0, []
    for i, inst in enumerate(corpus.instances):
        if not inst.trace.converged:
            continue
        bounds = list(enumerate(inst.trace.apriori_curve, start=1))
        bounds += [
            (rec.k + 1, rec.apost_bound)
            for rec in inst.trace.records[:-1]
            if rec.apost_bound is not None
        ]
        for k, bound in bounds:
            checks += 1
            if not inst.errors[k] <= bound * (1 + 1e-12):
                failures.append((i, k, inst.errors[k] / bound))
    worst = max(failures, key=lambda f: f[2], default=None)
    assert not failures, f"{len(failures)} of {checks} bounds below the error, worst {worst}"


def _gaussian(w):
    """Integers x, y and a power of two s with w = (x + iy) / s exactly."""
    (a, d), (b, e) = w.real.as_integer_ratio(), w.imag.as_integer_ratio()
    s = max(d, e)
    return a * (s // d), b * (s // e), s


def _exact_distance_to_root(z, r, c, n):
    """|z - t| and |r - t|, where t is r moved by one Newton step on t^n = c,
    taken in exact integer arithmetic. t is within about (n - 1)/2 |r - t|^2
    of a root, so the step's length bounds the error of t."""
    x, y, s = _gaussian(r)
    px, py = 1, 0  # (x + iy)^(n - 1), by repeated squaring
    sx, sy, k = x, y, n - 1
    while k:
        if k & 1:
            px, py = px * sx - py * sy, px * sy + py * sx
        sx, sy, k = sx * sx - sy * sy, 2 * sx * sy, k >> 1
    qx, qy = px * x - py * y, px * y + py * x
    cx, cy, u = _gaussian(c)
    # r - t = (r^n - c) / (n r^(n-1)) = (q u - c s^n) * conj(p) / (s u n |p|^2)
    nx, ny = qx * u - cx * s**n, qy * u - cy * s**n
    gx, gy = nx * px + ny * py, ny * px - nx * py
    den = s * u * n * (px * px + py * py)
    # z - t = z - r + (r - t), over the denominator v den
    zx, zy, v = _gaussian(z)
    ex = zx * den - x * (den // s) * v + gx * v
    ey = zy * den - y * (den // s) * v + gy * v
    return math.hypot(ex / (v * den), ey / (v * den)), math.hypot(gx / den, gy / den)


# ROADMAP item 9's coefficient tier and item 2b. Converged runs from
# coefficients return points about half an ulp of 1 from the roots (4e-17 to
# 8e-17), as close as doubles get, yet report bounds down to 1e-25: the bound
# is computed from a W whose rounding floor it ignores. Fixing 2b makes every
# case pass, and the xfail marker must then go.
ITEM_2B = "ROADMAP 2b: the bound on a coefficient-given run ignores the rounding floor of f"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_2B)
@pytest.mark.parametrize("n", [20, 50, 100])
def test_bound_on_the_returned_point_holds_on_coefficient_given_binomials(n):
    # z^n - c from its coefficients, |c| = 1, each start 0.3 of the root
    # spacing off its root, p = inf, as in the solve-n100 benchmark. The
    # record that covers the returned point is picked by stop_reason: a tol_e
    # stop returns the last record's point, so the bound is the one before.
    # The cmath.exp roots are up to 5 ulps off, more than these errors, so
    # the truth is refined by one exact Newton step; the comparison allows
    # its remainder as n |step|^2, and hypot's rounding as 2^-50 relative.
    rng = random.Random(f"coefficient-tier-{n}")
    spacing = 2.0 * math.sin(math.pi / n)
    checked, failures = 0, []
    for run in range(16):
        phi = rng.random()
        c = cmath.exp(2j * math.pi * phi)
        roots = [cmath.exp(2j * math.pi * (phi + k) / n) for k in range(n)]
        z0 = [r + 0.3 * spacing * cmath.exp(2j * math.pi * rng.random()) for r in roots]
        poly = Polynomial.from_coefficients([-c] + [0j] * (n - 1))
        trace = run_sor(poly, z0, SolverOptions(p=NormIndex(math.inf)))
        if not trace.converged:
            continue
        records = trace.records if trace.stop_reason == "tol_step" else trace.records[:-1]
        if not records or records[-1].apost_bound is None:
            continue
        bound = records[-1].apost_bound
        error, slack = 0.0, 0.0
        for z in trace.final:
            r = min(roots, key=lambda root: abs(z - root))
            distance, step = _exact_distance_to_root(z, r, -poly.coeffs[0], n)
            error, slack = max(error, distance), max(slack, n * step * step)
        checked += 1
        if error * (1 - 2.0**-50) > bound + slack:
            failures.append((run, error, bound))
    if checked < 8:  # not an AssertionError, so the xfail does not absorb it
        pytest.fail(f"only {checked} of 16 runs converged with a bound")
    assert not failures, f"{len(failures)} of {checked} bounds below the error: {failures[:3]}"


def test_large_degree_root_given_runs_reach_the_given_roots():
    # Degrees past the corpus's 20, built like it: two certified instances
    # per (n, p) cell, run with the default tol_e = 1e-13.
    rng = random.Random(20261020)
    for n in (40, 60, 100):
        for p in (1.0, 2.0, math.inf):
            for _ in range(2):
                poly, roots, z0, _, _ = build_certified_instance(rng, n, p)
                trace = run_weierstrass(poly, z0, SolverOptions(p=NormIndex(p)))
                assert trace.stop_reason == "tol_e", (n, p, trace.steps)
                error = max(abs(z - r) for z, r in zip(trace.final, roots))
                assert error <= 1e-12, (n, p, error)
