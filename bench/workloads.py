"""The three workloads: seeded inputs, the timed operation, and its checks.

Each workload has three steps. `make_inputs(seed)` builds plain data from
the seed alone. `prepare(pkg, inputs, workdir)` turns it into cases the
package can run; it is part of set-up. `op(pkg, case)` is the timed
operation; it reaches every library function through a module attribute, so
a traced run sees the calls. `check(case, out)` judges the output with
`checks` and never calls the library.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from pathlib import Path

import checks
from checks import Unit

INF = math.inf


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _pairs(zs) -> list[list[float]]:
    return [[z.real, z.imag] for z in zs]


class Workload:
    """Defaults shared by the workloads.

    `pool` is the number of seeded cases, cycled in order. It is large enough
    that a run repeats few of them, so the latency tail samples the spread of
    the inputs rather than the slowest one or two cases.
    """

    def degrees(self, case) -> list[int]:
        """Degree of every problem one operation on `case` solves."""
        return [self.n]

    def check_failure(self, case, message: str) -> list[Unit]:
        """Verdicts for an operation that raised instead of returning."""
        return [Unit(degree=n, hard=message) for n in self.degrees(case)]

    def output_bytes(self, out) -> int:
        return 0


class SolveN100(Workload):
    name = "solve-n100"
    why = (
        "run_sor on z^100 - c from exact coefficients: operator (W, distances, Horner) is ~98% "
        "of op time. Its bound_violation_frac > 0 is ROADMAP 2b"
    )
    pool = 512
    n = 100
    #: Accuracy misses are unexpected here: the coefficients are exact.
    misses_known = False

    def make_inputs(self, seed: int) -> list[dict]:
        rng = _rng(self.name, seed)
        n = self.n
        spacing = 2.0 * math.sin(math.pi / n)
        cases = []
        for i in range(self.pool):
            phi = rng.random()
            roots = [cmath.exp(2j * math.pi * (phi + k) / n) for k in range(n)]
            z0 = [r + 0.3 * spacing * cmath.exp(2j * math.pi * rng.random()) for r in roots]
            cases.append(
                {
                    "coefficients": [-cmath.exp(2j * math.pi * phi)] + [0j] * (n - 1),
                    "roots": roots,
                    "z0": z0,
                    "p": INF if i % 2 == 0 else 2.0,
                }
            )
        return cases

    def prepare(self, pkg, inputs, workdir):
        return [
            dict(
                case,
                poly=pkg.polynomial.Polynomial.from_coefficients(case["coefficients"]),
                opts=pkg.solver.SolverOptions(p=pkg.operator.NormIndex(case["p"])),
            )
            for case in inputs
        ]

    def op(self, pkg, case):
        return pkg.solver.run_sor(case["poly"], case["z0"], case["opts"])

    def check(self, case, trace) -> list[Unit]:
        unit = Unit(degree=self.n)
        _check_trace(unit, trace, case["roots"], case["p"])
        return [unit]


class ScoreN8(Workload):
    name = "score-n8"
    why = (
        "run_sor + match_roots at n = 8 over plain/sor_wz/sor_new and p = 1, 2, inf: the n! "
        "matcher dominates. bound_violation_frac > 0, and failed_frac > 0 on some seeds, are ROADMAP 2b"
    )
    pool = 108
    n = 8
    methods = ("plain", "sor_wz", "sor_new")
    norms = (1.0, 2.0, INF)
    misses_known = False

    def make_inputs(self, seed: int) -> list[dict]:
        rng = _rng(self.name, seed)
        cases = []
        for i in range(self.pool):
            roots: list[complex] = []
            while len(roots) < self.n:
                z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                if abs(z) <= 1.0 and all(abs(z - q) >= 0.1 for q in roots):
                    roots.append(z)
            cases.append(
                {
                    "roots": roots,
                    "directions": [cmath.exp(2j * math.pi * rng.random()) for _ in roots],
                    "method": self.methods[i % 3],
                    "p": self.norms[(i // 3) % 3],
                }
            )
        return cases

    def prepare(self, pkg, inputs, workdir):
        prepared = []
        for case in inputs:
            roots, p = case["roots"], case["p"]
            poly = pkg.polynomial.Polynomial.from_roots(roots)
            # Shrink the perturbation until the certificate holds strictly.
            rho = 0.25 * min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :])
            while True:
                z0 = [r + rho * d for r, d in zip(roots, case["directions"])]
                if pkg.certificates.certify(poly, z0, p).strict:
                    break
                rho *= 0.6
            opts = pkg.solver.SolverOptions(p=pkg.operator.NormIndex(p), mode=case["method"])
            prepared.append(dict(case, poly=poly, z0=z0, opts=opts))
        return prepared

    def op(self, pkg, case):
        trace = pkg.solver.run_sor(case["poly"], case["z0"], case["opts"])
        return trace, pkg.numerics.match_roots(trace.final, case["roots"], case["p"])

    def check(self, case, out) -> list[Unit]:
        trace, (perm, err) = out
        roots, p = case["roots"], case["p"]
        unit = Unit(degree=self.n)
        _check_trace(unit, trace, roots, p)
        if unit.hard is None:
            # match_roots claims the optimal assignment: it must be a
            # permutation, its error must be the norm of its own pairing, and
            # it can be no worse than the nearest-root pairing.
            if sorted(perm) != list(range(self.n)):
                unit.hard = "match_roots returned no permutation"
            else:
                own = checks.pnorm([z - roots[j] for z, j in zip(trace.final, perm)], p)
                if not checks.close(err, own, 1e-9) and abs(err - own) > 1e-300:
                    unit.hard = f"match_roots error {err!r} is not the norm of its pairing {own!r}"
                elif unit.error is not None and err > unit.error * (1 + 1e-9):
                    unit.hard = f"match_roots error {err!r} exceeds the nearest pairing's {unit.error!r}"
        return [unit]


def _check_trace(unit: Unit, trace, roots, p) -> None:
    """Shared checks on an IterationTrace: convergence, roots, claimed bound."""
    if not trace.converged:
        unit.unconverged = f"not converged ({trace.error or 'iteration cap'})"
    checks.check_roots(unit, list(trace.final), roots, p)
    final_is_last = tuple(trace.final) == tuple(trace.records[-1].z)
    unit.bound = checks.bound_on_final([r.apost_bound for r in trace.records], final_is_last)


class CliBatch(Workload):
    name = "cli-batch"
    why = (
        "cli certify + solve on 20-doc batches, n in [4, 40]: radius catalog, parse, JSON encode. "
        "failed_frac > 0 at n >= 30 is ROADMAP 2c, bound_violation_frac > 0 is 2b"
    )
    pool = 64
    docs_per_batch = 20
    norms = (1, 2, "inf")
    eps_choices = (1e-4, 1e-3, 1e-2)
    #: Roots built by expanding prod(z - r) drift at n >= 30 (ROADMAP 2c), so
    #: accuracy misses here are a known defect: they are counted, not fatal.
    misses_known = True

    def make_inputs(self, seed: int) -> list[list[dict]]:
        rng = _rng(self.name, seed)
        batches = []
        for b in range(self.pool):
            # One degree from each of 20 equal slices of [4, 40], shuffled:
            # uniform on [4, 40] overall, with similar work in every batch.
            degrees = [4 + int((j + rng.random()) * 37 / self.docs_per_batch) for j in range(self.docs_per_batch)]
            rng.shuffle(degrees)
            docs = []
            for j, n in enumerate(degrees):
                turn = rng.random()
                roots = [
                    (1.0 + 0.05 * rng.uniform(-1.0, 1.0))
                    * cmath.exp(2j * math.pi * (k + turn + 0.25 * rng.uniform(-1.0, 1.0)) / n)
                    for k in range(n)
                ]
                docs.append(
                    {
                        "roots": _pairs(roots),
                        "initial": {"perturb_roots": rng.choice(self.eps_choices)},
                        "p": self.norms[(b * self.docs_per_batch + j) % 3],
                    }
                )
            batches.append(docs)
        return batches

    def prepare(self, pkg, inputs, workdir):
        prepared = []
        for b, docs in enumerate(inputs):
            path = Path(workdir) / f"batch-{b:02d}.jsonl"
            path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
            prepared.append({"path": str(path), "docs": [_expected(doc) for doc in docs]})
        return prepared

    def degrees(self, case) -> list[int]:
        return [doc["n"] for doc in case["docs"]]

    def output_bytes(self, runs) -> int:
        return sum(len(text.encode()) for _, text in runs.values())

    def op(self, pkg, case):
        runs = {}
        for command in ("certify", "solve"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = pkg.cli.main([command, case["path"]])
            runs[command] = (code, out.getvalue())
        return runs

    def check(self, case, runs) -> list[Unit]:
        docs = case["docs"]
        units = [Unit(degree=n) for n in self.degrees(case)]
        certify = _report_lines(runs["certify"], len(docs), units)
        solve = _report_lines(runs["solve"], len(docs), units)
        any_uncertified = False
        all_converged = True
        for unit, doc, cert, sol in zip(units, docs, certify, solve):
            if unit.hard:
                continue
            try:
                any_uncertified |= not cert["result"]["satisfied"]
                _check_certify(unit, doc, cert)
                all_converged &= bool(sol["result"]["converged"])
                _check_solve(unit, doc, sol)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                unit.hard = f"malformed report: {exc!r}"
        for command, code, expected in (
            ("certify", runs["certify"][0], 0 if not any_uncertified else 2),
            ("solve", runs["solve"][0], 0 if all_converged else 2),
        ):
            if code != expected:
                for unit in units:
                    unit.hard = unit.hard or f"{command} exit code {code}, expected {expected}"
        return units


def _expected(doc: dict) -> dict:
    """What the benchmark knows about a document: its roots, start and norm."""
    roots = [complex(re, im) for re, im in doc["roots"]]
    n = len(roots)
    eps = doc["initial"]["perturb_roots"]
    # The documented start: root i moved by eps along exp(2 pi i k / n).
    z0 = [r + eps * cmath.exp(2j * math.pi * k / n) for k, r in enumerate(roots)]
    p = INF if doc["p"] == "inf" else float(doc["p"])
    return {"n": n, "roots": roots, "z0": z0, "p": p}


def _report_lines(run, count: int, units: list[Unit]) -> list[dict | None]:
    """Parse one JSON report per document; mark the units whose line is bad."""
    code, text = run
    lines = text.splitlines()
    reports: list[dict | None] = []
    for k, unit in enumerate(units):
        report = None
        if code == 1:
            unit.hard = unit.hard or "exit code 1"
        elif k >= len(lines):
            unit.hard = unit.hard or f"missing report {k}"
        else:
            try:
                report = json.loads(lines[k])
            except json.JSONDecodeError as exc:
                unit.hard = unit.hard or f"invalid JSON: {exc}"
            else:
                if not isinstance(report, dict) or set(report) != {"input", "certificate", "trace", "result"}:
                    unit.hard = unit.hard or "report lacks the fixed top-level keys"
                    report = None
        reports.append(report)
    if len(lines) != count and code != 1:
        for unit in units:
            unit.hard = unit.hard or f"{len(lines)} report lines for {count} documents"
    return reports


def _check_certify(unit: Unit, doc: dict, report: dict) -> None:
    e0 = float(report["certificate"]["e0"])
    mine = checks.certificate_quantity(doc["roots"], doc["z0"], doc["p"])
    if not checks.close(e0, mine, checks.E0_RTOL):
        unit.miss = unit.miss or f"reported E(z0) {e0!r} differs from {mine!r}"
    for row in report["result"]["thresholds"]:
        if row["pass"] != (float(row["quantity"]) <= float(row["threshold"])):
            unit.hard = f"threshold row {row['name']} has pass = {row['pass']}"
            return


def _check_solve(unit: Unit, doc: dict, report: dict) -> None:
    result = report["result"]
    if not result["converged"]:
        unit.unconverged = "not converged"
    computed = [complex(float(re), float(im)) for re, im in result["roots"]]
    checks.check_roots(unit, computed, doc["roots"], doc["p"])
    records = report["trace"]["records"]
    bounds = [None if r["apost_bound"] is None else float(r["apost_bound"]) for r in records]
    unit.bound = checks.bound_on_final(bounds, result["iterations"] == records[-1]["k"])


WORKLOADS = {w.name: w for w in (SolveN100(), ScoreN8(), CliBatch())}
