"""Library traces, bit for bit: one SHA-256 per case over the float.hex of
every value the case returns.

The cases are seeded `run_sor` runs (n from 2 to 20, every mode, p in
{1, 2, 3.5, inf} and a spread of caps, tolerances and fixed h), runs on
z^100 - c from exact coefficients, n = 8 `match_roots` results and the
`radius_table` rows at n = 2..100 for p in {1, 1.5, 2, 3, inf}. A run case
hashes every record field, `final`, `steps`, `converged`, `stop_reason`,
`error`, `apriori_curve` and the certificate. No case holds a NaN input or a
step whose damping is 0.

The digests are a behaviour lock for refactors and speed-ups that must not
change a single bit of a result. After a deliberate change, rebuild them
with `PYTHONPATH=src python tests/test_trace_digest.py` and review which
cases moved.
"""

import cmath
import dataclasses
import hashlib
import json
import math
import random
from pathlib import Path

from weierstrass import (
    NormIndex,
    Polynomial,
    SolverOptions,
    match_roots,
    radius_table,
    run_sor,
)

DIGESTS = Path(__file__).parent / "data" / "golden" / "trace_digest.json"
SEED = 20261019
RUN_CASES = 400
MATCH_CASES = 12
MODES = ("plain", "sor_wz", "sor_new", "sor_fixed")
PS = (1.0, 2.0, 3.5, math.inf)


def _tokens(value, out: list) -> None:
    """Append a canonical spelling of value: float.hex for every float."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        out.append(repr(value))
    elif isinstance(value, float):
        out.append(value.hex())
    elif isinstance(value, complex):
        out += [value.real.hex(), value.imag.hex()]
    elif isinstance(value, (tuple, list)):
        out.append("(")
        for item in value:
            _tokens(item, out)
        out.append(")")
    elif dataclasses.is_dataclass(value):
        out.append(type(value).__name__)
        for f in dataclasses.fields(value):
            out.append(f.name)
            _tokens(getattr(value, f.name), out)
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value) -> str:
    out: list = []
    _tokens(value, out)
    return hashlib.sha256(" ".join(out).encode()).hexdigest()


def _points(rng, n, min_sep=0.05):
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) <= 1 and all(abs(z - q) >= min_sep for q in pts):
            pts.append(z)
    return pts


def cases():
    """Yield (name, thunk) pairs; each thunk returns the value to digest."""
    rng = random.Random(SEED)
    for i in range(RUN_CASES):
        n = rng.randint(2, 20)
        roots = _points(rng, n)
        spread = rng.choice((1e-3, 0.02, 0.1))
        z0 = [r + spread * cmath.exp(2j * math.pi * rng.random()) for r in roots]
        opts = SolverOptions(
            p=NormIndex(rng.choice(PS)),
            mode=MODES[i % 4],
            h=rng.choice((0.5, 1.0)),
            max_iter=rng.choice((1, 2, 5, 100)),
            tol_e=rng.choice((1e-13, 0.0, 1e-3)),
            tol_step=rng.choice((0.0, 1e-8, 1e-2, 10.0)),
        )
        poly = Polynomial.from_roots(roots)
        yield f"run-{i:03d}-n{n}-{opts.mode}", lambda poly=poly, z0=z0, opts=opts: run_sor(
            poly, z0, opts
        )

    n = 100
    zn_runs = ((0.137, math.inf, "plain", 100), (0.41, 2.0, "sor_new", 20), (0.9, 1.0, "sor_wz", 20))
    for phi, p, mode, cap in zn_runs:
        c = cmath.exp(2j * math.pi * phi)
        poly = Polynomial.from_coefficients([-c] + [0j] * (n - 1))
        spacing = 2 * math.sin(math.pi / n)
        z0 = [
            cmath.exp(2j * math.pi * (phi + k) / n)
            + 0.3 * spacing * cmath.exp(2j * math.pi * ((0.618034 * k) % 1))
            for k in range(n)
        ]
        opts = SolverOptions(p=NormIndex(p), mode=mode, max_iter=cap)
        yield f"zn100-{mode}", lambda poly=poly, z0=z0, opts=opts: run_sor(poly, z0, opts)

    for i in range(MATCH_CASES):
        truth = _points(rng, 8, min_sep=1e-3)
        scale = rng.choice((1e-6, 1e-2, 0.5))
        computed = [t + scale * complex(rng.gauss(0, 1), rng.gauss(0, 1)) for t in truth]
        rng.shuffle(computed)
        p = PS[i % 4]
        yield f"match-{i:02d}", lambda c=computed, t=truth, p=p: match_roots(c, t, p)

    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        yield f"radius-table-p{p:g}", lambda p=p: [radius_table(m, p) for m in range(2, 101)]


def compute() -> dict:
    return {name: digest(thunk()) for name, thunk in cases()}


def test_traces_are_bit_identical():
    expected = json.loads(DIGESTS.read_text())
    actual = compute()
    assert actual.keys() == expected.keys()
    moved = [name for name in expected if actual[name] != expected[name]]
    assert not moved, f"{len(moved)} of {len(expected)} cases moved: {moved}"


def regenerate() -> None:
    DIGESTS.write_text(json.dumps(compute(), indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
