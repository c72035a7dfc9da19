"""Benchmark of the weierstrass package, driven from outside through its API and CLI.

    python3 bench/run.py --workload solve-n100 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the package is imported from
`src/` there, never from an installed copy. Each run is a closed loop with
one client in one process. Set-up (a fresh import of the package plus the
seeded inputs) is repeated several times and its median reported. The loop
then times one operation at a time for `--seconds`, checking every output
with `checks`, which does not call the library.

Times are calibrated. A shared host can run this process at very different
speeds from one minute to the next, so a fixed pure-Python reference kernel
runs between timed operations (and set-ups), and each time is scaled towards
a machine on which that kernel takes KERNEL_REF_S (see `calibration`). The
report line also carries the uncalibrated wall-clock figures and the
kernel's median.

With `--trace 0` the last line carries the end-to-end metrics. With
`--trace 1` the loop runs untraced for half the time and traced for the
other half, and the last line carries the per-layer metrics. The line before
the last holds the full report: run metadata, failure and bound-violation
fractions, the known defects they show, and the trace accounting.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
#: The reference kernel's points and repeats, about 1 ms of work.
KERNEL_POINTS = tuple(complex(i % 5, i // 5) for i in range(14))
KERNEL_REPEATS = 16
#: Kernel runs around an operation whose median calibrates it.
KERNEL_WINDOW = 10
#: Kernel time of the reference machine that calibrated timings are scaled to.
KERNEL_REF_S = 1e-3
#: Power of the kernel-time ratio applied to each time. On a shared 2-vCPU
#: host the kernel's time swung by up to 1.9x between quiet and busy spells,
#: while the workloads' times swung by about the square root of that, so the
#: full ratio over-corrects and half of it (in log terms) cancels the swing.
KERNEL_EXPONENT = 0.5

#: Defects in the library that the benchmark is expected to show, as found
#: in ROADMAP.md. They are reported as measured, never hidden.
KNOWN_DEFECTS = {
    "bound_violation_frac": (
        "ROADMAP 2b: no rounding floor, so the a posteriori bound falls below "
        "the error double precision can resolve"
    ),
    "failed_frac": (
        "ROADMAP 2c: from_roots expands prod(z - r) inaccurately, so cli-batch "
        "roots miss the given roots at n >= 30. ROADMAP 2b: with no rounding-floor "
        "stop, a run whose E stalls above tol_e ends unconverged at max_iter"
    ),
}

#: Per-layer metrics of the traced run, each per operation unless its unit says otherwise.
PER_OP_CALLS = (
    "operator.weierstrass_correction",
    "operator.distances",
    "operator.certificate_quantity",
    "operator.p_norm",
    "polynomial.evaluate",
    "polynomial.from_roots",
    "solver.run_sor",
    "numerics.match_roots",
    "numerics.bisect",
    "numerics.minimize_1d",
    "certificates.radius_table",
    "certificates.certificate_from_quantity",
    "certificates.convergence_radius",
    "certificates.majorant",
    "certificates.apriori_bound",
)
PER_OP_SELF = PER_OP_CALLS + (
    "cli.load_documents",
    "cli.parse_problem",
    "cli.certify_report",
    "cli.solve_report",
    "cli.main",
)
PER_OP_COUNTS = (
    "operator.pair_ops",
    "solver.iterations",
    "solver.stop.tol_e",
    "solver.stop.tol_step",
    "solver.stop.max_iter",
    "solver.stop.aborted",
    "solver.damped_steps",
    "numerics.match_roots.candidates",
    "numerics.bisect.evals",
    "numerics.minimize_1d.evals",
)
#: Counts the benchmark computes rather than reads from the library.
COMPUTED = ("operator.pair_ops", "operator.pairs_per_s", "numerics.match_roots.candidates", "cli.output_bytes")


def load_package() -> SimpleNamespace:
    """Import the package afresh from the checkout's `src/`."""
    if not (SRC / "weierstrass" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'weierstrass'}")
    for name in [m for m in sys.modules if m == "weierstrass" or m.startswith("weierstrass.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("weierstrass")
    if SRC not in Path(package.__file__).resolve().parents:
        raise SystemExit(f"error: imported weierstrass from {package.__file__}, not {SRC}")
    layers = {name: importlib.import_module(f"weierstrass.{name}") for name in LAYERS}
    return SimpleNamespace(package=package, **layers)


def setup(workload, seed: int, workdir: str):
    """One set-up: fresh import, seeded inputs, cases. Returns (pkg, cases)."""
    pkg = load_package()
    return pkg, workload.prepare(pkg, workload.make_inputs(seed), workdir)


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python loop over pairs of complex points.

    It runs between operations as a probe of how fast the machine is at that
    moment. Its loop has the shape of the package's hot loops (products and
    moduli of coordinate differences), so it slows down with them when the
    host is busy, but it calls nothing in the package.
    """
    start = perf_counter()
    for _ in range(KERNEL_REPEATS):
        for i, a in enumerate(KERNEL_POINTS):
            den, nearest = 1 + 0j, math.inf
            for j, b in enumerate(KERNEL_POINTS):
                if j != i:
                    diff = a - b
                    den *= diff
                    nearest = min(nearest, abs(diff))
    return perf_counter() - start


def smoothed(kernels: list[float], count: int) -> list[float]:
    """For each of `count` operations, the median kernel time in a window around it.

    Operation i runs between kernels[i] and kernels[i + 1].
    """
    half = KERNEL_WINDOW // 2
    return [
        statistics.median(kernels[max(0, i + 1 - half) : i + 1 + half]) for i in range(count)
    ]


def measure(workload, pkg, cases, seconds: float, tracer: Tracer | None = None) -> dict:
    """Closed loop over the cases for `seconds`; checks run outside the timed op.

    The reference kernel runs before each operation and once after the last.
    Each operation's `kernel_s` is the median of the KERNEL_WINDOW kernel
    runs nearest to it, which follows the machine's speed but not the jitter
    of a single 1 ms run.
    """
    ops, kernels, units, output_bytes = [], [reference_kernel()], [], 0
    if tracer is not None:
        tracer.install(pkg)
    try:
        deadline = perf_counter() + seconds
        i = 0
        while True:
            case = cases[i % len(cases)]
            i += 1
            degree = sum(workload.degrees(case))
            start = perf_counter()
            try:
                out = workload.op(pkg, case)
            except Exception as exc:  # an operation failure, counted below
                ops.append((perf_counter() - start, degree))
                units.extend(workload.check_failure(case, f"{type(exc).__name__}: {exc}"))
            else:
                ops.append((perf_counter() - start, degree))
                output_bytes += workload.output_bytes(out)
                units.extend(workload.check(case, out))
            kernels.append(reference_kernel())
            if perf_counter() >= deadline:
                break
    finally:
        restored = tracer.uninstall() if tracer is not None else True
    return {
        "latencies": [t for t, _ in ops],
        "degrees": [d for _, d in ops],
        "kernel_s": smoothed(kernels, len(ops)),
        "units": units,
        "output_bytes": output_bytes,
        "restored": restored,
    }


def tail(latencies_ms: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    beyond = min(10, n - 1)
    return {
        "value": ordered[n - 1 - beyond],
        "percentile": 100.0 * (n - beyond) / n,
        "samples_beyond": beyond,
        "samples": n,
    }


def timing(seconds: list[float], degrees: list[int]) -> dict:
    lat_ms = [t * 1e3 for t in seconds]
    return {
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_tail": tail(lat_ms),
        "roots_per_s": sum(degrees) / sum(seconds),
    }


def calibration(kernel_s: float) -> float:
    """Factor that scales a time taken while the kernel took `kernel_s` to the
    reference machine, on which the kernel takes KERNEL_REF_S."""
    return (KERNEL_REF_S / kernel_s) ** KERNEL_EXPONENT


def calibrated(seconds: list[float], kernel_s: list[float]) -> list[float]:
    return [t * calibration(k) for t, k in zip(seconds, kernel_s)]


def summarize(workload, run: dict) -> dict:
    units = run["units"]
    failed = [u for u in units if u.failed]
    hard = [u for u in units if u.hard]
    misses = [u for u in units if u.miss]
    bounded = [u for u in units if u.bound is not None and u.error is not None]
    violated = [u for u in bounded if u.violated]
    return {
        "ops": len(run["latencies"]),
        "attempted": len(units),
        "failed_frac": len(failed) / len(units),
        "failed": {
            "operation": len(hard),
            "unconverged": sum(1 for u in units if u.unconverged),
            "accuracy": len(misses),
        },
        "failure_examples": sorted({u.hard or u.unconverged or u.miss for u in failed})[:5],
        "bound_violation_frac": len(violated) / len(bounded) if bounded else 0.0,
        "bounded": len(bounded),
        "bound_violations": len(violated),
        **timing(calibrated(run["latencies"], run["kernel_s"]), run["degrees"]),
        "wall_clock": timing(run["latencies"], run["degrees"]),
        "kernel_ms_p50": statistics.median(run["kernel_s"]) * 1e3,
        "correct": run["restored"] and not hard and (workload.misses_known or not misses),
    }


def layer_metrics(tracer: Tracer, run: dict, untraced_p50: float, traced: dict) -> dict:
    """Per-layer metrics of the traced phase, per operation.

    Times are calibrated like the end-to-end ones, by the phase's median
    reference-kernel time.
    """
    ops = len(run["latencies"])
    op_s = sum(run["latencies"])
    scale = calibration(statistics.median(run["kernel_s"]))
    to_ms = 1e3 * scale / ops  # seconds of span time -> calibrated ms per operation
    metrics = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for name in PER_OP_CALLS:
        put(f"{name}.calls", tracer.spans[name][0] / ops, "count/op")
    for name in PER_OP_SELF:
        put(f"{name}.self_ms", tracer.spans[name][1] * to_ms, "ms/op")
    put("numerics.match_roots.total_ms", tracer.spans["numerics.match_roots"][2] * to_ms, "ms/op")
    for name in PER_OP_COUNTS:
        put(name, tracer.counts[name] / ops, "count/op")
    operator_s = tracer.spans["operator.weierstrass_correction"][1] + tracer.spans["operator.distances"][1]
    put("operator.pairs_per_s", tracer.counts["operator.pair_ops"] / (operator_s * scale) if operator_s else 0.0, "1/s")
    put("cli.output_bytes", run["output_bytes"] / ops, "B/op")
    for layer in LAYERS:
        put(f"layer.{layer}.self_ms", tracer.layers[layer][1] * to_ms, "ms/op")
        put(f"layer.{layer}.incl_ms", tracer.layers[layer][2] * to_ms, "ms/op")
    put("trace.op_ms", op_s * to_ms, "ms/op")
    put("trace.unattributed_ms", (op_s - tracer.top_s) * to_ms, "ms/op")
    put("trace_overhead_frac", traced["latency_ms_p50"] / untraced_p50 - 1.0, "ratio")
    put("check.failed_frac", traced["failed_frac"], "ratio")
    put("check.bound_violation_frac", traced["bound_violation_frac"], "ratio")
    return metrics


def design_checks(name: str, metrics: dict) -> dict:
    """The shares of op time that each workload was chosen for."""
    op = metrics["trace.op_ms"]["value"]
    share = {
        "solve-n100": ("operator time, inclusive of its Horner calls", metrics["layer.operator.incl_ms"]["value"], 0.8),
        "score-n8": ("numerics.match_roots time, inclusive", metrics["numerics.match_roots.total_ms"]["value"], 0.8),
        "cli-batch": (
            "certificates plus cli self time",
            metrics["layer.certificates.self_ms"]["value"] + metrics["layer.cli.self_ms"]["value"],
            0.5,
        ),
    }[name]
    return {"what": share[0], "share": share[1] / op, "min": share[2], "ok": share[1] / op >= share[2]}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        setup_s, setup_kernel_s = [], [reference_kernel()]
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            pkg, cases = setup(workload, args.seed, workdir)
            setup_s.append(perf_counter() - start)
            setup_kernel_s.append(reference_kernel())
        setup_kernel_s = smoothed(setup_kernel_s, SETUP_REPEATS)
        workload.op(pkg, cases[0])  # warm-up, untimed
        if args.trace:
            untraced = summarize(workload, measure(workload, pkg, cases, args.seconds / 2))
            tracer = Tracer()
            run = measure(workload, pkg, cases, args.seconds / 2, tracer)
            result = summarize(workload, run)
            metrics = layer_metrics(tracer, run, untraced["latency_ms_p50"], result)
            result["correct"] = result["correct"] and untraced["correct"]
            result["bindings_restored"] = run["restored"]
            result["design_check"] = design_checks(workload.name, metrics)
            result["untraced"] = {k: untraced[k] for k in ("ops", "latency_ms_p50", "failed_frac")}
        else:
            run = measure(workload, pkg, cases, args.seconds)
            result = summarize(workload, run)
            metrics = {
                "setup_s": {"value": statistics.median(calibrated(setup_s, setup_kernel_s)), "unit": "s"},
                "latency_ms_p50": {"value": result["latency_ms_p50"], "unit": "ms"},
                "latency_ms_tail": {"value": result["latency_ms_tail"]["value"], "unit": "ms"},
                "roots_per_s": {"value": result["roots_per_s"], "unit": "1/s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "setup_s_runs": setup_s,
        "known_defects": KNOWN_DEFECTS,
        "computed": [name for name in COMPUTED if name in metrics],
        **{k: v for k, v in result.items() if k != "correct"},
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": result["attempted"],
                "failed": result["failed"]["operation"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
