"""Tests of the benchmark itself: seeded inputs, failure and bound accounting,
and the tracer's rebinding."""

import dataclasses
import inspect
import json
import sys

import pytest

import run
from spans import LAYERS, Tracer
from workloads import WORKLOADS


@pytest.fixture
def pkg():
    """A fresh import of the package; the modules imported before the test are put back after."""
    saved = {k: v for k, v in sys.modules.items() if k == "weierstrass" or k.startswith("weierstrass.")}
    yield run.load_package()
    for name in [k for k in sys.modules if k == "weierstrass" or k.startswith("weierstrass.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def first_case(pkg, name, tmp_path):
    workload = WORKLOADS[name]
    return workload, workload.prepare(pkg, workload.make_inputs(3)[:1], tmp_path)[0]


def fake_run(units):
    """A measured run of one operation per unit, as `run.measure` returns it."""
    return {
        "latencies": [0.01] * len(units),
        "degrees": [u.degree for u in units],
        "kernel_s": [0.001] * len(units),
        "units": units,
        "output_bytes": 0,
        "restored": True,
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = WORKLOADS[name]
    assert workload.make_inputs(11) == workload.make_inputs(11)
    assert workload.make_inputs(11) != workload.make_inputs(12)


def test_benchmark_json_names_every_workload_with_its_why():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert {w["name"]: w["why"] for w in declared} == {name: w.why for name, w in WORKLOADS.items()}


def test_clean_solve_passes_every_check(pkg, tmp_path):
    workload, case = first_case(pkg, "solve-n100", tmp_path)
    trace = workload.op(pkg, case)
    (unit,) = workload.check(case, trace)
    assert not unit.failed
    assert unit.error < 1e-12


def test_perturbed_root_counts_as_failure(pkg, tmp_path):
    workload, case = first_case(pkg, "solve-n100", tmp_path)
    trace = workload.op(pkg, case)
    final = list(trace.final)
    final[5] += 1e-6
    bad = dataclasses.replace(trace, final=tuple(final))
    units = workload.check(case, trace) + workload.check(case, bad)
    summary = run.summarize(workload, fake_run(units))
    assert summary["failed_frac"] == 0.5
    assert summary["failed"]["accuracy"] == 1
    assert summary["correct"] is False  # no known defect excuses a miss at n = 100


def test_perturbed_root_in_cli_report_counts_as_failure(pkg, tmp_path):
    workload, case = first_case(pkg, "cli-batch", tmp_path)
    runs = workload.op(pkg, case)
    code, text = runs["solve"]
    lines = text.splitlines()
    # The lowest-degree document, where the CLI solve is accurate.
    degrees = workload.degrees(case)
    doc = min(range(len(degrees)), key=degrees.__getitem__)
    report = json.loads(lines[doc])
    report["result"]["roots"][0][0] += 1e-6
    lines[doc] = json.dumps(report)
    before = workload.check(case, runs)
    after = workload.check(case, dict(runs, solve=(code, "\n".join(lines) + "\n")))
    assert before[doc].miss is None
    assert after[doc].miss is not None
    assert sum(u.failed for u in after) == sum(u.failed for u in before) + 1


def test_bound_below_true_error_counts_as_violation(pkg, tmp_path):
    workload, case = first_case(pkg, "solve-n100", tmp_path)
    trace = workload.op(pkg, case)
    (unit,) = workload.check(case, trace)
    records = list(trace.records)
    results = {}
    for label, bound in (("low", unit.error / 2), ("high", unit.error * 2)):
        records[-2] = dataclasses.replace(records[-2], apost_bound=bound)
        (forced,) = workload.check(case, dataclasses.replace(trace, records=tuple(records)))
        assert forced.bound == bound
        results[label] = forced
    summary = run.summarize(workload, fake_run(list(results.values())))
    assert results["low"].violated and not results["high"].violated
    assert summary["bound_violation_frac"] == 0.5


def snapshot(pkg):
    owners = [pkg.package] + [getattr(pkg, layer) for layer in LAYERS]
    owners += [obj for mod in owners[1:] for obj in vars(mod).values()
               if inspect.isclass(obj) and obj.__module__ == mod.__name__]
    return {(id(owner), attr): value for owner in owners for attr, value in list(vars(owner).items())}


def test_tracer_records_spans_and_restores_attributes(pkg, tmp_path):
    workload, case = first_case(pkg, "solve-n100", tmp_path)
    before = snapshot(pkg)
    original = pkg.solver.run_sor
    tracer = Tracer()
    tracer.install(pkg)
    assert pkg.solver.run_sor is not original
    assert pkg.package.run_sor is pkg.solver.run_sor
    assert pkg.polynomial.Polynomial.__call__ is pkg.polynomial.Polynomial.evaluate
    workload.op(pkg, case)
    assert tracer.uninstall() is True
    after = snapshot(pkg)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.spans["solver.run_sor"][0] == 1
    assert tracer.spans["polynomial.evaluate"][0] == 100 * tracer.spans["operator.weierstrass_correction"][0]
    # Every second of the op sits under the one top-level span.
    assert tracer.layers["solver"][2] == pytest.approx(tracer.top_s)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_declared_metric_last(capsys, trace, section):
    saved = {k: v for k, v in sys.modules.items() if k.startswith("weierstrass")}
    argv = ["--workload", "solve-n100", "--seed", "1", "--seconds", "0.02", "--trace", str(trace)]
    try:
        assert run.main(argv) == 0
    finally:
        for name in [k for k in sys.modules if k.startswith("weierstrass")]:
            del sys.modules[name]
        sys.modules.update(saved)
    *_, report_line, result_line = capsys.readouterr().out.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())[section]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert json.loads(report_line)["report"]["workload"] == "solve-n100"


def test_run_refuses_a_checkout_without_the_package(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.load_package()
    assert exc.value.code != 0
