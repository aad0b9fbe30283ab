"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest perfbench -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import matabound as mb  # noqa: E402

import layertrace  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace,group", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_emitted(trace, group):
    out = bench("--workload", "interval", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in declared:
        assert any(line.startswith(f"interval {name} = ") for line in lines)


def small_ops():
    ds = workloads.interval_datasets(1)[0]
    cell = workloads.VERIFY_CELLS[0]
    return [
        workloads.Op("interval", lambda m: workloads.run_interval(m, ds),
                     lambda res: workloads.check_interval(ds, res[0], res[1].lower, res[1].upper)),
        workloads.Op("verify", lambda m: workloads.run_verify(m, cell, 7, None, reps=10_000),
                     workloads.check_verify),
    ]


def test_self_times_fit_inside_their_op():
    tracer = layertrace.Tracer()
    rec = run.run_pass(mb, small_ops(), tracer)
    assert all(r.ok for r in rec.ops)
    spans = tracer.spans
    selfs = layertrace.self_times(spans)
    ops = [s for s in spans if s.name == "op"]
    assert len(ops) == 2
    for op in ops:
        inner = layertrace.descendants(spans, op.id)
        assert inner
        assert all(selfs[s.id] >= -1e-9 for s in inner)
        assert selfs[op.id] + sum(selfs[s.id] for s in inner) <= op.duration + 1e-9
    under_interval = {s.name for s in layertrace.descendants(spans, ops[0].id)}
    under_verify = {s.name for s in layertrace.descendants(spans, ops[1].id)}
    assert not any(name.startswith("coverage.") for name in under_interval)
    assert {"coverage.coverage_probability", "coverage.delta_u",
            "interval.solve_interval", "linreg.problem_init"} <= under_verify
    metrics = run.pass_layer_metrics(spans, rec)
    assert metrics["mcverify.audited_reps"] == 100
    assert metrics["linreg.models_fitted"] == 1024 + 2 * 100


def test_tracer_wraps_by_name_imports_and_restores():
    targets = [(mb.interval, "fit_family"), (mb.interval, "model_weights"),
               (mb.mcverify, "solve_interval"), (mb.coverage, "delta_u"),
               (mb, "upper_bound"), (mb.bound, "upper_bound")]
    before = [getattr(mod, name) for mod, name in targets]
    with layertrace.Tracer().installed():
        for (mod, name), orig in zip(targets, before):
            assert getattr(mod, name).__wrapped__ is orig
        assert mb.CoverageGrid.__init__.__wrapped__
    assert [getattr(mod, name) for mod, name in targets] == before
    assert not hasattr(mb.CoverageGrid.__init__, "__wrapped__")


def test_bound_check_rejects_perturbed_bound():
    ref = 0.93
    assert workloads.check_bound(ref + 2e-6, ref).ok
    bad = workloads.check_bound(ref + 1e-4, ref)
    assert not bad.ok and bad.valid
    assert not workloads.check_bound(ref + 2e-3, ref).valid


def test_interval_check_rejects_shifted_endpoint():
    ds = workloads.interval_datasets(5)[7]
    fits, iv = workloads.run_interval(mb, ds)
    assert workloads.check_interval(ds, fits, iv.lower, iv.upper).ok
    shift = 1e-6 * (iv.upper - iv.lower)
    assert not workloads.check_interval(ds, fits, iv.lower + shift, iv.upper).ok
    assert not workloads.check_interval(ds, fits, iv.lower, iv.upper - shift).ok


def test_verify_check_rejects_forced_audit_mismatch(monkeypatch):
    def wrong_interval(req, **kwargs):
        return mb.MataInterval(lower=1e9, upper=2e9, weights_used={}, h_residuals=(0.0, 0.0))

    monkeypatch.setattr(mb.mcverify, "solve_interval", wrong_interval)
    rec = run.run_op(mb, small_ops()[1], None)
    assert not rec.ok and not rec.valid
    assert rec.detail.startswith("EventMismatch")


def test_verify_check_rejects_far_analytic_value():
    est = mb.CoverageEstimate(p_hat=0.95, se=0.001, reps=100_000, seed=1)
    assert workloads.check_verify((0.953, est)).ok
    assert not workloads.check_verify((0.9551, est)).ok


def test_kronrod_and_gauss_rules_are_exact():
    for k in range(23):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert abs(reference.NODES ** k @ reference.W_KRONROD - exact) < 1e-14
        if k <= 13:
            assert abs(reference.NODES ** k @ reference.W_GAUSS - exact) < 1e-14


def test_references_meet_their_tolerance():
    refs = workloads.load_references()
    assert set(refs["bound"]) == {c.name for c in workloads.BOUND_CELLS}
    for group in ("bound", "coverage"):
        for r in refs[group].values():
            assert r["tolerance_change"] <= 1e-7 and r["gk_error_estimate"] <= 1e-7


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "bound", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_inputs_depend_only_on_seed():
    a, b = workloads.interval_datasets(11), workloads.interval_datasets(11)
    assert all(np.array_equal(x.X, y.X) and np.array_equal(x.y, y.y) for x, y in zip(a, b))
    assert not np.array_equal(a[0].y, workloads.interval_datasets(12)[0].y)


def test_workload_names_agree():
    declared = tuple(w["name"] for w in SPEC["workloads"])
    assert declared == run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
