"""The package's public namespace."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import matabound


def test_every_public_import_is_exported():
    tree = ast.parse(inspect.getsource(matabound))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if not alias.name.startswith("_")}
    assert imported == set(matabound.__all__)
    namespace = {}
    exec("from matabound import *", namespace)
    assert imported <= namespace.keys()


def test_public_names():
    # the public surface changes only on purpose: edit this list with it
    assert sorted(matabound.__all__) == [
        "BoundResult", "CoverageEstimate", "CoverageGrid", "FamilyFit", "MataInterval",
        "MataRequest", "ModelFit", "ModelSubset", "QuadratureConfig", "RegressionProblem",
        "SimScenario", "TwoModelConfig", "WeightSpec", "all_subsets", "bound_curve",
        "correlation_profile", "coverage_probability", "delta_u", "f_m_pdf", "fit_family",
        "min_coverage_scan", "model_weights", "simulate_coverage", "solve_interval",
        "upper_bound", "w1", "w1_decay_scan",
    ]
    namespace = {}
    for name in matabound.__all__:
        exec(f"from matabound import {name}", namespace)
        assert namespace[name].__name__ == name


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    # the package computes nothing with scipy.stats, the slowest part of
    # scipy to import, and its root finders are its own Newton iterations,
    # not scipy.optimize's
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, matabound; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.stats', 'scipy.optimize'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
