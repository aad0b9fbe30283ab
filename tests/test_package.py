"""The package's public namespace, its exception classes and the rule they carry."""

import ast
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matabound
from matabound import CoverageGrid, TwoModelConfig, all_subsets, coverage_probability, delta_u
from matabound import errors


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
        "upper_bound", "w1", "w1_exceedance",
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


def test_exception_classes():
    # the type carries the exit-code rule: bad input is a ValueError (exit 2),
    # a MatacoverError a computation that failed its own check (exit 3)
    defined = {name: obj for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert sorted(defined) == [
        "BracketFailure", "DegenerateFit", "EventMismatch", "MatacoverError",
        "QuadratureError", "RankDeficient", "SingularRestriction",
    ]
    assert issubclass(errors.RankDeficient, ValueError)
    assert not issubclass(errors.RankDeficient, errors.MatacoverError)
    assert [name for name, cls in defined.items()
            if issubclass(cls, errors.MatacoverError) and issubclass(cls, ValueError)] == []


_CFG = TwoModelConfig(m=8, n=12, rho=0.6, d=2.0, alpha=0.05)


@pytest.mark.parametrize("call, message", [
    # delta_u ran 100 Newton steps and raised QuadratureError
    (lambda: delta_u(math.nan, 1.0, 0.025, _CFG), "requires a finite x and y"),
    (lambda: delta_u(1.0, math.nan, 0.025, _CFG), "requires y > 0"),
    (lambda: delta_u(1.0, 1.0, math.nan, _CFG), "requires 0 < u < 1"),
    # numpy's "repeats may not contain negative values"
    (lambda: CoverageGrid(_CFG).coverage_at(math.nan), "gamma must be finite"),
    (lambda: CoverageGrid(_CFG).coverage_at(math.inf), "gamma must be finite"),
    (lambda: coverage_probability(math.nan, _CFG), "gamma must be finite"),
    # "negative shift count"
    (lambda: all_subsets(2, 3), r"need 0 <= q <= p, got q=3, p=2"),
    (lambda: all_subsets(3, -1), r"need 0 <= q <= p, got q=-1, p=3"),
], ids=["delta_u-x", "delta_u-y", "delta_u-u", "coverage_at-nan", "coverage_at-inf",
        "coverage_probability-nan", "all_subsets-q-above-p", "all_subsets-negative-q"])
def test_bad_argument_raises_value_error_naming_it(call, message):
    with pytest.raises(ValueError, match=message):
        call()
