"""Workload inputs, operations and correctness checks for the benchmark.

Every operation goes through the package's public Python API.  An
operation returns its result; its check returns a ``Verdict``:

* ``ok`` is false when the result misses the check's tolerance; the op
  then counts as failed.
* ``valid`` is false when the result is wrong beyond any known accuracy
  defect (or the op raised); the whole run then reports
  ``correct: false``.

Workloads (the seed is the only input besides the fixed cells below):

``bound``     one ``upper_bound`` per fixed cell; the seed sets the cell order.
``interval``  ``fit_family`` -> ``model_weights`` -> ``solve_interval`` on
              40 seed-generated datasets with p = 12, q = 2 (1024 models).
``verify``    ``coverage_probability`` against ``simulate_coverage`` (1e5
              replicates, 1% audit) on two two-model cells, plus one
              8-model ``simulate_coverage`` on the theorem-2 design.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.special import stdtr

HERE = os.path.dirname(os.path.abspath(__file__))
ALPHA = 0.05

# A bound more than this far from its reference fails its op; 1e-5 is
# the package's node-doubling tolerance.
BOUND_TOL = 1e-5
# A bound this far off is wrong beyond the known quadrature defect.
BOUND_INVALID = 1e-3
# Interval endpoints must solve h(z) = target to this accuracy.
H_TOL = 1e-9
# Monte Carlo and analytic coverage may differ by at most this many
# standard errors (exceeded with probability 6e-7 by a correct program).
MC_SIGMAS = 5.0
MC_REPS = 100_000


def d_of(rule: str, n: int) -> float:
    return 2.0 if rule == "aic" else math.log(n)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    valid: bool
    detail: str
    abs_err: float = 0.0


@dataclass(frozen=True)
class Op:
    """One timed operation: ``run(mb)`` then ``check(result)``."""

    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], Verdict]


# ----------------------------------------------------------------- bound

@dataclass(frozen=True)
class BoundCell:
    name: str
    rho: float
    m: int
    n: int
    rule: str


BOUND_CELLS = (
    BoundCell("rho0.99-m1-n3-aic", 0.99, 1, 3, "aic"),
    BoundCell("rho0.7-m5-n7-aic", 0.7, 5, 7, "aic"),
    BoundCell("rho0.95-m44-n46-bic", 0.95, 44, 46, "bic"),
)


def check_bound(value: float, reference: float) -> Verdict:
    err = abs(value - reference)
    return Verdict(ok=err <= BOUND_TOL, valid=err <= BOUND_INVALID,
                   detail=f"bound {value:.10f} vs reference {reference:.10f}",
                   abs_err=err)


def bound_ops(seed: int, refs: dict) -> list[Op]:
    order = np.random.default_rng(seed).permutation(len(BOUND_CELLS))
    ops = []
    for i in order:
        cell = BOUND_CELLS[i]
        ref = refs["bound"][cell.name]["min_coverage"]
        ops.append(Op(
            name=cell.name,
            run=lambda mb, c=cell: mb.upper_bound(c.rho, c.m, c.n, d_of(c.rule, c.n), ALPHA),
            check=lambda res, r=ref: check_bound(res.upper_bound, r),
        ))
    return ops


# -------------------------------------------------------------- interval

P, Q = 12, 2
INTERVAL_N = (30, 60, 120, 250, 400)
INTERVAL_COLLINEARITY = (0.0, 0.5, 0.8, 0.95)
INTERVAL_RULES = ("aic", "bic")


@dataclass(frozen=True)
class Dataset:
    name: str
    X: np.ndarray
    y: np.ndarray
    a: np.ndarray
    d: float


def make_dataset(rng: np.random.Generator, n: int, c: float, rule: str) -> Dataset:
    """Intercept plus 11 columns sharing a common factor with weight ``c``.

    The target is the coefficient of column 1; columns 2..11 may be
    dropped.  About half the droppable coefficients are zero and the rest
    are of the order of their standard errors, so weight spreads over
    many models.
    """
    factor = rng.standard_normal(n)
    Z = rng.standard_normal((n, P - 1))
    X = np.column_stack([np.ones(n), math.sqrt(1.0 - c) * Z + math.sqrt(c) * factor[:, None]])
    beta = rng.standard_normal(P)
    scale = 2.0 / math.sqrt(n * (1.0 - c) + 1.0)
    beta[Q:] = scale * rng.standard_normal(P - Q) * (rng.random(P - Q) < 0.5)
    y = X @ beta + rng.standard_normal(n)
    a = np.zeros(P)
    a[1] = 1.0
    return Dataset(f"n{n}-c{c}-{rule}", X, y, a, d_of(rule, n))


def interval_datasets(seed: int) -> list[Dataset]:
    rng = np.random.default_rng(seed)
    return [make_dataset(rng, n, c, rule) for n in INTERVAL_N
            for c in INTERVAL_COLLINEARITY for rule in INTERVAL_RULES]


def run_interval(mb, ds: Dataset):
    """The CLI ``interval`` path without I/O."""
    prob = mb.RegressionProblem(ds.X, ds.a, q=Q, y=ds.y)
    spec = mb.WeightSpec.gic(prob.n, ds.d)
    req = mb.MataRequest(prob, spec, alpha=ALPHA)
    fits = mb.fit_family(prob, req.resolved_family())
    weights = mb.model_weights(fits, fits[mb.ModelSubset(0)].rss, spec)
    iv = mb.solve_interval(req, fits=fits, weights=weights)
    return fits, iv


def tail_average(fits: dict, a: np.ndarray, n: int, d: float):
    """h(z) rebuilt from the fits alone: GIC weights, then t tail areas."""
    fs = list(fits.values())
    p = len(a)
    gic = np.array([n * math.log(f.rss) + d * (p - f.subset.cardinality) for f in fs])
    w = np.exp(-0.5 * (gic - gic.min()))
    w /= w.sum()
    theta = np.array([float(a @ f.beta_hat) for f in fs])
    scale = np.sqrt([f.s2 * f.v for f in fs])
    df = np.array([float(f.df) for f in fs])
    return lambda z: float(w @ stdtr(df, (theta - z) / scale))


def check_interval(ds: Dataset, fits: dict, lower: float, upper: float) -> Verdict:
    h = tail_average(fits, ds.a, len(ds.y), ds.d)
    res_lo = abs(h(lower) - (1.0 - ALPHA / 2.0))
    res_up = abs(h(upper) - ALPHA / 2.0)
    ok = lower < upper and max(res_lo, res_up) <= H_TOL
    return Verdict(ok=ok, valid=ok,
                   detail=f"[{lower:.8g}, {upper:.8g}] h residuals {res_lo:.1e} {res_up:.1e}")


def interval_ops(seed: int, refs: dict) -> list[Op]:
    return [
        Op(name=ds.name,
           run=lambda mb, ds=ds: run_interval(mb, ds),
           check=lambda res, ds=ds: check_interval(ds, res[0], res[1].lower, res[1].upper))
        for ds in interval_datasets(seed)
    ]


# ---------------------------------------------------------------- verify

@dataclass(frozen=True)
class VerifyCell:
    """Two-model design with ``m`` residual df.

    ``far`` > 0 adds two droppable columns, orthogonal to the target,
    with coefficients +-far standard errors.  The six extra models of the
    resulting 8-model family then carry weight of order exp(-27), so its
    coverage is the two-model integral's (1.2e6 replicates agreed with it
    to 0.3 standard errors)."""

    name: str
    m: int
    n: int
    rule: str
    rho: float
    gamma: float
    far: float = 0.0


VERIFY_CELLS = (
    VerifyCell("m5-n7-aic-rho0.7-g1", 5, 7, "aic", 0.7, 1.0),
    VerifyCell("m44-n60-bic-rho0.96-g2", 44, 60, "bic", 0.96, 2.0),
)
THEOREM2 = VerifyCell("theorem2-8model-n20-aic-rho0.85-g1.5", 16, 20, "aic", 0.85, 1.5, far=16.0)


def verify_problem(mb, cell: VerifyCell):
    """Design whose Gram matrix is the identity apart from entry (0, -1)
    = -rho, with target e_0.  Only the last column is droppable, or with
    ``far`` every column after the first."""
    p = cell.n - cell.m
    gram = np.eye(p)
    gram[0, -1] = gram[-1, 0] = -cell.rho
    X = np.vstack([np.linalg.cholesky(gram).T, np.zeros((cell.m, p))])
    a = np.zeros(p)
    a[0] = 1.0
    q = 1 if cell.far else p - 1
    beta = np.zeros(p)
    beta[-1] = cell.gamma / math.sqrt(1.0 - cell.rho ** 2)
    if cell.far:
        beta[1:3] = (cell.far, -cell.far)
    return mb.RegressionProblem(X, a, q=q), beta


def verify_ops(seed: int, refs: dict) -> list[Op]:
    seeds = np.random.SeedSequence(seed).generate_state(3, dtype=np.uint64)
    ops = []
    for cell, mc_seed in zip(VERIFY_CELLS + (THEOREM2,), seeds):
        analytic = None
        if cell.far:
            analytic = refs["coverage"][cell.name]["coverage"]
        ops.append(Op(
            name=cell.name,
            run=lambda mb, c=cell, s=int(mc_seed), a=analytic: run_verify(mb, c, s, a),
            check=check_verify,
        ))
    return ops


def run_verify(mb, cell: VerifyCell, seed: int, analytic: float | None, reps: int = MC_REPS):
    """Analytic coverage (unless given) and the audited Monte Carlo estimate."""
    d = d_of(cell.rule, cell.n)
    if analytic is None:
        cfg = mb.TwoModelConfig(m=cell.m, n=cell.n, rho=cell.rho, d=d, alpha=ALPHA)
        analytic = mb.coverage_probability(cell.gamma, cfg)
    prob, beta = verify_problem(mb, cell)
    sc = mb.SimScenario(prob=prob, beta_over_sigma=beta, reps=reps, seed=seed,
                        spec=mb.WeightSpec.gic(cell.n, d), alpha=ALPHA)
    return analytic, mb.simulate_coverage(sc)


def check_verify(res) -> Verdict:
    analytic, est = res
    z = (est.p_hat - analytic) / est.se
    ok = abs(z) <= MC_SIGMAS
    return Verdict(ok=ok, valid=ok,
                   detail=f"mc {est.p_hat:.5f} vs analytic {analytic:.6f} ({z:+.2f} se)")


# -------------------------------------------------------------- registry

WORKLOADS = {"bound": bound_ops, "interval": interval_ops, "verify": verify_ops}


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def make_ops(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](seed, load_references())
