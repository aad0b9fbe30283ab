"""Named verification suites: analytic results against Monte Carlo.

Each suite takes only a replicate count and a seed, and returns a list of
check rows (description, numbers, pass flag), so the command-line front
end and the test suite share one source of truth for what gets verified.
Everything else a suite uses is a module constant below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bound import resolve_d, upper_bound
from .coverage import CoverageGrid, TwoModelConfig
from .errors import _check_integer
from .linreg import RegressionProblem
from .mcverify import _MIN_SCAN_REPS, SimScenario, _check_seed, min_coverage_scan
from .mcverify import simulate_coverage
from .weights import WeightSpec, w1, w1_exceedance


@dataclass(frozen=True)
class CheckRow:
    name: str
    value: float
    reference: float
    tolerance: float
    passed: bool

    def __str__(self):
        tag = "ok  " if self.passed else "FAIL"
        return (f"[{tag}] {self.name}: value={self.value:.6g} "
                f"reference={self.reference:.6g} tolerance={self.tolerance:.6g}")


def two_model_problem(m: int, n: int, rho: float) -> tuple[RegressionProblem, float]:
    """A design with p = n - m columns whose only droppable column has
    correlation ``rho`` with the target estimator.

    The Gram matrix is the identity apart from the (first, last) entries,
    set to ``-rho``; the interest vector is e_1 and q = p - 1, so the
    all-subsets family is exactly {full, drop-last}.  Returns the problem
    and ``v_p``, the scaled variance of the last coefficient estimator
    (``beta_last / sigma = gamma * sqrt(v_p)``).
    """
    p = n - m
    if p < 2:
        raise ValueError("need n - m >= 2 for a two-model design")
    if not abs(rho) < 1:
        raise ValueError("|rho| must be below 1")
    return _correlated_design(p, n, rho, q=p - 1), 1.0 / (1.0 - rho * rho)


def _correlated_design(p: int, n: int, rho: float, q: int) -> RegressionProblem:
    """Target e_1 and a Gram matrix equal to the identity apart from the
    (first, last) entries, set to ``-rho``."""
    gram = np.eye(p)
    gram[0, -1] = gram[-1, 0] = -rho
    X = np.vstack([np.linalg.cholesky(gram).T, np.zeros((n - p, p))])
    a = np.zeros(p)
    a[0] = 1.0
    return RegressionProblem(X, a, q=q)


def two_model_scenario(
    m: int, n: int, rho: float, gamma: float, d: float,
    alpha: float, reps: int, seed: int, audit_fraction: float = 0.01,
) -> SimScenario:
    """Simulation scenario matching a TwoModelConfig at the given gamma."""
    prob, v_p = two_model_problem(m, n, rho)
    beta = np.zeros(prob.p)
    beta[-1] = gamma * math.sqrt(v_p)
    return SimScenario(
        prob=prob,
        beta_over_sigma=beta,
        reps=reps,
        seed=seed,
        spec=WeightSpec.gic(n, d),
        alpha=alpha,
        audit_fraction=audit_fraction,
    )


# The integral-vs-MC grid: every gamma and rho below, for an AIC small-m
# setup and a BIC large-m setup (24 configurations).
INTEGRAL_VS_MC_GAMMAS = (0.0, 1.0, 2.0, 5.0)
INTEGRAL_VS_MC_RHOS = (0.3, 0.7, 0.96)
INTEGRAL_VS_MC_SETUPS = ((5, 7, "aic"), (44, 60, "bic"))
# Every suite's two-sided miss probability; the theorem-2 scan's replicates
# per grid point; theorem 4's residual degrees of freedom m and threshold eps.
ALPHA = 0.05
THEOREM2_SCAN_REPS = 10_000
THEOREM4_M = 5
THEOREM4_EPS = 0.01


def integral_vs_mc_suite(reps: int, seed: int) -> list[CheckRow]:
    """Compare the coverage double integral with simulation on a fixed grid."""
    rows = []
    for m, n, rule in INTEGRAL_VS_MC_SETUPS:
        d = resolve_d(rule, n)
        for rho in INTEGRAL_VS_MC_RHOS:
            grid = CoverageGrid(TwoModelConfig(m=m, n=n, rho=rho, d=d, alpha=ALPHA))
            for gamma in INTEGRAL_VS_MC_GAMMAS:
                analytic = grid.coverage_at(gamma)
                sc = two_model_scenario(m, n, rho, gamma, d, ALPHA, reps, seed)
                est = simulate_coverage(sc)
                tol = 3.0 * est.se
                rows.append(CheckRow(
                    name=f"integral-vs-mc m={m} n={n} d={d:.4g} rho={rho} gamma={gamma}",
                    value=est.p_hat,
                    reference=analytic,
                    tolerance=tol,
                    passed=abs(est.p_hat - analytic) < tol,
                ))
    return rows


def theorem2_suite(reps: int, seed: int) -> list[CheckRow]:
    """Full-family minimum-coverage scan against the two-model bound.

    The scan grid pushes the two non-maximal droppable coefficients far
    from zero (where the family effectively collapses to two models) and
    sweeps the maximal one at ``THEOREM2_SCAN_REPS`` replicates per point;
    the scan minimizer is then re-estimated at ``reps`` replicates before
    comparing against the bound.
    """
    n, p, rho = 20, 4, 0.85
    prob = _correlated_design(p, n, rho, q=1)  # max correlation on the last column
    v_last = 1.0 / (1.0 - rho * rho)
    sweep = np.arange(-4.0, 4.0 + 0.25, 0.5) * math.sqrt(v_last)
    away = (0.0, 4.0, -4.0, 16.0, -16.0)
    grid = [np.array([v1, v2, v3]) for v1 in away for v2 in away for v3 in sweep]

    rows = []
    for rule in ("aic", "bic"):
        d = resolve_d(rule, n)
        bound = upper_bound(rho, n - p, n, d, ALPHA)
        spec = WeightSpec.gic(n, d)
        _, argmin = min_coverage_scan(prob, spec, ALPHA, grid, THEOREM2_SCAN_REPS, seed)
        beta = np.concatenate([np.zeros(prob.q), argmin])
        sc = SimScenario(prob=prob, beta_over_sigma=beta, reps=reps, seed=seed,
                         spec=spec, alpha=ALPHA, audit_fraction=0.0)
        est = simulate_coverage(sc)
        rows.append(CheckRow(
            name=f"theorem2 {rule} scan-min vs bound (argmin={np.round(argmin, 3)})",
            value=est.p_hat,
            reference=bound.upper_bound,
            tolerance=3.0 * est.se,
            passed=est.p_hat <= bound.upper_bound + 3.0 * est.se,
        ))
    return rows


def theorem4_suite(reps: int, seed: int) -> list[CheckRow]:
    """Theorem 4: under BIC the chance that the single-constraint weight
    reaches ``THEOREM4_EPS`` dies as n grows, m = ``THEOREM4_M`` fixed.

    P(w1 >= eps) is exact (``weights.w1_exceedance``): ``w1`` decreases in
    z, so the event is gamma_hat^2 <= c^2 = m expm1((2/n) (log((1 - eps) /
    eps) + d/2)), and gamma_hat is a noncentral t (m df, noncentrality
    gamma), so P is the noncentral F(1, m) cdf at c^2 (0 where c^2 <= 0).
    The decay and sup rows are exact.  P is largest at gamma = 0 because the
    normal density is symmetric and unimodal.  A formula row passes when
    the share of ``reps`` draws of (Z, Q), Z then Q from one Philox stream
    keyed by ``seed``, judged by ``w1 >= eps`` and not through c^2, lies
    within 3 binomial standard errors (at P) of P.
    """
    _check_integer(reps, "reps", _MIN_SCAN_REPS)
    _check_seed(seed)
    m, eps, ns, gammas = THEOREM4_M, THEOREM4_EPS, (100, 10_000), (0.0, 1.0, 2.0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    z, q = rng.standard_normal(reps), rng.chisquare(m, reps)
    exact = {n: w1_exceedance(eps, gammas, m, n, resolve_d("bic", n)) for n in ns}
    small, large = (exact[n][0] for n in ns)
    rows = [CheckRow(f"theorem4 decay P(w1>={eps}) n=10^4 vs n=10^2 at gamma=0",
                     large, small, 0.0, large < small)]
    rows += [CheckRow(f"theorem4 sup dominance n={n} gamma={g}", p, exact[n][0], 0.0,
                      p <= exact[n][0])
             for n in ns for g, p in zip(gammas[1:], exact[n][1:])]
    for n in ns:
        for g, p in zip(gammas, exact[n]):
            sim = float(np.mean(w1((z + g) ** 2 / (q / m), m, n, resolve_d("bic", n)) >= eps))
            tol = 3.0 * math.sqrt(p * (1.0 - p) / reps)
            rows.append(CheckRow(f"theorem4 formula n={n} gamma={g} simulated vs exact",
                                 sim, p, tol, abs(sim - p) <= tol))
    return rows


SUITES = {
    "integral-vs-mc": integral_vs_mc_suite,
    "theorem2": theorem2_suite,
    "theorem4": theorem4_suite,
}
