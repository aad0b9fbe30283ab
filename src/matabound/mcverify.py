"""Monte Carlo oracle for interval coverage.

Simulates regression data and estimates coverage of the averaged-tail-area
interval without solving the estimating equations: since ``h`` is
decreasing in ``z``, the event "theta inside the interval" equals
"alpha/2 <= h(theta) <= 1 - alpha/2", which costs one h evaluation per
replicate.  The weights and ``h`` are the interval solver's own,
evaluated for all replicates at once.  A deterministic audit subsample is
additionally pushed through the actual endpoint solver and must agree
replicate by replicate; disagreement raises ``EventMismatch`` and means a
bug, not bad luck.

Coverage depends on the parameters only through the scaled droppable
coefficients ``beta[q:] / sigma``, so scenarios store that vector and
simulate at sigma = 1.  The noise matrix is drawn from a counter-based
Philox generator keyed by the scenario seed: replicate ``i`` consumes a
fixed counter range, so estimates are bit-reproducible and replicates
could be evaluated in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import EventMismatch
from .interval import MataRequest, h, solve_interval
from .linreg import (
    ModelSubset,
    RegressionProblem,
    all_subsets,
)
from .weights import WeightSpec, normalized_weights, w1

_MIN_REPS = 10_000
_MIN_SCAN_REPS = 1_000
_MAX_SCAN_FREE = 8


@dataclass(frozen=True)
class SimScenario:
    """One simulation setup; coverage is a function of beta_over_sigma.

    ``beta_over_sigma`` has length p; only its last p - q entries can
    affect the estimate.  ``audit_fraction`` of replicates (default 1%)
    are re-checked through the endpoint solver.
    """

    prob: RegressionProblem
    beta_over_sigma: np.ndarray
    reps: int
    seed: int
    spec: WeightSpec
    alpha: float = 0.05
    family: tuple[ModelSubset, ...] | None = None
    audit_fraction: float = 0.01

    def __post_init__(self):
        beta = np.asarray(self.beta_over_sigma, dtype=float)
        if beta.shape != (self.prob.p,):
            raise ValueError(f"beta_over_sigma must have length p={self.prob.p}")
        if self.reps < _MIN_REPS:
            raise ValueError(f"reps must be at least {_MIN_REPS}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError("alpha must lie in (0, 0.5]")
        if not 0.0 <= self.audit_fraction <= 1.0:
            raise ValueError("audit_fraction must lie in [0, 1]")
        beta.setflags(write=False)
        object.__setattr__(self, "beta_over_sigma", beta)

    @classmethod
    def from_beta_sigma(cls, prob, beta, sigma, **kwargs) -> "SimScenario":
        """Build a scenario from raw (beta, sigma); only beta/sigma is kept."""
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        return cls(prob=prob, beta_over_sigma=np.asarray(beta, dtype=float) / sigma, **kwargs)

    def resolved_family(self) -> list[ModelSubset]:
        if self.family is None:
            return all_subsets(self.prob.p, self.prob.q)
        return list(self.family)


@dataclass(frozen=True)
class CoverageEstimate:
    p_hat: float
    se: float
    reps: int
    seed: int


class _SimKernel:
    """Vectorized per-replicate h(theta) for a fixed design and family.

    The noise-only least-squares coefficients and residual sum of squares
    are precomputed once; changing the coefficient vector is a shift, so
    scanning a parameter grid reuses the same draws (common random
    numbers).  The restricted fits are formed here from those shifts,
    independently of ``fit_family``; weights and ``h`` are the package's
    single implementations, with replicates on the leading axis.
    """

    def __init__(self, prob: RegressionProblem, family, spec: WeightSpec,
                 alpha: float, reps: int, seed: int):
        if ModelSubset(0) not in family:
            raise ValueError("family must contain the full model")
        self.prob = prob
        self.spec = spec
        self.alpha = alpha
        self.family = sorted(set(family))
        stats = prob.stats

        rng = np.random.Generator(np.random.Philox(key=seed))
        self.noise = rng.standard_normal((reps, prob.n))
        self.bn = self.noise @ (prob.X @ stats.xtx_inv)
        resid = self.noise - self.bn @ prob.X.T
        self.rss = np.einsum("ij,ij->i", resid, resid)

        self.df = np.array([float(prob.n - prob.p + K.cardinality) for K in self.family])
        self.card = np.array([K.cardinality for K in self.family[1:]], dtype=int)
        self.v = np.empty(len(self.family))
        self.v[0] = stats.v_theta
        self.restricted = []
        for j, K in enumerate(self.family[1:], start=1):
            L, idx = stats.subset_chol(K)
            g = stats.xtx_inv_a[idx]
            self.v[j] = stats.v_theta - float(g @ scipy.linalg.cho_solve((L, True), g))
            self.restricted.append((L, idx, g))

    def family_arrays(self, beta_over_sigma: np.ndarray):
        """(w, theta, scale) per replicate and model, models in mask order,
        for data y = X b + noise with b = beta/sigma."""
        b_hat = self.bn + np.asarray(beta_over_sigma, dtype=float)
        reps, n_models = self.rss.shape[0], len(self.family)
        theta = np.empty((reps, n_models))
        u = np.zeros((reps, n_models))
        theta[:, 0] = b_hat @ self.prob.a
        for j, (L, idx, g) in enumerate(self.restricted, start=1):
            bk = b_hat[:, idx]
            z = scipy.linalg.cho_solve((L, True), bk.T)
            theta[:, j] = theta[:, 0] - g @ z
            u[:, j] = np.einsum("kr,rk->r", z, bk)
        w = normalized_weights(self.spec.log_kernel(u[:, 1:] / self.rss[:, None], self.card))
        scale = np.sqrt((self.rss[:, None] + u) / self.df * self.v)
        return w, theta, scale

    def h_at_truth(self, beta_over_sigma: np.ndarray) -> np.ndarray:
        """h(theta) per replicate for data y = X b + noise, b = beta/sigma."""
        theta = float(self.prob.a @ np.asarray(beta_over_sigma, dtype=float))
        w, theta_k, scale = self.family_arrays(beta_over_sigma)
        return h(w, theta_k, scale, self.df, theta)

    def covered(self, beta_over_sigma: np.ndarray) -> np.ndarray:
        h_theta = self.h_at_truth(beta_over_sigma)
        return (self.alpha / 2.0 <= h_theta) & (h_theta <= 1.0 - self.alpha / 2.0)

    def response(self, i: int, beta_over_sigma: np.ndarray) -> np.ndarray:
        return self.prob.X @ np.asarray(beta_over_sigma, dtype=float) + self.noise[i]


def _estimate(covered: np.ndarray, reps: int, seed: int) -> CoverageEstimate:
    p_hat = float(np.mean(covered))
    return CoverageEstimate(
        p_hat=p_hat,
        se=math.sqrt(p_hat * (1.0 - p_hat) / reps),
        reps=reps,
        seed=seed,
    )


def simulate_coverage(sc: SimScenario) -> CoverageEstimate:
    """Estimate coverage of the averaged interval under the scenario.

    Every replicate is judged through the h-event; the audit subsample is
    also run through ``solve_interval`` and the two verdicts must match.
    """
    family = sc.resolved_family()
    kernel = _SimKernel(sc.prob, family, sc.spec, sc.alpha, sc.reps, sc.seed)
    covered = kernel.covered(sc.beta_over_sigma)

    if sc.audit_fraction > 0.0:
        stride = max(1, int(round(1.0 / sc.audit_fraction)))
        theta = float(sc.prob.a @ sc.beta_over_sigma)
        fam = tuple(family)
        for i in range(0, sc.reps, stride):
            prob_i = sc.prob.with_response(kernel.response(i, sc.beta_over_sigma))
            req = MataRequest(prob_i, sc.spec, sc.alpha, fam)
            iv = solve_interval(req)
            contained = iv.lower <= theta <= iv.upper
            if contained != bool(covered[i]):
                raise EventMismatch(
                    f"replicate {i}: interval containment {contained} vs "
                    f"h-event {bool(covered[i])}"
                )
    return _estimate(covered, sc.reps, sc.seed)


def min_coverage_scan(
    prob: RegressionProblem,
    spec: WeightSpec,
    alpha: float,
    grid,
    reps: int,
    seed: int,
    family=None,
) -> tuple[CoverageEstimate, np.ndarray]:
    """Scan coverage over scaled-coefficient vectors; return the minimum.

    ``grid`` holds vectors of length p - q (the droppable-coefficient
    block of beta/sigma).  All points share one noise draw, so
    differences between estimates are low-variance and duplicated points
    give identical results.
    """
    grid = [np.asarray(v, dtype=float) for v in grid]
    if not grid:
        raise ValueError("grid must be nonempty")
    free = prob.p - prob.q
    if free > _MAX_SCAN_FREE:
        raise ValueError(f"scan limited to p - q <= {_MAX_SCAN_FREE}")
    if any(v.shape != (free,) for v in grid):
        raise ValueError(f"grid vectors must have length p - q = {free}")
    if reps < _MIN_SCAN_REPS:
        raise ValueError(f"scan reps must be at least {_MIN_SCAN_REPS}")

    if family is None:
        family = all_subsets(prob.p, prob.q)
    kernel = _SimKernel(prob, family, spec, alpha, reps, seed)
    best_p, best_v = math.inf, None
    for v in grid:
        beta = np.zeros(prob.p)
        beta[prob.q:] = v
        p_hat = float(np.mean(kernel.covered(beta)))
        if p_hat < best_p:
            best_p, best_v = p_hat, v
    covered_best = kernel.covered(np.concatenate([np.zeros(prob.q), best_v]))
    return _estimate(covered_best, reps, seed), best_v


@dataclass(frozen=True)
class W1DecayTable:
    """Estimated P(w1(gamma_hat^2) >= eps) over (n, gamma) with one draw set.

    ``probs[i, j]`` estimates the probability at ``ns[i]``, ``gammas[j]``.
    The gamma = 0 column (``sup_gamma_index``) is the theoretical supremum
    over gamma for every n.
    """

    m: int
    eps: float
    ns: tuple[int, ...]
    gammas: tuple[float, ...]
    probs: np.ndarray
    ses: np.ndarray
    reps: int
    seed: int
    sup_gamma_index: int | None


def w1_decay_scan(
    m: int,
    n_list,
    gamma_grid,
    eps: float,
    reps: int,
    seed: int,
    d_rule="bic",
) -> W1DecayTable:
    """Estimate how fast the single-constraint weight dies as n grows.

    ``gamma_hat^2`` is simulated as U / (Q/m) with U = (Z + gamma)^2,
    Z standard normal and Q chi-square with m degrees of freedom; the
    same (Z, Q) draws serve every (n, gamma) cell.  For the BIC rule the
    penalty is d = ln n at each n.
    """
    from .bound import resolve_d

    ns = tuple(int(n) for n in n_list)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    gammas = tuple(float(g) for g in gamma_grid)
    if not gammas or not ns:
        raise ValueError("n_list and gamma_grid must be nonempty")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if reps < _MIN_SCAN_REPS:
        raise ValueError(f"reps must be at least {_MIN_SCAN_REPS}")

    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal(reps)
    q = rng.chisquare(m, reps)
    probs = np.empty((len(ns), len(gammas)))
    for i, n in enumerate(ns):
        d = resolve_d(d_rule, n)
        for j, g in enumerate(gammas):
            gamma_hat_sq = (z + g) ** 2 / (q / m)
            probs[i, j] = np.mean(w1(gamma_hat_sq, m, n, d) >= eps)
    ses = np.sqrt(probs * (1.0 - probs) / reps)
    sup_idx = gammas.index(0.0) if 0.0 in gammas else None
    return W1DecayTable(
        m=m, eps=eps, ns=ns, gammas=gammas, probs=probs, ses=ses,
        reps=reps, seed=seed, sup_gamma_index=sup_idx,
    )
