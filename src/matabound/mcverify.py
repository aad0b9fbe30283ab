"""Monte Carlo oracle for interval coverage.

Simulates regression data and estimates coverage of the averaged-tail-area
interval without solving the estimating equations: since ``h`` is
decreasing in ``z``, the event "theta inside the interval" equals
"alpha/2 <= h(theta) <= 1 - alpha/2", which costs one h evaluation per
replicate.  The weights and ``h`` are the interval solver's own,
evaluated for a block of replicates at once.  A deterministic audit subsample is
fitted again as one response matrix by ``fit_family``, which shares only the
restriction blocks and ``linreg.forward`` with the kernel: its full-model fit
(QR), each model's RSS (from residuals) and the endpoints (``solve_interval``)
are its own.  Containment must agree with the h-event replicate by replicate;
disagreement raises ``EventMismatch`` and means a bug, not bad luck.

Coverage depends on the parameters only through the scaled droppable
coefficients ``beta[q:] / sigma``, so scenarios store that vector and
simulate at sigma = 1.  The noise is drawn from one counter-based Philox
generator keyed by the scenario seed, in blocks taken in order from that
one stream.  The normal sampler sometimes takes more than one random word
per draw, so a replicate's place in the stream depends on every draw
before it, and replicates cannot be drawn out of order.  Blocks filled in
order give the same stream as one large draw, and no replicate's
arithmetic depends on the block it falls in, so an estimate is
bit-reproducible for a given seed whatever the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bound import resolve_d
from .errors import EventMismatch
from .interval import MataRequest, h, solve_interval
from .linreg import (
    _RESIDUAL_BLOCK,
    RegressionProblem,
    all_subsets,
    fit_family,
    forward,
)
from .weights import WeightSpec, normalized_weights, w1

_MIN_REPS = 10_000
_MIN_SCAN_REPS = 1_000
# Replicates per noise draw.  Each draw is reduced to (bn, rss) by BLAS
# calls of this one shape, the last draw zero-padded: BLAS picks its
# kernels, and so its rounding, by the shape of a call (OpenBLAS switches
# to other dgemm kernels for small products and single rows).
_DRAW_ROWS = 512
# Bytes of the largest temporary of a _SimKernel evaluation block: a
# (rows, models) array or a (k, G, rows) forward substitution.
_BLOCK_BYTES = 1 << 22


def _check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2**64), the seeds every simulation takes."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")


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
    audit_fraction: float = 0.01

    def __post_init__(self):
        beta = np.asarray(self.beta_over_sigma, dtype=float)
        if beta.shape != (self.prob.p,):
            raise ValueError(f"beta_over_sigma must have length p={self.prob.p}")
        if not np.isfinite(beta).all():
            raise ValueError("beta_over_sigma must be finite")
        if self.reps < _MIN_REPS:
            raise ValueError(f"reps must be at least {_MIN_REPS}")
        _check_seed(self.seed)
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError("alpha must lie in (0, 0.5]")
        if not 0.0 <= self.audit_fraction <= 1.0:
            raise ValueError("audit_fraction must lie in [0, 1]")
        beta.setflags(write=False)
        object.__setattr__(self, "beta_over_sigma", beta)


@dataclass(frozen=True)
class CoverageEstimate:
    """``audited`` replicates went through the endpoint solver, whose
    largest ``|h - target|`` was ``audit_max_residual`` (0 without audit)."""

    p_hat: float
    se: float
    reps: int
    seed: int
    audited: int = 0
    audit_max_residual: float = 0.0


class _SimKernel:
    """Vectorized per-replicate h(theta) over a design's all-subsets family.

    The noise-only least-squares coefficients and residual sum of squares
    are precomputed once; changing the coefficient vector is a shift, so
    scanning a parameter grid reuses the same draws (common random
    numbers).  The restricted fits are formed here from those shifts, not
    through ``fit_family``; the two share only the restriction blocks and
    ``linreg.forward``.  Weights and ``h`` are the package's single
    implementations, with replicates on the leading axis.

    Replicates are evaluated in blocks of ``rows``, so memory is
    O(reps * p) plus one block's temporaries.  The evaluation uses only
    elementwise steps and reductions within a replicate, never a BLAS or
    LAPACK call across replicates, so a replicate's result does not depend
    on the block it falls in.  Only the noise of the replicates in
    ``keep`` is stored, for ``responses``.
    """

    def __init__(self, prob: RegressionProblem, spec: WeightSpec,
                 alpha: float, reps: int, seed: int, keep=()):
        self.prob = prob
        self.spec = spec
        self.alpha = alpha
        self.family = all_subsets(prob.p, prob.q)
        stats = prob.stats

        self.df = np.array([float(prob.n - prob.p + K.cardinality) for K in self.family])
        self.card = self.df[1:] - self.df[0]  # |K|, as df = n - p + |K|
        self.v = np.full(len(self.family), stats.v_theta)
        self.blocks = stats.restriction_blocks(self.family)
        for pos, *_, v in self.blocks:
            self.v[pos] = v
        width = max([len(self.family)] + [idx.size for _, idx, *_ in self.blocks])
        self.rows = max(1, _BLOCK_BYTES // (8 * width))

        rng = np.random.Generator(np.random.Philox(key=seed))
        coef = prob.X @ stats.xtx_inv
        self.bn = np.empty((reps, prob.p))
        self.rss = np.empty(reps)
        self.kept = np.unique(np.asarray(keep, dtype=np.intp))
        self.kept_noise = np.empty((self.kept.size, prob.n))
        noise = np.zeros((_DRAW_ROWS, prob.n))
        for start in range(0, reps, _DRAW_ROWS):
            m = min(_DRAW_ROWS, reps - start)
            rng.standard_normal(out=noise[:m])
            noise[m:] = 0.0
            bn = noise @ coef
            resid = noise - bn @ prob.X.T
            self.bn[start:start + m] = bn[:m]
            self.rss[start:start + m] = np.einsum("ij,ij->i", resid, resid)[:m]
            lo, hi = np.searchsorted(self.kept, (start, start + m))
            self.kept_noise[lo:hi] = noise[self.kept[lo:hi] - start]

    def family_arrays(self, beta_over_sigma: np.ndarray, rows: slice = slice(None)):
        """(w, theta, scale) per replicate in ``rows`` and model, models in
        mask order, for data y = X b + noise with b = beta/sigma."""
        b_hat = self.bn[rows] + np.asarray(beta_over_sigma, dtype=float)
        rss = self.rss[rows]
        theta0 = (b_hat * self.prob.a).sum(axis=1)
        theta = np.repeat(theta0[:, None], len(self.family), axis=1)
        u = np.zeros(theta.shape)
        for pos, idx, L, c, _ in self.blocks:
            z, zz = forward(L, b_hat.T[idx.T])  # (k, G, rows): L^-1 b_K
            cz = c[0, :, None] * z[0]
            for zi, ci in zip(z[1:], c[1:]):
                cz += ci[:, None] * zi
            u[:, pos] = zz.T
            theta[:, pos] -= cz.T
        w = normalized_weights(self.spec.log_kernel(u[:, 1:] / rss[:, None], self.card))
        scale = np.sqrt((rss[:, None] + u) / self.df * self.v)
        return w, theta, scale

    def h_at_truth(self, beta_over_sigma: np.ndarray) -> np.ndarray:
        """h(theta) per replicate for data y = X b + noise, b = beta/sigma."""
        theta = float(self.prob.a @ np.asarray(beta_over_sigma, dtype=float))
        out = np.empty(self.rss.shape[0])
        for start in range(0, out.size, self.rows):
            rows = slice(start, start + self.rows)
            out[rows] = h(*self.family_arrays(beta_over_sigma, rows), self.df, theta)
        return out

    def covered(self, beta_over_sigma: np.ndarray) -> np.ndarray:
        h_theta = self.h_at_truth(beta_over_sigma)
        return (self.alpha / 2.0 <= h_theta) & (h_theta <= 1.0 - self.alpha / 2.0)

    def responses(self, rows, beta_over_sigma: np.ndarray) -> np.ndarray:
        """Responses X b + noise of kept replicates ``rows``."""
        rows = np.asarray(rows, dtype=np.intp)
        pos = np.searchsorted(self.kept, rows)
        if np.any(pos >= self.kept.size) or np.any(self.kept[pos] != rows):
            raise ValueError("responses asked for a replicate whose noise was not kept")
        return np.asarray(beta_over_sigma, dtype=float) @ self.prob.X.T + self.kept_noise[pos]


def _estimate(p_hat: float, reps: int, seed: int, **audit) -> CoverageEstimate:
    return CoverageEstimate(p_hat, math.sqrt(p_hat * (1.0 - p_hat) / reps), reps, seed, **audit)


def simulate_coverage(sc: SimScenario) -> CoverageEstimate:
    """Estimate coverage of the averaged interval under the scenario.

    Every replicate is judged through the h-event; the audit subsample is
    also run through ``solve_interval`` and the two verdicts must match.
    """
    audited = np.arange(0)
    if sc.audit_fraction:
        audited = np.arange(0, sc.reps, max(1, int(round(1.0 / sc.audit_fraction))))
    kernel = _SimKernel(sc.prob, sc.spec, sc.alpha, sc.reps, sc.seed, keep=audited)
    covered = kernel.covered(sc.beta_over_sigma)
    p_hat = float(np.mean(covered))
    if not audited.size:
        return _estimate(p_hat, sc.reps, sc.seed)
    return _estimate(p_hat, sc.reps, sc.seed, audited=audited.size,
                     audit_max_residual=_audit(sc, kernel, covered, audited))


def _audit(sc: SimScenario, kernel: _SimKernel, covered, audited) -> float:
    """Check the h-event of each audited replicate against its interval;
    returns the largest endpoint residual."""
    theta = float(sc.prob.a @ sc.beta_over_sigma)
    # The fits and weights carry each replicate's response; the request
    # supplies the design and alpha.
    req = MataRequest(sc.prob, sc.spec, sc.alpha)
    # Chunks keep the fits' (rows x models x n) residual block within bound.
    rows = max(1, _RESIDUAL_BLOCK // (len(kernel.family) * sc.prob.n))
    max_residual = 0.0
    for start in range(0, audited.size, rows):
        chunk = audited[start:start + rows]
        Y = kernel.responses(chunk, sc.beta_over_sigma)
        fits = fit_family(sc.prob, kernel.family, Y)
        x = fits.u[:, 1:] / fits.rss[:, :1]
        weights = normalized_weights(sc.spec.log_kernel(x, kernel.card))
        for r, i in enumerate(chunk.tolist()):
            iv = solve_interval(req, fits=fits.models(r),
                                weights=dict(zip(fits.subsets, weights[r].tolist())))
            contained = iv.lower <= theta <= iv.upper
            if contained != bool(covered[i]):
                raise EventMismatch(f"replicate {i}: interval containment {contained} "
                                    f"vs h-event {bool(covered[i])}")
            max_residual = max(max_residual, *iv.h_residuals)
    return max_residual


def min_coverage_scan(
    prob: RegressionProblem,
    spec: WeightSpec,
    alpha: float,
    grid,
    reps: int,
    seed: int,
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
    if any(v.shape != (free,) for v in grid):
        raise ValueError(f"grid vectors must have length p - q = {free}")
    if not all(np.isfinite(v).all() for v in grid):
        raise ValueError("grid vectors must be finite")
    if reps < _MIN_SCAN_REPS:
        raise ValueError(f"scan reps must be at least {_MIN_SCAN_REPS}")
    _check_seed(seed)

    kernel = _SimKernel(prob, spec, alpha, reps, seed)
    best_p, best_v = math.inf, None
    for v in grid:
        beta = np.zeros(prob.p)
        beta[prob.q:] = v
        p_hat = float(np.mean(kernel.covered(beta)))
        if p_hat < best_p:
            best_p, best_v = p_hat, v
    return _estimate(best_p, reps, seed), best_v


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
    ns = tuple(int(n) for n in n_list)
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    gammas = tuple(float(g) for g in gamma_grid)
    if not gammas or not ns:
        raise ValueError("n_list and gamma_grid must be nonempty")
    if not np.isfinite(gammas).all():
        raise ValueError("gamma_grid must be finite")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if reps < _MIN_SCAN_REPS:
        raise ValueError(f"reps must be at least {_MIN_SCAN_REPS}")
    _check_seed(seed)

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
