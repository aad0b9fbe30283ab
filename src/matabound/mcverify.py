"""Monte Carlo oracle for interval coverage.

Simulates regression data and estimates coverage of the averaged-tail-area
interval without solving the estimating equations: since ``h`` is
decreasing in ``z``, the event "theta inside the interval" equals
"alpha/2 <= h(theta) <= 1 - alpha/2", which costs one h evaluation per
replicate.  The weights and ``h`` are the interval solver's own,
evaluated for a block of replicates at once.

Most replicates need only the side of the two cut points that ``h(theta)``
lies on, not its value.  ``_TCdfTable`` holds, per distinct df, a cubic
Hermite interpolant of the t cdf on nodes of step H = ``_TABLE_STEP`` over
[-``_TABLE_RANGE``, ``_TABLE_RANGE``]: node values from ``stdtr``, slopes
from the t density.  ``_h_event`` forms ``h``'s own standardized points
and the weighted average of the interpolated cdfs at them.  A replicate
whose average lies more than ``_TABLE_MARGIN`` = 1e-8 from both cut
points is decided by it; the rest, and every replicate with a point
outside the table, go through the exact ``h``.  The margin is sound.  The
Hermite error is at most H^4/384 * sup|T^(4)| = H^4/384 * ``_T_PDF_D3_MAX``,
about 2.3e-10: T^(4) is the density's third derivative, whose sup is
largest at df 1.  But ``stdtr(1, z)`` is itself off the Cauchy cdf by up to
2.4e-9 near z = 7e-9, and the table, built from exact nodes, does not copy
that error, so the interpolation bound alone would not do.  A dense sweep
put |table - stdtr| at 2.4e-9 for df 1 and at most 1.6e-10 for every other
df (a test holds it to a quarter of the margin).  The weights sum to 1, so
a decided replicate's average is within that of ``h`` and its verdict is
the exact one: the event is bit-identical to the one read off ``h``.

A deterministic audit
subsample is fitted again as one response matrix by ``fit_family``, which
shares only the family table's downdate steps (``linreg.family_table``) and
the helper that applies them (``linreg._downdate``) with the kernel: its
full-model fit (QR), each model's RSS (from residuals) and the endpoints
(``solve_interval``) are its own.
Containment must agree with the h-event replicate by replicate;
disagreement raises ``EventMismatch`` and means a bug, not bad luck.

Coverage depends on the parameters only through the scaled droppable
coefficients ``beta[q:] / sigma``, so scenarios store that vector and
simulate at sigma = 1.  A replicate enters the h-event only through its
sufficient statistics, so the kernel draws those and never the noise: p + 1
variates in place of n.  With X = QR, the noise-only least-squares
coefficients are ``bn = R^-1 z`` for z ~ N(0, I_p), and the residual sum
of squares is an independent ``rss`` ~ chi-square(n - p).  An audited
replicate's response is rebuilt from those two alone as
``X (b + bn) + sqrt(rss) e``, with e one fixed unit vector orthogonal to
the columns (``_residual_direction``).  It is not a draw of the noise, and
nothing reads it as one: the fitted path sees a response only through
``X'y``, which gives ``b + bn``, and its residual sums of squares, each
``|r|^2`` plus a term in ``b + bn``; any residual r orthogonal to the
columns with ``|r|^2 = rss`` gives the same fits, weights and interval.

z and rss each have their own counter-based Philox stream keyed by the
scenario seed, 2^192 counter steps apart, drawn in replicate order.  The
normal and chi-square samplers sometimes take more than one random word
per draw, so a replicate's place in a stream depends on every draw before
it, and those are drawn in blocks taken in order.  Blocks filled in order
give the same stream as one large draw, and no replicate's arithmetic
depends on the block it falls in, so an estimate is bit-reproducible for a
given seed whatever the block size, and replicate i's draws, rebuilt
response included, depend only on the seed and i: not on ``reps``, nor on
which replicates are audited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from .errors import EventMismatch, _check_integer
from .interval import MataRequest, _check_alpha, _t_pdf, h, solve_interval
from .linreg import (
    _RESIDUAL_BLOCK,
    RegressionProblem,
    _downdate,
    family_table,
    fit_family,
)
from .weights import WeightSpec

_MIN_REPS = 10_000
_MIN_SCAN_REPS = 1_000
# Replicates per block of the z draw.  Each block is mapped to bn by one
# BLAS call of this one shape, the last block zero-padded: BLAS picks its
# kernels, and so its rounding, by the shape of a call (OpenBLAS switches
# to other dgemm kernels for small products and single rows).
_DRAW_ROWS = 512
# Philox counters at which the kernel's z and rss streams start (see the
# module docstring).
_Z_STREAM, _RSS_STREAM = 0, 1 << 192
# Bytes of the largest temporary of a _SimKernel evaluation block: the
# (models, p - q + 1, rows) values the downdate steps carry.
_BLOCK_BYTES = 1 << 22
# The h-event's t-cdf table (see the module docstring): node step,
# half-width, and the distance from a cut point within which the exact
# ``h`` decides.  _T_PDF_D3_MAX bounds the third derivative of the t
# density over all x and df >= 1; the sup, 1.48605, is taken at df 1.
_TABLE_STEP = 1.0 / 64.0
_TABLE_RANGE = 40.0
_TABLE_MARGIN = 1e-8
_T_PDF_D3_MAX = 1.487


def _check_seed(seed: int) -> None:
    """Refuse a seed that is not an integer (numpy's pass) or lies outside
    [0, 2**64), the seeds every simulation takes."""
    if not 0 <= _check_integer(seed, "seed") < 2**64:
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
        self.spec.check_n(self.prob.n)
        beta = np.asarray(self.beta_over_sigma, dtype=float)
        if beta.shape != (self.prob.p,):
            raise ValueError(f"beta_over_sigma must have length p={self.prob.p}")
        if not np.isfinite(beta).all():
            raise ValueError("beta_over_sigma must be finite")
        _check_integer(self.reps, "reps", _MIN_REPS)
        _check_seed(self.seed)
        _check_alpha(self.alpha)
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


class _TCdfTable:
    """Cubic Hermite interpolants of the t cdfs of ``df`` (one entry per
    model), one per distinct value, on the nodes j * ``_TABLE_STEP`` in
    [-``_TABLE_RANGE``, ``_TABLE_RANGE``].  Node values are ``stdtr``'s and
    slopes ``_t_pdf``'s; ``coef`` holds the Horner coefficients in the
    interval's offset s in [0, 1], for every interval of every df, and
    ``offset`` each model's first interval."""

    def __init__(self, df):
        nus, which = np.unique(df, return_inverse=True)
        half = round(_TABLE_RANGE / _TABLE_STEP)
        t = np.arange(-half, half + 1) * _TABLE_STEP
        F = stdtr(nus[:, None], t)
        d = _TABLE_STEP * _t_pdf(t, nus[:, None])
        F0, F1, d0, d1 = F[:, :-1], F[:, 1:], d[:, :-1], d[:, 1:]
        self.coef = np.stack([F0, d0, 3.0 * (F1 - F0) - 2.0 * d0 - d1,
                              2.0 * (F0 - F1) + d0 + d1]).reshape(4, -1)
        self.last = 2 * half - 1
        self.offset = which * (2 * half)

    def average(self, w, x):
        """Weighted sum along the last axis of the interpolated cdfs at
        ``x``, which it overwrites, and per row whether every |x| was
        below ``_TABLE_RANGE`` (the sum is meaningless where not)."""
        inside = np.abs(x) < _TABLE_RANGE
        x += _TABLE_RANGE
        x *= 1.0 / _TABLE_STEP
        np.copyto(x, 0.0, where=~inside)
        j = x.astype(np.intp)
        # x just below the range can round onto the last node.
        np.minimum(j, self.last, out=j)
        x -= j
        j += self.offset
        acc = self.coef[3].take(j)
        for c in self.coef[2::-1]:
            acc *= x
            acc += c.take(j)
        acc *= w
        return acc.sum(axis=-1), inside.all(axis=-1)


def _h_event(w, theta, scale, df, z, table: _TCdfTable, alpha: float) -> np.ndarray:
    """alpha/2 <= h(z) <= 1 - alpha/2 per row of (w, theta, scale), read off
    ``table`` where it decides and off the exact ``h`` elsewhere."""
    x = theta - z
    x /= scale  # h's standardized points, bit for bit
    h_z, inside = table.average(w, x)
    lo, hi = alpha / 2.0, 1.0 - alpha / 2.0
    exact = np.flatnonzero(~inside | (np.abs(h_z - lo) <= _TABLE_MARGIN)
                           | (np.abs(h_z - hi) <= _TABLE_MARGIN))
    h_z[exact] = h(w[exact], theta[exact], scale[exact], df, z)
    return (lo <= h_z) & (h_z <= hi)


class _SimKernel:
    """Vectorized per-replicate h(theta) over a design's all-subsets family.

    Each replicate's noise-only least-squares coefficients ``bn`` and
    residual sum of squares ``rss`` are drawn once, as its sufficient
    statistics (see the module docstring); changing the coefficient vector
    is a shift, so scanning a parameter grid reuses the same draws (common
    random numbers).  The restricted fits are formed here from those
    shifts, not through ``fit_family``; the two share only the downdate
    steps of ``linreg.family_table`` and ``linreg._downdate``, which
    applies them.  The kernel carries only ``beta[q:]`` and ``theta = a @
    beta`` through the steps, whose ``e`` it cuts to ``e[q:]`` and ``a @
    e``.  Weights and ``h`` are the package's single implementations, with
    replicates on the leading axis.  ``covered``
    decides most replicates from ``table``, the t-cdf interpolants of the
    family's k + 1 distinct df (built here, about 1 ms each), and calls
    ``h`` only for those within ``_TABLE_MARGIN`` of a cut point or outside
    the table (see the module docstring); its event is the one that
    ``h(*family_arrays(beta), df, theta)`` gives, bit for bit.

    Replicates are evaluated in blocks of ``rows``, so memory is
    O(reps * p) plus one block's temporaries.  The evaluation uses only
    elementwise steps and reductions within a replicate, never a BLAS or
    LAPACK call across replicates, so a replicate's result does not depend
    on the block it falls in.  ``responses`` rebuilds a replicate's data
    from its ``bn`` and ``rss``.
    """

    def __init__(self, prob: RegressionProblem, spec: WeightSpec,
                 alpha: float, reps: int, seed: int):
        self.prob = prob
        self.spec = spec
        self.alpha = alpha
        # all_subsets holds every parent, so each fitted model is a member.
        self.family, _, card, self.v, blocks = family_table(prob)
        self.df = (prob.n - prob.p + card).astype(float)
        self.card = card[1:]
        self.table = _TCdfTable(self.df)
        # The steps of beta[q:] and of theta = a @ beta, the carried values.
        q = prob.q
        self.blocks = [(pos, parent, j - q, np.column_stack([e[:, q:], e @ prob.a]), r)
                       for pos, parent, j, e, r in blocks]
        self.rows = max(1, _BLOCK_BYTES // (8 * len(self.family) * (prob.p - q + 1)))

        z_rng, rss_rng = (np.random.Generator(np.random.Philox(key=seed, counter=c))
                          for c in (_Z_STREAM, _RSS_STREAM))
        self.rss = rss_rng.chisquare(prob.n - prob.p, reps)
        self.bn = np.empty((reps, prob.p))
        z = np.zeros((_DRAW_ROWS, prob.p))
        for start in range(0, reps, _DRAW_ROWS):
            m = min(_DRAW_ROWS, reps - start)
            z_rng.standard_normal(out=z[:m])
            z[m:] = 0.0
            self.bn[start:start + m] = (z @ prob.stats.rt_inv)[:m]

    def family_arrays(self, beta_over_sigma: np.ndarray, rows: slice = slice(None)):
        """(w, theta, scale) per replicate in ``rows`` and model, models in
        mask order, for data y = X b + noise with b = beta/sigma."""
        b_hat = self.bn[rows] + np.asarray(beta_over_sigma, dtype=float)
        rss = self.rss[rows]
        q = self.prob.q
        carried = np.empty((len(self.family), self.prob.p - q + 1, len(rss)))
        carried[0, :-1] = b_hat[:, q:].T
        carried[0, -1] = (b_hat * self.prob.a).sum(axis=1)
        u = np.empty((len(self.family), len(rss)))
        u[0] = 0.0
        _downdate(carried, u, self.blocks)
        theta, u = np.ascontiguousarray(carried[:, -1].T), np.ascontiguousarray(u.T)
        w = self.spec.weights(u[:, 1:] / rss[:, None], self.card)
        scale = np.sqrt((rss[:, None] + u) / self.df * self.v)
        return w, theta, scale

    def covered(self, beta_over_sigma: np.ndarray) -> np.ndarray:
        """The h-event alpha/2 <= h(theta) <= 1 - alpha/2 per replicate."""
        theta = float(self.prob.a @ np.asarray(beta_over_sigma, dtype=float))
        out = np.empty(self.rss.shape[0], dtype=bool)
        for start in range(0, out.size, self.rows):
            rows = slice(start, start + self.rows)
            # One call per block, so the block's arrays are freed before
            # the next block is built.
            out[rows] = _h_event(*self.family_arrays(beta_over_sigma, rows), self.df,
                                 theta, self.table, self.alpha)
        return out

    def responses(self, rows, beta_over_sigma: np.ndarray) -> np.ndarray:
        """Responses ``X (b + bn) + sqrt(rss) e`` of replicates ``rows``,
        whose fits give their ``bn`` and ``rss`` (see the module docstring)."""
        rows = np.asarray(rows, dtype=np.intp)
        b_hat = self.bn[rows] + np.asarray(beta_over_sigma, dtype=float)
        # Replicates on the last axis.  A running sum adds the p terms in
        # order (a BLAS call or a pairwise sum would not), so each column
        # depends on its own replicate alone, whatever the row count.
        terms = np.multiply(self.prob.X.T[:, :, None], b_hat.T[:, None, :], order="C")
        y = np.cumsum(terms, axis=0, out=terms)[-1]
        y += _residual_direction(self.prob.stats.Q)[:, None] * np.sqrt(self.rss[rows])
        return y.T


def _residual_direction(Q: np.ndarray) -> np.ndarray:
    """Unit n-vector orthogonal to the columns of ``Q``: the basis vector
    e_k of least leverage ``|Q[k]|^2`` less its projection ``Q Q[k]``,
    normalised.  Its squared length before that is ``1 - |Q[k]|^2``, at
    least 1 - p/n > 0."""
    k = int(np.argmin((Q * Q).sum(axis=1)))
    e = -(Q @ Q[k])
    e[k] += 1.0
    return e / math.sqrt(e @ e)


def _estimate(p_hat: float, reps: int, seed: int, **audit) -> CoverageEstimate:
    return CoverageEstimate(p_hat, math.sqrt(p_hat * (1.0 - p_hat) / reps), reps, seed, **audit)


def simulate_coverage(sc: SimScenario) -> CoverageEstimate:
    """Estimate coverage of the averaged interval under the scenario.

    Every replicate is judged through the h-event; the audit subsample,
    every ``1 / audit_fraction``-th replicate, is also run through
    ``solve_interval`` on responses rebuilt from its ``bn`` and ``rss``, and
    the two verdicts must match.
    """
    audited = np.arange(0)
    if sc.audit_fraction:
        # A stride capped at reps: a fraction below 1/reps audits replicate 0.
        stride = max(1, int(round(min(sc.reps, 1.0 / sc.audit_fraction))))
        audited = np.arange(0, sc.reps, stride)
    kernel = _SimKernel(sc.prob, sc.spec, sc.alpha, sc.reps, sc.seed)
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
        weights = sc.spec.weights(fits.u[:, 1:] / fits.rss[:, :1], kernel.card)
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
    spec.check_n(prob.n)
    grid = [np.asarray(v, dtype=float) for v in grid]
    if not grid:
        raise ValueError("grid must be nonempty")
    free = prob.p - prob.q
    if any(v.shape != (free,) for v in grid):
        raise ValueError(f"grid vectors must have length p - q = {free}")
    if not all(np.isfinite(v).all() for v in grid):
        raise ValueError("grid vectors must be finite")
    _check_integer(reps, "scan reps", _MIN_SCAN_REPS)
    _check_seed(seed)
    _check_alpha(alpha)

    kernel = _SimKernel(prob, spec, alpha, reps, seed)
    best_p, best_v = math.inf, None
    for v in grid:
        beta = np.zeros(prob.p)
        beta[prob.q:] = v
        p_hat = float(np.mean(kernel.covered(beta)))
        if p_hat < best_p:
            best_p, best_v = p_hat, v
    return _estimate(best_p, reps, seed), best_v
