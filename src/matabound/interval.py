"""Model-averaged tail-area (MATA) confidence intervals.

The interval's endpoints are the solutions of

    h(lower) = 1 - alpha/2      h(upper) = alpha/2

where ``h(z)`` is the weighted average, over the candidate models, of the
t tail areas of ``(a @ beta_hat_K - z) / (s_K sqrt(v_K))`` (Turek and
Fletcher, *Model-averaged Wald confidence intervals*, CSDA 2012).  For a
fixed dataset ``h`` is continuous and strictly decreasing from 1 to 0, so
both roots exist and are unique.  Being a convex combination of the
models' tail areas, ``h`` crosses each target between the smallest and
largest of the models' own roots (the ends of their t intervals), so
those roots give an exact bracket and no search is needed.
``solve_interval`` refines both endpoints in it by ``_newton_step``, the
safeguarded Newton step of ``bound``'s polish and ``coverage.delta_u``,
evaluating ``h`` at both tails' points in one call.  The same ``h`` serves
the Monte Carlo oracle, with replicates on a leading axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, stdtr, stdtrit

from .errors import BracketFailure, DegenerateFit
from .linreg import (
    ModelFit,
    ModelSubset,
    RegressionProblem,
    all_subsets,
    fit_family,
)
from .weights import WeightSpec, model_weights

_STEP_RTOL = 1e-13
_MAX_ITERATIONS = 100
_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class MataRequest:
    """Inputs for one interval computation over the all-subsets family.

    ``alpha`` is the two-sided miss probability, restricted to (0, 0.5].
    An interval over another family is ``solve_interval(req, fits=,
    weights=)`` with that family's ``fit_family`` and ``model_weights``.
    """

    prob: RegressionProblem
    spec: WeightSpec
    alpha: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError("alpha must lie in (0, 0.5]")

    def resolved_family(self) -> list[ModelSubset]:
        return all_subsets(self.prob.p, self.prob.q)


@dataclass(frozen=True)
class MataInterval:
    """A solved interval with solver diagnostics attached."""

    lower: float
    upper: float
    weights_used: dict[ModelSubset, float]
    h_residuals: tuple[float, float]


def h(w, theta, scale, df, z):
    """Weighted average of per-model t tail areas at ``z``.

    ``w``, ``theta``, ``scale`` and ``df`` hold one entry per model along
    their last axis; any leading axes (such as Monte Carlo replicates)
    broadcast against the shape of ``z``.
    """
    z = np.asarray(z, dtype=float)[..., None]
    return (w * stdtr(df, (theta - z) / scale)).sum(axis=-1)


def _family_arrays(fits: dict[ModelSubset, ModelFit], weights, a: np.ndarray):
    """(w, theta, scale, df) of a fitted family, models in mask order."""
    models = sorted(fits.values(), key=lambda f: f.subset.mask)
    w = np.array([weights[f.subset] for f in models])
    theta = np.array([f.beta_hat for f in models]) @ a
    scale2 = np.array([f.s2 * f.v for f in models])
    if np.any(scale2 <= 0.0):
        raise DegenerateFit("zero residual scale: tail areas undefined")
    df = np.array([float(f.df) for f in models])
    if not (np.all(w >= 0.0) and 0.0 < w.sum() < math.inf):
        raise ValueError("model weights must be finite, nonnegative and not all zero")
    return w, theta, np.sqrt(scale2), df


def _t_pdf(z, nu):
    """Student-t density with ``nu`` (scalar or array) degrees of freedom."""
    log_const = gammaln(0.5 * (nu + 1)) - gammaln(0.5 * nu) - 0.5 * np.log(nu * math.pi)
    return np.exp(log_const - 0.5 * (nu + 1) * np.log1p(z * z / nu))


def _newton_step(x, g, slope, bracket, small):
    """Next iterate of a safeguarded Newton iteration on ``g``, increasing in
    ``x``, or None once the step is within ``small``.  The [lo, hi] list
    ``bracket`` is tightened in place by the sign of ``g``; the step
    ``x - g / slope`` is taken if ``slope > 0`` and it lands inside the
    bracket or within ``small``, and the bracket midpoint otherwise."""
    if g < 0.0:
        bracket[0] = x
    elif g > 0.0:
        bracket[1] = x
    nxt = x - g / slope if slope > 0.0 else math.nan
    # A converged step may round onto the bracket end it started from.
    if not (bracket[0] < nxt < bracket[1] or abs(nxt - x) <= small):
        nxt = 0.5 * (bracket[0] + bracket[1])
    return None if abs(nxt - x) <= small else nxt


def _solve_tails(w, theta, scale, df, targets: tuple[float, float]):
    """Roots of h(z) = target for both (descending) targets, and |h - target|.

    ``h`` is a convex combination of decreasing tail areas, so each root
    lies between the smallest and largest of the live models' own roots
    ``theta_K -/+ q_K scale_K``: that bracket is exact.  Each tail starts
    at the weight blend of those roots and takes ``_newton_step`` on
    ``target - h`` with slope ``-h'``.  Each step standardizes both tails'
    points once, as ``x = (theta - z) / scale``, and takes ``h`` and the
    density kernel from that ``x``.  A tail stops, at its last evaluated
    point, once its step is within ``_STEP_RTOL`` of max(|z|, largest
    scale).  The loop stays scalar per tail: sharing ``delta_u``'s array
    loop doubled the 2- and 8-model solves of a Monte Carlo audit.
    """
    live = w > 0.0
    q = stdtrit(df, targets[0]) * scale
    own = (theta - q, theta + q)
    brackets = [[float(r[live].min()), float(r[live].max())] for r in own]
    total, scale_max = float(w.sum()), float(scale.max())
    zs = [float(w @ r) / total for r in own]
    # -h' = sum_K w_K f_K((theta_K - z) / scale_K) / scale_K; each density's
    # constant is taken once, at its mode, and each step evaluates its kernel.
    peak, power = w / scale * _t_pdf(0.0, df), -0.5 * (df + 1.0)
    roots, residuals, tails = [0.0, 0.0], [0.0, 0.0], [0, 1]
    for _ in range(_MAX_ITERATIONS):
        z = np.array([zs[j] for j in tails])
        x = (theta - z[:, None]) / scale
        slope = (peak * (1.0 + x * x / df) ** power).sum(axis=-1).tolist()
        # h(w, theta, scale, df, z), without building x again
        tail_areas = (w * stdtr(df, x)).sum(axis=-1).tolist()
        for j, hj, sj in zip(tails, tail_areas, slope):
            gj, zj = targets[j] - hj, zs[j]
            roots[j], residuals[j] = zj, abs(gj)
            zs[j] = _newton_step(zj, gj, sj, brackets[j], _STEP_RTOL * max(abs(zj), scale_max))
        tails = [j for j in tails if zs[j] is not None]
        if not tails:
            break
    else:
        raise BracketFailure(f"tail roots not resolved after {_MAX_ITERATIONS} iterations")
    if max(residuals) > _RESIDUAL_TOL:
        raise BracketFailure(f"tail-area residuals {residuals} exceed {_RESIDUAL_TOL:.0e}")
    return roots, residuals


def solve_interval(
    req: MataRequest,
    fits: dict[ModelSubset, ModelFit] | None = None,
    weights: dict[ModelSubset, float] | None = None,
) -> MataInterval:
    """Solve the two tail-area equations for the interval endpoints.

    ``fits``/``weights`` may be supplied to reuse precomputations (they
    are recomputed from the request otherwise); injected weights make it
    possible to study degenerate mixtures, but ``|h - target|`` above
    ``_RESIDUAL_TOL`` at an endpoint (say, weights summing to 1/2) raises.
    """
    if fits is None:
        fits = fit_family(req.prob, req.resolved_family())
    if weights is None:
        weights = model_weights(fits, fits[ModelSubset(0)].rss, req.spec)
    arrays = _family_arrays(fits, weights, req.prob.a)
    (lower, upper), residuals = _solve_tails(
        *arrays, (1.0 - req.alpha / 2.0, req.alpha / 2.0))
    if lower > upper:
        raise BracketFailure("endpoints crossed; h is not behaving monotonically")
    return MataInterval(lower, upper, dict(weights), tuple(residuals))
