"""Model-averaged tail-area (MATA) confidence intervals.

The interval's endpoints are the solutions of

    h(lower) = 1 - alpha/2      h(upper) = alpha/2

where ``h(z)`` is the weighted average, over the candidate models, of the
t tail areas of ``(a @ beta_hat_K - z) / (s_K sqrt(v_K))`` (Turek and
Fletcher, *Model-averaged Wald confidence intervals*, CSDA 2012).  For a
fixed dataset ``h`` is continuous and strictly decreasing from 1 to 0, so
both roots exist and are unique.  ``solve_interval`` brackets both from
the weighted center and refines them together by Chandrupatla's method,
evaluating ``h`` at both tails' trial points in one call.  The same ``h``
serves the Monte Carlo oracle, with replicates on a leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr, stdtrit

from .errors import BracketFailure, DegenerateFit
from .linreg import (
    ModelFit,
    ModelSubset,
    RegressionProblem,
    all_subsets,
    fit_family,
)
from .weights import WeightSpec, model_weights

_WIDTH_TOL_FACTOR = 1e-12
_MAX_BRACKET_DOUBLINGS = 100
_MAX_ITERATIONS = 200
_BRACKET_MIN_WEIGHT = 1e-6
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class MataRequest:
    """Inputs for one interval computation.

    ``family`` defaults to all subsets of the droppable columns; it must
    contain the full model and hold distinct members.  ``alpha`` is the
    two-sided miss probability, restricted to (0, 0.5].
    """

    prob: RegressionProblem
    spec: WeightSpec
    alpha: float = 0.05
    family: tuple[ModelSubset, ...] | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError("alpha must lie in (0, 0.5]")
        if self.family is not None:
            fam = tuple(self.family)
            if ModelSubset(0) not in fam:
                raise ValueError("family must contain the full model")
            if len(set(fam)) != len(fam):
                raise ValueError("family members must be distinct")
            object.__setattr__(self, "family", fam)

    def resolved_family(self) -> list[ModelSubset]:
        if self.family is None:
            return all_subsets(self.prob.p, self.prob.q)
        return list(self.family)


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
    return w, theta, np.sqrt(scale2), df


def _solve_tails(w, theta, scale, df, targets: tuple[float, float]):
    """Roots of h(z) = target for both (descending) targets, and |h - target|.

    Each root lies between the models' own roots (their t intervals'
    ends), so those of every model with at least ``_BRACKET_MIN_WEIGHT``
    of the largest weight are evaluated first; doubling their span about
    the weighted center covers the rest.  Each tail starts from the
    tightest evaluated pair around its target, and Chandrupatla's method
    (inverse quadratic interpolation, else bisection) shrinks it to
    ``_WIDTH_TOL_FACTOR`` times the largest model scale.  Both tails'
    trial points go through one call of ``h``; a converged tail is
    frozen, and no point is evaluated twice.
    """
    def h_at(zs):
        return h(w, theta, scale, df, np.array(zs)).tolist()

    heavy = w >= _BRACKET_MIN_WEIGHT * w.max()
    q = stdtrit(df[heavy], targets[0]) * scale[heavy]
    lo, hi = theta[heavy] - q, theta[heavy] + q
    ends = [float(lo.min()), float(lo.max()), float(hi.min()), float(hi.max())]
    points = dict(zip(ends, h_at(ends)))
    ends = [min(points), max(points)]
    center, step = float(w @ theta), float(scale.max())
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        grow = [z for z, ok in zip(ends, (points[ends[0]] >= targets[0],
                                          points[ends[1]] <= targets[1])) if not ok]
        if not grow:
            break
        zs = [2.0 * z - center for z in grow]
        points.update(zip(zs, h_at(zs)))
        ends = [min(points), max(points)]
    else:
        raise BracketFailure(f"no bracket for tail targets {targets} after doublings")

    tol = 0.5 * _WIDTH_TOL_FACTOR * step
    roots, residuals, tails = [0.0, 0.0], [0.0, 0.0], []
    for j, target in enumerate(targets):
        a = max(z for z, v in points.items() if v >= target)
        b = min(z for z, v in points.items() if v <= target)
        if a == b:
            roots[j] = a
            continue
        # [tail, target, x1, f1, x2, f2, x3, f3, t]: newest point, its
        # bracket partner, the point x1 replaced, next step
        tails.append([j, target, b, points[b] - target, a, points[a] - target, a, 0.0, 0.5])
    for _ in range(_MAX_ITERATIONS):
        trial = [x1 + t * (x2 - x1) for _, _, x1, _, x2, _, _, _, t in tails]
        for st, xt, ht in zip(tails, trial, h_at(trial)):
            j, target, x1, f1, x2, f2, x3, f3, t = st
            if (ht - target > 0.0) == (f1 > 0.0):
                x3, f3 = x1, f1
            else:
                x3, f3, x2, f2 = x2, f2, x1, f1
            x1, f1 = xt, ht - target
            xm, fm = (x1, f1) if abs(f1) < abs(f2) else (x2, f2)
            tlim = (2.0 * _EPS * abs(xm) + tol) / abs(x2 - x1)
            if tlim > 0.5 or fm == 0.0:
                roots[j], residuals[j], st[0] = xm, abs(fm), None
                continue
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            t = 0.5
            if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
                t = (f1 / (f2 - f1) * f3 / (f2 - f3)
                     + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2))
            st[2:] = [x1, f1, x2, f2, x3, f3, min(1.0 - tlim, max(tlim, t))]
        tails = [st for st in tails if st[0] is not None]
        if not tails:
            return roots, residuals
    raise BracketFailure(f"tail roots not resolved after {_MAX_ITERATIONS} iterations")


def solve_interval(
    req: MataRequest,
    fits: dict[ModelSubset, ModelFit] | None = None,
    weights: dict[ModelSubset, float] | None = None,
) -> MataInterval:
    """Solve the two tail-area equations for the interval endpoints.

    ``fits``/``weights`` may be supplied to reuse precomputations (they
    are recomputed from the request otherwise); injected weights make it
    possible to study degenerate mixtures.
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
