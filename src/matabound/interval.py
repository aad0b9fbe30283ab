"""Model-averaged tail-area (MATA) confidence intervals.

The interval's endpoints are the solutions of

    h(lower) = 1 - alpha/2      h(upper) = alpha/2

where ``h(z)`` is the weighted average, over the candidate models, of the
t tail areas of ``(a @ beta_hat_K - z) / (s_K sqrt(v_K))``.  For a fixed
dataset ``h`` is continuous and strictly decreasing from 1 to 0, so both
roots exist and are unique; they are located by bracket expansion from
the weighted center followed by Brent's method (``scipy.optimize.brentq``).
The same ``h`` serves the Monte Carlo oracle, with replicates on a
leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import stdtr

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
    return np.sum(w * stdtr(df, (theta - z) / scale), axis=-1)


def _family_arrays(fits: dict[ModelSubset, ModelFit], weights, a: np.ndarray):
    """(w, theta, scale, df) of a fitted family, models in mask order."""
    subsets = sorted(fits)
    w = np.array([weights[K] for K in subsets])
    theta = np.array([float(a @ fits[K].beta_hat) for K in subsets])
    scale2 = np.array([fits[K].s2 * fits[K].v for K in subsets])
    if np.any(scale2 <= 0.0):
        raise DegenerateFit("zero residual scale: tail areas undefined")
    df = np.array([float(fits[K].df) for K in subsets])
    return w, theta, np.sqrt(scale2), df


def _solve_tail(w, theta, scale, df, target: float) -> tuple[float, float]:
    """Root of h(z) = target; returns (z, |h(z) - target|).

    h decreases from 1 to 0, so doubling a window around the weighted
    center brackets the root, which ``brentq`` then locates.
    """
    def f(z):
        return float(h(w, theta, scale, df, z)) - target

    center, step = float(np.sum(w * theta)), float(scale.max())
    s = step
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        if f(center - s) >= 0.0 >= f(center + s):
            break
        s *= 2.0
    else:
        raise BracketFailure(f"no bracket for tail target {target} after doublings")
    z = brentq(f, center - s, center + s, xtol=_WIDTH_TOL_FACTOR * step)
    return z, abs(f(z))


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
        rss_full = fits[ModelSubset(0)].rss
        if rss_full <= 0.0:
            raise DegenerateFit("zero residual sum of squares")
        weights = model_weights(fits, rss_full, req.spec)
    arrays = _family_arrays(fits, weights, req.prob.a)
    lower, res_lo = _solve_tail(*arrays, 1.0 - req.alpha / 2.0)
    upper, res_up = _solve_tail(*arrays, req.alpha / 2.0)
    if lower > upper:
        raise BracketFailure("endpoints crossed; h is not behaving monotonically")
    return MataInterval(
        lower=lower,
        upper=upper,
        weights_used=dict(weights),
        h_residuals=(res_lo, res_up),
    )
