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
``solve_interval`` refines both endpoints in it by ``_newton_step``, a
safeguarded Newton step, evaluating ``h`` at both tails' points in one
call.  The same step serves ``bound``'s polish, and its array form
``coverage._newton_roots`` solves ``delta_u`` and the regime cuts.  The
same ``h`` serves the Monte Carlo oracle, with replicates on a leading
axis.
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


def _check_alpha(alpha: float) -> None:
    """Refuse an ``alpha`` outside (0, 0.5], or one so small that the upper
    target ``1 - alpha/2`` rounds to 1 (alpha at most 2**-53)."""
    if not 0.0 < alpha <= 0.5:
        raise ValueError("alpha must lie in (0, 0.5]")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValueError(f"alpha {alpha!r} is too small: 1 - alpha/2 rounds to 1")


@dataclass(frozen=True)
class MataRequest:
    """Inputs for one interval computation over the all-subsets family.

    ``alpha`` is the two-sided miss probability, restricted to (0, 0.5],
    and ``spec.n`` must be the problem's sample size.
    An interval over another family is ``solve_interval(req, fits=,
    weights=)`` with that family's ``fit_family`` and ``model_weights``.
    """

    prob: RegressionProblem
    spec: WeightSpec
    alpha: float = 0.05

    def __post_init__(self):
        self.spec.check_n(self.prob.n)
        _check_alpha(self.alpha)

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
    """(w, theta, scale, df) of a fitted family, models in mask order.

    ``weights`` must hold one weight per fitted model and no other.
    """
    models = sorted(fits.values(), key=lambda f: f.subset.mask)
    try:
        w = np.array([weights[f.subset] for f in models])
    except KeyError as exc:
        raise ValueError(f"no weight for the fitted model {exc.args[0]}") from None
    if len(weights) != len(models):
        raise ValueError(f"weights for models not in fits: {sorted(set(weights) - set(fits))}")
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


def _newton_step(x, g, slope, state, small):
    """Next iterate of a safeguarded Newton iteration on ``g``, increasing in
    ``x``, or None once the step is within ``small``.  ``state`` is the list
    [lo, hi, prev]: the bracket, tightened in place by the sign of ``g``,
    and the previous step's length (``inf`` at first).  The step ``x - g /
    slope`` is taken if it is within ``small``, or if ``slope > 0`` and it
    lands inside the bracket at most half as long as the previous step
    (``rtsafe``'s rule, *Numerical Recipes* 9.4, which stops steps cycling
    between the bracket ends); the bracket midpoint is taken otherwise."""
    if g < 0.0:
        state[0] = x
    elif g > 0.0:
        state[1] = x
    nxt = x - g / slope if slope > 0.0 else math.nan
    step = abs(nxt - x)
    # A converged step may round onto the bracket end it started from.
    if not (step <= small or (state[0] < nxt < state[1] and step <= 0.5 * state[2])):
        nxt = 0.5 * (state[0] + state[1])
        step = abs(nxt - x)
    state[2] = step
    return None if step <= small else nxt


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
    states = [[float(r[live].min()), float(r[live].max()), math.inf] for r in own]
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
            zs[j] = _newton_step(zj, gj, sj, states[j], _STEP_RTOL * max(abs(zj), scale_max))
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
    A response that the full model fits to rounding raises ``DegenerateFit``.
    """
    if fits is None:
        fits = fit_family(req.prob, req.resolved_family())
        full, y = fits.get(ModelSubset(0)), req.prob.y
        # An exact fit leaves an rss of rounding, about n eps^2 |y|^2 or below.
        if full is not None and full.rss <= req.prob.n * np.finfo(float).eps ** 2 * (y @ y):
            raise DegenerateFit("zero residual scale: the full model fits the response "
                                f"exactly (rss {full.rss:.3g} is rounding)")
    if weights is None:
        # model_weights refuses a family without the full model
        full = fits.get(ModelSubset(0))
        weights = model_weights(fits, math.nan if full is None else full.rss, req.spec)
    arrays = _family_arrays(fits, weights, req.prob.a)
    (lower, upper), residuals = _solve_tails(
        *arrays, (1.0 - req.alpha / 2.0, req.alpha / 2.0))
    if lower > upper:
        raise BracketFailure("endpoints crossed; h is not behaving monotonically")
    return MataInterval(lower, upper, dict(weights), tuple(residuals))
