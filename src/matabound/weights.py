"""Data-based model weights: the generalized information criterion (GIC).

The weight on a candidate model ``K`` is proportional to ``exp(-GIC(K)/2)``
with ``GIC(K) = n ln(rss_K) + d (p - |K|)``; ``d = 2`` is AIC, ``d = ln n``
BIC.  In terms of the scaled restriction statistic ``x = u_K / rss`` and
the number of zeroed coefficients ``k = |K|``, with the kernel
``r(x, k) = exp(d * k / 2) / (1 + x)^(n/2)``, this is

    w(empty) = 1 / (1 + sum_L r(u_L / rss, |L|))
    w(K)     = r(u_K / rss, |K|) / (same denominator).

``WeightSpec.weights`` is the one implementation of this rule.  It works
from the ``u_K / rss`` ratios in log space, never from raw
``exp(-GIC/2)``, to dodge overflow when ``n ln(rss_K)`` is large.
``model_weights`` calls it on a fitted family and ``w1`` on the
two-model family of the coverage integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .errors import DegenerateFit, _check_integer
from .linreg import ModelFit, ModelSubset


@dataclass(frozen=True)
class WeightSpec:
    """GIC weights for a sample of size ``n`` with penalty constant ``d``;
    ``bound.resolve_d`` names the usual penalties."""

    n: int
    d: float

    def __post_init__(self):
        _check_integer(self.n, "sample size n", 2)
        if not 0.0 <= self.d < math.inf:
            raise ValueError("penalty constant d must be finite and nonnegative")

    @classmethod
    def gic(cls, n: int, d: float) -> "WeightSpec":
        return cls(n=n, d=float(d))

    def check_n(self, n: int) -> None:
        """Refuse a problem whose sample size is not this spec's ``n``."""
        if n != self.n:
            raise ValueError(f"WeightSpec has n={self.n} but the problem has n={n}")

    def weights(self, x, k) -> np.ndarray:
        """Normalized weights from the restricted models' ``x = u_K / rss``
        and ``k = |K|`` along the last axis of ``x`` and ``k``.

        The full model (kernel value 1) is put in slot 0 of the result.
        The log kernels are shifted so the largest is at most 0 before
        exponentiating, which keeps the normalization exact when the
        kernel values overflow.
        """
        # In place: the caller holds x through the call, so each temporary
        # would add an array of x's size to the peak memory.  The check is
        # a reduction, so it adds none; a NaN fails it too.
        x = np.asarray(x, dtype=float)
        if not np.min(x, initial=0.0) >= 0.0:
            raise ValueError("negative restriction statistic u_K / rss (or a NaN)")
        log_r = np.log1p(x)
        log_r *= -0.5 * self.n
        log_r += 0.5 * self.d * np.asarray(k)
        shift = np.max(log_r, axis=-1, keepdims=True, initial=0.0)
        log_r -= shift
        terms = np.exp(log_r, out=log_r)
        full = np.exp(-shift)
        denom = full + terms.sum(axis=-1, keepdims=True)
        return np.concatenate([full / denom, terms / denom], axis=-1)


def model_weights(
    fits: dict[ModelSubset, ModelFit],
    rss_full: float,
    spec: WeightSpec,
) -> dict[ModelSubset, float]:
    """Normalized data-based weights over a model family.

    ``fits`` must contain the full model (empty subset), and ``rss_full``
    must be its ``rss``.  The returned weights sum to 1; summation is numpy
    pairwise over mask-ordered terms, so the result is deterministic for a
    given family.
    """
    if ModelSubset(0) not in fits:
        raise ValueError("family must contain the full model (empty subset)")
    if rss_full <= 0.0:
        raise DegenerateFit("rss must be positive to form weight ratios")
    if rss_full != fits[ModelSubset(0)].rss:
        raise ValueError(f"rss_full={rss_full!r} is not the full model's rss "
                         f"{fits[ModelSubset(0)].rss!r}")
    subsets = sorted(fits, key=lambda K: K.mask)
    restricted = subsets[1:]
    x = np.array([fits[K].u for K in restricted], dtype=float) / rss_full
    card = np.array([K.cardinality for K in restricted], dtype=int)
    return dict(zip(subsets, map(float, spec.weights(x, card))))


def w1(z: float | np.ndarray, m: int, n: int, d: float) -> float | np.ndarray:
    """Two-model weight on the single-constraint submodel.

        w1(z) = 1 / (1 + (1 + z/m)^(n/2) * exp(-d/2))

    the submodel slot of ``WeightSpec(n, d).weights(z / m, 1)``, so it
    refuses the sample sizes and penalties that ``WeightSpec`` refuses, and
    the ``m`` that ``TwoModelConfig`` refuses.  ``z`` is the squared scaled
    coefficient estimate; vectorized over ``z``.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(z >= 0):  # also a NaN
        raise ValueError("z must be nonnegative")
    _check_integer(m, "m", 1)
    out = WeightSpec(n, d).weights((z / m)[..., None], 1)[..., 1]
    return float(out) if out.ndim == 0 else out


def w1_exceedance(eps: float, gamma, m: int, n: int, d: float) -> float | np.ndarray:
    """Exact P(w1(gamma_hat^2) >= eps), gamma_hat = (Z + gamma) / sqrt(Q/m)
    with Z ~ N(0, 1) and Q ~ chi-square(m) independent: the probability
    that Theorem 4 shows dies as n grows under BIC.

    ``w1`` decreases in z, so the event is gamma_hat^2 <= c^2 = m expm1(s),
    s = (2/n) (log((1 - eps) / eps) + d/2), and P = 0 where s <= 0.
    gamma_hat is a noncentral t (m df, noncentrality gamma), so gamma_hat^2
    is a noncentral F(1, m) with noncentrality gamma^2 and, with pi_k the
    Poisson(mu = gamma^2 / 2) masses and I the regularized incomplete beta,
    P = sum_k pi_k I_y(k + 1/2, m/2) at y = c^2 / (c^2 + m) = -expm1(-s).
    The sum spans mu +- (10 sqrt(mu) + 30), missing under 3e-20 of the mass
    (Bennett's bound); pi_k comes from pi_k / pi_(k-1) = mu / k, normalized
    over that span.  For y > 1/2 the term is 1 - I_(1-y)(m/2, k + 1/2), as
    1 - y = exp(-s) keeps its precision.  scipy 1.17's ``nctdtr`` and
    ``ncfdtr`` give NaN on parts of this domain: ``nctdtr(181, 5.85, -6.94)``,
    for one, where P = 0.84.

    Refuses the (m, n, d) that ``w1`` refuses, eps outside (0, 1) and a gamma
    that is not finite or above 1e4 in size (the sum has ~14 |gamma| terms).
    Vectorized over gamma, and even in it bit for bit.
    """
    _check_integer(m, "m", 1)
    WeightSpec(n, d)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(np.abs(gamma) <= 1e4):  # also a NaN
        raise ValueError("gamma must be finite with |gamma| <= 1e4")
    s = 2.0 / n * (math.log((1.0 - eps) / eps) + 0.5 * d)
    out = np.empty(gamma.shape)
    for i in np.ndindex(gamma.shape):
        mu = 0.5 * gamma[i] ** 2
        half = 10.0 * math.sqrt(mu) + 30.0 if mu else 0.0
        k = np.arange(max(0, math.floor(mu - half)), math.ceil(mu + half) + 1, dtype=float)
        log_w = np.zeros(k.size)
        if mu:
            log_w[1:] = np.cumsum(math.log(mu) - np.log(k[1:]))
        w = np.exp(log_w - log_w.max())
        a, b = k + 0.5, 0.5 * m
        beta = (betainc(a, b, max(0.0, -math.expm1(-s))) if s <= math.log(2.0)
                else 1.0 - betainc(b, a, math.exp(-s)))
        out[i] = w @ beta / w.sum()
    return float(out) if out.ndim == 0 else out
