"""Data-based model weights.

The weight on a candidate model is driven by a kernel ``r(x, k)`` applied
to the scaled restriction statistic ``x = u_K / rss`` and the number of
zeroed coefficients ``k = |K|``:

    w(empty) = 1 / (1 + sum_L r(u_L / rss, |L|))
    w(K)     = r(u_K / rss, |K|) / (same denominator)

Admissible kernels are positive, continuous and decreasing in ``x`` with
limit 0 (condition C1), and nondecreasing in ``k`` (condition C2).  The
information-criterion family uses

    r(x, k) = exp(d * k / 2) / (1 + x)^(n/2)

which makes ``w(K)`` proportional to ``exp(-GIC(K)/2)`` with
``GIC(K) = n ln(rss_K) + d (p - |K|)``; ``d = 2`` is AIC, ``d = ln n``
BIC.  Weights are always computed from the ``u_K / rss`` ratios in log
space, never from raw ``exp(-GIC/2)``, to dodge overflow when
``n ln(rss_K)`` is large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

from .errors import DegenerateFit, InvalidKernel
from .linreg import ModelFit, ModelSubset

# Probe grids for the C1/C2 admissibility checks on custom kernels.
_C1_X_GRID = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 60)))
_C1_DECAY_FACTOR = 1e-6
_C2_X_GRID = np.geomspace(1e-3, 1e3, 13)


@dataclass(frozen=True)
class WeightSpec:
    """Weight kernel selection: information-criterion or custom.

    Use the constructors :meth:`gic`, :meth:`aic`, :meth:`bic` or
    :meth:`custom`; custom kernels are probed for C1/C2 at registration
    and rejected loudly if they fail.
    """

    n: int
    d: float | None = None
    kernel: Callable[[float, int], float] | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("sample size n must be at least 2")
        if (self.d is None) == (self.kernel is None):
            raise ValueError("specify exactly one of d (GIC) or kernel (custom)")
        if self.d is not None and not 0.0 <= self.d < math.inf:
            raise ValueError("penalty constant d must be finite and nonnegative")

    @classmethod
    def gic(cls, n: int, d: float) -> "WeightSpec":
        return cls(n=n, d=float(d))

    @classmethod
    def aic(cls, n: int) -> "WeightSpec":
        return cls(n=n, d=2.0)

    @classmethod
    def bic(cls, n: int) -> "WeightSpec":
        return cls(n=n, d=math.log(n))

    @classmethod
    def custom(cls, n: int, kernel: Callable[[float, int], float], k_max: int) -> "WeightSpec":
        """Register a custom kernel after probing conditions C1 and C2."""
        probe_kernel_conditions(kernel, k_max)
        return cls(n=n, kernel=kernel)

    def log_kernel(self, x, k) -> np.ndarray:
        """log r(x, k), broadcast over arrays ``x`` and ``k``.

        Custom-kernel values must be positive and finite; any other value
        raises ``InvalidKernel``.
        """
        x, k = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(k))
        if self.d is not None:
            return 0.5 * self.d * k - 0.5 * self.n * np.log1p(x)
        vals = np.array([self.kernel(float(xi), int(ki)) for xi, ki in zip(x.flat, k.flat)],
                        dtype=float).reshape(x.shape)
        bad = np.flatnonzero(~(np.isfinite(vals) & (vals > 0.0)))
        if bad.size:
            i = bad[0]
            raise InvalidKernel(
                f"kernel returned {vals.flat[i]:g} at x={x.flat[i]:g}, k={k.flat[i]}")
        return np.log(vals)


def normalized_weights(log_r: np.ndarray) -> np.ndarray:
    """Weights from the log kernels of the restricted models.

    ``log_r`` holds ``log r(u_K / rss, |K|)`` for every model but the
    full one along its last axis; the full model (kernel value 1) is put
    in slot 0 of the result.  Terms are shifted so the largest is at most
    1 before summing, which keeps the normalization exact when the
    kernel values overflow.
    """
    shift = np.max(log_r, axis=-1, keepdims=True, initial=0.0)
    terms = np.exp(log_r - shift)
    full = np.exp(-shift)
    denom = full + terms.sum(axis=-1, keepdims=True)
    return np.concatenate([full / denom, terms / denom], axis=-1)


def probe_kernel_conditions(kernel: Callable[[float, int], float], k_max: int) -> None:
    """Reject kernels that fail the C1 (decay in x) or C2 (growth in k) probes.

    C1: for each k, values on an increasing x-grid spanning [0, 1e6] must be
    positive, finite, nonincreasing, and decay by a factor of 1e6 overall.
    C2: for each probe x, values must be nondecreasing in k.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    for k in range(1, k_max + 1):
        vals = np.array([kernel(float(x), k) for x in _C1_X_GRID])
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise InvalidKernel(f"C1 probe: non-positive or non-finite value at k={k}")
        if np.any(np.diff(vals) > 0.0):
            raise InvalidKernel(f"C1 probe: kernel is not nonincreasing in x at k={k}")
        if not vals[-1] < vals[0] * _C1_DECAY_FACTOR:
            raise InvalidKernel(f"C1 probe: kernel does not decay to 0 in x at k={k}")
    if k_max > 1:
        for x in _C2_X_GRID:
            vals = np.array([kernel(float(x), k) for k in range(1, k_max + 1)])
            if np.any(np.diff(vals) < 0.0):
                raise InvalidKernel(f"C2 probe: kernel not nondecreasing in k at x={x:g}")


def gic(rss_k: float, card_k: int, p: int, spec: WeightSpec) -> float:
    """Generalized information criterion ``n ln(rss_K) + d (p - |K|)``."""
    if spec.d is None:
        raise ValueError("gic requires an information-criterion WeightSpec")
    if rss_k < 0:
        raise ValueError("rss must be nonnegative")
    if rss_k == 0.0:
        raise DegenerateFit("perfect fit: GIC diverges to -inf")
    return spec.n * math.log(rss_k) + spec.d * (p - card_k)


def model_weights(
    fits: dict[ModelSubset, ModelFit],
    rss_full: float,
    spec: WeightSpec,
) -> dict[ModelSubset, float]:
    """Normalized data-based weights over a model family.

    ``fits`` must contain the full model (empty subset).  The returned
    weights sum to 1; summation is numpy pairwise over mask-ordered terms,
    so the result is deterministic for a given family.
    """
    if ModelSubset(0) not in fits:
        raise ValueError("family must contain the full model (empty subset)")
    if rss_full <= 0.0:
        raise DegenerateFit("rss must be positive to form weight ratios")
    subsets = sorted(fits, key=lambda K: K.mask)
    restricted = subsets[1:]
    x = np.array([fits[K].u for K in restricted], dtype=float) / rss_full
    if np.any(x < 0.0):
        raise ValueError("negative restriction statistic u_K")
    card = np.array([K.cardinality for K in restricted], dtype=int)
    weights = normalized_weights(spec.log_kernel(x, card))
    return dict(zip(subsets, map(float, weights)))


def w1(z: float | np.ndarray, m: int, n: int, d: float) -> float | np.ndarray:
    """Two-model weight on the single-constraint submodel.

        w1(z) = 1 / (1 + (1 + z/m)^(n/2) * exp(-d/2))

    evaluated as a logistic of ``d/2 - (n/2) log1p(z/m)``, which stays
    finite for arbitrarily large ``z`` and ``n``.  ``z`` is the squared
    scaled coefficient estimate; vectorized over ``z``.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("z must be nonnegative")
    out = expit(0.5 * d - 0.5 * n * np.log1p(z / m))
    return float(out) if out.ndim == 0 else out
