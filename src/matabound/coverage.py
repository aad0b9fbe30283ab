"""Exact coverage probability of the two-model averaged-tail-area interval.

In the two-model case (full model plus one single-constraint submodel)
the coverage probability of the tail-area interval has a closed double
integral representation.  With ``m`` residual degrees of freedom,
design correlation ``rho`` between the target estimator and the
constrained coefficient estimator, and scaled true coefficient
``gamma``, the coverage is

    int_0^inf int_-inf^inf [ Phi((d_hi(x,y) - rho (x - gamma)) / s)
                           - Phi((d_lo(x,y) - rho (x - gamma)) / s) ]
                           * phi(x - gamma) f_m(y) dx dy

where ``s = sqrt(1 - rho^2)``, ``f_m`` is the density of sqrt(chi2_m/m),
and ``d_u(x, y)`` solves the mixed tail-area equation

    w1(x^2/y^2) T_{m+1}( sqrt((m+1)/(x^2 + m y^2)) (d - rho x) / s )
      + (1 - w1(x^2/y^2)) T_m(d / y)  =  u

for u = alpha/2 and 1 - alpha/2.  The left side is continuous and
strictly increasing in ``d`` from 0 to 1, so the root is unique; it is
bracketed exactly by the two pure-model closed forms (the w1 = 1 and
w1 = 0 solutions).  The equation depends on (x, y) only through
t = x/y, with ``d_u(x, y) = y D_u(x/y)``; ``D_u`` is located by a
safeguarded Newton iteration, vectorized over the whole quadrature grid.

The integral is evaluated by tensor-product Gauss-Legendre quadrature on
a truncated rectangle: x within ``x_halfwidth`` (default 8) of gamma,
where the normal factor has mass below 1e-15 outside, and y between
extreme quantiles of ``f_m``.  ``CoverageGrid`` holds the ``d_u``
solves on an x grid covering a whole gamma range, so that a gamma search
costs one root-solve pass total; a single coverage value is the grid for
a one-point range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln, ndtr, stdtr, stdtrit
from scipy.stats import chi2

from .errors import DomainError, QuadratureError
from .linreg import RegressionProblem, correlation_profile
from .weights import w1

_RHO_CLAMP = 1.0 - 1e-9
_NODE_DOUBLING_TOL = 1e-5
# The pure-model roots bracket delta_u exactly.  The pad, in t-quantile
# units, covers scipy's stdtrit, which returns 0 for u within ~1e-8 of 1/2
# at some degrees of freedom (4 and 6): a quantile error up to 4e-8.
_QUANTILE_PAD = 1e-7
_NEWTON_STEP_RTOL = 1e-13
_NEWTON_MAX_ITER = 100
_BLOCK = 16384


@dataclass(frozen=True)
class TwoModelConfig:
    """Everything the coverage integral needs besides gamma.

    ``m`` is the residual degrees of freedom ``n - p``; ``rho`` the
    design correlation (clamped into [-(1 - 1e-9), 1 - 1e-9] to keep the
    integrand well conditioned); ``d`` the information penalty constant;
    ``alpha`` the two-sided miss probability.
    """

    m: int
    n: int
    rho: float
    d: float
    alpha: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.n <= self.m:
            raise ValueError("need n > m (implied p = n - m >= 1)")
        if abs(self.rho) >= 1.0:
            raise ValueError("|rho| must be strictly below 1")
        if self.d < 0.0:
            raise ValueError("penalty constant d must be nonnegative")
        if not 0.0 < self.alpha <= 0.5:
            raise ValueError("alpha must lie in (0, 0.5]")
        if abs(self.rho) > _RHO_CLAMP:
            object.__setattr__(self, "rho", math.copysign(_RHO_CLAMP, self.rho))

    @classmethod
    def from_problem(
        cls, prob: RegressionProblem, d: float, alpha: float
    ) -> "TwoModelConfig":
        """Config for the two-model family built on the max-|correlation| column."""
        _, rho_max_abs, _ = correlation_profile(prob)
        return cls(m=prob.n - prob.p, n=prob.n, rho=rho_max_abs, d=d, alpha=alpha)


@dataclass(frozen=True)
class QuadratureConfig:
    """Truncation, node counts and solver tolerances for the integral."""

    x_halfwidth: float = 8.0
    y_lo_quantile: float = 1e-10
    y_hi_quantile: float = 1.0 - 1e-10
    nodes_x: int = 200
    nodes_y: int = 200
    delta_tol: float = 1e-10
    gamma_grid_max: float = 12.0
    gamma_refine_tol: float = 1e-6

    def __post_init__(self):
        if min(self.x_halfwidth, self.y_lo_quantile, self.delta_tol,
               self.gamma_grid_max, self.gamma_refine_tol) <= 0.0:
            raise ValueError("quadrature parameters must be positive")
        if not self.y_lo_quantile < self.y_hi_quantile < 1.0:
            raise ValueError("need y_lo_quantile < y_hi_quantile < 1")
        if min(self.nodes_x, self.nodes_y) < 20:
            raise ValueError("node counts must be at least 20")


def f_m_pdf(y, m: int):
    """Density of sqrt(Q/m) for Q ~ chi-square with m degrees of freedom.

        f(y) = 2 (m/2)^(m/2) y^(m-1) exp(-m y^2 / 2) / Gamma(m/2)

    evaluated in log space; vectorized over ``y`` (all entries must be
    positive).
    """
    ya = np.asarray(y, dtype=float)
    if np.any(ya <= 0.0):
        raise DomainError("f_m_pdf requires y > 0")
    half = 0.5 * m
    logf = (math.log(2.0) + half * math.log(half) - gammaln(half)
            + (m - 1) * np.log(ya) - half * ya * ya)
    out = np.exp(logf)
    return float(out) if out.ndim == 0 else out


def _gauss_legendre(a: float, b: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _y_domain(m: int, quad: QuadratureConfig) -> tuple[float, float]:
    lo = math.sqrt(chi2.ppf(quad.y_lo_quantile, m) / m)
    hi = math.sqrt(chi2.isf(1.0 - quad.y_hi_quantile, m) / m)
    return lo, hi


def _t_cdf(z, nu: int):
    """Student-t cdf.

    ``nu = 1`` (Cauchy) uses its closed form: scipy's stdtr(1, z) is off by
    up to 1.6e-9 for |z| near 1e-8, which stalls Newton steps near z = 0.
    """
    if nu == 1:
        return np.arctan2(1.0, -z) / math.pi
    return stdtr(nu, z)


def _t_pdf(z, nu: int):
    """Student-t density with ``nu`` degrees of freedom, in closed form."""
    log_const = gammaln(0.5 * (nu + 1)) - gammaln(0.5 * nu) - 0.5 * math.log(nu * math.pi)
    return np.exp(log_const - 0.5 * (nu + 1) * np.log1p(z * z / nu))


def delta_u(x, y, u, cfg: TwoModelConfig, tol: float = 1e-10):
    """Solve the mixed tail-area equation for its unique root.

    Vectorized over ``x``, ``y`` and ``u`` (broadcast together).  With
    ``t = x/y`` and ``D = delta/y`` the equation depends on ``t`` alone:

        g(D) = w1(t^2) T_{m+1}(c(t) (D - rho t) / s) + (1 - w1(t^2)) T_m(D) - u

    with ``c(t) = sqrt((m+1)/(t^2+m))``.  Upper-tail targets are solved
    as ``D_u(t) = -D_{1-u}(-t)``, so that ``g`` is always evaluated where
    the t cdfs keep full relative precision.  The root lies between the two
    pure-model closed-form roots, which bracket a safeguarded Newton
    iteration started from their ``w1``-weighted blend: a step that
    leaves the bracket is replaced by the bracket midpoint, and the
    bracket is tightened by the sign of ``g``.  Returns ``y * D``; the
    residual of the equation must be below ``tol`` everywhere.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(y <= 0.0):
        raise DomainError("delta_u requires y > 0")
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise DomainError("delta_u requires 0 < u < 1")

    upper = u > 0.5
    u = np.where(upper, 1.0 - u, u)
    # Pure-model quantiles before broadcasting: u is one value per call
    # from the coverage grid, and stdtrit costs more than a Newton step.
    q_sub, q_full = stdtrit(cfg.m + 1, u), stdtrit(cfg.m, u)
    sign = np.where(upper, -1.0, 1.0)
    x, y, sign, u, q_sub, q_full = np.broadcast_arrays(x, y, sign, u, q_sub, q_full)
    t = (sign * x / y).ravel()
    u, q_sub, q_full = u.ravel(), q_sub.ravel(), q_full.ravel()
    D = np.empty_like(t)
    # Fixed-size blocks bound the solver's working memory: one call over a
    # whole 350x200 grid raises a bound's peak RSS by about 10 MB.
    for i in range(0, t.size, _BLOCK):
        part = slice(i, i + _BLOCK)
        D[part] = _solve_reduced(t[part], u[part], q_sub[part], q_full[part], cfg, tol)
    delta = sign * y * D.reshape(x.shape)
    return float(delta) if delta.ndim == 0 else delta


def _solve_reduced(t, u, q_sub, q_full, cfg: TwoModelConfig, tol: float):
    """Root ``D`` of ``g`` (see ``delta_u``) for ``u <= 1/2``, one entry per t.

    ``q_sub`` and ``q_full`` are the t_{m+1} and t_m quantiles of ``u``.
    """
    m, rho = cfg.m, cfg.rho
    s = math.sqrt(1.0 - rho * rho)
    w = w1(t * t, m, cfg.n, cfg.d)
    a = np.sqrt((m + 1.0) / (t * t + m)) / s   # c(t) / s
    b = rho * t

    def g(D, w, a, b, u):
        return w * stdtr(m + 1, a * (D - b)) + (1.0 - w) * _t_cdf(D, m) - u

    # Roots with all weight on the submodel (q_sub) or the full model (q_full).
    lo = np.minimum(b + (q_sub - _QUANTILE_PAD) / a, q_full - _QUANTILE_PAD)
    hi = np.maximum(b + (q_sub + _QUANTILE_PAD) / a, q_full + _QUANTILE_PAD)
    D = w * (b + q_sub / a) + (1.0 - w) * q_full

    # Compressed state of the points still iterating; ``idx`` maps it back.
    idx = np.arange(D.size)
    Dk, wk, ak, bk, uk = D, w, a, b, u
    for _ in range(_NEWTON_MAX_ITER):
        gk = g(Dk, wk, ak, bk, uk)
        lo = np.where(gk < 0.0, Dk, lo)
        hi = np.where(gk > 0.0, Dk, hi)
        slope = wk * ak * _t_pdf(ak * (Dk - bk), m + 1) + (1.0 - wk) * _t_pdf(Dk, m)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = Dk - gk / slope
        small = _NEWTON_STEP_RTOL * np.maximum(1.0, np.abs(Dk))
        # A converged step may round onto the bracket end it started from.
        newton = ((nxt > lo) & (nxt < hi)) | (np.abs(nxt - Dk) <= small)
        nxt = np.where(newton, nxt, 0.5 * (lo + hi))
        done = np.abs(nxt - Dk) <= small
        Dk = nxt
        D[idx] = Dk
        keep = ~done
        if not keep.any():
            break
        idx, Dk, lo, hi, wk, ak, bk, uk = (
            v[keep] for v in (idx, Dk, lo, hi, wk, ak, bk, uk))
    else:
        raise QuadratureError(
            f"delta_u: {idx.size} points unconverged after {_NEWTON_MAX_ITER} iterations"
        )

    worst = float(np.max(np.abs(g(D, w, a, b, u))))
    if worst > tol:
        raise QuadratureError(f"delta_u residual {worst:.3e} exceeds tolerance {tol:.1e}")
    return D


def _integrate(cfg, gamma, xn, wx, yn, wy, dlo, dhi) -> float:
    s = math.sqrt(1.0 - cfg.rho * cfg.rho)
    shift = cfg.rho * (xn[:, None] - gamma)
    psi = ndtr((dhi - shift) / s) - ndtr((dlo - shift) / s)
    px = np.exp(-0.5 * (xn - gamma) ** 2) / math.sqrt(2.0 * math.pi)
    return float((wx * px) @ psi @ (wy * f_m_pdf(yn, cfg.m)))


def _solve_grid(cfg, quad, xn, yn):
    """delta_u for both tail targets on the tensor grid; returns (dlo, dhi).

    One tail per call halves the per-point arrays that delta_u holds.
    """
    return tuple(
        delta_u(xn[:, None], yn[None, :], u, cfg, tol=quad.delta_tol)
        for u in (cfg.alpha / 2.0, 1.0 - cfg.alpha / 2.0)
    )


def coverage_probability(
    gamma: float,
    cfg: TwoModelConfig,
    quad: QuadratureConfig | None = None,
    check_convergence: bool = False,
) -> float:
    """Coverage probability of the two-model interval at the given gamma.

    Evaluated on the grid for the one-point range ``(gamma, gamma)``, whose
    x domain is centered at gamma.  With ``check_convergence`` the value
    must survive ``check_node_doubling``.
    """
    if quad is None:
        quad = QuadratureConfig()
    value = CoverageGrid(cfg, quad, (gamma, gamma)).coverage_at(gamma)
    if check_convergence:
        check_node_doubling(value, gamma, cfg, quad)
    return value


def check_node_doubling(value: float, gamma: float, cfg: TwoModelConfig,
                        quad: QuadratureConfig) -> None:
    """Raise ``QuadratureError`` unless ``value``, the coverage at gamma,
    moves by at most 1e-5 when recomputed at doubled node counts."""
    doubled = replace(quad, nodes_x=2 * quad.nodes_x, nodes_y=2 * quad.nodes_y)
    refined = coverage_probability(gamma, cfg, doubled)
    if abs(refined - value) > _NODE_DOUBLING_TOL:
        raise QuadratureError(
            f"node doubling moved the coverage by {abs(refined - value):.3e}"
        )


class CoverageGrid:
    """Coverage evaluator for the gamma range ``gammas = (lo, hi)``.

    The expensive part of the integral, the ``delta_u`` root solves, does
    not depend on gamma.  This class solves them once on a fixed x grid
    covering ``[lo - x_halfwidth, hi + x_halfwidth]``, with ``nodes_x``
    nodes per ``2 x_halfwidth`` of x, after which each
    ``coverage_at(gamma)`` for gamma in the range costs four normal-cdf
    passes over the grid.  The default range is ``[0, gamma_grid_max]``.
    """

    def __init__(self, cfg: TwoModelConfig, quad: QuadratureConfig | None = None,
                 gammas: tuple[float, float] | None = None):
        if quad is None:
            quad = QuadratureConfig()
        lo, hi = (0.0, quad.gamma_grid_max) if gammas is None else map(float, gammas)
        if not lo <= hi:
            raise ValueError(f"empty gamma range ({lo}, {hi})")
        self.cfg = cfg
        self.quad = quad
        self.gammas = (lo, hi)
        hw = quad.x_halfwidth
        nx = quad.nodes_x + int(math.ceil(quad.nodes_x * (hi - lo) / (2.0 * hw)))
        self.xn, self.wx = _gauss_legendre(lo - hw, hi + hw, nx)
        y_lo, y_hi = _y_domain(cfg.m, quad)
        self.yn, self.wy = _gauss_legendre(y_lo, y_hi, quad.nodes_y)
        self.dlo, self.dhi = _solve_grid(cfg, quad, self.xn, self.yn)
        if not np.all(self.dlo < self.dhi):
            raise QuadratureError("tail-area quantiles out of order on the grid")

    def coverage_at(self, gamma: float) -> float:
        lo, hi = self.gammas
        if not lo - 1e-9 <= gamma <= hi + 1e-9:
            raise ValueError(f"gamma {gamma} outside the cached range [{lo}, {hi}]")
        value = _integrate(self.cfg, gamma, self.xn, self.wx, self.yn, self.wy,
                           self.dlo, self.dhi)
        if not 0.0 < value < 1.0:
            raise QuadratureError(f"coverage estimate {value!r} escaped (0, 1)")
        return value
