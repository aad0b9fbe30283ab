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
safeguarded Newton iteration, vectorized over the quadrature nodes.

With ``x = t y`` the coverage is

    int dt int_0^inf dy  y f_m(y) phi(t y - gamma)
        [ Phi((y (D_hi(t) - rho t) + rho gamma) / s) - (the same for D_lo) ]

so roots are needed per t node only, and ``D_u(-t) = -D_{1-u}(t)`` folds
t < 0 onto t > 0.  Both variables are integrated by adaptive QUADPACK
qk15 panels (Piessens et al., *QUADPACK*, 1983).  The t panels do not
depend on gamma: they break at the w1 transition ``t* = sqrt(m (e^(d/n) -
1))``, at ``t* +- k w`` with ``w = (m + t*^2) / (n t*)`` its width, and
where a root enters, crosses or leaves the submodel step
``D = |rho| t``; they widen geometrically to t = 64 and map the rest by
``t = 64 / v``.  Per gamma and t node, y panels cover
``|t y - gamma| <= 8`` within extreme quantiles of ``f_m`` and break at
``gamma / t`` and where either normal cdf argument ``A`` (below) is 0,
+-1, +-3 or +-10.  So on each piece between two breaks each cdf is live
(|A| < 10) or saturated: Phi is 1 in double or below 7.6e-24, and is
taken as 1 or 0.  Pieces where P (below) is 0 that way get no panels;
on the others ``ndtr`` runs on the live sides only, with the pieces
ordered by class so that each call covers one contiguous slice of
nodes.  Every value carries a Kronrod-Gauss error estimate in both
variables, at most 1e-6, or ``QuadratureError`` is raised; the f_m mass
outside y's 1e-10 quantiles, at most 2e-10, is not in that estimate.  The
rule takes no options and no gamma range: ``QuadratureConfig`` records its
fixed constants.

The gamma derivatives C' and C'' of the coverage C are integrated on the
same nodes and panels, which C's error estimate alone refines.  With
``e = t y - gamma``, ``A = (y (D - rho t) + rho gamma) / s`` at D_lo and
D_hi, ``P = Phi(A_hi) - Phi(A_lo)``, ``r = rho / s`` and
``g = y f_m(y) phi(e)``, the integrands are

    C:    g P
    C':   g [e P + r (phi(A_hi) - phi(A_lo))]
    C'':  g [(e^2 - 1) P + 2 r e (phi(A_hi) - phi(A_lo))
             + r^2 (A_lo phi(A_lo) - A_hi phi(A_hi))]

from d phi(e) / d gamma = e phi(e) and d Phi(A) / d gamma = r phi(A).
On a saturated side phi(A) is below 7.7e-23 and is taken as 0, the
derivative of the constant that stands for Phi there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln, ndtr, stdtr, stdtrit
from scipy.stats import chi2

from .errors import DomainError, QuadratureError
from .interval import _MAX_ITERATIONS, _STEP_RTOL, _t_pdf
from .linreg import RegressionProblem, correlation_profile
from .weights import w1

_RHO_CLAMP = 1.0 - 1e-9
# Bound on the error estimate of every coverage value.
_TOL = 1e-6
# Normal mass beyond 8 standard deviations is below 1.3e-15.
_X_HALFWIDTH = 8.0
_T_LADDER_END = 64.0
_BAND_STEPS = (1.0, 3.0, 10.0, 30.0, 100.0)
_PHI_STEPS = (-10.0, -3.0, -1.0, 0.0, 1.0, 3.0, 10.0)
# Past the outermost step, Phi is 1 in double or below 7.6e-24: saturated.
_PHI_SATURATED = _PHI_STEPS[-1]
# Refinement gives up after _MAX_ROUNDS rounds of bisection, or before a
# round that would integrate more than _MAX_T_PANELS t panels: each holds
# 30 t nodes (both signs) with tens of y nodes apiece.
_MAX_ROUNDS = 30
_MAX_T_PANELS = 256
# The pure-model roots bracket delta_u exactly.  The pad, in t-quantile
# units, covers scipy's stdtrit, which returns 0 for u within ~1e-8 of 1/2
# at some degrees of freedom (4 and 6): a quantile error up to 4e-8.
_QUANTILE_PAD = 1e-7

# QUADPACK qk15 on [-1, 1]: the 7-point Gauss nodes interlaced with the
# Kronrod nodes below; the Kronrod weights make the rule exact to degree 14.
_G7_NODES, _G7_WEIGHTS = np.polynomial.legendre.leggauss(7)
_KRONROD_EXTRA = np.array([0.991455371120812639, 0.864864423359769073,
                           0.586087235467691130, 0.207784955007898468])
_NODES = np.sort(np.concatenate([_G7_NODES, _KRONROD_EXTRA, -_KRONROD_EXTRA]))
_W_KRONROD = np.linalg.solve(np.polynomial.legendre.legvander(_NODES, 14).T,
                             np.eye(15)[0] * 2.0)
_W_GAUSS = np.zeros(15)
_W_GAUSS[1::2] = _G7_WEIGHTS
_W_DIFF = _W_KRONROD - _W_GAUSS


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
        if not abs(self.rho) < 1.0:
            raise ValueError("|rho| must be strictly below 1")
        if not 0.0 <= self.d < math.inf:
            raise ValueError("penalty constant d must be finite and nonnegative")
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
    """The fixed constants of the coverage rule and the gamma search: the
    f_m quantiles that truncate y, the residual tolerance of ``delta_u``,
    the end of the coarse gamma grid and the step tolerance of the Newton
    polish of its minimum.  None of them can be set."""

    y_lo_quantile: float = field(default=1e-10, init=False)
    y_hi_quantile: float = field(default=1.0 - 1e-10, init=False)
    delta_tol: float = field(default=1e-10, init=False)
    gamma_grid_max: float = field(default=12.0, init=False)
    gamma_refine_tol: float = field(default=1e-6, init=False)


_RULE = QuadratureConfig()


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


def _panel_nodes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """qk15 nodes of the panels [a, b], shape (panels, 15), and half widths."""
    half = 0.5 * (b - a)
    return (0.5 * (a + b))[:, None] + half[:, None] * _NODES, half


def _y_domain(m: int) -> tuple[float, float]:
    lo = math.sqrt(chi2.ppf(_RULE.y_lo_quantile, m) / m)
    hi = math.sqrt(chi2.isf(1.0 - _RULE.y_hi_quantile, m) / m)
    return lo, hi


def _t_cdf(z, nu: int):
    """Student-t cdf.

    ``nu = 1`` (Cauchy) uses its closed form: scipy's stdtr(1, z) is off by
    up to 1.6e-9 for |z| near 1e-8, which stalls Newton steps near z = 0.
    """
    if nu == 1:
        return np.arctan2(1.0, -z) / math.pi
    return stdtr(nu, z)


def delta_u(x, y, u, cfg: TwoModelConfig):
    """Solve the mixed tail-area equation for its unique root.

    Vectorized over ``x``, ``y`` and ``u`` (broadcast together).  With
    ``t = x/y`` and ``D = delta/y`` the equation depends on ``t`` alone:

        g(D) = w1(t^2) T_{m+1}(c(t) (D - rho t) / s) + (1 - w1(t^2)) T_m(D) - u

    with ``c(t) = sqrt((m+1)/(t^2+m))``.  Upper-tail targets are solved
    as ``D_u(t) = -D_{1-u}(-t)``, so that ``g`` is always evaluated where
    the t cdfs keep full relative precision.  The root lies between the two
    pure-model closed-form roots, which bracket a safeguarded Newton
    iteration started from their ``w1``-weighted blend.  Returns
    ``y * D``; the residual of the equation must be below
    ``QuadratureConfig.delta_tol`` everywhere.
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
    D = _solve_reduced(t, u.ravel(), q_sub.ravel(), q_full.ravel(), cfg)
    delta = sign * y * D.reshape(x.shape)
    return float(delta) if delta.ndim == 0 else delta


def _solve_reduced(t, u, q_sub, q_full, cfg: TwoModelConfig):
    """Root ``D`` of ``g`` (see ``delta_u``) for ``u <= 1/2``, one entry per t.

    ``q_sub`` and ``q_full`` are the t_{m+1} and t_m quantiles of ``u``.
    Its loop is the array form of ``interval._newton_step``.
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
    for _ in range(_MAX_ITERATIONS):
        gk = g(Dk, wk, ak, bk, uk)
        lo = np.where(gk < 0.0, Dk, lo)
        hi = np.where(gk > 0.0, Dk, hi)
        slope = wk * ak * _t_pdf(ak * (Dk - bk), m + 1) + (1.0 - wk) * _t_pdf(Dk, m)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = Dk - gk / slope
        small = _STEP_RTOL * np.maximum(1.0, np.abs(Dk))
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
            f"delta_u: {idx.size} points unconverged after {_MAX_ITERATIONS} iterations"
        )

    worst = float(np.max(np.abs(g(D, w, a, b, u))))
    tol = _RULE.delta_tol
    if worst > tol:
        raise QuadratureError(f"delta_u residual {worst:.3e} exceeds tolerance {tol:.1e}")
    return D


def _t_panels(cfg: TwoModelConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base panels ``(a, b, tail)`` of the folded t rule.

    Panels with ``tail`` set are in ``v``, with ``t = _T_LADDER_END / v``.
    """
    m, n = cfg.m, cfg.n
    try:
        t_star = math.sqrt(m * math.expm1(cfg.d / n))
    except OverflowError:  # d/n > 709.78: t* and its band lie past the ladder
        t_star = math.inf
    w = (m + t_star * t_star) / (n * t_star) if t_star > 0.0 else math.sqrt(m / n)
    cuts = {t_star, _T_LADDER_END, *_root_regime_changes(cfg)}
    cuts.update(t_star + sign * k * w for k in _BAND_STEPS for sign in (-1.0, 1.0))
    edges = [0.0]
    for cut in sorted(c for c in cuts if 0.0 < c <= _T_LADDER_END):
        while cut - edges[-1] > max(0.25, 0.5 * edges[-1]):
            edges.append(edges[-1] + max(0.25, 0.5 * edges[-1]))
        edges.append(cut)
    v_edges = np.linspace(0.0, 1.0, 5)
    a = np.concatenate([edges[:-1], v_edges[:-1]])
    b = np.concatenate([edges[1:], v_edges[1:]])
    tail = np.arange(a.size) >= len(edges) - 1
    return a, b, tail


def _root_regime_changes(cfg: TwoModelConfig) -> list[float]:
    """t > 0 where a root D_u(t) enters, crosses or leaves the submodel
    step ``D = |rho| t``: there ``e w1 + (1 - w1) T_m(|rho| t) = u`` for
    e = 0, 1/2, 1.  The root, and with it the integrand, changes regime
    over a width in t proportional to s.  The error estimate misses that
    change without these cuts: at (m 44, n 1e6, rho .999999, BIC) and gamma
    0.10778 the coverage then reads 4.1e-6 below its converged value, 5.8
    times its estimate, against 3.7e-10 with them."""
    def excess(t, e, u):
        w = w1(t * t, cfg.m, cfg.n, cfg.d)
        return e * w + (1.0 - w) * _t_cdf(abs(cfg.rho) * t, cfg.m) - u

    t = np.geomspace(1e-8, _T_LADDER_END, 4001)
    roots = []
    for u in (0.5 * cfg.alpha, 1.0 - 0.5 * cfg.alpha):
        for e in (0.0, 0.5, 1.0):
            sign = np.sign(excess(t, e, u))
            for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0):
                roots.append(brentq(excess, t[i], t[i + 1], args=(e, u), xtol=1e-14))
    return roots


def _t_nodes(a, b, tail) -> tuple[np.ndarray, np.ndarray]:
    """t at the qk15 nodes of each panel and the matching weight factor
    (half width times the Jacobian of the tail map)."""
    s, half = _panel_nodes(a, b)
    tail = tail[:, None]
    t = np.where(tail, _T_LADDER_END / s, s)
    return t, half[:, None] * np.where(tail, _T_LADDER_END / (s * s), 1.0)


def coverage_probability(gamma: float, cfg: TwoModelConfig) -> float:
    """Coverage at gamma by a fresh ``CoverageGrid``; the package uses a grid
    directly, and this stays because the benchmark calls and traces it."""
    return CoverageGrid(cfg).coverage_at(gamma)


class CoverageGrid:
    """Coverage evaluator for one config, at any gamma.

    Roots on the base t panels are solved once; ``coverage_at`` solves
    roots only on t panels it bisects.  The panels do not depend on
    gamma, so one grid serves every gamma.  Each gamma is integrated
    once: ``coverage_with_error`` memoizes its (value, error) pair, so
    asking again for a gamma already evaluated is a lookup.
    ``coverage_derivatives`` always integrates, and memoizes the same pair.
    """

    def __init__(self, cfg: TwoModelConfig):
        self.cfg = cfg
        self.y_lo, self.y_hi = _y_domain(cfg.m)
        self.panels = _t_panels(cfg)
        self.roots = self._roots(*self.panels)
        self._memo: dict[float, tuple[float, float]] = {}

    def _roots(self, a, b, tail) -> tuple[np.ndarray, np.ndarray]:
        """(D_lo, D_hi) at the t nodes of the panels."""
        t, _ = _t_nodes(a, b, tail)
        dlo, dhi = (delta_u(t, 1.0, u, self.cfg)
                    for u in (self.cfg.alpha / 2.0, 1.0 - self.cfg.alpha / 2.0))
        if not np.all(dlo < dhi):
            raise QuadratureError("tail-area quantiles out of order on the grid")
        return dlo, dhi

    def coverage_at(self, gamma: float) -> float:
        return self.coverage_with_error(gamma)[0]

    def coverage_with_error(self, gamma: float) -> tuple[float, float]:
        """Coverage at gamma, checked to lie in (0, 1), and its error
        estimate, which is at most 1e-6."""
        gamma = float(gamma)
        if gamma not in self._memo:
            self._memo[gamma] = self._integrate(gamma)[:2]
        return self._memo[gamma]

    def coverage_derivatives(self, gamma: float) -> tuple[float, float, float]:
        """Coverage at gamma and its first two gamma derivatives.

        One integral on the nodes and panels that ``coverage_with_error``
        would use, so the coverage is the same bit for bit; its (value,
        error) pair goes into the memo.  The derivatives carry no error
        estimate of their own.
        """
        gamma = float(gamma)
        value, error, d1, d2 = self._integrate(gamma, derivatives=True)
        self._memo[gamma] = value, error
        return value, d1, d2

    def _integrate(self, gamma: float, derivatives: bool = False) -> tuple[float, ...]:
        """Adaptive integral behind ``coverage_with_error``: (value, error),
        followed by the two derivatives if asked for.

        Each round bisects the t panels that carry the most of the
        coverage's estimate, until the rest carry at most half the
        tolerance.
        """
        (a, b, tail), roots = self.panels, self.roots
        value = error = 0.0
        derivs = np.zeros(2 if derivatives else 0)
        for _ in range(_MAX_ROUNDS):
            kron, err, dkron = self._t_integrals(gamma, a, b, tail, roots, derivatives)
            total = error + float(err.sum())
            if total <= _TOL:
                value += float(kron.sum())
                if not 0.0 < value < 1.0:
                    raise QuadratureError(f"coverage estimate {value!r} escaped (0, 1)")
                return value, total, *(derivs + dkron.sum(axis=1)).tolist()
            order = np.argsort(err)[::-1]
            rest = total - np.cumsum(err[order])
            split = np.zeros(err.size, dtype=bool)
            split[order[:np.count_nonzero(rest > 0.5 * _TOL) + 1]] = True
            if 2 * np.count_nonzero(split) > _MAX_T_PANELS:
                break
            value += float(kron[~split].sum())
            error += float(err[~split].sum())
            derivs += dkron[:, ~split].sum(axis=1)
            a, b, tail = a[split], b[split], tail[split]
            mid = 0.5 * (a + b)
            a, b, tail = np.concatenate([a, mid]), np.concatenate([mid, b]), np.tile(tail, 2)
            roots = self._roots(a, b, tail)
        raise QuadratureError(
            f"coverage error estimate {total:.2e} at gamma {gamma:g} exceeds {_TOL:.0e}"
        )

    def _t_integrals(self, gamma, a, b, tail, roots, derivatives):
        """Kronrod value and error estimate of each t panel, and the
        Kronrod values of the two derivatives, shape (2 or 0, panels)."""
        t, jac = _t_nodes(a, b, tail)
        dlo, dhi = roots
        # Rows t > 0, then t < 0 by D_u(-t) = -D_{1-u}(t).
        kron, err, dkron = self._y_integrals(
            gamma, np.concatenate([t, -t]).ravel(),
            np.concatenate([dlo, -dhi]).ravel(), np.concatenate([dhi, -dlo]).ravel(),
            derivatives)
        kron = kron.reshape(2, *t.shape).sum(axis=0) * jac
        err = err.reshape(2, *t.shape).sum(axis=0) * jac
        dkron = dkron.reshape(-1, 2, *t.shape).sum(axis=1) * jac
        return kron @ _W_KRONROD, np.abs(kron @ _W_DIFF) + err @ _W_KRONROD, dkron @ _W_KRONROD

    def _y_integrals(self, gamma, t, dlo, dhi, derivatives):
        """Kronrod y integral at each t and its summed |Kronrod - Gauss|,
        then the Kronrod y integrals of the two derivatives (none unless
        asked for)."""
        m, rho = self.cfg.m, self.cfg.rho
        s = math.sqrt(1.0 - rho * rho)
        shift = rho * gamma
        slopes = (dlo - rho * t, dhi - rho * t)
        with np.errstate(divide="ignore", invalid="ignore"):
            ends = ((gamma - _X_HALFWIDTH) / t, (gamma + _X_HALFWIDTH) / t)
            cuts = [gamma / t]
            for c in slopes:
                step, width = -shift / c, s / np.abs(c)
                cuts += [step + k * width for k in _PHI_STEPS]
        lo = np.maximum(self.y_lo, np.minimum(*ends))
        hi = np.maximum(lo, np.minimum(self.y_hi, np.maximum(*ends)))
        cuts = np.column_stack(cuts)
        cuts = np.clip(np.where(np.isfinite(cuts), cuts, lo[:, None]), lo[:, None], hi[:, None])
        cuts = np.sort(np.column_stack([lo, cuts, hi]), axis=1)

        # Cut each piece into equal panels no wider than max_width.
        length = np.diff(cuts, axis=1)
        max_width = 2.0 * np.minimum(1.0 / math.sqrt(2.0 * m), 1.0 / np.abs(t))
        count = np.ceil(length / max_width[:, None]).astype(np.int64).ravel()

        # Class each piece: 0 only Phi(A_lo) live, 1 both, 2 only Phi(A_hi),
        # 3 neither (P = 1), 4 no panels (P = 0, or no length).  No piece
        # holds a saturation cut, so its midpoint decides for all of it.
        # Panels are laid out in class order, so that each cdf is evaluated
        # on one slice of them.
        mid = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
        mid_lo, mid_hi = ((mid * c[:, None] + shift) / s for c in slopes)
        live_lo, live_hi = (np.abs(a) < _PHI_SATURATED for a in (mid_lo, mid_hi))
        kind = np.where(live_lo, np.where(live_hi, 1, 0), np.where(live_hi, 2, 3))
        kind[(mid_lo >= _PHI_SATURATED) | (mid_hi <= -_PHI_SATURATED)] = 4
        kind = kind.astype(np.int8).ravel()  # int8 argsorts by radix
        kind[count == 0] = 4
        order = np.argsort(kind, kind="stable")
        order = order[:np.searchsorted(kind[order], 4)]
        count = count[order]
        piece = np.repeat(order, count)
        k = np.arange(piece.size) - np.repeat(np.cumsum(count) - count, count)
        width = np.repeat(length.ravel()[order] / count, count)
        start = cuts[:, :-1].ravel()[piece] + k * width
        row = piece // length.shape[1]
        n0, n1, n2 = np.searchsorted(kind[piece], (1, 2, 3))

        # Node arrays are freed or reused once spent, which keeps the peak
        # memory of a derivative pass near that of a plain one.  Phi(A_lo)
        # is live on panels [:n1] and Phi(A_hi) on [n0:n2]; elsewhere they
        # are 0 and 1.
        y, half = _panel_nodes(start, start + width)
        e = t[row, None] * y - gamma
        g = y * f_m_pdf(y, m) * np.exp(-0.5 * e ** 2) / math.sqrt(2.0 * math.pi)
        a_lo = (y[:n1] * slopes[0][row[:n1], None] + shift) / s
        a_hi = (y[n0:n2] * slopes[1][row[n0:n2], None] + shift) / s
        del y
        p = np.ones_like(g)
        ndtr(a_hi, out=p[n0:n2])
        p[:n1] -= ndtr(a_lo)

        def integral(f):
            return np.bincount(row, half * (f @ _W_KRONROD), t.size)

        c = g * p
        kron, err = integral(c), np.bincount(row, half * np.abs(c @ _W_DIFF), t.size)
        if not derivatives:
            return kron, err, np.zeros((0, t.size))
        r = rho / s
        phi_lo, phi_hi = (np.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi) for a in (a_lo, a_hi))
        dphi = np.zeros_like(g)
        dphi[n0:n2] = phi_hi
        dphi[:n1] -= phi_lo
        dphi *= r
        curv = c
        curv[n1:] = 0.0
        np.multiply(a_lo, phi_lo, out=curv[:n1])
        a_hi *= phi_hi
        curv[n0:n2] -= a_hi
        curv *= r * r
        del a_lo, a_hi, phi_lo, phi_hi
        d1 = integral(g * (e * p + dphi))
        curv += (e * e - 1.0) * p + 2.0 * e * dphi
        return kron, err, np.stack([d1, integral(g * curv)])
