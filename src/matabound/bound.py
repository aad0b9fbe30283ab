"""Upper bound on the minimum coverage probability of the averaged interval.

Averaging over a wider family can only lower the minimum coverage, so the
two-model family built on the most-correlated droppable coefficient gives
an upper bound: fix the design correlation at ``|rho|_max`` and minimize
the two-model coverage integral over the scaled coefficient ``gamma``.
Coverage is even in gamma, so only ``gamma >= 0`` is searched: a coarse
grid (step 0.25) guards against multiple local minima, then a
golden-section refinement polishes the grid minimum.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .coverage import CoverageGrid, QuadratureConfig, TwoModelConfig, check_node_doubling
from .errors import QuadratureError

_GRID_STEP = 0.25
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BoundResult:
    """Minimized coverage with search diagnostics."""

    upper_bound: float
    gamma_star: float
    rho_max_abs: float
    cfg: TwoModelConfig
    diagnostics: list[tuple[float, float]] = field(default_factory=list)


@dataclass(frozen=True)
class CurveRow:
    n: int
    m: int
    d: float
    alpha: float
    rho_max_abs: float
    gamma_star: float
    upper_bound: float


@dataclass(frozen=True)
class CurveResult:
    """Rows of (n, rho, bound) plus per-curve monotonicity diagnostics.

    ``max_increase`` maps each (m, n) curve to the largest increase of the
    bound along the rho grid (0.0 for a perfectly nonincreasing curve).
    """

    rows: list[CurveRow]
    max_increase: dict[tuple[int, int], float]


def resolve_d(d_rule, n: int) -> float:
    """Translate a penalty rule ('aic', 'bic', or a number) into d."""
    if isinstance(d_rule, str):
        rule = d_rule.lower()
        if rule == "aic":
            return 2.0
        if rule == "bic":
            return math.log(n)
        raise ValueError(f"unknown d rule {d_rule!r} (use 'aic', 'bic', or a number)")
    d = float(d_rule)
    if d < 0.0:
        raise ValueError("penalty constant d must be nonnegative")
    return d


def _golden_section(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Minimize f on [lo, hi]; returns the best (x, f(x)) seen."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best = (x1, f1) if f1 <= f2 else (x2, f2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        cand = (x1, f1) if f1 <= f2 else (x2, f2)
        if cand[1] < best[1]:
            best = cand
    return best


def upper_bound(
    rho_max_abs: float,
    m: int,
    n: int,
    d: float,
    alpha: float,
    quad: QuadratureConfig | None = None,
    check_convergence: bool = False,
) -> BoundResult:
    """Minimize the two-model coverage over gamma >= 0 at rho = |rho|_max.

    The gamma grid runs to ``quad.gamma_grid_max``; if the coarse minimum
    lands on the right edge the domain is doubled once before giving up.
    With ``check_convergence`` the minimized value must survive
    ``check_node_doubling`` at gamma*.
    """
    if not 0.0 <= rho_max_abs < 1.0:
        raise ValueError("rho_max_abs must lie in [0, 1)")
    if quad is None:
        quad = QuadratureConfig()
    cfg = TwoModelConfig(m=m, n=n, rho=rho_max_abs, d=d, alpha=alpha)

    gamma_max = quad.gamma_grid_max
    for attempt in range(2):
        grid = CoverageGrid(cfg, quad, (0.0, gamma_max))
        gammas = np.arange(0.0, gamma_max + _GRID_STEP / 2.0, _GRID_STEP)
        values = [grid.coverage_at(g) for g in gammas]
        i = int(np.argmin(values))
        if i < len(gammas) - 1 or attempt == 1:
            break
        gamma_max *= 2.0  # coarse minimum on the right edge: widen once
    if i == len(gammas) - 1:
        raise QuadratureError(
            f"gamma minimizer stuck at the search boundary {gammas[i]:g}"
        )

    lo = float(gammas[max(i - 1, 0)])
    hi = float(gammas[min(i + 1, len(gammas) - 1)])
    g_star, v_star = _golden_section(grid.coverage_at, lo, hi, quad.gamma_refine_tol)
    if values[i] < v_star:
        g_star, v_star = float(gammas[i]), values[i]

    if check_convergence:
        check_node_doubling(v_star, g_star, cfg, quad)

    return BoundResult(
        upper_bound=v_star,
        gamma_star=g_star,
        rho_max_abs=rho_max_abs,
        cfg=cfg,
        diagnostics=list(zip(map(float, gammas), values)),
    )


def max_threads() -> int:
    """Worker cap for internal parallelism (MATA_THREADS, default 1)."""
    raw = os.environ.get("MATA_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def bound_curve(
    rho_grid,
    m_n_pairs,
    d_rule,
    alpha: float,
    quad: QuadratureConfig | None = None,
) -> CurveResult:
    """Curves of the bound against |rho|_max, one per (m, n) pair.

    Rows are ordered by (m, n) pair then rho.  Cell evaluations are
    independent; MATA_THREADS > 1 runs them on a thread pool (results are
    placed by index, so output is identical either way).
    Every cell runs the node-doubling check of ``upper_bound``.
    """
    rho_grid = [float(r) for r in rho_grid]
    m_n_pairs = [(int(m), int(n)) for m, n in m_n_pairs]
    if not rho_grid or not m_n_pairs:
        raise ValueError("rho_grid and m_n_pairs must be nonempty")

    cells = [
        (m, n, rho) for m, n in m_n_pairs for rho in rho_grid
    ]

    def run(cell):
        m, n, rho = cell
        return upper_bound(rho, m, n, resolve_d(d_rule, n), alpha, quad,
                           check_convergence=True)

    workers = max_threads()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, cells))
    else:
        results = [run(cell) for cell in cells]

    rows = [
        CurveRow(
            n=n,
            m=m,
            d=resolve_d(d_rule, n),
            alpha=alpha,
            rho_max_abs=rho,
            gamma_star=res.gamma_star,
            upper_bound=res.upper_bound,
        )
        for (m, n, rho), res in zip(cells, results)
    ]
    max_increase: dict[tuple[int, int], float] = {}
    for m, n in m_n_pairs:
        vals = [r.upper_bound for r in rows if (r.m, r.n) == (m, n)]
        diffs = np.diff(vals)
        max_increase[(m, n)] = float(max(0.0, diffs.max())) if len(diffs) else 0.0
    return CurveResult(rows=rows, max_increase=max_increase)
