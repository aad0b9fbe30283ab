"""Upper bound on the minimum coverage probability of the averaged interval.

Averaging over a wider family can only lower the minimum coverage, so the
two-model family built on the most-correlated droppable coefficient gives
an upper bound: fix the design correlation at ``|rho|_max`` and minimize
the two-model coverage integral over the scaled coefficient ``gamma``.
Coverage is even in gamma, so only ``gamma >= 0`` is searched: a coarse
grid of step 1 on [0, 12] guards against multiple local minima, then a
safeguarded Newton iteration on C'(gamma) = 0 polishes the grid minimum
inside the bracket of its grid neighbours, with C' and C'' integrated on
the coverage's own nodes (``CoverageGrid.coverage_derivatives``).  Its
step is ``interval._newton_step`` on (C', C''), the step of the endpoint
solve.  Step 1 suffices: over 64 configs (m in {1, 5,
44, 200}, rho in {.3, .9, .99, .999999}, n in {m + 2, 1e6}, AIC and BIC,
alpha 0.05) the minimum lies at gamma <= 2.36 and the step-1 grid
minimum within 0.89 of it.  Past gamma = 3 the curve stays at least
1.3e-5 above the minimum; the further local minima a 0.25-step grid finds
there are ripples under 4e-12 deep.  A grid minimum at gamma = 0, where
evenness gives C'(0) = 0, is polished on [0, 1].  The bound is the lowest
coverage integrated, grid or polish.  The search takes no options; a grid
minimum on the right edge raises ``QuadratureError``.  ``bound_curve``
always runs its cells on a thread pool sized from the CPUs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .coverage import CoverageGrid, QuadratureConfig, TwoModelConfig
from .errors import QuadratureError
from .interval import _MAX_ITERATIONS, _newton_step

_GRID_STEP = 1.0
_RULE = QuadratureConfig()


@dataclass(frozen=True)
class BoundResult:
    """Minimized coverage with search diagnostics.

    ``error_estimate`` is the quadrature error estimate of the coverage
    at ``gamma_star``, at most 1e-6.  ``rho_max_abs`` is the correlation
    integrated: ``cfg.rho``, which clamps values above 1 - 1e-9.
    """

    upper_bound: float
    gamma_star: float
    rho_max_abs: float
    cfg: TwoModelConfig
    error_estimate: float
    diagnostics: list[tuple[float, float]] = field(default_factory=list)


@dataclass(frozen=True)
class CurveResult:
    """One ``BoundResult`` per cell plus per-curve monotonicity diagnostics.

    ``max_increase`` maps each (m, n) curve to the largest increase of the
    bound along the rho grid (0.0 for a perfectly nonincreasing curve).
    """

    rows: list[BoundResult]
    max_increase: dict[tuple[int, int], float]


def resolve_d(d_rule, n: int) -> float:
    """Translate a penalty rule into d: 'aic', 'bic', 'fixed:<value>', or a
    number, given as such or as a string."""
    if isinstance(d_rule, str):
        rule = d_rule.strip().lower()
        if rule == "aic":
            return 2.0
        if rule == "bic":
            return math.log(n)
        try:
            d_rule = float(rule.removeprefix("fixed:"))
        except ValueError:
            raise ValueError(f"unknown d rule {d_rule!r} "
                             "(use 'aic', 'bic', 'fixed:<value>' or a number)") from None
    d = float(d_rule)
    if not 0.0 <= d < math.inf:
        raise ValueError("penalty constant d must be finite and nonnegative")
    return d


def upper_bound(
    rho_max_abs: float,
    m: int,
    n: int,
    d: float,
    alpha: float,
) -> BoundResult:
    """Minimize the two-model coverage over gamma >= 0 at rho = |rho|_max.

    Every coverage value meets the error estimate tolerance of
    ``CoverageGrid``, or ``QuadratureError`` is raised.
    """
    if not 0.0 <= rho_max_abs < 1.0:
        raise ValueError("rho_max_abs must lie in [0, 1)")
    cfg = TwoModelConfig(m=m, n=n, rho=rho_max_abs, d=d, alpha=alpha)

    grid = CoverageGrid(cfg)
    gammas = np.arange(0.0, _RULE.gamma_grid_max + _GRID_STEP / 2.0, _GRID_STEP)
    values = [grid.coverage_at(g) for g in gammas]
    i = int(np.argmin(values))
    if i == len(gammas) - 1:
        raise QuadratureError(
            f"gamma minimizer stuck at the search boundary {gammas[i]:g}"
        )

    x, v_star = _polish(grid, gammas, values, i)
    return BoundResult(
        upper_bound=v_star,
        gamma_star=x,
        rho_max_abs=cfg.rho,
        cfg=cfg,
        # x was integrated by the grid or the polish: its estimate is a memo lookup.
        error_estimate=grid.coverage_with_error(x)[1],
        diagnostics=list(zip(map(float, gammas), values)),
    )


def _polish(grid: CoverageGrid, gammas, values, i: int) -> tuple[float, float]:
    """(gamma, coverage) of the lowest coverage integrated around the grid
    minimum ``gammas[i]``, grid value included.

    The Newton iteration of the module docstring starts at the vertex of
    the parabola through the three grid values and stops once a step is
    within ``gamma_refine_tol``.
    """
    tol = _RULE.gamma_refine_tol
    bracket = [float(gammas[max(i - 1, 0)]), float(gammas[i + 1])]
    if i == 0:
        # C is even, so C'(0) = 0 and the vertex is 0, already integrated.
        # Start one tolerance off it, where C'' is C''(0) to O(tol^2): a true
        # minimum at 0 then ends after that one integral.
        x = tol
    else:
        below, above = values[i - 1] - values[i], values[i + 1] - values[i]
        x = float(gammas[i]) + 0.5 * _GRID_STEP * (below - above) / (below + above)
    best = float(gammas[i]), values[i]
    for _ in range(_MAX_ITERATIONS):
        value, d1, d2 = grid.coverage_derivatives(x)
        if value <= best[1]:
            best = x, value
        x = _newton_step(x, d1, d2, bracket, tol)
        if x is None:
            return best
    raise QuadratureError(f"gamma polish unconverged after {_MAX_ITERATIONS} steps")


def bound_curve(
    rho_grid,
    m_n_pairs,
    d_rule,
    alpha: float,
) -> CurveResult:
    """Curves of the bound against |rho|_max, one per (m, n) pair.

    Rows are ordered by (m, n) pair then rho; a repeated pair raises
    ``ValueError``, since its curves would merge.  Cells run on a thread pool
    with one worker per CPU the process may use (``taskset`` restricts it)
    and at most one per cell; rows are placed by index, so they match
    separate ``upper_bound`` calls bit for bit.
    """
    rho_grid = [float(r) for r in rho_grid]
    m_n_pairs = [(int(m), int(n)) for m, n in m_n_pairs]
    if not rho_grid or not m_n_pairs:
        raise ValueError("rho_grid and m_n_pairs must be nonempty")
    if len(set(m_n_pairs)) < len(m_n_pairs):
        raise ValueError(f"repeated (m, n) pair in {m_n_pairs}")

    cells = [
        (m, n, rho) for m, n in m_n_pairs for rho in rho_grid
    ]

    def run(cell):
        m, n, rho = cell
        return upper_bound(rho, m, n, resolve_d(d_rule, n), alpha)

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without a CPU affinity query
        cpus = os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=min(len(cells), cpus)) as pool:
        results = list(pool.map(run, cells))

    max_increase: dict[tuple[int, int], float] = {}
    for m, n in m_n_pairs:
        vals = [r.upper_bound for r in results if (r.cfg.m, r.cfg.n) == (m, n)]
        diffs = np.diff(vals)
        max_increase[(m, n)] = float(max(0.0, diffs.max())) if len(diffs) else 0.0
    return CurveResult(rows=results, max_increase=max_increase)
