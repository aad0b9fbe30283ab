"""Reference coverage values for the benchmark's correctness checks.

The package evaluates the two-model coverage double integral on a fixed
tensor Gauss-Legendre grid.  The references here come from a different
integrator: nested adaptive Gauss-Kronrod (7/15 points) quadrature over
the package's public ``delta_u`` and ``f_m_pdf``.  The inner x integral
is split at gamma and at the w1 transition ``x = +-y t*``, where
``t* = sqrt(m (exp(d/n) - 1))``; the outer y integral is split at
quantiles of ``f_m``.  Below ``y = 1e-4`` the roots come from the scale
identity ``delta_u(k x, k y) = k delta_u(x, y)``.  Every panel whose
Kronrod-Gauss difference exceeds its share of the tolerance is bisected,
so each value comes with an error estimate.  Each value is recomputed at a tolerance ten times
tighter, and the change is recorded beside the error estimate.

Recompute ``references.json`` (takes several minutes) with

    python3 perfbench/reference.py

from the repository root.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ndtr
from scipy.stats import chi2

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

# Kronrod 15-point nodes on [0, 1] (symmetric) and weights; Gauss 7-point
# weights for the odd-indexed Kronrod nodes (QUADPACK qk15).
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 nodes on [-1, 1]
W_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
W_GAUSS = np.zeros(15)
W_GAUSS[[1, 3, 5]] = _WG[:3]
W_GAUSS[[9, 11, 13]] = _WG[2::-1]
W_GAUSS[7] = _WG[3]

X_HALFWIDTH = 9.0          # normal mass beyond 9 sd is below 1e-18
Y_TAIL = 1e-15             # f_m mass cut from each end of the y range
Y_SAFE = 1e-4
MAX_ROUNDS = 60


def adaptive_gk(f, owner, a, b, n_owners, tol):
    """Integrate ``f`` over panels ``[a, b]`` grouped by ``owner``.

    ``f(owner_idx, x)`` is evaluated on arrays of shape (panels, 15) and
    must return integrand values of that shape.  A panel is accepted when
    its Kronrod-Gauss difference is at most ``tol`` times its share of its
    owner's initial length.  Returns per-owner (integral, error estimate).
    """
    owner = np.asarray(owner, dtype=int)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    span = np.zeros(n_owners)
    np.add.at(span, owner, b - a)
    total = np.zeros(n_owners)
    error = np.zeros(n_owners)
    for _ in range(MAX_ROUNDS):
        if owner.size == 0:
            return total, error
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = mid[:, None] + half[:, None] * NODES[None, :]
        vals = f(owner, x)
        kron = half * (vals @ W_KRONROD)
        err = np.abs(kron - half * (vals @ W_GAUSS))
        done = (err <= tol * (b - a) / span[owner]) | (half < 1e-13 * np.maximum(1.0, np.abs(mid)))
        np.add.at(total, owner[done], kron[done])
        np.add.at(error, owner[done], err[done])
        keep = ~done
        owner = np.repeat(owner[keep], 2)
        lo, hi, mi = a[keep], b[keep], mid[keep]
        a = np.ravel(np.column_stack([lo, mi]))
        b = np.ravel(np.column_stack([mi, hi]))
    raise RuntimeError("adaptive quadrature did not converge")


def coverage_reference(gamma: float, cfg, tol: float) -> tuple[float, float]:
    """Coverage of the two-model interval at ``gamma``; returns (value, error estimate)."""
    from matabound import delta_u, f_m_pdf

    m, n, rho, d, alpha = cfg.m, cfg.n, cfg.rho, cfg.d, cfg.alpha
    s = math.sqrt(1.0 - rho * rho)
    t_star = math.sqrt(m * math.expm1(d / n))
    u = np.array([alpha / 2.0, 1.0 - alpha / 2.0])

    def inner(ys: np.ndarray) -> np.ndarray:
        owners, lo, hi = [], [], []
        for i, y in enumerate(ys):
            cuts = sorted({gamma - X_HALFWIDTH, gamma + X_HALFWIDTH, gamma,
                           *(c for c in (-y * t_star, y * t_star)
                             if gamma - X_HALFWIDTH < c < gamma + X_HALFWIDTH)})
            owners += [i] * (len(cuts) - 1)
            lo += cuts[:-1]
            hi += cuts[1:]

        def integrand(owner, x):
            # delta_u(k x, k y) = k delta_u(x, y): the equation depends on
            # delta/y and x/y only.  Below Y_SAFE the root is solved at
            # y = Y_SAFE, where bisection resolves it to full accuracy.
            y = ys[owner][:, None]
            k = np.maximum(y, Y_SAFE) / y
            dd = delta_u((k * x)[None], (k * y)[None], u[:, None, None], cfg) / k
            shift = rho * (x - gamma)
            psi = ndtr((dd[1] - shift) / s) - ndtr((dd[0] - shift) / s)
            return psi * np.exp(-0.5 * (x - gamma) ** 2) / math.sqrt(2.0 * math.pi)

        value, _ = adaptive_gk(integrand, owners, lo, hi, len(ys), 0.1 * tol)
        return value

    qs = [Y_TAIL, 1e-6, 1e-3, 0.05, 0.25, 0.5, 0.75, 0.95, 1 - 1e-3, 1 - 1e-6, 1 - Y_TAIL]
    cuts = np.sqrt(chi2.ppf(qs, m) / m)
    value, err = adaptive_gk(
        lambda owner, y: f_m_pdf(y, m) * inner(y.ravel()).reshape(y.shape),
        np.zeros(len(cuts) - 1), cuts[:-1], cuts[1:], 1, tol,
    )
    return float(value[0]), float(err[0])


def min_coverage_reference(cfg, gamma_hint: float, tol: float) -> tuple[float, float, float]:
    """Minimum over gamma within 0.3 of ``gamma_hint``; returns (value, gamma, error estimate)."""
    cache: dict[float, tuple[float, float]] = {}

    def f(g):
        if g not in cache:
            cache[g] = coverage_reference(g, cfg, tol)
        return cache[g][0]

    res = minimize_scalar(f, bounds=(max(0.0, gamma_hint - 0.3), gamma_hint + 0.3),
                          method="bounded", options={"xatol": 1e-4})
    g = float(res.x)
    value = f(g)
    return value, g, cache[g][1]


def build_references(tol: float = 1e-9) -> dict:
    from matabound import TwoModelConfig, upper_bound

    from workloads import ALPHA, BOUND_CELLS, THEOREM2, d_of

    def config(cell):
        return TwoModelConfig(m=cell.m, n=cell.n, rho=cell.rho,
                              d=d_of(cell.rule, cell.n), alpha=ALPHA)

    out = {"tolerance": tol, "bound": {}, "coverage": {}}
    for cell in BOUND_CELLS:
        cfg = config(cell)
        hint = upper_bound(cell.rho, cell.m, cell.n, cfg.d, cfg.alpha).gamma_star
        t0 = time.perf_counter()
        value, g, est = min_coverage_reference(cfg, hint, tol)
        fine, _ = coverage_reference(g, cfg, 0.1 * tol)
        out["bound"][cell.name] = {
            "min_coverage": value, "gamma_star": g, "gk_error_estimate": est,
            "tolerance_change": abs(value - fine),
        }
        print(f"{cell.name}: {value!r} at gamma {g:.5f} (gk err {est:.1e}, "
              f"tol/10 moves {abs(value - fine):.1e}) {time.perf_counter() - t0:.0f} s",
              flush=True)
    cfg = config(THEOREM2)
    value, est = coverage_reference(THEOREM2.gamma, cfg, tol)
    fine, _ = coverage_reference(THEOREM2.gamma, cfg, 0.1 * tol)
    out["coverage"][THEOREM2.name] = {
        "coverage": value, "gamma": THEOREM2.gamma, "gk_error_estimate": est,
        "tolerance_change": abs(value - fine),
    }
    print(f"{THEOREM2.name}: {value!r} (gk err {est:.1e}, tol/10 moves "
          f"{abs(value - fine):.1e})", flush=True)
    return out


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    refs = build_references()
    errors = [max(r["tolerance_change"], r["gk_error_estimate"])
              for group in ("bound", "coverage") for r in refs[group].values()]
    if max(errors) > 1e-7:
        print(f"reference error {max(errors):.1e} exceeds 1e-7", file=sys.stderr)
        return 1
    with open(REFERENCES_PATH, "w") as fh:
        json.dump(refs, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
