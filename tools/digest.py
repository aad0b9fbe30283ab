"""Bit-level digest of interval endpoints and audited Monte Carlo estimates.

    PYTHONPATH=src python3 tools/digest.py [--out FILE] [--compare OLD.json]

Records, as ``float.hex`` strings so that equal entries are equal bit for
bit:

* the ``solve_interval`` endpoints and ``h_residuals`` of 44 seeded
  all-subsets datasets: 40 with p in 3..8, and 4 with p = 12, q = 2
  (1,024 models);
* ``p_hat``, ``audited`` and ``audit_max_residual`` of audited
  (1%, 1e5 replicates) ``simulate_coverage`` runs on two two-model
  designs and on an 8-model design whose two extra droppable columns are
  orthogonal to the target, with coefficients +-16 standard errors.

``--compare`` reads an earlier run of this tool, prints how many entries
differ (or are missing on one side) and the first 10 of their keys, and
exits 1 if any do.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from matabound import MataRequest, RegressionProblem, SimScenario, WeightSpec
from matabound import simulate_coverage, solve_interval
from matabound.suites import _correlated_design

ALPHA = 0.05
MC_REPS = 100_000
# (name, m, n, d rule, rho, gamma, far): ``far`` > 0 adds the two
# orthogonal droppable columns.
DESIGNS = (
    ("m5-n7-aic-rho0.7-g1", 5, 7, "aic", 0.7, 1.0, 0.0),
    ("m44-n60-bic-rho0.96-g2", 44, 60, "bic", 0.96, 2.0, 0.0),
    ("8model-n20-aic-rho0.85-g1.5", 16, 20, "aic", 0.85, 1.5, 16.0),
)


def dataset(seed: int) -> tuple[RegressionProblem, WeightSpec]:
    """A random design, interest vector and response; the last four seeds
    of ``interval_entries`` have p = 12, q = 2."""
    rng = np.random.default_rng(seed)
    if seed >= 40:
        p, q = 12, 2
    else:
        p = int(rng.integers(3, 9))
        q = int(rng.integers(1, p))
    n = p + int(rng.integers(2, 30))
    X = rng.standard_normal((n, p))
    X[:, -1] += rng.uniform(0.0, 2.0) * X[:, 0]  # some correlation with the target
    a = np.zeros(p)
    a[:q] = rng.standard_normal(q)
    beta = rng.standard_normal(p) * rng.uniform(0.0, 2.0, p)
    y = X @ beta + rng.standard_normal(n)
    spec = WeightSpec.aic(n) if seed % 2 else WeightSpec.bic(n)
    return RegressionProblem(X, a, q=q, y=y), spec


def interval_entries() -> dict[str, str]:
    out = {}
    for seed in range(44):
        prob, spec = dataset(seed)
        iv = solve_interval(MataRequest(prob, spec, alpha=ALPHA))
        values = (iv.lower, iv.upper, *iv.h_residuals)
        for name, v in zip(("lower", "upper", "h_residual_lo", "h_residual_hi"), values):
            out[f"interval/{seed}/{name}"] = float(v).hex()
    return out


def design(m: int, n: int, rho: float, gamma: float, far: float):
    """The verify suites' correlated design (target e_0, last column
    correlated with it); only the last column is droppable, or with
    ``far`` every column after the first.  Returns it and beta / sigma."""
    p = n - m
    beta = np.zeros(p)
    beta[-1] = gamma / math.sqrt(1.0 - rho * rho)
    if far:
        beta[1:3] = (far, -far)
    return _correlated_design(p, n, rho, q=1 if far else p - 1), beta


def coverage_entries() -> dict[str, str]:
    out = {}
    for i, (name, m, n, rule, rho, gamma, far) in enumerate(DESIGNS):
        prob, beta = design(m, n, rho, gamma, far)
        d = 2.0 if rule == "aic" else math.log(n)
        est = simulate_coverage(SimScenario(prob=prob, beta_over_sigma=beta, reps=MC_REPS,
                                            seed=1_000 + i, spec=WeightSpec.gic(n, d),
                                            alpha=ALPHA))
        out[f"coverage/{name}/p_hat"] = est.p_hat.hex()
        out[f"coverage/{name}/audited"] = float(est.audited).hex()
        out[f"coverage/{name}/audit_max_residual"] = est.audit_max_residual.hex()
    return out


def compare(new: dict[str, str], old: dict[str, str]) -> list[str]:
    """Sorted keys of the entries that differ or are on one side only."""
    return sorted(k for k in new.keys() | old.keys() if new.get(k) != old.get(k))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the JSON here (default: stdout)")
    ap.add_argument("--compare", help="earlier JSON of this tool to compare against")
    args = ap.parse_args(argv)
    digest = {**interval_entries(), **coverage_entries()}
    text = json.dumps(digest, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.compare:
        with open(args.compare) as fh:
            old = json.load(fh)
        differing = compare(digest, old)
        print(f"entries {len(digest)}: {len(differing)} differ", file=sys.stderr)
        for k in differing[:10]:
            print(f"  {k}: {old.get(k)} -> {digest.get(k)}", file=sys.stderr)
        return 1 if differing else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
