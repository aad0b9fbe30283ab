"""Bit-level digest of interval endpoints, Monte Carlo estimates and bounds.

    PYTHONPATH=src python3 tools/digest.py [--out FILE] [--compare OLD.json]

Records, as ``float.hex`` strings or SHA-256 hex digests so that equal
entries are equal bit for bit:

* the ``solve_interval`` endpoints and ``h_residuals`` of 44 seeded
  all-subsets datasets: 40 with p in 3..8, and 4 with p = 12, q = 2
  (1,024 models);
* per dataset, a SHA-256 of the bytes of ``fit_family``'s per-model
  ``df``, ``v``, ``rss`` and ``u``, and one of the ``model_weights``
  values, models in mask order;
* under ``mc/``, ``p_hat``, ``audited`` and ``audit_max_residual`` of
  audited (1%, 1e5 replicates) ``simulate_coverage`` runs on two two-model
  designs and on an 8-model design whose two extra droppable columns are
  orthogonal to the target, with coefficients +-16 standard errors;
* a SHA-256 of the bytes of ``_SimKernel(...).covered(beta)``, the
  per-replicate h-event (1e5 replicates), on those three designs and on
  an m = 1 two-model design (df 1 and 2);
* for each config of the 64-config bound sweep (m in {1, 5, 44, 200}, rho
  in {.3, .9, .99, .999999}, n in {m + 2, 1e6}, AIC and BIC, alpha 0.05),
  keyed by its sweep key:
  - a SHA-256 of the bytes of ``CoverageGrid(cfg).panels``, the base t
    panels' ends ``a``, ``b`` and ``tail`` flags.  The panels carry the
    regime cuts, so a cut that moves by one ulp shows even where no bound
    changes;
  - under ``bound/``, ``upper_bound``'s bound, gamma*, error estimate and
    the integrals it took (calls of ``CoverageGrid._integrate``);
* under ``theorem4/``, the exact P(w1 >= eps) and its simulated estimate in
  each of the six cells of the ``theorem4`` suite, at the suite's default
  replicates and seed, so that a change to ``w1`` or ``WeightSpec.weights``
  shows;
* under ``family/``, a SHA-256 of each fitted model's ``beta_hat``, ``rss``,
  ``u``, ``v`` and ``df`` in three hand-picked families (``FAMILIES``): one
  on a p = 70, q = 3 design whose members' parents are missing two levels
  down and whose masks reach 2^69, one without the full model, and all
  subsets of a p = 64, q = 62 design.

It prints the seconds the 64 bounds took.  ``--compare`` reads an earlier
run of this tool, prints how many entries differ (or are missing on one
side), how many of them fall under each key prefix (``interval``,
``fits``, ``weights``, ``mc``, ``covered``, ``panels``, ``bound``,
``theorem4`` and ``family``), the largest relative move and the count of
bit-identical values over the interval endpoints both runs hold, the same
for the bound and gamma* moves (absolute) over the configs both runs hold,
and the first 10 differing keys, and exits 1 if any entry differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from collections import Counter

import numpy as np

from matabound import MataRequest, ModelSubset, RegressionProblem, SimScenario, WeightSpec
from matabound import fit_family, model_weights, simulate_coverage, solve_interval
from matabound.bound import resolve_d, upper_bound
from matabound.coverage import CoverageGrid, TwoModelConfig
from matabound.mcverify import _SimKernel
from matabound.suites import _correlated_design, theorem4_suite

ALPHA = 0.05
MC_REPS = 100_000
# The defaults of ``matabound verify``.
SUITE_REPS, SUITE_SEED = 100_000, 20240800
# (name, m, n, d rule, rho, gamma, far): ``far`` > 0 adds the two
# orthogonal droppable columns.
DESIGNS = (
    ("m5-n7-aic-rho0.7-g1", 5, 7, "aic", 0.7, 1.0, 0.0),
    ("m44-n60-bic-rho0.96-g2", 44, 60, "bic", 0.96, 2.0, 0.0),
    ("8model-n20-aic-rho0.85-g1.5", 16, 20, "aic", 0.85, 1.5, 16.0),
)
# The h-event's designs: the full model's points of the m = 1 design are
# t_1 at the truth and often fall outside the kernel's t-cdf table.
KERNEL_DESIGNS = DESIGNS + (("m1-n3-aic-rho0.5-g0.5", 1, 3, "aic", 0.5, 0.5, 0.0),)
# The bound sweep's (m, n, rho, d rule) configs.
SWEEP = tuple((m, n, rho, rule) for m in (1, 5, 44, 200) for rho in (0.3, 0.9, 0.99, 0.999999)
              for n in (m + 2, 1_000_000) for rule in ("aic", "bic"))
# (name, (n, p, q), members as zeroed-column lists; None for all subsets)
FAMILIES = (
    ("p70-missing-parents", (90, 70, 3), ((), (69, 40), (65,), (69, 40, 5))),
    ("p6-no-full-model", (12, 6, 2), ((2, 4, 5), (3,), (3, 5))),
    ("p64-all-subsets", (80, 64, 62), None),
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
    return RegressionProblem(X, a, q=q, y=y), weight_spec("aic" if seed % 2 else "bic", n)


def sha256(values) -> str:
    return hashlib.sha256(np.array(values).tobytes()).hexdigest()


def interval_entries() -> dict[str, str]:
    out = {}
    for seed in range(44):
        prob, spec = dataset(seed)
        iv = solve_interval(MataRequest(prob, spec, alpha=ALPHA))
        values = (iv.lower, iv.upper, *iv.h_residuals)
        for name, v in zip(("lower", "upper", "h_residual_lo", "h_residual_hi"), values):
            out[f"interval/{seed}/{name}"] = float(v).hex()
        fits = fit_family(prob)
        for name in ("df", "v", "rss", "u"):
            out[f"fits/{seed}/{name}"] = sha256([getattr(f, name) for f in fits.values()])
        weights = model_weights(fits, fits[ModelSubset(0)].rss, spec)
        out[f"weights/{seed}"] = sha256([weights[K] for K in fits])
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


def weight_spec(rule: str, n: int) -> WeightSpec:
    return WeightSpec.gic(n, resolve_d(rule, n))


def mc_entries() -> dict[str, str]:
    out = {}
    for i, (name, m, n, rule, rho, gamma, far) in enumerate(DESIGNS):
        prob, beta = design(m, n, rho, gamma, far)
        est = simulate_coverage(SimScenario(prob=prob, beta_over_sigma=beta, reps=MC_REPS,
                                            seed=1_000 + i, spec=weight_spec(rule, n),
                                            alpha=ALPHA))
        out[f"mc/{name}/p_hat"] = est.p_hat.hex()
        out[f"mc/{name}/audited"] = float(est.audited).hex()
        out[f"mc/{name}/audit_max_residual"] = est.audit_max_residual.hex()
    return out


def kernel_entries() -> dict[str, str]:
    out = {}
    for i, (name, m, n, rule, rho, gamma, far) in enumerate(KERNEL_DESIGNS):
        prob, beta = design(m, n, rho, gamma, far)
        kernel = _SimKernel(prob, weight_spec(rule, n), ALPHA, MC_REPS, 1_000 + i)
        out[f"covered/{name}"] = sha256(kernel.covered(beta))
    return out


def theorem4_entries() -> dict[str, str]:
    out = {}
    for row in theorem4_suite(SUITE_REPS, SUITE_SEED)[-6:]:  # its six formula rows
        cell = "-".join(row.name.split()[2:4])  # n=<n>-gamma=<gamma>
        out[f"theorem4/{cell}/exact"] = float(row.reference).hex()
        out[f"theorem4/{cell}/simulated"] = float(row.value).hex()
    return out


def family_entries() -> dict[str, str]:
    out = {}
    for i, (name, (n, p, q), members) in enumerate(FAMILIES):
        rng = np.random.default_rng(2_000 + i)
        a = np.zeros(p)
        a[:q] = rng.standard_normal(q)
        prob = RegressionProblem(rng.standard_normal((n, p)), a, q=q, y=rng.standard_normal(n))
        family = None if members is None else [ModelSubset.from_indices(K) for K in members]
        for K, fit in fit_family(prob, family).items():
            key = "-".join(map(str, K.indices)) or "full"
            out[f"family/{name}/{key}"] = sha256([*fit.beta_hat, fit.rss, fit.u, fit.v, fit.df])
    return out


def sweep_entries() -> tuple[dict[str, str], float]:
    """The panel and bound entries of the sweep, and the seconds its
    ``upper_bound`` calls took."""
    out, seconds, count = {}, 0.0, [0]
    integrate = CoverageGrid._integrate

    def counting(self, *args, **kwargs):
        count[0] += 1
        return integrate(self, *args, **kwargs)

    CoverageGrid._integrate = counting
    try:
        for m, n, rho, rule in SWEEP:
            key, d = f"m{m}-n{n}-rho{rho}-{rule}", resolve_d(rule, n)
            a, b, tail = CoverageGrid(TwoModelConfig(m, n, rho, d, ALPHA)).panels
            out[f"panels/{key}"] = hashlib.sha256(a.tobytes() + b.tobytes()
                                                  + tail.tobytes()).hexdigest()
            count[0], t0 = 0, time.perf_counter()
            res = upper_bound(rho, m, n, d, ALPHA)
            seconds += time.perf_counter() - t0
            values = (res.upper_bound, res.gamma_star, res.error_estimate, count[0])
            for name, v in zip(("bound", "gamma_star", "error_estimate", "integrals"), values):
                out[f"bound/{key}/{name}"] = float(v).hex()
    finally:
        CoverageGrid._integrate = integrate
    return out, seconds


def compare(new: dict[str, str], old: dict[str, str]) -> tuple[list[str], int]:
    """The report of ``--compare`` as lines, and the exit code: 1 if an
    entry differs or is on one side only, else 0."""
    differing = sorted(k for k in new.keys() | old.keys() if new.get(k) != old.get(k))
    counts = Counter(k.split("/")[0] for k in differing)
    prefixes = dict.fromkeys(k.split("/")[0] for k in (*new, *old))
    lines = [f"entries {len(new)}: {len(differing)} differ",
             "  by prefix: " + ", ".join(f"{p} {counts[p]}" for p in prefixes)]
    ends = [(float.fromhex(new[k]), float.fromhex(old[k])) for k in new
            if k.startswith("interval/") and k.endswith(("/lower", "/upper")) and k in old]
    moves = [abs(a - b) / max(abs(a), abs(b)) for a, b in ends if a != b]
    if ends:
        lines.append(f"  endpoints {len(ends)}: max relative move {max(moves, default=0):.3g}, "
                     f"bit-identical {len(ends) - len(moves)}")
    bounds, gammas = ([(float.fromhex(new[k]), float.fromhex(old[k])) for k in new
                       if k.startswith("bound/") and k.endswith(f"/{name}") and k in old]
                      for name in ("bound", "gamma_star"))
    if bounds:
        lines.append(f"  bounds {len(bounds)}: max |bound diff| "
                     f"{max(abs(a - b) for a, b in bounds):.3g}, max |gamma* diff| "
                     f"{max(abs(a - b) for a, b in gammas):.3g}, "
                     f"bit-identical {sum(a == b for a, b in bounds)}")
    lines += [f"  {k}: {old.get(k)} -> {new.get(k)}" for k in differing[:10]]
    return lines, int(bool(differing))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the JSON here (default: stdout)")
    ap.add_argument("--compare", help="earlier JSON of this tool to compare against")
    args = ap.parse_args(argv)
    sweep, seconds = sweep_entries()
    digest = {**interval_entries(), **mc_entries(), **kernel_entries(), **sweep,
              **theorem4_entries(), **family_entries()}
    text = json.dumps(digest, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"bound sweep: {len(SWEEP)} configs in {seconds:.2f} s", file=sys.stderr)
    if not args.compare:
        return 0
    with open(args.compare) as fh:
        lines, code = compare(digest, json.load(fh))
    print("\n".join(lines), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
