"""The 64-config bound sweep, written as JSON.

    PYTHONPATH=src python3 tools/sweep64.py [--out FILE] [--compare OLD.json]

Runs ``upper_bound`` serially on every config of m in {1, 5, 44, 200},
rho in {.3, .9, .99, .999999}, n in {m + 2, 1e6}, AIC and BIC, alpha
0.05, and records for each its bound, gamma*, error estimate, the
integrals it took (calls of ``CoverageGrid._integrate``) and its wall
time.  ``--compare`` reads an earlier run of this tool and prints, over
the configs the two share, the largest bound and gamma* differences,
how many bounds are bit-identical, the largest error estimate and the
total seconds on each side.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from matabound import coverage
from matabound.bound import resolve_d, upper_bound

MS = (1, 5, 44, 200)
RHOS = (0.3, 0.9, 0.99, 0.999999)
RULES = ("aic", "bic")
ALPHA = 0.05


def configs() -> list[dict]:
    return [{"m": m, "n": n, "rho": rho, "rule": rule}
            for m in MS for rho in RHOS for n in (m + 2, 1_000_000) for rule in RULES]


def key(c: dict) -> str:
    return f"m{c['m']}-n{c['n']}-rho{c['rho']}-{c['rule']}"


def sweep() -> list[dict]:
    grid = coverage.CoverageGrid
    integrate = grid._integrate
    count = [0]

    def counting(self, *args, **kwargs):
        count[0] += 1
        return integrate(self, *args, **kwargs)

    grid._integrate = counting
    try:
        rows = []
        for c in configs():
            count[0] = 0
            t0 = time.perf_counter()
            res = upper_bound(c["rho"], c["m"], c["n"], resolve_d(c["rule"], c["n"]), ALPHA)
            rows.append({**c, "bound": res.upper_bound, "gamma_star": res.gamma_star,
                         "error_estimate": res.error_estimate, "integrals": count[0],
                         "seconds": time.perf_counter() - t0})
        return rows
    finally:
        grid._integrate = integrate


def compare(new: list[dict], old: list[dict]) -> str:
    old = {key(r): r for r in old}
    pairs = [(r, old[key(r)]) for r in new if key(r) in old]
    d_bound = max(abs(r["bound"] - o["bound"]) for r, o in pairs)
    d_gamma = max(abs(r["gamma_star"] - o["gamma_star"]) for r, o in pairs)
    same = sum(r["bound"] == o["bound"] for r, o in pairs)
    worst = max(r["error_estimate"] for r, _ in pairs)
    secs = [sum(row["seconds"] for row in side) for side in zip(*pairs)]
    return (f"configs {len(pairs)}: max |bound diff| {d_bound:.3g}, "
            f"max |gamma* diff| {d_gamma:.3g}, bit-identical bounds {same}, "
            f"max error estimate {worst:.3g}, seconds {secs[1]:.2f} -> {secs[0]:.2f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the JSON here (default: stdout)")
    ap.add_argument("--compare", help="earlier JSON of this tool to compare against")
    args = ap.parse_args(argv)
    rows = sweep()
    text = json.dumps(rows, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.compare:
        with open(args.compare) as fh:
            print(compare(rows, json.load(fh)), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
