"""Command-line front end.

Subcommands: ``interval`` (tail-area interval from CSV data), ``rho-max``
(correlation profile of a design), ``bound`` (minimum-coverage upper
bound), ``curve`` (bound against |rho|_max for several sample sizes) and
``verify`` (named Monte Carlo check suites).  ``bound`` and ``curve``
write one CSV row per ``BoundResult``; the coverage rule and the gamma
search behind them take no options.

Flags can come from a defaults file named as ``@FILE``: argparse reads it
as one token per line (``--n=14``, ``--a=-1,0.5``), skips blank lines and
splices the tokens in where ``@FILE`` stands, so flags after it win.  The
file may start with the subcommand itself: ``matabound @run.args
--rho-max 0.3``.

Exit codes: 0 success, 2 validation/input error, 3 numerical failure
(including a failed verify suite).  The exception's type decides the code:
a ``ValueError`` (``RankDeficient`` among them) is bad input and exits 2, a
``MatacoverError`` is a computation that failed its own check and exits 3.
Summary lines print at 6 significant digits; CSV payloads are written at
full precision so that re-reading them reproduces the computed values bit
for bit.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import __version__
from .bound import BoundResult, bound_curve, resolve_d, upper_bound
from .errors import MatacoverError
from .interval import MataRequest, solve_interval
from .linreg import RegressionProblem, correlation_profile
from .suites import SUITES
from .weights import WeightSpec

CSV_COLUMNS = ("n", "m", "d", "alpha", "rho_max_abs", "gamma_star", "upper_bound")
# Most values a --rho-grid range may give: a curve costs one bound per cell.
_RHO_GRID_MAX = 10_000


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def read_csv_matrix(path: str, header: str = "auto") -> np.ndarray:
    """Read a numeric CSV into a matrix, skipping any header row.

    ``header`` is 'auto' (non-numeric first row means header), 'yes' or
    'no'.  Malformed cells are reported with 1-based row/column.
    """
    try:
        with open(path, newline="") as fh:
            raw = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if not raw:
        raise ValueError(f"{path}: empty file")

    def parse_row(cells, rownum):
        out = []
        for j, cell in enumerate(cells):
            try:
                out.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}: row {rownum}, column {j + 1}: not a number: {cell!r}"
                ) from None
        return out

    first_numeric = True
    try:
        [float(c) for c in raw[0]]
    except ValueError:
        first_numeric = False
    skip = header == "yes" or (header == "auto" and not first_numeric)
    if skip:
        raw = raw[1:]
        if not raw:
            raise ValueError(f"{path}: no data rows below the header")
    data = [parse_row(row, i + 1 + skip) for i, row in enumerate(raw)]
    width = len(data[0])
    for i, row in enumerate(data):
        if len(row) != width:
            raise ValueError(f"{path}: row {i + 1 + skip} has "
                             f"{len(row)} cells, expected {width}")
    return np.asarray(data)


def _split_entries(text: str, what: str) -> list[str]:
    """The comma-separated entries of flag ``what``: none if ``text`` holds
    only commas and blanks; an empty entry among others is refused, so that
    no entry shifts into another's place."""
    entries = [t.strip() for t in text.split(",")]
    if not any(entries):
        return []
    if not all(entries):
        raise ValueError(f"{what} has an empty entry in {text!r}")
    return entries


def _parse_vector(text: str, what: str) -> np.ndarray:
    entries = _split_entries(text, what)
    try:
        return np.array([float(t) for t in entries])
    except ValueError as exc:
        raise ValueError(f"cannot parse {what} {text!r}: comma-separated numbers expected") from exc


def _add_rule_flags(sp) -> None:
    sp.add_argument("--alpha", type=float, default=0.05,
                    help="two-sided miss probability, in (0, 0.5] (default: 0.05)")
    sp.add_argument("--d-rule", default="aic",
                    help="aic, bic, or fixed:<value> (also plain number)")


def _add_bound_flags(sp) -> None:
    sp.description = ("Coverage is integrated in (t, y) = (x/y, y) by adaptive Gauss-Kronrod "
                      "7/15 panels; a value whose error estimate exceeds 1e-6 exits with 3.")
    sp.add_argument("--p", type=int, required=True)
    _add_rule_flags(sp)


def _add_data_flags(sp) -> None:
    sp.add_argument("--data", required=True, help="CSV file with the design matrix")
    sp.add_argument("--a", required=True,
                    help="interest vector, comma separated; a vector whose first "
                         "entry is negative is written --a=-1,0.5")
    sp.add_argument("--q", type=int, required=True,
                    help="number of protected leading columns (never dropped)")
    sp.add_argument("--header", choices=("auto", "yes", "no"), default="auto",
                    help="whether the CSV has a header row (default: auto-detect)")


class _ArgumentParser(argparse.ArgumentParser):
    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        # a blank line in an @FILE holds no argument, not an empty one
        return [arg_line] if arg_line.strip() else []


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="matabound",
        description="Model-averaged tail-area intervals and coverage bounds",
        epilog="@FILE reads arguments from FILE, one per line (for example --n=14 or "
               "--a=-1,0.5), and skips blank lines; flags after @FILE win, and FILE may "
               "start with the subcommand.",
        fromfile_prefix_chars="@",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("interval", help="tail-area interval from CSV data")
    _add_data_flags(sp)
    _add_rule_flags(sp)
    sp.set_defaults(handler=cmd_interval)

    sp = sub.add_parser("rho-max", help="correlation profile and |rho|_max")
    _add_data_flags(sp)
    sp.add_argument("--response", action="store_true",
                    help="treat the last CSV column as the response and drop it")
    sp.set_defaults(handler=cmd_rho_max)

    sp = sub.add_parser("bound", help="upper bound on minimum coverage")
    sp.add_argument("--rho-max", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    _add_bound_flags(sp)
    sp.add_argument("--out", help="write the CSV row to this file")
    sp.set_defaults(handler=cmd_bound)

    sp = sub.add_parser("curve", help="bound against |rho|_max for several n")
    sp.add_argument("--n", required=True, help="comma-separated integer sample sizes")
    _add_bound_flags(sp)
    sp.add_argument("--rho-grid", default="0:0.95:0.05",
                    help="start:stop:step or comma-separated values")
    sp.add_argument("--out", help="write the CSV table to this file")
    sp.set_defaults(handler=cmd_curve)

    sp = sub.add_parser("verify", help="run a named Monte Carlo check suite")
    sp.add_argument("suite", choices=sorted(SUITES))
    sp.add_argument("--reps", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=20240800)
    sp.set_defaults(handler=cmd_verify)
    return ap


def _problem_from_args(args, with_response: bool) -> RegressionProblem:
    data = read_csv_matrix(args.data, args.header)
    if with_response:
        if data.shape[1] < 2:
            raise ValueError("need at least one design column plus the response")
        X, y = data[:, :-1], data[:, -1]
    else:
        X, y = data, None
    return RegressionProblem(X, _parse_vector(args.a, "--a"), q=args.q, y=y)


def cmd_interval(args) -> int:
    prob = _problem_from_args(args, with_response=True)
    d = resolve_d(args.d_rule, prob.n)
    iv = solve_interval(MataRequest(prob, WeightSpec.gic(prob.n, d), alpha=args.alpha))
    print(f"n={prob.n} p={prob.p} q={prob.q} models={len(iv.weights_used)} "
          f"alpha={_fmt(args.alpha)} d={_fmt(d)}")
    print(f"interval lower = {_fmt(iv.lower)}")
    print(f"interval upper = {_fmt(iv.upper)}")
    print("top model weights (dropped 0-based columns : weight):")
    top = sorted(iv.weights_used.items(), key=lambda kv: -kv[1])[:10]
    for K, wgt in top:
        label = "{" + ",".join(map(str, K.indices)) + "}" if K.mask else "{} (full)"
        print(f"  {label:24s} {_fmt(wgt)}")
    return 0


def cmd_rho_max(args) -> int:
    prob = _problem_from_args(args, with_response=args.response)
    rho, rho_max_abs, argmax = correlation_profile(prob)
    print("column  rho")
    for j, r in enumerate(rho, start=prob.q):
        mark = "  <- max |rho|" if j == argmax else ""
        print(f"{j:6d}  {_fmt(r)}{mark}")
    print(f"rho_max_abs = {_fmt(rho_max_abs)} at column {argmax}")
    return 0


def _emit_rows(results: list[BoundResult], out_path: str | None) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for res in results:
        cfg = res.cfg
        row = (cfg.n, cfg.m, cfg.d, cfg.alpha, res.rho_max_abs, res.gamma_star, res.upper_bound)
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_bound(args) -> int:
    if not 0.0 <= args.rho_max < 1.0:
        raise ValueError("--rho-max must lie in [0, 1)")
    if args.n <= args.p:
        raise ValueError("--n must exceed --p")
    res = upper_bound(args.rho_max, args.n - args.p, args.n,
                      resolve_d(args.d_rule, args.n), args.alpha)
    if res.rho_max_abs != args.rho_max:
        print(f"note: --rho-max {args.rho_max!r} was clamped to {res.rho_max_abs!r}",
              file=sys.stderr)
    print(f"upper bound on minimum coverage = {_fmt(res.upper_bound)} "
          f"(gamma* = {_fmt(res.gamma_star)}, error estimate {res.error_estimate:.1e})")
    _emit_rows([res], args.out)
    return 0


def _parse_rho_grid(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("--rho-grid range must be start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"cannot parse --rho-grid {text!r}") from None
        if not (0.0 <= start < 1.0 and 0.0 <= stop < 1.0):
            raise ValueError("--rho-grid start and stop must lie in [0, 1)")
        if not 0.0 < step < math.inf:
            raise ValueError("--rho-grid step must be finite and positive")
        if stop < start:
            raise ValueError("--rho-grid range stop must not lie below its start")
        span = (stop - start) / step + 1e-9
        if not span < _RHO_GRID_MAX:  # also an infinite span
            raise ValueError(f"--rho-grid range gives more than {_RHO_GRID_MAX} values")
        count = math.floor(span) + 1
        return [round(start + i * step, 12) for i in range(count)]
    values = [float(v) for v in _parse_vector(text, "--rho-grid")]
    if not values:
        raise ValueError("--rho-grid must give at least one value")
    return values


def cmd_curve(args) -> int:
    entries = _split_entries(args.n, "--n")
    try:
        n_list = [int(v) for v in entries]
    except ValueError:
        raise ValueError(f"cannot parse --n {args.n!r}: comma-separated integers expected") from None
    if not n_list:
        raise ValueError("--n must give at least one sample size")
    if any(n <= args.p for n in n_list):
        raise ValueError("every --n must exceed --p")
    rho_grid = _parse_rho_grid(args.rho_grid)
    if any(not 0.0 <= r < 1.0 for r in rho_grid):
        raise ValueError("--rho-grid values must lie in [0, 1)")
    result = bound_curve(rho_grid, [(n - args.p, n) for n in n_list], args.d_rule, args.alpha)
    _emit_rows(result.rows, args.out)
    worst = max(result.max_increase.values())
    print(f"# curves: {len(n_list)}; worst monotonicity violation: {_fmt(worst)}",
          file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    rows = SUITES[args.suite](reps=args.reps, seed=args.seed)
    failed = [r for r in rows if not r.passed]
    for r in rows:
        print(r)
    print(f"{args.suite}: {len(rows) - len(failed)}/{len(rows)} checks passed")
    return 3 if failed else 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except MatacoverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
