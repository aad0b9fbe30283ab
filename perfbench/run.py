"""Benchmark runner for matabound.

    python3 perfbench/run.py --workload {bound,interval,verify,all} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One process, one caller, serial: each op
is timed until its result returns, ``MATA_THREADS`` is cleared and the
BLAS libraries are pinned to one thread.  Passes over the workload's ops
repeat until the next pass would end after ``--seconds``; at least one
pass always runs.  Every op's result is checked (see ``workloads.py``).

Before measuring, ``setup_probe.py`` runs ``SETUP_PROBES`` times in fresh
interpreters to time set-up.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

    setup_s      median set-up time: import of matabound plus inputs
    wall_s       median time of one pass over the workload's ops
    op_s_median  median time of one op over all passes
    pass_share   ops that passed their check / ops attempted
    peak_rss_mb  peak resident memory of this process

With ``--trace 1`` plain and traced passes alternate; the traced ones
wrap the package's layers (``layertrace.py``) and give the per-layer
metrics, each the median over traced passes.  ``*_s`` metrics are totals
per pass, ``*_ms``/``*_us`` means per call, counts are per pass.
``trace.overhead_s`` is the median traced pass time minus the median
plain one.

Each run also writes provenance, every op record and, when traced, the
spans with their self times to ``.perfbench/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("bound", "interval", "verify")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def declared_metrics(root: str, trace: bool) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order, for the run's mode."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


@dataclass
class OpRecord:
    name: str
    seconds: float
    ok: bool
    valid: bool
    detail: str
    abs_err: float = 0.0


@dataclass
class PassRecord:
    traced: bool
    seconds: float
    ops: list
    span_id: int | None = None


def pin_environment() -> None:
    """Serial execution: no package thread pool, one BLAS thread."""
    os.environ.pop("MATA_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def setup_probe(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_op(mb, op, tracer) -> OpRecord:
    span = tracer.span("op", op=op.name) if tracer else nullcontext()
    t0 = time.perf_counter()
    try:
        with span:
            result = op.run(mb)
    except Exception as exc:  # an op that raises is counted, the run goes on
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return OpRecord(op.name, seconds, False, False, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    v = op.check(result)
    return OpRecord(op.name, seconds, v.ok, v.valid, v.detail, v.abs_err)


def run_pass(mb, ops, tracer) -> PassRecord:
    installed = tracer.installed() if tracer else nullcontext()
    with installed:
        span = tracer.span("pass") if tracer else nullcontext()
        t0 = time.perf_counter()
        with span as s:
            records = [run_op(mb, op, tracer) for op in ops]
        seconds = time.perf_counter() - t0
    return PassRecord(tracer is not None, seconds, records, s.id if tracer else None)


def measure(mb, ops, seconds: float, tracer) -> list[PassRecord]:
    """Closed loop over passes; traced and plain passes alternate when tracing."""
    passes: list[PassRecord] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(mb, ops, tracer if traced else None))
        longest = max(p.seconds for p in passes)
        need_traced = tracer is not None and not any(p.traced for p in passes)
        if not need_traced and time.perf_counter() - start + longest > seconds:
            return passes


def end_to_end_metrics(passes, probes) -> dict:
    ops = [r for p in passes for r in p.ops]
    return {
        "setup_s": statistics.median(p["import_s"] + p["inputs_s"] for p in probes),
        "wall_s": statistics.median(p.seconds for p in passes),
        "op_s_median": statistics.median(r.seconds for r in ops),
        "pass_share": sum(r.ok for r in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def pass_layer_metrics(spans, pass_rec: PassRecord) -> dict:
    from layertrace import descendants, self_times

    inner = descendants(spans, pass_rec.span_id)
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in inner:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def count(name, key=None):
        group = by_name.get(name, ())
        return sum(s.counts.get(key, 0) for s in group) if key else len(group)

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    sims = by_name.get("mcverify.simulate_coverage", ())
    sim_total = sum(s.duration for s in sims)
    sim_self = sum(selfs[s.id] for s in sims)
    sim_ids = {s.id for s in sims}
    audits = [s for s in inner if s.parent in sim_ids and s.name == "interval.solve_interval"]
    points = count("coverage.delta_u", "points")
    models = count("linreg.fit_family", "models")
    solves = by_name.get("interval.solve_interval", ())
    return {
        "coverage.grid_build_s": total("coverage.grid_build"),
        "coverage.delta_u_s": total("coverage.delta_u"),
        "coverage.delta_u_points": points,
        "coverage.delta_u_ns_per_point": per(total("coverage.delta_u"), points, 1e9),
        "coverage.coverage_probability_s": total("coverage.coverage_probability"),
        "coverage.coverage_at_ms": per(total("coverage.coverage_at"),
                                       count("coverage.coverage_at"), 1e3),
        "coverage.coverage_at_calls": count("coverage.coverage_at"),
        "bound.search_self_s": sum(selfs[s.id] for s in by_name.get("bound.upper_bound", ())),
        "linreg.fit_family_us_per_model": per(total("linreg.fit_family"), models, 1e6),
        "linreg.models_fitted": models,
        "linreg.problem_init_us": per(total("linreg.problem_init"),
                                      count("linreg.problem_init"), 1e6),
        "linreg.problem_inits": count("linreg.problem_init"),
        "weights.model_weights_ms": per(total("weights.model_weights"),
                                        count("weights.model_weights"), 1e3),
        "interval.solve_interval_self_ms": per(sum(selfs[s.id] for s in solves),
                                               len(solves), 1e3),
        "interval.solve_calls": len(solves),
        "mcverify.kernel_s_per_1e5": per(sim_self, count("mcverify.simulate_coverage", "reps"),
                                         1e5),
        "mcverify.audit_share": per(sim_total - sim_self, sim_total, 1.0),
        "mcverify.audited_reps": len(audits),
        "mcverify.event_mismatches": sum(s.error == "EventMismatch" for s in sims),
        "bound.abs_err": max((r.abs_err for r in pass_rec.ops), default=0.0),
    }


def layer_metrics(spans, passes, probes) -> dict:
    traced = [p for p in passes if p.traced]
    per_pass = [pass_layer_metrics(spans, p) for p in traced]
    out = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    out["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    out["trace.overhead_s"] = (statistics.median(p.seconds for p in traced)
                               - statistics.median(p.seconds for p in passes if not p.traced))
    return out


def git_commit(root: str) -> str | None:
    """HEAD commit read from .git without running git (None outside a checkout)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: str, seed: int) -> dict:
    import matabound
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "package_version": matabound.__version__,
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
        "quadrature_config": asdict(matabound.QuadratureConfig()),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    from layertrace import Tracer, self_times
    from workloads import make_ops

    probe_results = [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    import matabound as mb

    ops = make_ops(workload, seed)
    tracer = Tracer() if trace else None
    passes = measure(mb, ops, seconds, tracer)
    records = [r for p in passes for r in p.ops]
    if trace:
        metrics = layer_metrics(tracer.spans, passes, probe_results)
    else:
        metrics = end_to_end_metrics(passes, probe_results)
    summary = {
        "correct": all(r.valid for r in records),
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared_metrics(root, trace).items()},
    }
    selfs = self_times(tracer.spans) if tracer else {}
    detail = {
        "workload": workload, "seconds": seconds, "trace": trace,
        "provenance": provenance(root, seed),
        "setup_probes": probe_results,
        "passes": [{"traced": p.traced, "seconds": p.seconds,
                    "ops": [asdict(r) for r in p.ops]} for p in passes],
        "summary": summary,
        "spans": [s.as_list() + [selfs[s.id]] for s in tracer.spans] if tracer else [],
    }
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(detail, fh)
    return summary


def report(workload: str, summary: dict) -> None:
    for name, m in summary["metrics"].items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    attempted = summary["attempted"]
    print(f"{workload} fail_share = {summary['failed'] / attempted:.6g} share")
    print(f"{workload} op_samples = {attempted} count")


def run_all(args) -> int:
    """Each workload in its own process (peak memory is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited {out.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        summary = json.loads(lines[-1])
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for name, m in summary["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "matabound", "__init__.py")):
        print("perfbench: src/matabound not found; run from the repository root",
              file=sys.stderr)
        return 2
    pin_environment()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(root, "src"))
    summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    report(args.workload, summary)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
