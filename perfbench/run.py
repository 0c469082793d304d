#!/usr/bin/env python3
"""oed-dopt benchmark: four workloads, end-to-end metrics and traced per-layer metrics.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload mesh-rand --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1     # each workload in its own process
    python3 perfbench/run.py --workload all --smoke      # tiny sizes, a few seconds each

Run it from anywhere; it builds nothing and imports the package from the
``src/`` next to this directory.  It prints a report (every metric by name
and unit, the checks and the environment) and, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and the
``metrics`` that BENCHMARK.json lists: its end-to-end metrics with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The full record,
and the spans of a traced run, go to ``.perfbench_out/``.  The exit code is 0
only if every correctness check passed.
"""

import os

THREAD_VARS = ("OED_DOPT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported: one BLAS thread

import argparse
import ctypes
import json
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

import numpy as np
import scipy

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# units of the end-to-end metrics the report prints besides the ones
# BENCHMARK.json bounds (those take their units from BENCHMARK.json)
REPORT_ONLY_UNITS = {
    "design_s": "s",
    "analysis_s": "s",
    "eval_s.p50": "s",
    "eval_s.p90": "s",
    "J_rel_err": "ratio",
    "grad_rel_err": "ratio",
    "design_logdet": "nats",
    "failed_frac": "ratio",
}


def import_package():
    """Import oed_dopt from this checkout's src/ or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "oed_dopt" / "__init__.py").is_file():
        print(f"perfbench: no oed_dopt package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import oed_dopt

    if Path(oed_dopt.__file__).resolve().parent != (src / "oed_dopt").resolve():
        print(f"perfbench: imported oed_dopt from {oed_dopt.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def environment(wl, seed: int) -> dict:
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long

    def cache(code):  # glibc _SC_LEVEL1_DCACHE_SIZE = 188, L2 = 191, L3 = 194
        size = libc.sysconf(code)
        return int(size) if size > 0 else None

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return {k: dep.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "cache_bytes": {"L1d": cache(188), "L2": cache(191), "L3": cache(194)},
        "problem_n": wl.problem.G.n,
        "problem_n_y": wl.problem.G.n_y,
        "working_set_mib": wl.working_set_mib(),
    }


def percentile_report(latency):
    """(p50, p90 or None, note): p90 only with at least 10 samples beyond it."""
    n = len(latency)
    p50 = float(np.median(latency))
    if n >= 100:
        return p50, float(np.percentile(latency, 90)), f"n={n}"
    if n >= 11:
        q = int(100 * (1 - 10 / n))
        return p50, None, f"n={n} < 100; highest supported p{q} = {np.percentile(latency, q):.6g} s"
    return p50, None, f"n={n} < 11; no tail percentile supported"


def one_session(wl):
    t_a = time.perf_counter()
    state, setup_s, setup_solves = wl.setup()
    t_b = time.perf_counter()
    work = wl.work(state)
    return {
        "setup_s": setup_s,
        "design_s": work["design_s"],
        "analysis_s": work["analysis_s"],
        "session_s": setup_s + (work["design_s"] or 0.0) + (work["analysis_s"] or 0.0),
        "pde_solves": setup_solves + work["solves"],
        "setup_start": t_a,
        "setup_end": t_b,
    }


def measure(wl, seconds: float, setups: int) -> tuple:
    """Untraced closed loop: sessions for ``seconds``, with set-ups spread over the run.

    The ``setups`` set-ups run in blocks: one before each of the workload's
    ``min_sessions`` sessions and the rest after the last session, so their
    median spans the whole run rather than its first seconds.
    """
    setup_s = []

    def set_up(times):
        for _ in range(times):
            state, dt, solves = wl.setup()
            setup_s.append(dt)
        return state, solves

    block = max(1, setups // (wl.min_sessions + 1))
    sessions = []
    start = time.perf_counter()
    while True:
        if len(sessions) < wl.min_sessions:
            state, setup_solves = set_up(block)
        elif wl.fresh_state:
            state, setup_solves = set_up(1)
        work = wl.work(state)
        sessions.append(dict(work, setup_solves=setup_solves))
        if len(sessions) >= wl.min_sessions and time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if len(setup_s) < setups:
        set_up(setups - len(setup_s))
    spent = [s["setup_solves"] + s["solves"] for s in sessions]
    wl.run.check("session_solves_equal", len(set(spent)) == 1, f"sessions spent {spent}")

    def med(key):
        values = [s[key] for s in sessions if s[key] is not None]
        return float(np.median(values)) if values else None

    p50, p90, note = percentile_report(wl.latency)
    m = {
        "setup_s": float(np.median(setup_s)),
        "design_s": med("design_s"),
        "analysis_s": med("analysis_s"),
        "eval_s.p50": p50,
        "eval_s.p90": p90,
        "pde_solves": float(spent[0]),  # equal in every session, checked above
        "peak_rss_mb": peak_rss_mb,
    }
    m["session_s"] = m["setup_s"] + (m["design_s"] or 0.0) + (m["analysis_s"] or 0.0)
    notes = {
        "setup_s": f"median of {len(setup_s)} set-ups",
        "design_s": f"median of {len(sessions)} sessions",
        "analysis_s": f"median of {len(sessions)} sessions",
        "session_s": "setup_s + design_s + analysis_s",
        "eval_s.p50": f"n={len(wl.latency)}",
        "eval_s.p90": note,
        "pde_solves": "forward + adjoint columns of one session",
    }
    return m, notes, {"setup_s": setup_s, "sessions": sessions}


def traced(wl, run):
    """One untraced and one traced session; per-layer metrics from the traced one."""
    plain = one_session(wl)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer = tracing.Tracer(caught)
        with tracer.installed():
            session = one_session(wl)
    run.check(
        "trace_pde_solves_match",
        plain["pde_solves"] == session["pde_solves"],
        f"untraced {plain['pde_solves']}, traced {session['pde_solves']}",
    )
    overhead = session["session_s"] / plain["session_s"] - 1.0
    return tracer, session, plain, overhead


def print_table(title, rows):
    print(title)
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<30} {shown:>14} {unit:<6} {note}")


def run_one(args, spec) -> int:
    import_package()
    from workloads import WORKLOADS, Run, lu_fill

    run = Run()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke}
    try:
        wl = WORKLOADS[args.workload](args.seed, args.smoke, run, scratch)
        with wl.probes():
            if args.trace:
                tracer, session, plain, overhead = traced(wl, run)
            else:
                warnings.filterwarnings("ignore", message=tracing.DEFICIENT)
                e2e, notes, samples = measure(wl, args.seconds, 1 if args.smoke else wl.setups)
        wl.finish()
    except Exception:
        traceback.print_exc()
        run.failed += 1
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1), "failed": run.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record["environment"] = environment(wl, args.seed)
    record["checks"] = run.checks
    print(f"== perfbench {args.workload}  seed={args.seed}  trace={args.trace}  smoke={args.smoke} ==")
    print("why: " + next(w["why"] for w in spec["workloads"] if w["name"] == args.workload))
    if args.trace:
        layer = tracing.per_layer_metrics(tracer, session, lu_fill(wl.problem), overhead)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print_table(
            "per-layer metrics (traced session; no layer waits on another: one thread, no queues)",
            [(k, v, units[k], "") for k, v in layer.items()],
        )
        print(
            f"  traced session_s {session['session_s']:.6g} s against untraced {plain['session_s']:.6g} s; "
            f"pde_solves {session['pde_solves']} traced, {plain['pde_solves']} untraced"
        )
        values = layer
        record["per_layer"] = layer
        record["sessions"] = {"traced": session, "untraced": plain}
        spans_path = OUT / f"spans-{tag}.json"
        with open(spans_path, "w") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "count"], "spans": tracer.dump()}, f)
    else:
        e2e.update(wl.accuracy)
        e2e["failed_frac"] = run.failed / max(run.attempted, 1)
        notes["failed_frac"] = f"{run.failed} of {run.attempted} operations"
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | REPORT_ONLY_UNITS
        print_table(
            "end-to-end metrics (untraced)",
            [(k, e2e.get(k), unit, notes.get(k, "")) for k, unit in units.items()],
        )
        values = e2e
        record["end_to_end"] = e2e
        record["notes"] = notes
        record["samples"] = samples

    print("checks:")
    for name, row in run.checks.items():
        status = "ok" if row["failed"] == 0 else f"FAILED ({row['first_failure']})"
        print(f"  {name:<28} {row['passed']} passed, {row['failed']} failed  {status}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    with open(OUT / f"{tag}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)
    print(f"record: {(OUT / f'{tag}.json').relative_to(ROOT)}")

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if values.get(m["name"]) is None:
            print(f"perfbench: metric {m['name']} does not apply to {args.workload}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": units[m["name"]]}
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, names) -> int:
    """Every workload in its own fresh process, one after the other."""
    ok = True
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None:
            ok = False
            summary["failed"] += 1
            continue
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    summary["correct"] = ok and summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0, help="length of the measured closed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny meshes and batches, for tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return run_all(args, names) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
