"""zetakit benchmark: time to a verified zeta, Fourier or height result.

Run from the root of a checkout (the program is imported from ./src):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --record-reference

One run sets up the workload, then repeats passes over its jobs until
the next pass would end after --seconds (at least one pass).  With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json:

  setup_s      median over fresh processes of the time from process start
               to the first job (interpreter, imports, fields, parsing);
  solve_s      median wall time of one pass, start of the first job to the
               last result, tracing off;
  peak_rss_mb  peak resident memory of this process.

With --trace 1 each pass with tracing off is followed by one with the
tracer installed, and the per-layer metrics are reported: medians over
the traced passes, plus trace.overhead_s.  Spans go to perfbench/out/.

Correctness is checked outside the timed region: each job's result goes
through the workload's own check and must equal the result recorded in
reference.json for the input variant its seed picked.  The last line of
standard output is one JSON object with keys correct, attempted, failed
and metrics.  --all runs every workload in its own process and prints
each metric by name and unit, plus fail_ratio (failed / attempted).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170
# glibc sysconf names for cache sizes (absent from os.sysconf_names)
_SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE = 191, 194


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_workloads():
    """Import zetakit from this checkout's sources, never from elsewhere."""
    if not (SRC / "zetakit" / "__init__.py").is_file():
        die(f"no zetakit sources at {SRC}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import zetakit

    if Path(zetakit.__file__).resolve().parent != SRC / "zetakit":
        die(f"imported zetakit from {zetakit.__file__}, not from {SRC}")
    import workloads

    return workloads


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} not found")
    return json.loads(path.read_text())


def machine():
    import numpy as np

    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "l2_bytes": libc.sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": libc.sysconf(_SC_LEVEL3_CACHE_SIZE),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
    }


def _blas_threads(np):
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# ---------------------------------------------------------------------------
# Timed passes


def run_pass(case, reference, tracer=None):
    """Run every job once; returns (solve seconds, attempted, failed)."""
    from workloads import CheckFailed

    outcomes = []
    start = time.perf_counter()
    for job in case.jobs:
        try:
            if tracer is None:
                result = job.run()
            else:
                with tracer.span(job.label):
                    result = job.run()
            outcomes.append((job, result, None))
        except Exception as exc:  # a failed job is counted, the run goes on
            outcomes.append((job, None, exc))
    solve = time.perf_counter() - start

    failed = 0
    for job, result, exc in outcomes:
        if exc is None:
            try:
                got = json.loads(json.dumps(job.check(result)))
                if job.label not in reference:
                    raise CheckFailed(f"no reference for variant {case.key!r}")
                if got != reference[job.label]:
                    raise CheckFailed(f"result differs from reference: {got}")
            except CheckFailed as err:
                exc = err
        if exc is not None:
            failed += 1
            print(f"FAILED {job.label} [{case.key}]", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)
    return solve, len(outcomes), failed


def measure_setup(workload, seed):
    """Median time from starting a fresh process to its first job."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.split()[-1]) - start)
    return statistics.median(samples)


def run_workload(args, bench):
    workloads = import_workloads()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    make_case = workloads.WORKLOADS[args.workload]
    case = make_case(args.seed)
    reference = json.loads(REFERENCE.read_text()).get(args.workload, {}).get(case.key, {})
    info = machine()
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} variant {case.key}")

    solves, traced_solves, layer_runs, spans = [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        cycle = time.monotonic()
        solve, a, f = run_pass(case, reference)
        solves.append(solve)
        attempted, failed = attempted + a, failed + f
        print(f"pass {len(solves)} solve_s {solve:.4f}")
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            with tracer, tracer.span("pass"):
                with tracer.span("setup"):
                    traced_case = make_case(args.seed)
                solve, a, f = run_pass(traced_case, reference, tracer)
            traced_solves.append(solve)
            attempted, failed = attempted + a, failed + f
            layer_runs.append(tracer.layer_metrics())
            spans.append(tracer.span_records())
            print(f"traced pass {len(traced_solves)} solve_s {solve:.4f}")
        now = time.monotonic()
        if now - start + (now - cycle) > args.seconds:
            break

    if args.trace:
        values = {m["name"]: statistics.median(run.get(m["name"], 0) for run in layer_runs)
                  for m in bench["per_layer"]}
        values["trace.overhead_s"] = statistics.median(traced_solves) - statistics.median(solves)
        OUT.mkdir(exist_ok=True)
        out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"machine": info, "workload": args.workload,
                                   "seed": args.seed, "variant": case.key,
                                   "passes": spans, "layers": layer_runs}))
        print(f"spans written to {out}")
    else:
        values = {"setup_s": setup_s, "solve_s": statistics.median(solves),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench["per_layer" if args.trace else "end_to_end"]}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# Other modes


def run_all(args, bench):
    """Every workload in its own process; one table of metrics."""
    status = 0
    for w in bench["workloads"]:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        if out.returncode != 0:
            print(f"{w['name']}: exit code {out.returncode}")
            status = 1
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        status |= not result["correct"]
        for name, m in result["metrics"].items():
            print(f"{w['name']:16} {name:40} {m['value']:>14.6g} {m['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{w['name']:16} {'fail_ratio':40} {ratio:>14.6g} "
              f"{result['failed']}/{result['attempted']} jobs")
    return status


def record_reference(seeds=300):
    """Record every variant's results (checks must pass) in reference.json."""
    workloads = import_workloads()
    from workloads import CheckFailed

    reference = {}
    for name, make_case in workloads.WORKLOADS.items():
        reference[name] = {}
        for seed in range(seeds):
            case = make_case(seed)
            if case.key in reference[name]:
                continue
            results = {}
            for job in case.jobs:
                try:
                    results[job.label] = json.loads(json.dumps(job.check(job.run())))
                except CheckFailed as err:
                    die(f"{name} [{case.key}] {job.label}: {err}")
            reference[name][case.key] = results
            print(f"{name} [{case.key}] recorded", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        import_workloads().WORKLOADS[args.workload](args.seed)
        print(repr(time.monotonic()))
        return 0
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.record_reference:
        return record_reference()
    if args.all:
        return run_all(args, bench)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        die(f"unknown workload {args.workload!r}")
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
