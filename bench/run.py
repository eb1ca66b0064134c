"""qcorr benchmark: time to a checked Q on one workload, closed loop.

    python3 bench/run.py --workload pairs|triples|routes --seed N --seconds S --trace 0|1

One client runs one op at a time, each op from parsing its state text to a
checked answer, until the ops' measured time reaches S seconds. BLAS is
pinned to one thread. With --trace 0 the last stdout line is a JSON object
carrying the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of a traced replay of the ops of an untraced half-length run, and
the spans go to .bench_out/. See bench/README.md.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SHOWN_FAILURES = 5


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    threads[package.__name__] = getattr(handle, symbol)()
                    break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def setup_seconds(sectors) -> float:
    """Interpreter start through import, bases and identity lifts, in a
    fresh process; the caller takes the median of several."""
    start = perf_counter()
    out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(SRC),
                          json.dumps(sectors)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1]) - start


def run_ops(ops, budget_s, mods, tracer=None):
    """Run ops until their summed latency reaches budget_s (or `ops` ends).
    Returns (latency of each op run in s, [(op, failed checks)]). Ops that
    passed are not kept, so the benchmark's own memory does not grow with
    the number of ops run."""
    import workloads

    latencies, failures = [], []
    ops, elapsed = iter(ops), 0.0
    while elapsed < budget_s:
        op = next(ops, None)
        if op is None:
            break
        start = perf_counter()
        try:
            if tracer is None:
                problems = workloads.run_op(op, mods)
            else:
                with tracer.op(op):
                    problems = workloads.run_op(op, mods)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        latencies.append(perf_counter() - start)
        elapsed += latencies[-1]
        if problems:
            failures.append((op, problems))
    return latencies, failures


def ops_per_second(latencies, cycle: int) -> float:
    """Ops per second over the median complete cycle of the workload's
    templates; one pathological restart (seconds, against ~0.3 s for a
    typical op) then moves one cycle, not the result."""
    cycles = [sum(latencies[i:i + cycle]) for i in range(0, len(latencies) - cycle + 1, cycle)]
    return cycle / statistics.median(cycles) if cycles else len(latencies) / sum(latencies)


def report_failures(failures, attempted) -> None:
    print(f"fail_frac {len(failures) / attempted!r} ({len(failures)}/{attempted})")
    for op, problems in failures[:SHOWN_FAILURES]:
        print(f"FAILED op {op.index} {op.kind} {op.sector} {op.family}: {'; '.join(problems)}",
              file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pairs", "triples", "routes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qcorr" / "__init__.py").is_file():
        print(f"qcorr sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import tracing
    import workloads

    mods = workloads.layer_modules()
    sectors = workloads.sectors(args.workload)
    workloads.set_up(sectors, mods)
    env = environment()
    print("env " + json.dumps(env))

    def generated():
        index = 0
        while True:
            yield workloads.make_op(args.workload, args.seed, index, mods)
            index += 1

    if not args.trace:
        setups = [setup_seconds(sectors) for _ in range(SETUP_REPEATS)]
        lat, failures = run_ops(generated(), args.seconds, mods)
        lat_ms = np.array(lat) * 1e3
        metrics = {
            "ops_per_s": (ops_per_second(lat, len(workloads.CYCLES[args.workload])), "1/s"),
            "op_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
            "op_ms_p90": (float(np.percentile(lat_ms, 90)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        attempted = len(lat)
        print(f"{args.workload} seed {args.seed}: {attempted} ops in {sum(lat)!r} s "
              f"(percentiles over {attempted} samples); set-up runs {setups}")
    else:
        lat, failures = run_ops(generated(), args.seconds / 2, mods)
        # regenerated before patching, so input generation stays untraced
        replay = [workloads.make_op(args.workload, args.seed, i, mods) for i in range(len(lat))]
        tracer = tracing.Tracer()
        with tracing.patched(tracer, mods.values()):
            lat_t, failures_t = run_ops(replay, float("inf"), mods, tracer)
        untraced, traced = len(lat) / sum(lat), len(lat_t) / sum(lat_t)
        metrics = tracing.layer_metrics(tracer)
        metrics.update({
            "trace.ops": (len(lat_t), "count"),
            "trace.ops_per_s_untraced": (untraced, "1/s"),
            "trace.ops_per_s_traced": (traced, "1/s"),
            "trace.overhead_ops_per_s": (untraced - traced, "1/s"),
        })
        print("\n".join(tracing.sector_table(tracer)))
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        trace_file = out / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "env": env, "workload": args.workload, "seed": args.seed,
            "totals": [[sec, name, *row] for (sec, name), row in tracer.totals.items()],
            "spans": tracer.spans, "restarts": tracer.restarts, "searches": tracer.searches,
        }))
        print(f"trace written to {trace_file}")
        attempted, failures = len(lat) + len(lat_t), failures + failures_t

    report_failures(failures, attempted)
    for name, (value, unit) in metrics.items():
        print(f"{name:45} {value!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
