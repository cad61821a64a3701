"""The repository's benchmark: one workload per run, checked, one JSON line out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_stream --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` runs the workload twice: first exactly as
``--trace 0`` does, then once more (one set-up) with the layer wrappers
of ``tracing.py`` installed.  It prints the tracing overhead on every
end-to-end metric and reports the per-layer metrics.
The last line of standard output is always the result object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

See ``perfbench/README.md`` for the workloads and the metric mapping.
"""

import argparse
import asyncio
import json
import math
import os
import platform
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

WORKLOADS = ("serve_zipf", "serve_stream", "library_large")

# Child-process hygiene: one hash seed, one OpenMP/BLAS thread.
FIXED_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Tail percentile per workload: the highest whole percentile that leaves
# at least ten samples beyond it at the workload's smallest expected
# per-run search count in a 30 s run (441, 167 and 100 searches).
TAIL_PERCENTILE = {"serve_zipf": 97, "serve_stream": 94,
                   "library_large": 90}

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("rss_peak_mb", "MB"),
    ("cover_mean", "vertices"),
]


class Context:
    def __init__(self, seed, groups, loop):
        self.root = ROOT
        self.seed = seed
        self.work = WORK
        self.groups = groups
        self.loop = loop
        env = dict(os.environ)
        env.update(FIXED_ENV)
        env["PYTHONPATH"] = SRC
        self.child_env = env


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def fingerprint():
    import numpy

    with open("/proc/loadavg") as handle:
        load = handle.read().split()[:3]
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg": [float(x) for x in load],
            "platform": platform.platform()}


def end_to_end(workload, outcome):
    """The end-to-end metrics of one measured phase."""
    searches = outcome["searches"]
    updates = outcome["updates"]
    if workload == "library_large":
        latencies = [(t1 - t0) / 1e6 for _p, _a, t0, t1 in searches]
        update_times = [(t1 - t0) / 1e6 for _p, _a, t0, t1 in updates]
    else:
        latencies = [(t1 - t0) / 1e6 for _g, _p, _a, t0, t1 in searches]
        update_times = [(t1 - t0) / 1e6 for _g, _p, _a, t0, t1 in updates]
    completed = outcome["attempted"] - outcome["failed"]
    return {
        "setup_s": statistics.median(outcome["setup_samples"]),
        "throughput_rps": completed / outcome["elapsed"],
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": percentile(latencies,
                                      TAIL_PERCENTILE[workload]),
        "update_p50_ms": statistics.median(update_times),
        "rss_peak_mb": outcome["rss_mb"],
        "cover_mean": outcome["cover_mean"],
    }


def run_workload(ctx, workload, seconds, trace_dir=None, setup_repeats=None):
    if workload == "library_large":
        import library

        if trace_dir is not None:
            import tracing

            tracing.install(trace_dir)
        return library.run_library(ctx, seconds, setup_repeats or 3)
    import serve

    runner = serve.run_zipf if workload == "serve_zipf" else serve.run_stream
    return runner(ctx, seconds, trace_dir=trace_dir,
                  setup_repeats=setup_repeats or 5)


def describe(workload, outcome):
    searches = len(outcome["searches"])
    lines = ["{}: {} ops ({} searches, {} updates) in {:.2f}s, {} failed; "
             "{} distinct answers checked, {} repeats compared, {} "
             "greedy/tree pairs".format(
                 workload, outcome["attempted"], searches,
                 len(outcome["updates"]), outcome["elapsed"],
                 outcome["failed"], outcome["distinct_answers"],
                 outcome["repeat_answers"], outcome["guarantee_pairs"])]
    if "stats" in outcome:
        serving = outcome["stats"]["serving"]
        lines.append("result cache: {} cached, {} coalesced of {} searches"
                     .format(serving["requests_cached"],
                             serving["requests_coalesced"], searches))
    if "recovery_checked" in outcome:
        lines.append("planted recovery checked on {} answers".format(
            outcome["recovery_checked"]))
    lines.append("setup samples: " + ", ".join(
        "{:.3f}s".format(x) for x in outcome["setup_samples"]))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no program source under {}; nothing to "
              "benchmark".format(SRC), file=sys.stderr)
        return 2
    if any(os.environ.get(key) != value for key, value in FIXED_ENV.items()):
        env = dict(os.environ)
        env.update(FIXED_ENV)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)

    import checker
    from procs import ProcessGroups

    groups = ProcessGroups(WORK)
    stale = groups.stale()
    if stale:
        print("perfbench: processes of an earlier run are still alive "
              "(process groups {}); refusing to start".format(stale),
              file=sys.stderr)
        return 3
    print("fingerprint: " + json.dumps(fingerprint()))
    problems = checker.self_test()
    for problem in problems:
        print("checker self-test FAILED: " + problem)

    loop = asyncio.new_event_loop()
    ctx = Context(args.seed, groups, loop)
    errors = []
    attempted = failed = 0
    try:
        if args.trace == 0:
            outcome = run_workload(ctx, args.workload, args.seconds)
            metrics = end_to_end(args.workload, outcome)
            units = dict(END_TO_END)
            phases = [outcome]
        else:
            import layers
            import tracing

            plain = run_workload(ctx, args.workload, args.seconds)
            trace_dir = os.path.join(WORK, "trace")
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
            traced = run_workload(ctx, args.workload, args.seconds,
                                  trace_dir=trace_dir, setup_repeats=1)
            base = end_to_end(args.workload, plain)
            with_tracing = end_to_end(args.workload, traced)
            for name, unit in END_TO_END:
                print("tracing overhead {}: {:.4g} -> {:.4g} {} ({:+.1f}%)"
                      .format(name, base[name], with_tracing[name], unit,
                              100.0 * (with_tracing[name] / base[name] - 1)
                              if base[name] else 0.0))
            metrics = layers.per_layer(tracing.read_spans(trace_dir),
                                       traced, args.workload)
            units = {name: unit for name, unit, _b in layers.PER_LAYER}
            phases = [plain, traced]
        for outcome in phases:
            for line in describe(args.workload, outcome):
                print(line)
            errors.extend(outcome["errors"])
            attempted += outcome["attempted"]
            failed += outcome["failed"]
    finally:
        loop.close()
    for error in errors[:20]:
        print("CHECK FAILED: " + error)
    for name in units:
        print("{} = {:.6g} {}".format(name, metrics[name], units[name]))
    result = {
        "correct": not errors and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
