"""Benchmark of the conepde CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  One process runs one workload: set-up, then a
closed loop that issues one operation after the previous one finished,
until ``--seconds`` have passed (at least one operation).  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced operations and reports the per-layer metrics taken from the spans.
The last line of standard output is the JSON result; the lines before it
give the environment, the operation count and the failure fraction.
Scratch files, spans and the result record go to ``.bench_work/``.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 3
# a fresh interpreter's import of the CLI: what every command line pays
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import conepde.cli"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
KERNELS = ("analysis.abp_check_s", "analysis.hoelder_check_s",
           "analysis.doubling_diagnostic_s", "calculus.hoelder_norm_s",
           "regularization.inf_convolution_s", "regularization.upper_envelope_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_operation(workload, state, op_id, tracer=None) -> dict:
    """One operation and its output check; an exception fails the operation."""
    start = time.perf_counter()
    try:
        if tracer is None:
            codes = workload.operation(state)
        else:
            with tracer.active(op_id):
                codes = workload.operation(state)
        wall = time.perf_counter() - start
        problems, err, extra = workload.check(state, codes)
    except Exception:
        traceback.print_exc()
        return {"op": op_id, "traced": tracer is not None, "ok": False,
                "wall": time.perf_counter() - start, "problems": ["exception"]}
    for problem in problems:
        print(f"{workload.name} op {op_id}: {problem}", file=sys.stderr)
    return {"op": op_id, "traced": tracer is not None, "ok": not problems,
            "wall": wall, "err": err, "extra": extra}


def closed_loop(workload, state, seconds, tracer=None) -> list:
    """Operations back to back until ``seconds`` pass; with a tracer every
    second operation is traced and at least one of each kind runs."""
    ops = []
    deadline = time.perf_counter() + seconds
    while len(ops) < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and len(ops) % 2 == 1
        ops.append(run_operation(workload, state, len(ops),
                                 tracer if traced else None))
    return ops


def environment(args, params) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "params": params}


def import_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], check=True, timeout=120,
                   env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return time.perf_counter() - start


def median_of(ops, key):
    return statistics.median(op[key] for op in ops)


def scaling_ops(workload, state, tracer, workdir) -> tuple:
    """Traced operations on the workload's coarser grid, after the timed
    loop; they give each kernel's time exponent in the node count."""
    nodes = workload.scaling_nodes
    small = type(workload)(nodes)
    small_dir = os.path.join(workdir, f"n{nodes}")
    os.makedirs(small_dir)
    small_state = small.setup(small_dir, state["params"])
    small.reference(small_state)
    ops = [run_operation(small, small_state, f"n{nodes}-{i}", tracer) for i in range(3)]
    return ops, small_state


def layer_figures(tracer, state, ops, small_ops, small_state) -> dict:
    from spans import layer_metrics

    def medians(op_list):
        per_op = [layer_metrics(tracer.spans, op["op"], tracer.missing) for op in op_list]
        return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}

    traced = [op for op in ops if op["traced"] and op["ok"]]
    untraced = [op for op in ops if not op["traced"] and op["ok"]]
    if not traced or not untraced:
        return {}
    figures = medians(traced)
    figures["calculus.hoelder_rel_gap"] = statistics.median(
        op["extra"].get("hoelder_rel_gap", 0.0) for op in traced)
    figures["trace_overhead_frac"] = (median_of(traced, "wall")
                                      / median_of(untraced, "wall") - 1.0)
    for k in KERNELS:
        figures[k + ".exp"] = 0.0
    if small_ops and all(op["ok"] for op in small_ops):
        small = medians(small_ops)
        ratio = math.log(state["u"].values.size / small_state["u"].values.size)
        for k in KERNELS:
            if figures[k] > 0.0 and small[k] > 0.0:
                figures[k + ".exp"] = math.log(figures[k] / small[k]) / ratio
    return figures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "conepde", "cli.py")):
        print(f"bench: no conepde sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    # BLAS/OpenMP pools read these when numpy loads; all workloads are
    # single-threaded today, so cap the pools at the core count
    for var in THREAD_VARS:
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)

    import numpy as np

    import conepde.cli
    if not os.path.abspath(conepde.cli.__file__).startswith(SRC + os.sep):
        print(f"bench: imported conepde from {conepde.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    from spans import Tracer

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    params = workload.draw(np.random.default_rng(args.seed))
    workdir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)

    # set-up: imports in a fresh interpreter, config generation and the
    # workload's set-up commands; repeated, and the median reported
    setup_times = []
    for _ in range(SETUP_REPS):
        os.makedirs(workdir, exist_ok=True)
        imports = import_seconds()
        start = time.perf_counter()
        state = workload.setup(workdir, params)
        setup_times.append(imports + time.perf_counter() - start)
    workload.reference(state)

    tracer = Tracer() if args.trace else None
    ops = closed_loop(workload, state, args.seconds, tracer)
    if tracer is None:
        done = [op for op in ops if op["ok"]]
        figures = {
            "wall_s": median_of(done, "wall") if done else 0.0,
            "setup_s": statistics.median(setup_times),
            "err_max": max(op["err"] for op in done) if done else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        small_ops, small_state = [], None
        if workload.scaling_nodes:
            small_ops, small_state = scaling_ops(workload, state, tracer, workdir)
        figures = layer_figures(tracer, state, ops, small_ops, small_state)
        ops += small_ops
        tracer.write(os.path.join(workdir, "spans.json"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: (figures[m["name"]], m["unit"])
               for m in declared if m["name"] in figures}

    failed = sum(1 for op in ops if not op["ok"])
    correct = failed == 0 and len(metrics) == len(declared)
    env = environment(args, params)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"ops {len(ops)} failed {failed} fail_frac {failed / len(ops):.4f} "
          f"setup_reps {SETUP_REPS} setup_s_each "
          + ",".join(f"{t:.4f}" for t in setup_times)
          + " walls " + ",".join(f"{op['wall']:.4f}" for op in ops))
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({"env": env, "ops": ops, "setup_times": setup_times,
                   "result": result}, fh, indent=1, default=str)
        fh.write("\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
