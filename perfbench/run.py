"""rssinav benchmark: run one workload in this fresh process and print its metrics.

    python3 perfbench/run.py --workload {train,trials,online} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` times the workload for ``--seconds`` seconds with
nothing wrapped and prints the end-to-end metrics, with timings at the
nominal machine speed of ``speed.py``.  ``--trace 1`` runs a
fixed number of operations untraced, then the same operations with every
layer function wrapped, and prints the per-layer metrics and the tracing
overhead; its spans go to ``.perfbench_runs/trace-<workload>-seed<N>.jsonl``.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}``.
The lines before it give every metric with its unit and direction, and a
``report`` line with the machine, the BLAS set-up and workload detail.
"""

import os
import sys

sys.dont_write_bytecode = True  # leave no caches in the checkout
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
HARD_STOP_S = 150.0  # the timed loop ends here even if a workload's minimum is not met
TRACE_PAIRS = 2  # untraced/traced pass pairs in a traced run
SETUP_REPEATS, SETUP_MIN_S = 3, 8.0  # set up at least this often and this long in all; setup_s is the median
TIMES, RATES = ("setup_s", "op_p50_ms"), ("ops_per_s",)  # the metrics reported at nominal machine speed


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # the layout of numpy's build report varies between versions
        blas = {"error": repr(exc)}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def timed(workload, seconds: float, started: float) -> dict:
    """Set up, warm up, then run the workload's operations for ``seconds``;
    timings are reported at the nominal machine speed (see speed.py).

    The set-up is repeated at even intervals through the timed loop, so its
    median sees the same machine speed as the operations and the reference.
    Repeated back to back before the loop, it spread by 0.27 (quartile
    distance / median) over ten seeds on ``trials``, because the machine's
    speed drifts over seconds."""
    from speed import NOMINAL_S, SpeedProbe

    probe = SpeedProbe()

    def set_up() -> float:
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
        probe.catch_up()
        return setup_s[-1]

    setup_s = []
    repeats = max(SETUP_REPEATS, math.ceil(SETUP_MIN_S / set_up()))
    workload.warmup()
    gc.collect()
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    while (time.perf_counter() < deadline or workload.steps < workload.min_steps) and time.perf_counter() - started < HARD_STOP_S:
        operations_s = time.perf_counter() - loop_start - sum(setup_s[1:])
        if len(setup_s) < repeats and operations_s >= (len(setup_s) - 0.5) * seconds / (repeats - 1):
            deadline += set_up()  # the operations still get ``seconds``
        workload.step()
        probe.catch_up()
    workload.verify()
    raw = {"setup_s": statistics.median(setup_s), **workload.metrics()}
    factor = probe.factor()
    workload.speed_info = {
        "setup_runs": len(setup_s),
        "reference_median_s": statistics.median(probe.samples),
        "reference_samples": len(probe.samples),
        "nominal_s": NOMINAL_S,
        "raw": raw,
    }
    metrics = {name: value * factor if name in TIMES else value / factor if name in RATES else value for name, value in raw.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def traced(workload, names, trace_path) -> dict:
    """Alternate untraced and traced passes over the same operations; the
    per-layer metrics sum over the traced passes."""
    from layers import TARGETS, per_layer_value
    from tracer import Tracer

    def one_pass():
        workload.steps = 0  # the same operations each pass, so their outputs are compared
        t0 = time.perf_counter()
        for _ in range(workload.trace_steps):
            workload.step()
        return time.perf_counter() - t0

    workload.setup()
    workload.warmup()
    tracer = Tracer()
    tracer.calibrate()
    untraced_s = traced_s = 0.0
    for _ in range(TRACE_PAIRS):
        gc.collect()
        untraced_s += one_pass()
        tracer.install(TARGETS)
        workload.mark = tracer.set_request
        gc.collect()
        try:
            tracer.begin(request=f"{workload.name}-seed{workload.seed}")
            one_pass()
            traced_s += tracer.end()
        finally:
            tracer.uninstall()
            workload.mark = lambda request: None
    workload.verify()
    tracer.write_jsonl(trace_path)

    special = {
        "trace.wall_s": traced_s,
        "trace.wrapper_s": tracer.wrapper_s,
        "trace_overhead": traced_s / untraced_s,
    }
    workload.trace_info = {
        "absent_targets": tracer.absent,
        "untraced_s": untraced_s,
        "wrapper_cost_us": {
            "span": 1e6 * (tracer.inner_cost[False] + tracer.outer_cost[False]),
            "leaf": 1e6 * (tracer.inner_cost[True] + tracer.outer_cost[True]),
        },
        "layer_self_s": sum(s.self_s for n, s in tracer.stats.items() if n != "harness"),
        "accounted_share": (sum(s.self_s for s in tracer.stats.values()) + tracer.wrapper_s) / traced_s,
        "spans": len(tracer.spans),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return {name: special[name] if name in special else per_layer_value(tracer, name) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "rssinav" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'rssinav'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rssinav

    if Path(rssinav.__file__).resolve().parent != SRC / "rssinav":
        print(f"error: imported rssinav from {rssinav.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS or args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        if args.trace:
            trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.jsonl"
            values = traced(workload, [m["name"] for m in wanted], trace_path)
        else:
            values = timed(workload, args.seconds, started)
        report = workload.report()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in wanted:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:>40} = {value:<14.6g} {m['unit']:<6} ({m['better']} is better)")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "machine": machine(),
        "detail": report,
        "speed": getattr(workload, "speed_info", None),
        "trace_info": getattr(workload, "trace_info", None),
        "output_sha256": {str(k): v for k, v in workload.hashes.items()},
        "problems": workload.problems,
    }
    print("report " + json.dumps(detail))
    print(json.dumps({"correct": workload.correct, "attempted": workload.attempted, "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
