"""Benchmark entry point: one workload at one seed, measured for --seconds.

    python3 perfbench/run.py --workload cli_points --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload trial_plan --seed 2 --seconds 30 --trace 1
    python3 perfbench/run.py --workload exact_kernels --seconds 2 --smoke

Workloads: cli_points, trial_plan, exact_kernels (see README.md). Each is a
closed loop with one caller: iterations run back to back until the next one
would end after --seconds (at least one; two with --trace 1).

The last line of standard output is the result object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 untraced and traced iterations alternate, the
metrics are the per-layer ones, and the spans are written to
.perfbench/spans-<workload>-seed<seed>.jsonl. The lines before the result are
a readable table and the environment. --smoke runs tiny sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checkout
import tracing

HERE = Path(__file__).resolve().parent
# set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_S have
# passed, so that a short set-up is repeated enough for a steady median
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_TIMEOUT_S = 150
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def parse_args(argv):
    p = argparse.ArgumentParser(description="modone benchmark")
    p.add_argument("--workload", required=True,
                   choices=["cli_points", "trial_plan", "exact_kernels"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark")
    return p.parse_args(argv)


def measure_setup(workload: str, seed: int, mode: str, work: Path) -> list:
    """Wall times of fresh interpreters that import modone and build the inputs."""
    cmd = [sys.executable, str(HERE / "setup_inputs.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--work", str(work)]
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd)
        # a blocking wait sees the exit at once; Popen.wait(timeout) polls
        # with sleeps of up to 50 ms, which would quantize a 0.25 s set-up
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            rc = proc.wait()
        finally:
            timer.cancel()
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
    return times


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, index, it) -> None:
        self.attempted += len(it.ops)
        self.failures += [(index, op, detail) for op, detail in it.failures.items()]


def measure(modone, bench, args, reference):
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    untraced = tracing.NullTracer()
    tally = Tally()
    walls = {False: [], True: []}
    traced_iters = []
    durations = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        it = workloads.Iteration(tracer if traced else untraced, bench.ops)
        patch = tracer.patched(modone) if traced else contextlib.nullcontext()
        if traced:
            tracer.iteration = index
        t0 = time.perf_counter()
        with patch:
            span_start = tracer.now() if traced else 0.0
            bench.run(it)
            span_end = tracer.now() if traced else 0.0
        walls[traced].append(time.perf_counter() - t0)
        if traced:
            traced_iters.append((index, span_start, span_end))
        bench.check(it)
        if reference is not None:
            it.compare_reference(reference)
        tally.add(index, it)
        index += 1
        now = time.perf_counter()
        durations.append(now - t0)
        if index >= (2 if args.trace else 1) and now + statistics.median(durations) > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not args.trace:
        return tally, walls, {"wall_s": statistics.median(walls[False]),
                              "peak_rss_mb": peak_rss_mb}, None
    tracer.phase = "probe"
    tracer.iteration = index
    it = workloads.Iteration(tracer, ())
    with tracer.patched(modone):
        probes = bench.probes(it)
    tally.add(index, it)
    metrics = tracing.per_layer_metrics(tracer, traced_iters, bench.threads,
                                        walls[False], probes)
    return tally, walls, metrics, tracer


def report(args, env, setup_times, tally, walls, metrics):
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("env " + json.dumps(env))
    print(f"  setup_s        {statistics.median(setup_times):.4f} s  "
          f"(median of {len(setup_times)} fresh interpreters)")
    for traced in (False, True):
        if walls[traced]:
            label = "traced wall_s" if traced else "wall_s"
            print(f"  {label:<15}{statistics.median(walls[traced]):.4f} s  "
                  f"(median of {len(walls[traced])} iterations: "
                  f"{' '.join(f'{w:.3f}' for w in walls[traced])})")
    print(f"  error_rate     {len(tally.failures)}/{tally.attempted} operations failed")
    for index, op, detail in tally.failures[:20]:
        print(f"  FAILED iteration {index} {op}: {detail}")
    if args.trace:
        units = {name: (unit, target, workload) for name, unit, _, target, workload in
                 tracing.PER_LAYER}
        print(f"  {'per-layer metric':<42}{'value':>14}  unit      moves")
        for name, value in metrics.items():
            unit, target, workload = units[name]
            if value or workload in (args.workload, "all"):
                print(f"  {name:<42}{value:>14.6g}  {unit:<9} {target}@{workload}")
    else:
        print(f"  peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        modone = checkout.import_modone()
    except (checkout.CheckoutError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    mode = "smoke" if args.smoke else "full"
    bench_cls = workloads.WORKLOADS[args.workload]
    reference = (workloads.load_reference(mode, args.workload)
                 if args.seed == workloads.DEFAULT_SEED else None)
    work = checkout.WORK / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        try:
            setup_times = measure_setup(args.workload, args.seed, mode, work)
        except (subprocess.SubprocessError, OSError) as exc:
            print(f"perfbench: setup failed: {exc}", file=sys.stderr)
            return 1
        bench = bench_cls(work, mode)
        tally, walls, metrics, tracer = measure(modone, bench, args, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = workloads.environment()
    if tracer is not None:
        spans_path = checkout.WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                                  "mode": mode, "env": env, "metrics": metrics})
    else:
        metrics["setup_s"] = statistics.median(setup_times)
    report(args, env, setup_times, tally, walls, metrics)
    if tracer is not None:
        print(f"  spans: {spans_path.relative_to(checkout.ROOT)}")
    units = (dict(END_TO_END) if not args.trace
             else {name: unit for name, unit, *_ in tracing.PER_LAYER})
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
