"""Spans around the calls into modone's modules, timed from outside the library.

The benchmark calls a library function through `Tracer.call`. Calls that the
library makes itself -- the CLI into io/generators/seqcore/stats, and
`run_trials` worker threads into generators/seqcore/stats -- are timed by
`Tracer.patched`, which swaps the attribute the calling module looks up for a
timing wrapper and restores it afterwards. Untraced runs use `NullTracer` and
patch nothing.

`run_trials` runs each trial in a closure, so a trial has no function of its
own to wrap. Each trial starts with a `derive_trial` call, so that call opens
an `experiments.trial` span in its thread. The span ends where its last child
span ends: the next trial in the thread, or the end of `run_trials`, closes it.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

TRIAL = "experiments.trial"
RUN_TRIALS = "experiments.run_trials"
REDUCE_SORT = "seqcore.reduce_sort"   # scale_by_alpha and frac_reduce


@dataclass
class Span:
    id: int
    name: str
    start: float
    thread: str
    parent: Optional[int]
    iteration: int
    phase: str
    end: float = 0.0
    last_child_end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {"kind": "span", "id": self.id, "name": self.name,
                "start": self.start, "end": self.end, "thread": self.thread,
                "parent": self.parent, "iteration": self.iteration,
                "phase": self.phase, **self.attrs}


class NullTracer:
    """Calls straight through; the untraced runs use it."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Keeps spans in memory; `write` saves them when the run ends."""

    def __init__(self):
        self.epoch = time.perf_counter()
        self.spans: list[Span] = []
        self.iteration = 0
        self.phase = "main"
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._open: dict[int, Span] = {}
        self._fork_parent: Optional[int] = None

    def now(self) -> float:
        return time.perf_counter() - self.epoch

    def _stack(self) -> list:
        return self._stacks.setdefault(threading.get_ident(), [])

    def _push(self, name: str) -> Span:
        with self._lock:
            stack = self._stack()
            parent = stack[-1].id if stack else self._fork_parent
            span = Span(id=len(self.spans), name=name, start=self.now(),
                        thread=threading.current_thread().name, parent=parent,
                        iteration=self.iteration, phase=self.phase)
            self.spans.append(span)
            self._open[span.id] = span
            stack.append(span)
            return span

    def _finish(self, span: Span, end: float) -> None:
        # caller holds the lock and has popped the span off its stack
        span.end = end
        del self._open[span.id]
        parent = self._open.get(span.parent)
        if parent is not None:
            parent.last_child_end = max(parent.last_child_end, end)

    def _pop(self, span: Span) -> None:
        end = self.now()
        with self._lock:
            stack = self._stacks[threading.get_ident()]
            while stack and stack[-1] is not span:   # trials left open inside
                inner = stack.pop()
                self._finish(inner, inner.last_child_end or inner.start)
            stack.pop()
            self._finish(span, end)

    def call(self, name, fn, *args, **kwargs):
        return self._wrap(name, fn)(*args, **kwargs)

    # -- wrappers for names that the library looks up ----------------------

    def _wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            span = self._push(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(span)
            if attrs is not None:
                span.attrs.update(attrs(args, result))
            return result
        return traced

    def _wrap_run_trials(self, fn):
        def traced(plan, threads=1):
            span = self._push(RUN_TRIALS)
            span.attrs["threads"] = threads
            self._fork_parent = span.id
            try:
                return fn(plan, threads=threads)
            finally:
                with self._lock:
                    for tid, stack in self._stacks.items():
                        if tid == threading.get_ident():
                            continue
                        while stack and stack[-1].name == TRIAL:
                            trial = stack.pop()
                            self._finish(trial, trial.last_child_end or trial.start)
                self._fork_parent = None
                self._pop(span)
        return traced

    def _wrap_derive_trial(self, fn):
        def traced(*args, **kwargs):
            with self._lock:
                stack = self._stack()
                if stack and stack[-1].name == TRIAL:
                    trial = stack.pop()
                    self._finish(trial, trial.last_child_end or trial.start)
            self._push(TRIAL)
            return fn(*args, **kwargs)
        return traced

    def patched(self, modone):
        """Context manager: library lookups across module boundaries traced."""
        return _Patch(self._hooks(modone))

    def _hooks(self, modone):
        cli, mio, ex, st = modone.cli, modone.io, modone.experiments, modone.stats

        def points(i):
            return lambda args, result: {"points": int(args[i])}

        def seq_points(args, result):
            return {"points": int(args[0].n)}

        def file_bytes(args, result):
            return {"bytes": os.path.getsize(args[0])}

        def k_level(args):
            return "stats.k_level_k3" if args[1].k == 3 else (
                "stats.k_level_k4plus" if args[1].k >= 4 else "stats.k_level_k2")

        hooks = [
            (mio, "write_points", self._wrap("io.write_points", mio.write_points, file_bytes)),
            (mio, "read_points", self._wrap("io.read_points", mio.read_points, file_bytes)),
            (cli, "run_trials", self._wrap_run_trials(cli.run_trials)),
            (ex, "derive_trial", self._wrap_derive_trial(ex.derive_trial)),
            (st, "scale_by_alpha", self._wrap(REDUCE_SORT, st.scale_by_alpha)),
            (st, "frac_reduce", self._wrap(REDUCE_SORT, st.frac_reduce, seq_points)),
            (cli, "frac_reduce", self._wrap(REDUCE_SORT, cli.frac_reduce, seq_points)),
        ]
        for kind in ("gen_theorem1", "gen_converse", "gen_base"):
            hooks.append((ex, kind, self._wrap("generators.build", getattr(ex, kind), points(1))))
        for mod in (cli, ex):
            hooks.append((mod, "pair_correlation",
                          self._wrap("stats.pair_correlation", mod.pair_correlation)))
            hooks.append((mod, "k_level_correlation",
                          self._wrap(k_level, mod.k_level_correlation)))
            hooks.append((mod, "additive_energy",
                          self._wrap("stats.additive_energy", mod.additive_energy,
                                     lambda args, result: {"sums": int(args[0].n) ** 2})))
        for fn in ("discrepancy", "discrepancy_profile", "gap_distribution"):
            hooks.append((cli, fn, self._wrap(f"stats.{fn}", getattr(cli, fn))))
        return hooks

    # -- output -------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="ascii") as f:
            f.write(json.dumps({"kind": "run", **header}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span.record()) + "\n")


class _Patch:
    def __init__(self, hooks):
        self._hooks = hooks
        self._saved = []

    def __enter__(self):
        for module, attr, wrapper in self._hooks:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics
#
# (name, unit, better, the end-to-end metric and workload it should move).
# BENCHMARK.json lists the same names and units; its per-layer entries carry
# no target, so the targets live here and in README.md.

W_CLI, W_PLAN, W_KERNELS = "cli_points", "trial_plan", "exact_kernels"

PER_LAYER = (
    ("cli.gen_s", "s", "lower", "wall_s", W_CLI),
    ("cli.gen_calls", "count", "lower", "wall_s", W_CLI),
    ("cli.stat_s", "s", "lower", "wall_s", W_CLI),
    ("cli.stat_calls", "count", "lower", "wall_s", W_CLI),
    ("cli.exp_s", "s", "lower", "wall_s", W_PLAN),
    ("cli.exp_calls", "count", "lower", "wall_s", W_PLAN),
    ("cli.self_s", "s", "lower", "wall_s", W_CLI),
    ("io.write_points_s", "s", "lower", "wall_s", W_CLI),
    ("io.write_points_calls", "count", "lower", "wall_s", W_CLI),
    ("io.read_points_s", "s", "lower", "wall_s", W_CLI),
    ("io.read_points_calls", "count", "lower", "wall_s", W_CLI),
    ("io.write_mb_per_s", "MB/s", "higher", "wall_s", W_CLI),
    ("io.read_mb_per_s", "MB/s", "higher", "wall_s", W_CLI),
    ("io.points_file_mb", "MB", "lower", "wall_s", W_CLI),
    ("io.read_points_peak_mb", "MB", "lower", "peak_rss_mb", W_CLI),
    ("generators.build_s", "s", "lower", "wall_s", W_PLAN),
    ("generators.build_calls", "count", "lower", "wall_s", W_PLAN),
    ("generators.points_per_s", "1/s", "higher", "wall_s", W_PLAN),
    ("generators.van_der_corput_s", "s", "lower", "wall_s", W_KERNELS),
    ("generators.van_der_corput_calls", "count", "lower", "wall_s", W_KERNELS),
    ("seqcore.reduce_sort_s", "s", "lower", "wall_s", W_PLAN),
    ("seqcore.reduce_sort_calls", "count", "lower", "wall_s", W_PLAN),
    ("seqcore.points_per_s", "1/s", "higher", "wall_s", W_PLAN),
    ("stats.pair_correlation_s", "s", "lower", "wall_s", W_PLAN),
    ("stats.pair_correlation_calls", "count", "lower", "wall_s", W_PLAN),
    ("stats.k_level_k3_s", "s", "lower", "wall_s", W_PLAN),
    ("stats.k_level_k3_calls", "count", "lower", "wall_s", W_PLAN),
    ("stats.discrepancy_s", "s", "lower", "wall_s", W_CLI),
    ("stats.discrepancy_calls", "count", "lower", "wall_s", W_CLI),
    ("stats.gap_distribution_s", "s", "lower", "wall_s", W_CLI),
    ("stats.gap_distribution_calls", "count", "lower", "wall_s", W_CLI),
    ("stats.k_level_k4plus_s", "s", "lower", "wall_s", W_KERNELS),
    ("stats.k_level_k4plus_calls", "count", "lower", "wall_s", W_KERNELS),
    ("stats.discrepancy_profile_s", "s", "lower", "wall_s", W_KERNELS),
    ("stats.discrepancy_profile_calls", "count", "lower", "wall_s", W_KERNELS),
    ("stats.additive_energy_s", "s", "lower", "wall_s", W_KERNELS),
    ("stats.additive_energy_calls", "count", "lower", "wall_s", W_KERNELS),
    ("stats.additive_energy_peak_mb", "MB", "lower", "peak_rss_mb", W_KERNELS),
    ("stats.additive_energy_sums", "count", "lower", "wall_s", W_KERNELS),
    ("density.perturbation_density_s", "s", "lower", "wall_s", W_KERNELS),
    ("density.perturbation_density_calls", "count", "lower", "wall_s", W_KERNELS),
    ("density.expected_window_count_s", "s", "lower", "wall_s", W_KERNELS),
    ("density.expected_window_count_calls", "count", "lower", "wall_s", W_KERNELS),
    ("density.expected_pair_correlation_s", "s", "lower", "wall_s", W_KERNELS),
    ("density.expected_pair_correlation_calls", "count", "lower", "wall_s", W_KERNELS),
    ("density.density_l2_s", "s", "lower", "wall_s", W_KERNELS),
    ("density.density_l2_calls", "count", "lower", "wall_s", W_KERNELS),
    ("density.query_points", "count", "higher", "wall_s", W_KERNELS),
    ("density.breakpoints", "count", "higher", "wall_s", W_KERNELS),
    ("experiments.run_trials_s", "s", "lower", "wall_s", W_PLAN),
    ("experiments.run_trials_calls", "count", "lower", "wall_s", W_PLAN),
    ("experiments.trial_s", "s", "lower", "wall_s", W_PLAN),
    ("experiments.trial_calls", "count", "lower", "wall_s", W_PLAN),
    ("experiments.worker_busy_frac", "fraction", "higher", "wall_s", W_PLAN),
    ("experiments.speedup_2v1", "x", "higher", "wall_s", W_PLAN),
    ("experiments.check_g_conditions_s", "s", "lower", "wall_s", W_KERNELS),
    ("experiments.check_g_conditions_calls", "count", "lower", "wall_s", W_KERNELS),
    ("trace.overhead_s", "s", "lower", "wall_s", "all"),
    ("trace.span_coverage", "fraction", "higher", "wall_s", "all"),
)

MB = 1e6


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children) -> float:
    """Span duration minus the part of it that its children cover."""
    clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    return span.duration - _union([iv for iv in clipped if iv[1] > iv[0]])


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def per_layer_metrics(tracer: Tracer, iterations, threads: int,
                      untraced_walls, probes: dict) -> dict:
    """Per-iteration medians over the traced iterations of the main phase.

    `iterations` holds (index, start, end) of each traced iteration on the
    tracer's clock; `probes` carries the traced-peak and speedup figures
    measured after the iterations.
    """
    main = [s for s in tracer.spans if s.phase == "main"]
    children = {}
    for s in main:
        children.setdefault(s.parent, []).append(s)
    per_iter = {i: [s for s in main if s.iteration == i] for i, _, _ in iterations}

    out = {}
    # every "<span name>_calls" metric has a "<span name>_s" beside it
    for name in (m[:-len("_calls")] for m, *_ in PER_LAYER if m.endswith("_calls")):
        sums = [sum(s.duration for s in spans if s.name == name) for spans in per_iter.values()]
        counts = [sum(1 for s in spans if s.name == name) for spans in per_iter.values()]
        out[f"{name}_s"] = _median(sums)
        out[f"{name}_calls"] = _median(counts)
    trials = [s.duration for s in main if s.name == TRIAL]
    out["experiments.trial_s"] = _median(trials)

    def total(name, attr):
        return sum(s.attrs.get(attr, 0) for s in main if s.name == name)

    def busy(name):
        return sum(s.duration for s in main if s.name == name)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    out["io.write_mb_per_s"] = rate(total("io.write_points", "bytes") / MB, busy("io.write_points"))
    out["io.read_mb_per_s"] = rate(total("io.read_points", "bytes") / MB, busy("io.read_points"))
    reads = [s.attrs["bytes"] for s in main if s.name == "io.read_points"]
    out["io.points_file_mb"] = _median(reads) / MB
    out["generators.points_per_s"] = rate(total("generators.build", "points"),
                                          busy("generators.build"))
    out["seqcore.points_per_s"] = rate(total(REDUCE_SORT, "points"), busy(REDUCE_SORT))
    out["stats.additive_energy_sums"] = _median(
        s.attrs.get("sums", 0) for s in main if s.name == "stats.additive_energy")

    out["cli.self_s"] = _median(
        sum(self_time(s, children.get(s.id, ())) for s in spans if s.name.startswith("cli."))
        for spans in per_iter.values())
    busy_fracs = []
    for spans in per_iter.values():
        for run in (s for s in spans if s.name == RUN_TRIALS):
            trial_sum = sum(t.duration for t in children.get(run.id, ()) if t.name == TRIAL)
            busy_fracs.append(trial_sum / (threads * run.duration))
    out["experiments.worker_busy_frac"] = _median(busy_fracs)

    coverage = []
    for i, start, end in iterations:
        top = [(s.start, s.end) for s in per_iter[i] if s.parent is None]
        coverage.append(_union(top) / (end - start))
    out["trace.span_coverage"] = _median(coverage)
    out["trace.overhead_s"] = (_median(end - start for _, start, end in iterations)
                               - _median(untraced_walls))
    out.update(probes)
    return {name: float(out.get(name, 0.0)) for name, *_ in PER_LAYER}


def speedup(tracer: Tracer, phase: str) -> float:
    """run_trials time of `phase` over the median run_trials time of main."""
    single = [s.duration for s in tracer.spans if s.phase == phase and s.name == RUN_TRIALS]
    multi = [s.duration for s in tracer.spans if s.phase == "main" and s.name == RUN_TRIALS]
    if not single or not multi:
        return 0.0
    return _median(single) / _median(multi)
