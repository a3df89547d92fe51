"""The three benchmark workloads.

Each workload builds its inputs from the seed (`build`, run in a fresh
interpreter so that set-up time counts interpreter start and the import),
loads them (`load`), and then runs closed-loop iterations with one caller:
`run` performs the timed operations of one iteration, `check` verifies their
outputs afterwards. An operation is one CLI call, one trial plan or one kernel
call; it fails on an exception, a nonzero exit code or an output that fails a
check.

Checks at every seed are the paper's properties; at the default seed the
outputs must also equal the values recorded in reference.json (exact counts
exactly, floats to 1e-9 relative).
"""

from __future__ import annotations

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np

import modone
from modone import cli, density, experiments, generators, io as mio, seqcore, stats

import tracing

DEFAULT_SEED = 1
REFERENCE = Path(__file__).resolve().parent / "reference.json"
FLOAT_RTOL = 1e-9
# The dilation of the workloads whose outputs are held to the pair, k = 3 and
# gap properties. Those hold for almost every alpha, but not at every finite
# N: a uniform alpha with 2 alpha within 3e-8 of 267/68 gave a pair statistic
# of 2.15 at s = 0.5 and N = 1e5, and such an alpha came up in one plan of ten.
# The golden ratio is badly approximable, so the properties hold at every seed.
CHECKED_ALPHA = generators.GOLDEN_ALPHA
# the exact kernels draw their dilation from the seed; no check depends on it
ALPHA_MODE = ("uniform", 1.0, 2.0)

# Sizes per mode. The full sizes follow the benchmark's rationale (README.md);
# the smoke sizes keep every operation, check and span but finish in seconds.
SIZES = {
    "full": {
        "cli_n": None,                       # criterion-08 schedule size, see cli_n()
        "plan_schedule": (10_000, 100_000, 200_000),
        "plan_trials": 20,
        "k_level_n": 20_000,
        "energy_n": 4096,
        "profile_n": 10_000,
        "density_n": 100_000,
        "queries": 200,
        "vdc_n": 200_000,
    },
    "smoke": {
        "cli_n": 100_000,
        "plan_schedule": (10_000, 100_000),
        "plan_trials": 4,
        "k_level_n": 2_000,
        "energy_n": 512,
        "profile_n": 1_000,
        "density_n": 10_000,
        "queries": 20,
        "vdc_n": 20_000,
    },
}

PLAN_THREADS = 2


def cli_n(mode: str) -> int:
    n = SIZES[mode]["cli_n"]
    if n is None:
        n = generators.converse_schedule(generators.LIOUVILLE_ALPHA, 2).n_values[-1]
    return n


class Iteration:
    """Results and failures of one iteration's operations."""

    def __init__(self, tracer, ops):
        self.tracer = tracer
        self.ops = ops
        self.results = {}
        self.failures = {}
        self.outputs = {}     # reference key -> value, compared at the default seed
        self.output_op = {}   # reference key -> the operation that produced it

    def run(self, op, span, fn, *args, **kwargs):
        try:
            self.results[op] = self.tracer.call(span, fn, *args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failures[op] = f"raised {type(exc).__name__}: {exc}"
        return self.results.get(op)

    def skip(self, op, missing):
        self.failures[op] = f"not run: {missing} failed"

    def ok(self, op) -> bool:
        return op in self.results and op not in self.failures

    def require(self, op, cond, detail):
        if not cond and op not in self.failures:
            self.failures[op] = detail

    def output(self, op, key, value):
        self.outputs[key] = value
        self.output_op[key] = op

    def compare_reference(self, reference: dict):
        for key, value in self.outputs.items():
            op = self.output_op[key]
            if key not in reference:
                self.require(op, False, f"{key}: no reference value")
            elif not _same(value, reference[key]):
                self.require(op, False, f"{key}: {value!r} != reference {reference[key]!r}")


def _same(value, ref) -> bool:
    if isinstance(ref, list):
        return isinstance(value, list) and len(value) == len(ref) and all(
            _same(v, r) for v, r in zip(value, ref))
    if isinstance(ref, bool) or isinstance(ref, int) or isinstance(ref, str):
        return type(value) is type(ref) and value == ref
    return abs(value - ref) <= FLOAT_RTOL * max(abs(value), abs(ref))


def load_reference(mode: str, workload: str) -> dict:
    with open(REFERENCE, encoding="ascii") as f:
        return json.load(f)[mode][workload]


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def _traced_peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _gen_sample_index(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, 1000).astype(np.int64))


def _sample(values, count=16) -> list:
    idx = np.linspace(0, len(values) - 1, count).astype(np.int64)
    return [float(v) for v in np.asarray(values)[idx]]


# ---------------------------------------------------------------------------


class CliPoints:
    """`gen` writes a points file; `stat` reads a dilated realization."""

    name = "cli_points"
    ops = ("gen", "stat")
    threads = 1

    @staticmethod
    def build(seed: int, mode: str, work: Path) -> None:
        n = cli_n(mode)
        zseed, _ = experiments.derive_trial(seed, 0)
        seq = generators.gen_theorem1(1.0, n, zseed)
        mio.write_points(work / "dilated.pts", CHECKED_ALPHA * seq.values)
        # only the values that the check of `gen` compares are kept
        idx = _gen_sample_index(n)
        np.savez(work / "gen_sample.npz", index=idx, values=seq.values[idx])
        (work / "meta.json").write_text(json.dumps({"n": n, "zseed": zseed}))

    def __init__(self, work: Path, mode: str):
        meta = json.loads((work / "meta.json").read_text())
        self.n = meta["n"]
        with np.load(work / "gen_sample.npz") as z:
            self.sample_index, self.sample_values = z["index"], z["values"]
        self.dilated = work / "dilated.pts"
        self.gen_out = work / "gen.pts"
        self.stat_out = work / "stat.jsonl"
        self.gen_argv = ["gen", "--kind", "theorem1", "--c", "1", "--n", str(self.n),
                         "--seed", str(meta["zseed"]), "--out", str(self.gen_out)]
        self.stat_argv = ["stat", "--in", str(self.dilated), "--ppc", "--s", "1",
                          "--klevel", "--k", "3", "--windows", "0:1,0:1", "--disc",
                          "--gaps", "--no-timing", "--out", str(self.stat_out)]
        self.first_gen_sha = None
        self.first_stat = None

    def run(self, it: Iteration) -> None:
        it.run("gen", "cli.gen", cli.run_cli, self.gen_argv)
        it.run("stat", "cli.stat", cli.run_cli, self.stat_argv)

    def check(self, it: Iteration) -> None:
        for op in self.ops:
            if op in it.results:
                it.require(op, it.results[op] == 0, f"{op} exit code {it.results[op]}")
        if it.ok("gen"):
            self._check_gen(it)
        if it.ok("stat"):
            self._check_stat(it)

    def _check_gen(self, it):
        sha = _sha256(self.gen_out)
        if self.first_gen_sha is None:
            self.first_gen_sha = sha
            # first iteration: header, line count, and an exact sample against
            # the realization; later iterations must reproduce the bytes
            want = set(self.sample_index.tolist())
            got = {}
            with open(self.gen_out, encoding="ascii") as f:
                header = f.readline().rstrip("\n")
                count = 0
                for i, line in enumerate(f):
                    if i in want:
                        got[i] = float(line)
                    count += 1
            it.require("gen", header == f"# modone-points v1 n={self.n}", f"gen header {header!r}")
            it.require("gen", count == self.n, f"gen wrote {count} values, expected {self.n}")
            values = np.array([got.get(int(i), np.nan) for i in self.sample_index])
            it.require("gen", np.array_equal(values, self.sample_values),
                       "gen values differ from gen_theorem1")
            it.output("gen", "gen.sample", _sample(values))
        it.require("gen", sha == self.first_gen_sha, "gen output not byte-identical across runs")

    def _check_stat(self, it):
        blob = self.stat_out.read_bytes()
        if self.first_stat is None:
            self.first_stat = blob
        it.require("stat", blob == self.first_stat, "stat stream not byte-identical across runs")
        recs = {}
        for line in blob.decode("ascii").splitlines():
            rec = json.loads(line)
            recs[rec["statistic"]] = rec["value"]
        names = ("pair_correlation", "k_level_correlation", "discrepancy",
                 "star_discrepancy", "gap_ks_vs_exponential")
        if set(recs) != set(names):
            it.require("stat", False, f"stat records {sorted(recs)}")
            return
        pair, k3 = recs["pair_correlation"], recs["k_level_correlation"]
        ks = recs["gap_ks_vs_exponential"]
        it.require("stat", abs(pair - 2.0) <= 0.05 * 2.0, f"pair statistic {pair} not within 5% of 2")
        it.require("stat", abs(k3 - 1.0) <= 0.10, f"k=3 statistic {k3} not within 10% of 1")
        it.require("stat", ks <= 0.02, f"gap KS distance {ks} > 0.02")
        it.output("stat", "stat.pair_count", round(pair * self.n))
        it.output("stat", "stat.k3_count", round(k3 * self.n))
        for name in ("discrepancy", "star_discrepancy", "gap_ks_vs_exponential"):
            it.output("stat", f"stat.{name}", recs[name])

    def probes(self, it: Iteration) -> dict:
        it.ops = it.ops + ("read_points_peak",)
        peak = it.run("read_points_peak", "probe", _traced_peak_mb, mio.read_points, self.dilated)
        return {"io.read_points_peak_mb": peak or 0.0}


class TrialPlan:
    """`exp` on the well-spaced verification plan with two worker threads."""

    name = "trial_plan"
    ops = ("exp",)
    threads = PLAN_THREADS
    WINDOWS = ({"pair_s": 0.5}, {"pair_s": 1.0}, {"pair_s": 2.0},
               {"k": 3, "intervals": [[0, 1], [0, 1]]},
               {"k": 3, "intervals": [[-1, 1], [-1, 1]]})

    @staticmethod
    def build(seed: int, mode: str, work: Path) -> None:
        plan = {
            "generator": {"kind": "theorem1", "c": 1.0},
            "n_schedule": list(SIZES[mode]["plan_schedule"]),
            "windows": list(TrialPlan.WINDOWS),
            "trials": SIZES[mode]["plan_trials"],
            "master_seed": seed,
            "alpha_mode": {"fixed": CHECKED_ALPHA},
        }
        text = json.dumps(plan)
        mio.plan_from_json(text)   # the plan must validate before it is timed
        (work / "plan.json").write_text(text)

    def __init__(self, work: Path, mode: str):
        self.plan = json.loads((work / "plan.json").read_text())
        self.out = work / "exp.jsonl"
        self.argv = ["exp", "--config", str(work / "plan.json"), "--threads",
                     str(self.threads), "--no-timing", "--out", str(self.out)]
        self.first = None

    def run(self, it: Iteration) -> None:
        it.run("exp", "cli.exp", cli.run_cli, self.argv)

    def check(self, it: Iteration) -> None:
        if "exp" not in it.results:
            return
        it.require("exp", it.results["exp"] == 0, f"exp exit code {it.results['exp']}")
        if not it.ok("exp"):
            return
        blob = self.out.read_bytes()
        if self.first is None:
            self.first = blob
        it.require("exp", blob == self.first, "exp stream not byte-identical across runs")
        recs = [json.loads(line) for line in blob.decode("ascii").splitlines()]
        sched, trials = self.plan["n_schedule"], self.plan["trials"]
        windows = [stats.CorrelationWindow.pair(w["pair_s"]) if "pair_s" in w else
                   stats.CorrelationWindow(k=w["k"], intervals=w["intervals"])
                   for w in self.WINDOWS]
        expected = [(n, w.describe()) for n in sched for w in windows]
        if [(r["n"], r["window"]) for r in recs] != expected:
            it.require("exp", False, "exp records do not cover the plan grid")
            return
        for rec, w in zip(recs, windows * len(sched)):
            key = f"exp.n{rec['n']}.{rec['window']}"
            mean, target = rec["value"], w.poisson_target
            tol = 0.05 if w.k == 2 else 0.10
            it.require("exp", abs(mean - target) <= tol * target,
                       f"{key}: mean {mean} not within {tol:.0%} of {target}")
            it.output("exp", f"{key}.count_sum", round(mean * rec["n"] * trials))
            it.output("exp", f"{key}.standard_error", rec["error"])

    def probes(self, it: Iteration) -> dict:
        # the same plan single-threaded, as the baseline of the 2-thread speed-up
        argv = list(self.argv)
        argv[argv.index("--threads") + 1] = "1"
        it.ops = it.ops + ("exp_threads1",)
        rc = it.run("exp_threads1", "cli.exp", cli.run_cli, argv)
        it.require("exp_threads1", rc == 0, f"exp --threads 1 exit code {rc}")
        if rc == 0:
            it.require("exp_threads1", self.out.read_bytes() == self.first,
                       "exp stream differs between 1 and 2 threads")
        return {"experiments.speedup_2v1": tracing.speedup(it.tracer, it.tracer.phase)}


class ExactKernels:
    """Small-N exact statistics called directly: k >= 4, energy, the full
    discrepancy profile, the density sweeps, and the condition checker."""

    name = "exact_kernels"
    ops = ("k4", "k5", "energy", "profile", "density", "window_count",
           "expected_pair", "density_l2", "vdc", "vdc_profile", "gcond")
    threads = 1
    W4 = stats.CorrelationWindow(k=4, intervals=((-2, 2),) * 3)
    W5 = stats.CorrelationWindow(k=5, intervals=((-1, 1),) * 4)

    @staticmethod
    def build(seed: int, mode: str, work: Path) -> None:
        size = SIZES[mode]
        zseed, alpha = experiments.derive_trial(seed, 0, ALPHA_MODE)
        kpts = stats.reduce_scaled(generators.gen_theorem1(1.0, size["k_level_n"], zseed), alpha)
        zseed_e, _ = experiments.derive_trial(seed, 1)
        n_e = size["energy_n"]
        energy_seq = generators.gen_theorem1(1.0, n_e, zseed_e)
        gamma = 10.0 * float(generators.ScaleFunction.beck(1.0).eval(n_e))
        # criterion-06 base: (2 alpha) n with widths alpha * beck(1)
        n_d = size["density_n"]
        base = generators.arithmetic_sequence(2.0 * alpha, n_d)
        widths = alpha * np.asarray(generators.ScaleFunction.beck(1.0).eval(np.arange(1, n_d + 1)))
        queries = np.random.Generator(np.random.Philox(key=zseed)).random(size["queries"])
        golden = generators.arithmetic_sequence(generators.GOLDEN_ALPHA, size["profile_n"])
        np.savez(work / "inputs.npz", kpts=kpts.points, energy=energy_seq.values,
                 base=base.values, widths=widths, queries=queries, golden=golden.values)
        (work / "meta.json").write_text(json.dumps({"gamma": gamma, "vdc_n": size["vdc_n"]}))

    def __init__(self, work: Path, mode: str):
        meta = json.loads((work / "meta.json").read_text())
        with np.load(work / "inputs.npz") as z:
            self.kpts = seqcore.TorusPoints(z["kpts"])
            self.energy_seq = seqcore.RealSequence(z["energy"])
            self.base = seqcore.RealSequence(z["base"])
            self.scale = generators.ScaleFunction.table(z["widths"])
            self.queries = z["queries"]
            self.golden = seqcore.RealSequence(z["golden"])
        self.gamma = meta["gamma"]
        self.vdc_n = meta["vdc_n"]
        self.beck = generators.ScaleFunction.beck(1.0)

    def run(self, it: Iteration) -> None:
        it.run("k4", "stats.k_level_k4plus", stats.k_level_correlation, self.kpts, self.W4)
        it.run("k5", "stats.k_level_k4plus", stats.k_level_correlation, self.kpts, self.W5)
        it.run("energy", "experiments.energy_certificate", experiments.energy_certificate,
               self.energy_seq, self.gamma)
        it.run("profile", "stats.discrepancy_profile", stats.discrepancy_profile,
               self.golden, "full")
        it.run("density", "density.perturbation_density", density.perturbation_density,
               self.base, self.scale, self.queries)
        it.run("window_count", "density.expected_window_count",
               density.expected_window_count, self.base, self.scale, 1.0, self.queries)
        it.run("expected_pair", "density.expected_pair_correlation",
               density.expected_pair_correlation, self.base, self.scale, 1.0)
        it.run("density_l2", "density.density_l2", density.density_l2, self.base, self.scale)
        vdc = it.run("vdc", "generators.van_der_corput", generators.van_der_corput, 2, self.vdc_n)
        if vdc is None:
            it.skip("vdc_profile", "vdc")
            it.skip("gcond", "vdc")
            return
        prof = it.run("vdc_profile", "stats.discrepancy_profile", stats.discrepancy_profile,
                      vdc, "geometric", 1.06)
        if prof is None:
            it.skip("gcond", "vdc_profile")
            return
        it.run("gcond", "experiments.check_g_conditions", experiments.check_g_conditions,
               self.beck, prof)

    def check(self, it: Iteration) -> None:
        r = it.results
        for op, w in (("k4", self.W4), ("k5", self.W5)):
            if op in r:
                count = r[op] * self.kpts.n
                it.require(op, abs(count - round(count)) < 1e-6 and count >= 0,
                           f"{op} count {count} is not a nonnegative integer")
                it.output(op, f"{op}.count", round(count))
        if "energy" in r:
            cert, n = r["energy"], self.energy_seq.n
            e = cert.energy.count
            upper = (2 * self.gamma + 1) * n**3 + 4 * n**2
            it.require("energy", n * n <= e <= upper,
                       f"energy {e} outside [N^2, (2 gamma + 1) N^3 + 4 N^2]")
            it.output("energy", "energy.count", int(e))
        if "profile" in r:
            prof = r["profile"]
            d_full, _ = stats.discrepancy(seqcore.frac_reduce(self.golden))
            it.require("profile", prof.exact and prof.n_grid.size == self.golden.n
                       and math.isclose(prof.d_values[-1], d_full, rel_tol=1e-12),
                       "full profile does not end at the discrepancy of all N points")
            it.output("profile", "profile.max_n_discrepancy", float(prof.m_value))
        if "density" in r:
            rho = np.asarray(r["density"])
            it.require("density", rho.shape == self.queries.shape and bool(np.all(rho >= 0)),
                       "density values must be nonnegative, one per query point")
            it.output("density", "density.values", _sample(rho))
        if "window_count" in r:
            h = np.asarray(r["window_count"])
            it.require("window_count", h.shape == self.queries.shape and bool(np.all(h >= 0)),
                       "window counts must be nonnegative, one per query point")
            it.output("window_count", "window_count.values", _sample(h))
        if "expected_pair" in r:
            value, bound = r["expected_pair"]
            it.output("expected_pair", "expected_pair.value", float(value))
            it.output("expected_pair", "expected_pair.bound", float(bound))
        if "density_l2" in r:
            l2 = r["density_l2"]
            total, total_sq = density.sweep_density_integrals(self.base, self.scale)
            it.require("density_l2", abs(total - 1.0) <= 1e-9, f"integral of rho = {total}")
            it.require("density_l2", l2 >= 1.0, f"density_l2 = {l2} < 1")
            it.require("density_l2", l2 == total_sq, "density_l2 differs from the sweep")
            it.output("density_l2", "density_l2.value", float(l2))
        if "vdc" in r:
            v = r["vdc"].values
            it.require("vdc", v.size == self.vdc_n and bool(np.all((v >= 0) & (v < 1))),
                       "van der Corput values must lie in [0, 1)")
            it.output("vdc", "vdc.sample", _sample(v))
        if "vdc_profile" in r:
            it.output("vdc_profile", "vdc_profile.max_n_discrepancy", float(r["vdc_profile"].m_value))
        if "gcond" in r:
            rep = r["gcond"]
            it.require("gcond", rep.all_pass,
                       "beck widths over van der Corput must pass all three conditions")
            it.output("gcond", "gcond.slopes", [float(s) for s in rep.slopes])

    def probes(self, it: Iteration) -> dict:
        it.ops = it.ops + ("energy_peak",)
        peak = it.run("energy_peak", "probe", _traced_peak_mb, stats.additive_energy,
                      self.energy_seq, self.gamma)
        # computed counts: each density call evaluates every query point; the
        # density sweep has 2N breakpoints and the pair integral 6N
        return {"stats.additive_energy_peak_mb": peak or 0.0,
                "density.query_points": 2 * self.queries.size,
                "density.breakpoints": 8 * self.base.n}


WORKLOADS = {w.name: w for w in (CliPoints, TrialPlan, ExactKernels)}


def environment() -> dict:
    """What produced a result: CPUs, caches, and versions."""
    import os
    import platform
    import subprocess

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10, check=True).stdout.strip()
            return int(out)
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_bytes_per_core": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "modone": modone.__version__,
    }
