"""Seeded Monte Carlo harness: trial plans over the sequence families, the
width-function regularity checker, the counterexample experiment, the energy
certificate, and the fourth-power subsequence concentration check."""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .density import density_l2
from .generators import (PerturbationSpec, ScaleFunction, arithmetic_sequence,
                         gen_base, gen_converse, gen_theorem1, perturb)
from .seqcore import RealSequence
from .stats import (CorrelationWindow, DiscrepancyProfile, EnergyResult,
                    additive_energy, check_k_level_window, check_pair_window,
                    k_level_correlation, pair_correlation, reduce_scaled)


@dataclass(frozen=True)
class GeneratorConfig:
    """Declarative description of a sequence family for trial plans.

    kind: arithmetic | power | van_der_corput | theorem1 | converse.
    `scale` optionally perturbs the base kinds with seeded uniform shifts;
    theorem1/converse carry their own width family unless overridden.
    """

    kind: str
    alpha: Optional[float] = None
    theta: Optional[float] = None
    base: Optional[int] = None
    c: Optional[float] = None
    scale: Optional[ScaleFunction] = None

    def build(self, n: int, seed: int) -> RealSequence:
        if self.kind == "theorem1":
            if self.c is None:
                raise ValueError("theorem1 needs c")
            return gen_theorem1(self.c, n, seed, scale=self.scale)
        if self.kind == "converse":
            if self.c is None:
                raise ValueError("converse needs c")
            return gen_converse(self.c, n, seed, scale=self.scale)
        seq = gen_base(self.kind, n, alpha=self.alpha, theta=self.theta,
                       base=self.base)
        if self.scale is not None:
            seq = perturb(seq, PerturbationSpec(seed=seed, scale=self.scale))
        return seq


@dataclass(frozen=True)
class TrialPlan:
    """Full experiment configuration; reproducible from master_seed alone."""

    generator: GeneratorConfig
    n_schedule: tuple
    windows: tuple
    trials: int
    master_seed: int
    alpha_mode: tuple = ("fixed", 1.0)   # or ("uniform", lo, hi)

    def __post_init__(self):
        if not all(_is_int(v) for v in self.n_schedule):
            raise ValueError(f"n_schedule must list integers, got {list(self.n_schedule)}")
        ns = tuple(int(v) for v in self.n_schedule)
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n_schedule must be strictly increasing")
        if not ns:
            raise ValueError("n_schedule must be nonempty")
        for name in ("trials", "master_seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.trials < 1:
            raise ValueError("need trials >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
        mode, *params = self.alpha_mode
        if (mode, len(params)) not in (("fixed", 1), ("uniform", 2)):
            raise ValueError("alpha_mode must be ('fixed', a) or ('uniform', lo, hi)")
        if not all(math.isfinite(float(p)) for p in params):
            raise ValueError(f"alpha_mode values must be finite, got {params}")
        if mode == "uniform" and not params[0] < params[1]:
            raise ValueError(f"alpha_mode uniform needs lo < hi, got {params}")
        object.__setattr__(self, "n_schedule", ns)
        object.__setattr__(self, "windows", tuple(self.windows))
        # both checks only tighten as N shrinks, so the smallest N decides
        for w in self.windows:
            try:
                if _is_pair_window(w):
                    check_pair_window(w.intervals[0][1], ns[0])
                else:
                    check_k_level_window(w, ns[0])
            except ValueError as exc:
                raise ValueError(f"window {w.describe()} at N={ns[0]}: {exc}") from None


def _is_int(v) -> bool:
    # JSON plans give floats and strings as they are; bool is an int subclass
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def derive_trial(master_seed: int, t: int, alpha_mode=("fixed", 1.0)):
    """Deterministic (z-seed, alpha) for trial t: two 64-bit words hashed from
    (master_seed, t); the whole suite is a pure function of master_seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(t,))
    st = ss.generate_state(2, dtype=np.uint64)
    zseed = int(st[0])
    if alpha_mode[0] == "fixed":
        alpha = float(alpha_mode[1])
    else:
        lo, hi = float(alpha_mode[1]), float(alpha_mode[2])
        alpha = lo + (hi - lo) * (st[1] / 2.0**64)
    return zseed, alpha


def _is_pair_window(window: CorrelationWindow) -> bool:
    # symmetric two-point windows take the strict-< pair statistic; everything
    # else uses the half-open k-level count
    lo, hi = window.intervals[0]
    return window.k == 2 and lo == -hi and hi > 0


def _window_statistic(pts, window: CorrelationWindow) -> float:
    if _is_pair_window(window):
        return pair_correlation(pts, window.intervals[0][1])
    return k_level_correlation(pts, window)


@dataclass(frozen=True)
class StatSummary:
    """Per (N, window) aggregates over the trials of a plan."""

    plan: TrialPlan
    values: np.ndarray        # shape (trials, len(n_schedule), len(windows))
    alphas: tuple

    @property
    def means(self) -> np.ndarray:
        return self.values.mean(axis=0)

    @property
    def sample_variances(self) -> np.ndarray:
        if self.values.shape[0] == 1:
            return np.zeros(self.values.shape[1:])
        return self.values.var(axis=0, ddof=1)

    @property
    def standard_errors(self) -> np.ndarray:
        return np.sqrt(self.sample_variances / self.values.shape[0])

    def mean(self, n_idx: int, w_idx: int = 0) -> float:
        return float(self.means[n_idx, w_idx])


def run_trials(plan: TrialPlan, threads: int = 1) -> StatSummary:
    """Execute the plan: per trial, one realization shared across the whole
    N-schedule (prefixes of one stream), dilated by the trial alpha, reduced
    modulo 1, and scored under every window."""
    n_max = plan.n_schedule[-1]
    n_windows = len(plan.windows)
    values = np.empty((plan.trials, len(plan.n_schedule), n_windows))
    alphas = []

    def one_trial(t: int) -> np.ndarray:
        try:
            zseed, alpha = derive_trial(plan.master_seed, t, plan.alpha_mode)
            seq = plan.generator.build(n_max, zseed)
            out = np.empty((len(plan.n_schedule), n_windows))
            for i, n in enumerate(plan.n_schedule):
                pts = reduce_scaled(seq.prefix(n), alpha)
                for j, w in enumerate(plan.windows):
                    out[i, j] = _window_statistic(pts, w)
            return alpha, out
        except Exception as exc:
            raise RuntimeError(f"trial {t} failed: {exc}") from exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(one_trial, range(plan.trials)))
    else:
        results = [one_trial(t) for t in range(plan.trials)]
    for t, (alpha, out) in enumerate(results):
        alphas.append(alpha)
        values[t] = out
    return StatSummary(plan=plan, values=values, alphas=tuple(alphas))


# ---------------------------------------------------------------------------
# width-function regularity conditions


@dataclass(frozen=True)
class GConditionReport:
    """Sampled trajectories of the three regularity conditions with trend
    flags fitted over the top decade of the profile grid.

    Conditions: (i) g(N)/D_N must diverge, (ii) N g(N) must diverge,
    (iii) g(N (1 + M_N/(N g(N)))) / g(N) must tend to 1.
    """

    n_grid: np.ndarray
    ratio_g_over_d: np.ndarray
    n_times_g: np.ndarray
    stretch_ratio: np.ndarray
    slopes: tuple
    passes_divergence_g_over_d: bool
    passes_divergence_ng: bool
    passes_stretch_to_one: bool

    @property
    def all_pass(self) -> bool:
        return (self.passes_divergence_g_over_d and self.passes_divergence_ng
                and self.passes_stretch_to_one)


def check_g_conditions(scale: ScaleFunction,
                       profile: DiscrepancyProfile) -> GConditionReport:
    """Trend-flag the three regularity hypotheses against a measured
    discrepancy profile of the base sequence. Reports, never rejects."""
    n = profile.n_grid.astype(np.float64)
    d = profile.d_values
    m_run = profile.running_max_nd()
    g = np.array([scale.eval_real(x) for x in n])
    traj1 = g / d
    traj2 = n * g
    stretched = n * (1.0 + m_run / (n * g))
    traj3 = np.array([scale.eval_real(x) for x in stretched]) / g

    top = n >= n[-1] / 10.0
    logn = np.log(n[top])
    slope1 = float(np.polyfit(logn, np.log(traj1[top]), 1)[0])
    slope2 = float(np.polyfit(logn, np.log(traj2[top]), 1)[0])
    slope3 = float(np.polyfit(logn, np.abs(traj3[top] - 1.0), 1)[0])
    return GConditionReport(
        n_grid=profile.n_grid,
        ratio_g_over_d=traj1,
        n_times_g=traj2,
        stretch_ratio=traj3,
        slopes=(slope1, slope2, slope3),
        passes_divergence_g_over_d=slope1 > 0.0,
        passes_divergence_ng=slope2 > 0.0,
        passes_stretch_to_one=slope3 <= 1e-9,
    )


# ---------------------------------------------------------------------------
# counterexample experiment


@dataclass(frozen=True)
class ConverseReport:
    n_values: tuple
    means: tuple
    ratios: tuple            # mean / (2s) per schedule point
    max_ratio: float
    margin: float
    exceeds: bool            # max_ratio > 1 + margin

    def describe(self) -> str:
        rows = ", ".join(f"N={n}: {r:.4f}" for n, r in zip(self.n_values, self.ratios))
        return f"ratios [{rows}] max={self.max_ratio:.4f} exceeds(>{1 + self.margin})={self.exceeds}"


def converse_experiment(c: float, alpha: float, schedule, trials: int,
                        seed: int, s: float = 1.0, margin: float = 0.2,
                        generator: Optional[GeneratorConfig] = None) -> ConverseReport:
    """Mean dilated pair statistic of the counterexample construction (or of a
    substitute generator, to compare harnesses) along the schedule sizes."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    sched = tuple(int(n) for n in schedule)
    if not sched:
        raise ValueError("empty schedule")
    gen = generator if generator is not None else GeneratorConfig(kind="converse", c=c)
    n_max = max(sched)
    means = []
    acc = np.zeros(len(sched))
    for t in range(trials):
        zseed, _ = derive_trial(seed, t)
        seq = gen.build(n_max, zseed)
        for i, n in enumerate(sched):
            pts = reduce_scaled(seq.prefix(n), alpha)
            acc[i] += pair_correlation(pts, s)
    means = acc / trials
    ratios = means / (2.0 * s)
    max_ratio = float(np.max(ratios))
    return ConverseReport(
        n_values=sched,
        means=tuple(float(v) for v in means),
        ratios=tuple(float(r) for r in ratios),
        max_ratio=max_ratio,
        margin=margin,
        exceeds=max_ratio > 1.0 + margin,
    )


# ---------------------------------------------------------------------------
# additive-energy certificate


@dataclass(frozen=True)
class EnergyCertificate:
    energy: EnergyResult
    well_spaced: bool
    lower_ok: bool       # count >= N^2 (diagonal)
    upper_bound: float   # (2 gamma + 1) N^3 + 4 N^2, spacing delta = 1
    upper_ok: bool

    @property
    def normalized(self) -> float:
        return self.energy.normalized


def energy_certificate(seq: RealSequence, gamma: float) -> EnergyCertificate:
    """Energy count with the well-spacing check and the counting sandwich for
    a 1-separated sequence: N^2 <= E <= (2 gamma + 1) N^3 + 4 N^2."""
    if not seq.is_well_spaced():
        raise ValueError("energy certificate requires a well spaced sequence")
    res = additive_energy(seq, gamma)
    n = seq.n
    upper = (2.0 * gamma + 1.0) * n**3 + 4.0 * n**2
    return EnergyCertificate(
        energy=res,
        well_spaced=True,
        lower_ok=res.count >= n * n,
        upper_bound=upper,
        upper_ok=res.count <= upper,
    )


# ---------------------------------------------------------------------------
# fourth-power subsequence concentration


@dataclass(frozen=True)
class SubsequenceReport:
    n_values: tuple
    deviations: np.ndarray   # |mean - poisson target| per (N, window)
    thresholds: np.ndarray   # 3 / N^(1/4) per schedule point
    within: np.ndarray       # boolean, same shape as deviations


def subsequence_check(summary: StatSummary) -> SubsequenceReport:
    """Per schedule point, compare |mean - target| to the concentration rate
    3 N^(-1/4); the schedule should carry at least 3 fourth-power-like sizes."""
    plan = summary.plan
    if plan.trials < 1:
        raise ValueError("summary carries no trials")
    if len(plan.n_schedule) < 3:
        raise ValueError("need at least 3 schedule points for the subsequence check")
    ns = np.asarray(plan.n_schedule, dtype=np.float64)
    targets = np.asarray([w.poisson_target for w in plan.windows])
    dev = np.abs(summary.means - targets[None, :])
    thr = 3.0 / ns ** 0.25
    within = dev <= thr[:, None]
    return SubsequenceReport(
        n_values=plan.n_schedule,
        deviations=dev,
        thresholds=thr,
        within=within,
    )


# ---------------------------------------------------------------------------
# density diagnostics used by the experiment scripts


def theorem1_density_l2(n: int, alpha: float, c: float = 1.0) -> float:
    """Exact second moment of the dilated perturbation density for the
    well-spaced construction: base (2 alpha) n with widths alpha * beck(c)."""
    base = arithmetic_sequence(2.0 * alpha, n)
    beck = ScaleFunction.beck(c)
    widths = alpha * np.asarray(beck.eval(np.arange(1, n + 1)))
    return density_l2(base, ScaleFunction.table(widths))


def converse_density_l2(n: int, p: int, q: int, alpha: float, c: float = 0.5) -> float:
    """Same diagnostic for the counterexample construction with the base
    points replaced by the rational orbit n p/q (the local statistics at
    scale 1/N are unchanged by that replacement at the schedule sizes)."""
    base = RealSequence(np.arange(1, n + 1, dtype=np.float64) * (p / q))
    plog = ScaleFunction.power_log(c)
    widths = alpha * np.asarray(plog.eval(np.arange(1, n + 1)))
    return density_l2(base, ScaleFunction.table(widths))
