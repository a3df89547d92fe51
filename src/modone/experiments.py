"""Seeded Monte Carlo harness: trial plans over the sequence families, the
width-function regularity checker, the counterexample experiment, the energy
certificate, and the fourth-power subsequence concentration check."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .density import density_l2
from .generators import (WIDTH_CAP, ScaleFunction, gen_base, gen_converse,
                         gen_theorem1, perturb)
from .seqcore import RealSequence, _is_int, _is_real
from .stats import (CorrelationWindow, DiscrepancyProfile, EnergyResult,
                    additive_energy, check_k_level_window, check_pair_window,
                    k_level_correlation, pair_correlation, reduce_scaled)


# the one parameter each GeneratorConfig kind takes: the base sequences, then
# the two perturbed constructions
_BASE_PARAMETER = {"arithmetic": "alpha", "power": "theta", "van_der_corput": "base"}
_KIND_PARAMETER = {**_BASE_PARAMETER, "theorem1": "c", "converse": "c"}


@dataclass(frozen=True)
class GeneratorConfig:
    """Declarative description of a sequence family for trial plans.

    kind: arithmetic | power | van_der_corput | theorem1 | converse.
    `scale` optionally perturbs the base kinds with seeded uniform shifts;
    theorem1/converse carry their own width family unless overridden.
    Construction checks the kind, that it is given its own parameter and no
    other, and the parameter's range.
    """

    kind: str
    alpha: Optional[float] = None
    theta: Optional[float] = None
    base: Optional[int] = None
    c: Optional[float] = None
    scale: Optional[ScaleFunction] = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KIND_PARAMETER:
            raise ValueError(f"unknown generator kind {self.kind!r}; expected one of "
                             + ", ".join(_KIND_PARAMETER))
        name = _KIND_PARAMETER[self.kind]
        others = [f for f in ("alpha", "theta", "base", "c")
                  if f != name and getattr(self, f) is not None]
        if others:
            raise ValueError(f"generator {self.kind} takes {name} but not {', '.join(others)}")
        value = getattr(self, name)
        if name == "base":
            ok, what = _is_int(value), "an integer"
        else:
            ok, what = _is_real(value) and math.isfinite(value), "a finite number"
        if not ok:
            raise ValueError(f"generator {self.kind} needs {name} as {what}, got {value!r}")
        # the builders check the parameter's range (c, alpha != 0, theta > 0, base >= 2)
        self.build(1, 0)

    def build(self, n: int, seed: int) -> RealSequence:
        if self.kind == "theorem1":
            return gen_theorem1(self.c, n, seed, scale=self.scale)
        if self.kind == "converse":
            return gen_converse(self.c, n, seed, scale=self.scale)
        seq = gen_base(self.kind, n, alpha=self.alpha, theta=self.theta,
                       base=self.base)
        if self.scale is not None:
            seq = perturb(seq, self.scale, seed)
        return seq


def _value_bound(gen: GeneratorConfig, n: int) -> float:
    """An upper bound on |x_k| for k <= n over the sequences gen builds."""
    if gen.kind == "arithmetic":
        bound = abs(gen.alpha) * n
    elif gen.kind == "power":
        try:
            bound = float(n) ** gen.theta
        except OverflowError:
            bound = math.inf
    elif gen.kind == "van_der_corput":
        bound = 1.0
    else:
        bound = 2.0 * n if gen.kind == "theorem1" else float(n)
    perturbed = gen.scale is not None or gen.kind in ("theorem1", "converse")
    return bound + WIDTH_CAP if perturbed else bound


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
        if not all(_is_real(p) for p in params):
            raise ValueError(f"alpha_mode values must be numbers, got {params}")
        if not all(math.isfinite(p) for p in params):
            raise ValueError(f"alpha_mode values must be finite, got {params}")
        if mode == "uniform" and not params[0] < params[1]:
            raise ValueError(f"alpha_mode uniform needs lo < hi, got {params}")
        alpha = max(abs(p) for p in params)
        if not math.isfinite(alpha * _value_bound(self.generator, ns[-1])):
            raise ValueError(f"alpha {alpha:g} dilates the {self.generator.kind} values "
                             f"at N={ns[-1]} past the float64 range")
        object.__setattr__(self, "n_schedule", ns)
        object.__setattr__(self, "windows", tuple(self.windows))
        if not self.windows:
            raise ValueError("windows must be nonempty")
        if self.generator.scale is not None:
            self.generator.scale.eval(ns[-1])   # a width table must reach the largest N
        # both checks only tighten as N shrinks, so the smallest N decides
        for w in self.windows:
            try:
                if w.is_pair:
                    check_pair_window(w.intervals[0][1], ns[0])
                else:
                    check_k_level_window(w, ns[0])
            except ValueError as exc:
                raise ValueError(f"window {w.describe()} at N={ns[0]}: {exc}") from None


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


def _window_statistic(pts, window: CorrelationWindow) -> float:
    if window.is_pair:
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
    discrepancy profile of the base sequence. Reports, never rejects the
    scale; the profile's top decade must hold at least two grid sizes."""
    n = profile.n_grid.astype(np.float64)
    top = n >= n[-1] / 10.0
    if np.count_nonzero(top) < 2:
        raise ValueError(f"the top decade of the grid up to N={int(n[-1])} holds fewer "
                         "than two sizes to fit the trend slopes on")
    d = profile.d_values
    m_run = profile.running_max_nd()
    g = scale.eval(n)
    traj1 = g / d
    traj2 = n * g
    stretched = n * (1.0 + m_run / (n * g))
    traj3 = scale.eval(stretched) / g

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


def converse_experiment(c: float, alpha: float, schedule, trials: int,
                        seed: int, s: float = 1.0,
                        generator: Optional[GeneratorConfig] = None) -> ConverseReport:
    """Mean dilated pair statistic of the counterexample construction (or of a
    substitute generator, to compare harnesses) along the schedule sizes."""
    gen = generator if generator is not None else GeneratorConfig(kind="converse", c=c)
    plan = TrialPlan(gen, tuple(schedule), (CorrelationWindow.pair(s),), trials, seed,
                     ("fixed", alpha))
    means = run_trials(plan).means[:, 0]
    ratios = means / (2.0 * s)
    return ConverseReport(
        n_values=plan.n_schedule,
        means=tuple(float(v) for v in means),
        ratios=tuple(float(r) for r in ratios),
        max_ratio=float(np.max(ratios)),
    )


# ---------------------------------------------------------------------------
# additive-energy certificate


@dataclass(frozen=True)
class EnergyCertificate:
    energy: EnergyResult
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
    3 N^(-1/4); the schedule should carry at least 3 fourth-power-like sizes.

    The rate bounds the absolute deviation, not the relative one, so it fits
    windows whose Poisson target is of order 1. A window with a large target
    (k = 5 on [-1,1]^4 has 16) fails it at a small relative deviation."""
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


def dilated_density_l2(base: RealSequence, family: ScaleFunction, alpha: float) -> float:
    """Exact second moment of the perturbation density of `base` with the
    widths of `family` dilated by alpha. The well-spaced construction takes
    base (2 alpha) n with the beck family; the counterexample takes the
    rational orbit n p/q with the power_log family."""
    widths = alpha * np.asarray(family.eval(np.arange(1, base.n + 1)))
    return density_l2(base, ScaleFunction.table(widths))
