#!/usr/bin/env python3
"""Reproduce the paper's claims, one PASS/FAIL line each; exit 1 if any fails.

- The well-spaced construction (theorem1, c = 1, alpha ~ U[1,2) per trial)
  has Poissonian k-level correlation for k = 2..6: every window's trial mean
  stays within 3 N^(-1/4) of its Poisson target along N = 12 500..200 000.
- Its gaps are exponential, and its additive energy is of order N^3.
- The counterexample x_n = n + z_n with power_log widths exceeds the Poisson
  pair value along its convergent schedule; the well-spaced control does not.
- The regularity checker passes beck widths over the golden rotation and
  fails power_log widths over the well-approximable rotation.

Every number is a pure function of the seeds below. Takes about 15 s on
2 CPUs, 9 s of it in the counterexample at N = 3 374 011.

Usage: python scripts/reproduce.py
"""

import argparse
import sys

import numpy as np

from modone import (CorrelationWindow, GOLDEN_ALPHA, GeneratorConfig,
                    LIOUVILLE_ALPHA, ScaleFunction, TrialPlan,
                    arithmetic_sequence, check_g_conditions, converse_experiment,
                    converse_schedule, convergents, density_l2, derive_trial,
                    discrepancy_profile, energy_certificate, gap_distribution,
                    gen_theorem1, reduce_scaled, run_trials, subsequence_check)
from modone.cli import _keep_freed_memory

SEED = 20_260_808   # windows; SEED + 1 the gaps, SEED + 2 the energy
CONVERSE_SEED = 101  # the control takes CONVERSE_SEED + 1
N_LADDER = (12_500, 25_000, 50_000, 100_000, 200_000)
UNIFORM = ("uniform", 1.0, 2.0)
WINDOWS = (
    CorrelationWindow.pair(0.5),
    CorrelationWindow.pair(1.0),
    CorrelationWindow.pair(2.0),
    CorrelationWindow(k=3, intervals=((0.0, 1.0),) * 2),
    CorrelationWindow(k=3, intervals=((-1.0, 1.0),) * 2),
    CorrelationWindow(k=4, intervals=((0.0, 1.0),) * 3),
    CorrelationWindow(k=5, intervals=((-0.5, 0.5),) * 4),
    CorrelationWindow(k=6, intervals=((0.0, 1.0),) * 5),
)

def joined(xs):
    return " / ".join(f"{x:.4f}" for x in xs)


def well_spaced():
    plan = TrialPlan(GeneratorConfig(kind="theorem1", c=1.0), N_LADDER, WINDOWS,
                     trials=20, master_seed=SEED, alpha_mode=UNIFORM)
    summary = run_trials(plan, threads=2)
    within = subsequence_check(summary).within
    for j, w in enumerate(WINDOWS):
        mu, tgt = summary.means[-1, j], w.poisson_target
        yield (within[:, j].all(),
               f"well-spaced {w.describe():<22} |mean-target| <= 3N^-1/4 at every N; "
               f"N={N_LADDER[-1]}: mean={mu:.5f} target={tgt:g} "
               f"rel dev={(mu - tgt) / tgt:+.4%} se={summary.standard_errors[-1, j]:.5f}")

    ks = []
    for t in range(10):
        zseed, alpha = derive_trial(SEED + 1, t, UNIFORM)
        pts = reduce_scaled(gen_theorem1(1.0, N_LADDER[-1], zseed), alpha)
        ks.append(gap_distribution(pts).ks_vs_exponential)
    med = np.median(ks)
    yield (med <= 0.02, f"well-spaced gaps: median KS vs exponential over 10 seeds "
                        f"at N={N_LADDER[-1]} = {med:.5f} <= 0.02")

    zseed, _ = derive_trial(SEED + 2, 0)
    seq = gen_theorem1(1.0, 8192, zseed)
    for n in (2048, 4096, 8192):
        cert = energy_certificate(seq.prefix(n), 10.0 * ScaleFunction.beck(1.0).eval(n))
        yield (cert.normalized >= 0.02 and cert.upper_ok,
               f"well-spaced energy at N={n}, gamma=10 g(N): E/N^3={cert.normalized:.4f} "
               f">= 0.02, upper sandwich ok: {cert.upper_ok}")


def counterexample():
    sched = converse_schedule(LIOUVILLE_ALPHA, 2)
    rep = converse_experiment(GeneratorConfig(kind="converse", c=0.5), LIOUVILLE_ALPHA,
                              sched.n_values, 20, CONVERSE_SEED)
    control = converse_experiment(GeneratorConfig(kind="theorem1", c=1.0), LIOUVILLE_ALPHA,
                                  sched.n_values, 20, CONVERSE_SEED + 1)
    # the dilated centres alpha n replaced by the rational orbit n p/q: the
    # local statistics at scale 1/N are unchanged by that at the schedule sizes
    cv = {c.q: c for c in convergents(LIOUVILLE_ALPHA, max(sched.q_values))}
    converse = GeneratorConfig(kind="converse", c=0.5)
    l2 = [density_l2(arithmetic_sequence(cv[q].p / q, n), converse.model(n, LIOUVILLE_ALPHA)[1])
          for n, q in zip(sched.n_values, sched.q_values)]
    yield (sched.complete and rep.max_ratio >= 1.2
           and all(0.95 <= r <= 1.05 for r in control.ratios),
           f"counterexample alpha={LIOUVILLE_ALPHA!r} at q={sched.q_values}, "
           f"N={sched.n_values}: pair mean / 2s "
           f"{joined(rep.ratios)} (max >= 1.2); well-spaced control {joined(control.ratios)} "
           f"in [0.95, 1.05]; rational-orbit density second moments {joined(l2)}")


def conditions():
    for name, scale, alpha, expect_all in (
            ("beck(1) over golden", ScaleFunction.beck(1.0), GOLDEN_ALPHA, True),
            ("power_log(0.5) over LIOUVILLE_ALPHA", ScaleFunction.power_log(0.5),
             LIOUVILLE_ALPHA, False),
            ("constant(0.1) over golden", ScaleFunction.constant(0.1), GOLDEN_ALPHA, True)):
        prof = discrepancy_profile(arithmetic_sequence(alpha, 100_000),
                                   grid="geometric", ratio=1.06)
        rep = check_g_conditions(scale, prof)
        ok = rep.all_pass if expect_all else not rep.passes_divergence_g_over_d
        s1, s2, s3 = rep.slopes
        yield (ok, f"conditions {name} {'pass all' if expect_all else 'fail g/D'}: "
                   f"slopes g/D={s1:+.4f} Ng={s2:+.4f} |stretch-1|={s3:+.2e}; "
                   f"flags {rep.passes_divergence_g_over_d} "
                   f"{rep.passes_divergence_ng} {rep.passes_stretch_to_one}")


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    _keep_freed_memory()   # the heap policy of the CLI, for the same trial loops
    all_pass = True
    for claims in (well_spaced, counterexample, conditions):
        for ok, text in claims():
            print(f"{'PASS' if ok else 'FAIL'}  {text}", flush=True)
            all_pass = all_pass and bool(ok)
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
