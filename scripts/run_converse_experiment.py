#!/usr/bin/env python3
"""Counterexample experiment: the dilated pair statistic of x_n = n + z_n
(power_log widths) along the convergent-driven schedule, against the
well-spaced construction on the same harness.

Usage: python scripts/run_converse_experiment.py [--trials 20] [--seed 101]
"""

import argparse
import sys

from modone import (GeneratorConfig, LIOUVILLE_ALPHA, ScaleFunction,
                    arithmetic_sequence, converse_experiment, converse_schedule,
                    convergents, dilated_density_l2)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--alpha", type=float, default=LIOUVILLE_ALPHA)
    ap.add_argument("--c", type=float, default=0.5)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--points", type=int, default=2)
    args = ap.parse_args()

    sched = converse_schedule(args.alpha, args.points)
    print(f"alpha = {args.alpha!r}")
    print(f"schedule q = {sched.q_values} -> N = {sched.n_values}"
          + ("" if sched.complete else "  (incomplete: fewer convergents than requested)"))

    rep = converse_experiment(args.c, args.alpha, sched.n_values, args.trials, args.seed)
    print("converse construction:", rep.describe())

    control = converse_experiment(
        args.c, args.alpha, sched.n_values, args.trials, args.seed + 1,
        generator=GeneratorConfig(kind="theorem1", c=1.0))
    print("well-spaced control:  ", control.describe())

    # the base points n are replaced by the rational orbit n p/q: the local
    # statistics at scale 1/N are unchanged by that at the schedule sizes
    cv = {c.q: c for c in convergents(args.alpha, max(sched.q_values))}
    widths = ScaleFunction.power_log(args.c)
    for n, q in zip(sched.n_values, sched.q_values):
        l2 = dilated_density_l2(arithmetic_sequence(cv[q].p / q, n), widths, args.alpha)
        print(f"  density second moment with rational orbit p/q at q={q}: {l2:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
