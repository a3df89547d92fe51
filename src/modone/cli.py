"""Command-line surface: gen | stat | exp | check.

Exit codes: 0 success, 1 validation error (single-line diagnostic on stderr),
2 internal error.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import io as mio
from .experiments import (GeneratorConfig, check_g_conditions,
                          energy_certificate, run_trials)
from .generators import LIOUVILLE_ALPHA, ScaleFunction
from .seqcore import RealSequence, frac_reduce
from .stats import (CorrelationWindow, additive_energy, discrepancy,
                    discrepancy_profile, gap_distribution, k_level_correlation,
                    pair_correlation)


# CLI --kind names of the base families -> GeneratorConfig kinds
_LIBRARY_KIND = {"arith": "arithmetic", "power": "power", "vdc": "van_der_corput"}


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="modone", description="local statistics of sequences modulo 1")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a sequence and write a points file")
    g.add_argument("--kind", required=True,
                   choices=["arith", "power", "vdc", "theorem1", "converse"])
    g.add_argument("--alpha", type=float, help="step for --kind arith")
    g.add_argument("--theta", type=float, help="exponent for --kind power")
    g.add_argument("--base", type=int, default=2, help="radix for --kind vdc")
    g.add_argument("--c", type=float, help="width parameter for theorem1/converse")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, help="required for the perturbed kinds")
    g.add_argument("--out", required=True)

    s = sub.add_parser("stat", help="compute statistics of a points file")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--ppc", action="store_true", help="pair correlation")
    s.add_argument("--s", type=float, default=1.0, help="pair window parameter")
    s.add_argument("--klevel", action="store_true")
    s.add_argument("--k", type=int, default=3)
    s.add_argument("--windows", help="k-1 comma-separated lo:hi intervals")
    s.add_argument("--disc", action="store_true", help="discrepancy D_N and D*_N")
    s.add_argument("--profile", choices=["full", "geom"],
                   help="per-prefix discrepancy profile with max of n*D_n")
    s.add_argument("--energy", action="store_true")
    s.add_argument("--gamma", type=float, help="energy scale")
    s.add_argument("--gaps", action="store_true", help="gap distribution KS statistic")
    s.add_argument("--no-timing", action="store_true")
    s.add_argument("--out", help="write records here instead of stdout")

    e = sub.add_parser("exp", help="run a trial plan from a config file")
    e.add_argument("--config", required=True)
    e.add_argument("--threads", type=int, default=1)
    e.add_argument("--no-timing", action="store_true")
    e.add_argument("--out", help="write records here instead of stdout")

    c = sub.add_parser("check", help="width-condition report or energy certificate")
    c.add_argument("--what", required=True, choices=["gcond", "energy"])
    c.add_argument("--scale", choices=["beck", "powerlog", "const"])
    c.add_argument("--c", type=float)
    c.add_argument("--g0", type=float)
    c.add_argument("--kind", choices=["arith", "power", "vdc"], default="arith")
    c.add_argument("--alpha", type=float, default=LIOUVILLE_ALPHA)
    c.add_argument("--theta", type=float)
    c.add_argument("--base", type=int, default=2)
    c.add_argument("--n", type=int)
    c.add_argument("--ratio", type=float, default=1.25, help="geometric grid ratio")
    c.add_argument("--in", dest="infile", help="points file for --what energy")
    c.add_argument("--gamma", type=float)
    c.add_argument("--no-timing", action="store_true")
    c.add_argument("--out", help="write records here instead of stdout")
    return p


def _emit(records, args, command: str) -> None:
    include_timing = not getattr(args, "no_timing", False)
    lines = [r.to_json_line(include_timing=include_timing) for r in records]
    text = "\n".join(lines) + ("\n" if lines else "")
    out = getattr(args, "out", None)
    if out and command != "gen":
        with open(out, "w", encoding="ascii") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> list:
    if args.kind in ("theorem1", "converse"):
        if args.seed is None:
            raise _CliError(f"--kind {args.kind} requires --seed")
        if args.c is None:
            raise _CliError(f"--kind {args.kind} requires --c")
        config = GeneratorConfig(kind=args.kind, c=args.c)
        seq = config.build(args.n, args.seed)
    else:
        if args.kind == "arith" and args.alpha is None:
            raise _CliError("--kind arith requires --alpha")
        if args.kind == "power" and args.theta is None:
            raise _CliError("--kind power requires --theta")
        config = GeneratorConfig(kind=_LIBRARY_KIND[args.kind], alpha=args.alpha,
                                 theta=args.theta, base=args.base)
        seq = config.build(args.n, args.seed or 0)
    mio.write_points(args.out, seq.values)
    return []


def _parse_windows(text: str, k: int) -> CorrelationWindow:
    try:
        ivs = tuple(tuple(float(x) for x in part.split(":")) for part in text.split(","))
    except ValueError as exc:
        raise _CliError(f"malformed --windows {text!r}") from exc
    if any(len(iv) != 2 for iv in ivs):
        raise _CliError(f"malformed --windows {text!r}")
    return CorrelationWindow(k=k, intervals=ivs)


def _cmd_stat(args) -> list:
    values = mio.read_points(args.infile)
    seq = RealSequence(values)
    pts = frac_reduce(seq)
    records = []
    any_stat = False

    def record(statistic, value, window=None, error=None, error_kind=None, t0=None):
        records.append(mio.ResultRecord(
            command="stat", statistic=statistic, value=float(value), n=seq.n,
            window=window, error=error, error_kind=error_kind,
            wall_time_ms=None if t0 is None else (time.perf_counter() - t0) * 1e3))

    if args.ppc:
        any_stat = True
        t0 = time.perf_counter()
        v = pair_correlation(pts, args.s)
        record("pair_correlation", v, window=f"s={args.s:g}", t0=t0)
    if args.klevel:
        any_stat = True
        if not args.windows:
            raise _CliError("--klevel requires --windows")
        w = _parse_windows(args.windows, args.k)
        t0 = time.perf_counter()
        v = k_level_correlation(pts, w)
        record("k_level_correlation", v, window=w.describe(), t0=t0)
    if args.disc:
        any_stat = True
        t0 = time.perf_counter()
        d, dstar = discrepancy(pts)
        record("discrepancy", d, t0=t0)
        record("star_discrepancy", dstar, t0=t0)
    if args.profile:
        any_stat = True
        t0 = time.perf_counter()
        prof = discrepancy_profile(seq, grid="full" if args.profile == "full" else "geometric")
        record("max_n_discrepancy", prof.m_value,
               window=f"grid={args.profile}", t0=t0)
    if args.energy:
        any_stat = True
        if args.gamma is None:
            raise _CliError("--energy requires --gamma")
        t0 = time.perf_counter()
        res = additive_energy(seq, args.gamma)
        record("additive_energy", float(res.count), window=f"gamma={args.gamma:g}", t0=t0)
    if args.gaps:
        any_stat = True
        t0 = time.perf_counter()
        gd = gap_distribution(pts)
        record("gap_ks_vs_exponential", gd.ks_vs_exponential, t0=t0)
    if not any_stat:
        raise _CliError("stat: select at least one of --ppc/--klevel/--disc/--profile/--energy/--gaps")
    return records


def _cmd_exp(args) -> list:
    with open(args.config, "r", encoding="ascii") as f:
        plan = mio.plan_from_json(f.read())
    t0 = time.perf_counter()
    summary = run_trials(plan, threads=max(1, args.threads))
    elapsed = (time.perf_counter() - t0) * 1e3
    records = []
    for i, n in enumerate(plan.n_schedule):
        for j, w in enumerate(plan.windows):
            records.append(mio.ResultRecord(
                command="exp", statistic="trial_mean",
                value=float(summary.means[i, j]), n=n,
                seed=plan.master_seed, window=w.describe(),
                error=float(summary.standard_errors[i, j]),
                error_kind="standard_error",
                wall_time_ms=elapsed))
    return records


def _cmd_check(args) -> list:
    if args.what == "gcond":
        if args.scale is None or args.n is None:
            raise _CliError("check gcond requires --scale and --n")
        if args.scale == "beck":
            scale = ScaleFunction.beck(args.c if args.c is not None else 1.0)
        elif args.scale == "powerlog":
            scale = ScaleFunction.power_log(args.c if args.c is not None else 0.5)
        else:
            scale = ScaleFunction.constant(args.g0 if args.g0 is not None else 0.1)
        config = GeneratorConfig(kind=_LIBRARY_KIND[args.kind], alpha=args.alpha,
                                 theta=args.theta, base=args.base)
        t0 = time.perf_counter()
        seq = config.build(args.n, 0)
        prof = discrepancy_profile(seq, grid="geometric", ratio=args.ratio)
        rep = check_g_conditions(scale, prof)
        elapsed = (time.perf_counter() - t0) * 1e3
        names = ["g_over_discrepancy_diverges", "n_times_g_diverges",
                 "stretch_ratio_to_one"]
        flags = [rep.passes_divergence_g_over_d, rep.passes_divergence_ng,
                 rep.passes_stretch_to_one]
        return [mio.ResultRecord(command="check", statistic=name,
                                 value=1.0 if ok else 0.0, n=args.n,
                                 window=f"slope={slope:.6g}",
                                 wall_time_ms=elapsed)
                for name, ok, slope in zip(names, flags, rep.slopes)]
    # energy certificate
    if args.infile is None or args.gamma is None:
        raise _CliError("check energy requires --in and --gamma")
    seq = RealSequence(mio.read_points(args.infile))
    t0 = time.perf_counter()
    cert = energy_certificate(seq, args.gamma)
    elapsed = (time.perf_counter() - t0) * 1e3
    return [
        mio.ResultRecord(command="check", statistic="energy_normalized",
                         value=cert.normalized, n=seq.n,
                         window=f"gamma={args.gamma:g}", wall_time_ms=elapsed),
        mio.ResultRecord(command="check", statistic="energy_upper_ok",
                         value=1.0 if cert.upper_ok else 0.0, n=seq.n,
                         window=f"bound={cert.upper_bound:.6g}", wall_time_ms=elapsed),
    ]


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.cmd == "gen":
            records = _cmd_gen(args)
        elif args.cmd == "stat":
            records = _cmd_stat(args)
        elif args.cmd == "exp":
            records = _cmd_exp(args)
        else:
            records = _cmd_check(args)
        _emit(records, args, args.cmd)
        return 0
    except (_CliError, ValueError, OSError, KeyError) as exc:
        print(f"modone: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - internal failure boundary
        print(f"modone: internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
