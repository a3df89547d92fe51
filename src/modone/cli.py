"""Command-line surface: gen | stat | exp | check.

Exit codes: 0 success, 1 validation error (single-line diagnostic on stderr),
2 internal error.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
import time

from . import io as mio
from .experiments import (_BASE_PARAMETER, _KIND_PARAMETER, GeneratorConfig,
                          check_g_conditions, energy_certificate, run_trials)
from .generators import _SCALE_PARAMETER, LIOUVILLE_ALPHA, ScaleFunction
from .seqcore import RealSequence, frac_reduce
from .stats import (CorrelationWindow, additive_energy, discrepancy, discrepancy_profile,
                    gap_distribution, k_level_correlation, pair_correlation)


class _CliError(Exception):
    pass


def _keep_freed_memory() -> None:
    """Start glibc's heap at the thresholds its dynamic rule would learn.

    glibc raises the thresholds only to the largest block freed so far, so a
    trial plan's N-sized arrays would be trimmed from each arena after every
    call and faulted back in by the next. Setting either threshold turns the rule
    off and leaves the other at its low default, so both are set. A no-op
    where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    # the ceilings of the dynamic rule on 64-bit: DEFAULT_MMAP_THRESHOLD_MAX,
    # and twice that for trimming
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="modone", description="local statistics of sequences modulo 1")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a sequence and write a points file")
    g.add_argument("--kind", required=True, choices=list(_KIND_PARAMETER))
    g.add_argument("--alpha", type=float, help="step for --kind arithmetic")
    g.add_argument("--theta", type=float, help="exponent for --kind power")
    g.add_argument("--base", type=int, help="radix for --kind van_der_corput (default 2)")
    g.add_argument("--c", type=float, help="width parameter for theorem1/converse")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int,
                   help="required by the perturbed kinds, refused by the others")
    g.add_argument("--out", dest="points", required=True)
    g.set_defaults(run=_cmd_gen)

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
    s.set_defaults(run=_cmd_stat)

    e = sub.add_parser("exp", help="run a trial plan from a config file")
    e.add_argument("--config", required=True)
    e.add_argument("--threads", type=int, default=1)
    e.add_argument("--no-timing", action="store_true")
    e.add_argument("--out", help="write records here instead of stdout")
    e.set_defaults(run=_cmd_exp)

    c = sub.add_parser("check", help="width-condition report or energy certificate")
    c.add_argument("--what", required=True, choices=["gcond", "energy"])
    # a table of widths does not fit on the command line
    c.add_argument("--scale", choices=[f for f in _SCALE_PARAMETER if f != "table"])
    c.add_argument("--c", type=float, help="parameter of --scale beck and power_log")
    c.add_argument("--g0", type=float, help="width of --scale constant")
    c.add_argument("--kind", choices=list(_BASE_PARAMETER), default="arithmetic")
    c.add_argument("--alpha", type=float, help="default LIOUVILLE_ALPHA")
    c.add_argument("--theta", type=float)
    c.add_argument("--base", type=int, help="default 2")
    c.add_argument("--n", type=int)
    c.add_argument("--ratio", type=float, default=1.25, help="geometric grid ratio")
    c.add_argument("--in", dest="infile", help="points file for --what energy")
    c.add_argument("--gamma", type=float)
    c.add_argument("--no-timing", action="store_true")
    c.add_argument("--out", help="write records here instead of stdout")
    c.set_defaults(run=_cmd_check)
    return p


def _emit(records, args) -> None:
    include_timing = not getattr(args, "no_timing", False)
    text = "".join(r.to_json_line(include_timing=include_timing) + "\n" for r in records)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="ascii") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _timed(fn, *args, **kwargs):
    """(fn(*args, **kwargs), its wall time in ms). Callers pass the library
    function as named in this module at call time, so a name swapped on the
    module is the one that runs."""
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, (time.perf_counter() - t0) * 1e3


def _generator(args, flags, **defaults) -> GeneratorConfig:
    """--kind given every parameter flag of `flags` that was set, so that a
    parameter the kind does not take is refused as in a plan file. The kind's
    own parameter, if not set, is its entry in `defaults`."""
    given = {f: getattr(args, f) for f in flags}
    own = _KIND_PARAMETER[args.kind]
    if given[own] is None:
        given[own] = defaults.get(own)
    return GeneratorConfig(kind=args.kind, **given)


def _gen_generator(args) -> GeneratorConfig:
    return _generator(args, _KIND_PARAMETER.values(), base=2)


def _gcond_inputs(args) -> tuple[GeneratorConfig, ScaleFunction]:
    """The base and the width family of `check --what gcond`. --c and --g0 go
    to the family as the keys of a plan file's scale."""
    given = {f: getattr(args, f) for f in ("c", "g0") if getattr(args, f) is not None}
    scale = mio._scale_from_dict({"family": args.scale, **given})
    return _generator(args, _BASE_PARAMETER.values(), base=2, alpha=LIOUVILLE_ALPHA), scale


def _cmd_gen(args) -> list:
    if args.kind not in _BASE_PARAMETER and args.seed is None:
        raise _CliError(f"--kind {args.kind} requires --seed")
    if args.kind in _BASE_PARAMETER and args.seed is not None:
        raise _CliError(f"--kind {args.kind} is not random and takes no --seed")
    seq = _gen_generator(args).build(args.n, args.seed or 0)
    mio.write_points(args.points, seq.values)
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
    if not (args.ppc or args.klevel or args.disc or args.profile or args.energy or args.gaps):
        raise _CliError("stat: select at least one of --ppc/--klevel/--disc/--profile/--energy/--gaps")
    if args.klevel and not args.windows:
        raise _CliError("--klevel requires --windows")
    window = _parse_windows(args.windows, args.k) if args.klevel else None
    if args.energy and args.gamma is None:
        raise _CliError("--energy requires --gamma")
    seq = RealSequence(mio.read_points(args.infile))
    # only the profile and the energy read the raw values; without them the
    # read buffer itself is reduced and sorted, and last holds the gaps
    raw = args.profile or args.energy
    pts = frac_reduce(seq, out=None if raw else seq.values)
    records = []

    def record(statistic, value, wall_time_ms, window=None):
        records.append(mio.ResultRecord(command="stat", statistic=statistic, value=float(value),
                                        n=pts.n, window=window, wall_time_ms=wall_time_ms))

    if args.ppc:
        v, ms = _timed(pair_correlation, pts, args.s)
        record("pair_correlation", v, ms, window=f"s={args.s:g}")
    if window is not None:
        if window.is_pair:
            v, ms = _timed(pair_correlation, pts, window.intervals[0][1])
        else:
            v, ms = _timed(k_level_correlation, pts, window)
        record("k_level_correlation", v, ms, window=window.describe())
    if args.disc:
        (d, dstar), ms = _timed(discrepancy, pts)
        record("discrepancy", d, ms)
        record("star_discrepancy", dstar, ms)
    if args.profile:
        prof, ms = _timed(discrepancy_profile, seq,
                          grid="full" if args.profile == "full" else "geometric")
        record("max_n_discrepancy", prof.m_value, ms, window=f"grid={args.profile}")
    if args.energy:
        res, ms = _timed(additive_energy, seq, args.gamma)
        record("additive_energy", res.count, ms, window=f"gamma={args.gamma:g}")
    if args.gaps:   # last: the gaps overwrite the points
        gd, ms = _timed(gap_distribution, pts, out=pts.points)
        record("gap_ks_vs_exponential", gd.ks_vs_exponential, ms)
    return records


def _cmd_exp(args) -> list:
    with open(args.config, "r", encoding="ascii") as f:
        plan = mio.plan_from_json(f.read())
    summary, elapsed = _timed(run_trials, plan, threads=args.threads)
    records = []
    for i, n in enumerate(plan.n_schedule):
        for j, w in enumerate(plan.windows):
            records.append(mio.ResultRecord(
                command="exp", statistic="trial_mean",
                value=float(summary.means[i, j]), n=n,
                seed=plan.master_seed, window=w.describe(),
                error=float(summary.standard_errors[i, j]),
                wall_time_ms=elapsed))
    return records


def _cmd_check(args) -> list:
    if args.what == "gcond":
        if args.scale is None or args.n is None:
            raise _CliError("check gcond requires --scale and --n")
        config, scale = _gcond_inputs(args)

        def report():
            seq = config.build(args.n, 0)
            scale.check_cap(args.n)
            return check_g_conditions(
                scale, discrepancy_profile(seq, grid="geometric", ratio=args.ratio))

        rep, elapsed = _timed(report)
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
    cert, elapsed = _timed(energy_certificate, seq, args.gamma)
    return [
        mio.ResultRecord(command="check", statistic="energy_normalized",
                         value=cert.normalized, n=seq.n,
                         window=f"gamma={args.gamma:g}", wall_time_ms=elapsed),
        mio.ResultRecord(command="check", statistic="energy_upper_ok",
                         value=1.0 if cert.upper_ok else 0.0, n=seq.n,
                         window=f"bound={cert.upper_bound:.6g}", wall_time_ms=elapsed),
    ]


def run_cli(argv=None) -> int:
    _keep_freed_memory()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _emit(args.run(args), args)
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
