"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each (run with `pytest -s` to see them). Statistical criteria
use frozen master seeds; thresholds were calibrated with 3-sigma headroom."""

import json
import time

import numpy as np
import pytest

from modone import (CorrelationWindow, GeneratorConfig, GOLDEN_ALPHA,
                    LIOUVILLE_ALPHA, RealSequence, ScaleFunction, TorusPoints,
                    TrialPlan, arithmetic_sequence, check_g_conditions,
                    converse_experiment, converse_schedule, derive_trial,
                    discrepancy, discrepancy_profile, energy_certificate,
                    expected_pair_correlation, expected_pair_mean,
                    gap_distribution, gen_theorem1, k_level_correlation, pair_correlation,
                    pair_correlation_count, reduce_scaled, run_trials)
from modone.cli import run_cli

from oracles import (brute_discrepancy, brute_energy_count,
                     brute_k_level_count, brute_pair_count,
                     brute_star_discrepancy)


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exact_oracle_equivalence():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(key=10101))

    pts = TorusPoints(np.sort(rng.random(500)))
    pair_ok = pair_correlation_count(pts, 1.3) == brute_pair_count(pts.points, 1.3)

    pts3 = TorusPoints(np.sort(rng.random(60)))
    w3 = CorrelationWindow(k=3, intervals=((-0.9, 1.2), (0.1, 1.8)))
    k3_fast = round(k_level_correlation(pts3, w3) * 60)
    k3_ok = k3_fast == brute_k_level_count(pts3.points, w3)

    seq = RealSequence(np.cumsum(1.0 + rng.random(32)))
    from modone import additive_energy
    energy_ok = (additive_energy(seq, 0.8).count
                 == brute_energy_count(seq.values, 0.8))

    pts_d = TorusPoints(np.sort(rng.random(200)))
    d, dstar = discrepancy(pts_d)
    disc_ok = (abs(d - brute_discrepancy(pts_d.points)) <= 1e-12
               and abs(dstar - brute_star_discrepancy(pts_d.points)) <= 1e-12)

    elapsed = time.time() - t0
    ok = pair_ok and k3_ok and energy_ok and disc_ok and elapsed < 10.0
    _report(1, ok, f"oracle equivalence pair/k3/energy/disc = "
                   f"{pair_ok}/{k3_ok}/{energy_ok}/{disc_ok}, {elapsed:.1f}s < 10s")


def test_criterion_02_pair_limit_two_s():
    t0 = time.time()
    plan = TrialPlan(
        generator=GeneratorConfig(kind="theorem1", c=1.0),
        n_schedule=(200_000,),
        windows=(CorrelationWindow.pair(0.5), CorrelationWindow.pair(1.0),
                 CorrelationWindow.pair(2.0)),
        trials=20,
        master_seed=20_260_808,
        alpha_mode=("uniform", 1.0, 2.0),
    )
    summary = run_trials(plan)
    devs = {}
    for j, s in enumerate((0.5, 1.0, 2.0)):
        mu = summary.means[0, j]
        devs[s] = abs(mu - 2 * s) / (2 * s)
    elapsed = time.time() - t0
    ok = all(d <= 0.05 for d in devs.values()) and elapsed < 60.0
    _report(2, ok, "pair statistic vs 2s rel devs "
            + ", ".join(f"s={s}: {d:.4f}" for s, d in devs.items())
            + f" (tol 0.05), {elapsed:.1f}s < 60s")


def test_criterion_03_three_level_windows():
    plan = TrialPlan(
        generator=GeneratorConfig(kind="theorem1", c=1.0),
        n_schedule=(100_000,),
        windows=(CorrelationWindow(k=3, intervals=((0.0, 1.0), (0.0, 1.0))),
                 CorrelationWindow(k=3, intervals=((-1.0, 1.0), (-1.0, 1.0)))),
        trials=20,
        master_seed=333,
        alpha_mode=("uniform", 1.0, 2.0),
    )
    summary = run_trials(plan)
    dev_unit = abs(summary.means[0, 0] - 1.0) / 1.0
    dev_four = abs(summary.means[0, 1] - 4.0) / 4.0
    ok = dev_unit <= 0.10 and dev_four <= 0.10
    _report(3, ok, f"3-level windows rel devs {dev_unit:.4f} (target 1), "
                   f"{dev_four:.4f} (target 4), tol 0.10")


def test_criterion_04_gap_distribution():
    ks_values = []
    for t in range(10):
        zseed, alpha = derive_trial(444, t, ("uniform", 1.0, 2.0))
        pts = reduce_scaled(gen_theorem1(1.0, 100_000, zseed), alpha)
        ks_values.append(gap_distribution(pts).ks_vs_exponential)
    med = float(np.median(ks_values))
    ok = med <= 0.02
    _report(4, ok, f"median KS distance to 1-exp(-x) over 10 seeds = {med:.5f} <= 0.02")


def test_criterion_05_variance_bound():
    n = 10_000
    _, alpha = derive_trial(555, 0, ("uniform", 1.0, 2.0))
    vals = []
    for t in range(200):
        zseed, _ = derive_trial(555, t + 1)
        pts = reduce_scaled(gen_theorem1(1.0, n, zseed), alpha)
        vals.append(pair_correlation(pts, 1.0))
    var = float(np.var(vals, ddof=1))
    ok = var <= 32.0 / n
    _report(5, ok, f"Var over 200 trials at N=1e4: {var:.3e} <= 32/N = {32 / n:.3e}")


# the pinned seed and five more; (mean - exact)/se is +0.20, -1.17, -0.27,
# +0.76, +0.42 and -0.37 at them
@pytest.mark.parametrize("master_seed", [666_001, 1, 2, 3, 4, 5])
def test_criterion_06_expectation_identity(master_seed):
    n = 10_000
    _, alpha = derive_trial(666, 0, ("uniform", 1.0, 2.0))
    generator = GeneratorConfig(kind="theorem1", c=1.0)
    model = generator.model(n, alpha)
    integral, _ = expected_pair_correlation(*model, 1.0)
    exact = expected_pair_mean(*model, 1.0)
    plan = TrialPlan(
        generator=generator,
        n_schedule=(n,),
        windows=(CorrelationWindow.pair(1.0),),
        trials=50,
        master_seed=master_seed,
        alpha_mode=("fixed", alpha),
    )
    summary = run_trials(plan)
    mean = summary.means[0, 0]
    se = float(summary.standard_errors[0, 0])
    ok = abs(mean - exact) <= 3 * se
    _report(6, ok, f"trial mean {mean:.5f} vs exact mean {exact:.5f}: "
                   f"|diff| {abs(mean - exact):.5f} <= 3se {3 * se:.5f}; "
                   f"integral with self pairs {integral:.5f}")


def test_criterion_07_energy_certificate():
    t0 = time.time()
    n = 2048
    zseed, _ = derive_trial(777, 0)
    seq = gen_theorem1(1.0, n, zseed)
    gaps_ok = bool(np.all(np.diff(seq.values) >= 1.0))
    g_n = float(ScaleFunction.beck(1.0).eval(n))
    gamma = 10.0 * g_n
    cert = energy_certificate(seq, gamma)
    lower_ok = cert.normalized >= 1.0 / 50.0
    upper_ok = cert.energy.count <= (2 * gamma + 1) * n**3 + 4 * n**2
    elapsed = time.time() - t0
    ok = gaps_ok and lower_ok and upper_ok and elapsed < 30.0
    _report(7, ok, f"E/N^3 = {cert.normalized:.4f} >= 0.02, upper sandwich {upper_ok}, "
                   f"gaps>=1 {gaps_ok}, {elapsed:.1f}s < 30s")


def test_criterion_08_converse_exceedance():
    sched = converse_schedule(LIOUVILLE_ALPHA, 2)
    assert sched.complete
    rep = converse_experiment(GeneratorConfig(kind="converse", c=0.5), LIOUVILLE_ALPHA,
                              sched.n_values, trials=20, seed=8801)
    control = converse_experiment(GeneratorConfig(kind="theorem1", c=1.0), LIOUVILLE_ALPHA,
                                  sched.n_values, trials=20, seed=8802)
    control_ok = all(0.95 <= r <= 1.05 for r in control.ratios)
    ok = rep.max_ratio >= 1.2 and control_ok
    _report(8, ok, f"converse ratios {tuple(round(r, 4) for r in rep.ratios)} "
                   f"max {rep.max_ratio:.4f} >= 1.2; well-spaced control "
                   f"{tuple(round(r, 4) for r in control.ratios)} in [0.95, 1.05]")


def test_criterion_09_condition_checker():
    seq_g = arithmetic_sequence(GOLDEN_ALPHA, 100_000)
    prof_g = discrepancy_profile(seq_g, grid="geometric", ratio=1.06)
    rep_g = check_g_conditions(ScaleFunction.beck(1.0), prof_g)

    seq_l = arithmetic_sequence(LIOUVILLE_ALPHA, 100_000)
    prof_l = discrepancy_profile(seq_l, grid="geometric", ratio=1.06)
    rep_l = check_g_conditions(ScaleFunction.power_log(0.5), prof_l)

    ok = rep_g.all_pass and not rep_l.passes_divergence_g_over_d
    _report(9, ok, f"beck/golden flags "
                   f"({rep_g.passes_divergence_g_over_d}, {rep_g.passes_divergence_ng}, "
                   f"{rep_g.passes_stretch_to_one}) all pass; power_log/liouville "
                   f"g/D slope {rep_l.slopes[0]:+.3f} fails divergence: "
                   f"{not rep_l.passes_divergence_g_over_d}")


def test_criterion_10_byte_determinism(tmp_path):
    def full_run(tag):
        base = tmp_path / tag
        base.mkdir()
        pts = base / "pts.csv"
        assert run_cli(["gen", "--kind", "theorem1", "--c", "1", "--n", "2000",
                        "--seed", "99", "--out", str(pts)]) == 0
        stat_out = base / "stat.jsonl"
        assert run_cli(["stat", "--in", str(pts), "--ppc", "--s", "1",
                        "--disc", "--gaps", "--energy", "--gamma", "0.3",
                        "--no-timing", "--out", str(stat_out)]) == 0
        config = base / "plan.json"
        config.write_text(json.dumps({
            "generator": {"kind": "theorem1", "c": 1.0},
            "n_schedule": [500, 1500],
            "windows": [{"pair_s": 1.0}, {"k": 3, "intervals": [[0, 1], [0, 1]]}],
            "trials": 5, "master_seed": 31337,
            "alpha_mode": {"uniform": [1.0, 2.0]}}))
        exp_out = base / "exp.jsonl"
        assert run_cli(["exp", "--config", str(config), "--no-timing",
                        "--out", str(exp_out)]) == 0
        check_out = base / "check.jsonl"
        assert run_cli(["check", "--what", "energy", "--in", str(pts),
                        "--gamma", "0.3", "--no-timing",
                        "--out", str(check_out)]) == 0
        return (pts.read_bytes() + stat_out.read_bytes()
                + exp_out.read_bytes() + check_out.read_bytes())

    blob_a = full_run("a")
    blob_b = full_run("b")
    ok = blob_a == blob_b
    _report(10, ok, f"two identical seeded CLI runs byte-identical "
                    f"({len(blob_a)} bytes compared)")


def test_criterion_11_higher_level_windows():
    plan = TrialPlan(
        generator=GeneratorConfig(kind="theorem1", c=1.0),
        n_schedule=(100_000,),
        windows=(CorrelationWindow(k=4, intervals=((0.0, 1.0),) * 3),
                 CorrelationWindow(k=5, intervals=((-0.5, 0.5),) * 4)),
        trials=20,
        master_seed=1111,
        alpha_mode=("uniform", 1.0, 2.0),
    )
    summary = run_trials(plan)
    devs = np.abs(summary.means[0] - 1.0)
    ok = bool(np.all(devs <= 0.10))
    _report(11, ok, f"4- and 5-level windows (target 1) means "
                    f"{summary.means[0, 0]:.4f} (se {summary.standard_errors[0, 0]:.4f}), "
                    f"{summary.means[0, 1]:.4f} (se {summary.standard_errors[0, 1]:.4f}), "
                    f"rel devs {devs[0]:.4f}, {devs[1]:.4f}, tol 0.10")
