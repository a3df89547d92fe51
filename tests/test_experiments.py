import numpy as np
import pytest
from numpy.testing import assert_array_equal

from modone import (CorrelationWindow, GOLDEN_ALPHA, GeneratorConfig,
                    LIOUVILLE_ALPHA, RealSequence, ScaleFunction, TrialPlan,
                    arithmetic_sequence, check_g_conditions,
                    converse_experiment, density_l2, derive_trial,
                    discrepancy_profile, energy_certificate, frac_reduce,
                    gen_base, pair_correlation, perturb, run_trials, scale_by_alpha,
                    subsequence_check)
from modone.experiments import _BASE_PARAMETER

from oracles import brute_energy_count


def small_plan(**overrides):
    kw = dict(
        generator=GeneratorConfig(kind="arithmetic", alpha=GOLDEN_ALPHA),
        n_schedule=(200,),
        windows=(CorrelationWindow.pair(1.0),),
        trials=1,
        master_seed=7,
        alpha_mode=("fixed", 1.0),
    )
    kw.update(overrides)
    return TrialPlan(**kw)


# ---------------------------------------------------------------------------
# trial plans

def test_plan_validation():
    with pytest.raises(ValueError):
        small_plan(n_schedule=(100, 100))
    with pytest.raises(ValueError):
        small_plan(n_schedule=())
    with pytest.raises(ValueError):
        small_plan(trials=0)
    with pytest.raises(ValueError):
        small_plan(alpha_mode=("bogus", 1.0))
    for bad in (dict(master_seed=-1), dict(master_seed=2.0), dict(trials=2.7),
                dict(trials=True), dict(n_schedule=(200.5,)),
                dict(alpha_mode=("uniform", 2.0, 1.0)),
                dict(alpha_mode=("uniform", 1.0)), dict(alpha_mode=("fixed", float("nan"))),
                dict(alpha_mode=("fixed", float("-inf")))):
        with pytest.raises(ValueError):
            small_plan(**bad)


@pytest.mark.parametrize("generator", [
    GeneratorConfig(kind="arithmetic", alpha=GOLDEN_ALPHA),
    GeneratorConfig(kind="power", theta=2.0),
    GeneratorConfig(kind="theorem1", c=1.0),
    GeneratorConfig(kind="converse", c=0.5),
    GeneratorConfig(kind="van_der_corput", base=2, scale=ScaleFunction.constant(0.1)),
])
def test_plan_rejects_a_dilation_past_the_float_range(generator):
    # a perturbed van der Corput point may reach 1 + WIDTH_CAP
    for alpha_mode in (("fixed", 1.5e308), ("uniform", -1.5e308, 1.0)):
        with pytest.raises(ValueError, match="alpha 1.5e\\+308 dilates .* at N=200 "):
            small_plan(generator=generator, alpha_mode=alpha_mode)


def test_plan_admits_a_dilation_that_stays_finite():
    # van der Corput points lie in [0, 1), so alpha = 1.5e308 keeps them finite
    plan = small_plan(generator=GeneratorConfig(kind="van_der_corput", base=2),
                      alpha_mode=("fixed", 1.5e308))
    assert run_trials(plan).means.shape == (1, 1)


def test_plan_accepts_numpy_integers():
    plan = small_plan(trials=np.int64(2), master_seed=np.uint32(5))
    assert run_trials(plan).means.shape == (1, 1)


@pytest.mark.parametrize("n_schedule, window, message", [
    ((2, 100), CorrelationWindow(k=3, intervals=((0.0, 1.0), (0.0, 1.0))), "at least k=3"),
    ((4, 100), CorrelationWindow(k=3, intervals=((0.0, 1.0), (-1.0, 1.0))), "half the circle"),
    ((3, 100), CorrelationWindow.pair(1.5), "half the circle"),
])
def test_plan_rejects_windows_too_wide_for_smallest_n(n_schedule, window, message):
    with pytest.raises(ValueError, match=message):
        small_plan(n_schedule=n_schedule, windows=(window,))


def test_plan_refuses_a_given_width_past_the_cap():
    # eval caps every width, so a constant or table width above the cap would run capped
    for scale, text in ((ScaleFunction.constant(0.7), "constant width 0.7"),
                        (ScaleFunction.table([0.1] * 199 + [0.5]), "table width 0.5")):
        with pytest.raises(ValueError, match=f"^{text} exceeds 0.45$"):
            small_plan(generator=GeneratorConfig(kind="arithmetic", alpha=1.0, scale=scale))
    # beck clamps small n through the cap; a table may pass it beyond the largest N
    for scale in (ScaleFunction.constant(0.45), ScaleFunction.beck(50.0),
                  ScaleFunction.table([0.1] * 200 + [0.9])):
        small_plan(generator=GeneratorConfig(kind="arithmetic", alpha=1.0, scale=scale))


def test_single_trial_identity_with_direct_statistic():
    plan = small_plan()
    summary = run_trials(plan)
    direct = pair_correlation(frac_reduce(gen_base("arithmetic", 200,
                                                   alpha=GOLDEN_ALPHA)), 1.0)
    assert summary.values[0, 0, 0] == direct
    assert summary.means[0, 0] == direct
    assert summary.standard_errors[0, 0] == 0.0


def test_run_trials_bitwise_reproducibility():
    plan = small_plan(generator=GeneratorConfig(kind="theorem1", c=1.0),
                      trials=5, alpha_mode=("uniform", 1.0, 2.0))
    a = run_trials(plan)
    b = run_trials(plan)
    assert_array_equal(a.values, b.values)
    assert a.alphas == b.alphas


def test_prefix_consistency_across_schedules():
    # within one trial, the statistic at N1 uses the same realization
    # regardless of the larger schedule entries
    gen = GeneratorConfig(kind="theorem1", c=1.0)
    long = run_trials(small_plan(generator=gen, n_schedule=(150, 600), trials=3,
                                 alpha_mode=("uniform", 1.0, 2.0)))
    short = run_trials(small_plan(generator=gen, n_schedule=(150,), trials=3,
                                  alpha_mode=("uniform", 1.0, 2.0)))
    assert_array_equal(long.values[:, 0, :], short.values[:, 0, :])


def test_alpha_modes():
    plan = small_plan(trials=6, alpha_mode=("uniform", 1.0, 2.0),
                      generator=GeneratorConfig(kind="theorem1", c=1.0))
    summary = run_trials(plan)
    assert all(1.0 <= a < 2.0 for a in summary.alphas)
    assert len(set(summary.alphas)) > 1
    fixed = run_trials(small_plan(trials=3, alpha_mode=("fixed", 1.25),
                                  generator=GeneratorConfig(kind="theorem1", c=1.0)))
    assert fixed.alphas == (1.25, 1.25, 1.25)


def test_derive_trial_is_pure():
    assert derive_trial(99, 3) == derive_trial(99, 3)
    assert derive_trial(99, 3) != derive_trial(99, 4)
    assert derive_trial(99, 3, ("uniform", 1.0, 2.0)) == \
        derive_trial(99, 3, ("uniform", 1.0, 2.0))


def test_thread_count_does_not_change_results():
    plan = small_plan(generator=GeneratorConfig(kind="theorem1", c=1.0),
                      trials=8, n_schedule=(100, 300),
                      windows=(CorrelationWindow.pair(0.5),
                               CorrelationWindow(k=3, intervals=((0, 1), (0, 1)))),
                      alpha_mode=("uniform", 1.0, 2.0))
    serial = run_trials(plan, threads=1)
    threaded = run_trials(plan, threads=4)
    assert_array_equal(serial.values, threaded.values)


def test_trial_errors_carry_the_trial_index(monkeypatch):
    # a build that fails only once the plan is made fails inside the trial
    plan = small_plan(trials=2)

    def failing_build(self, n, seed):
        raise ValueError("sequence values must be finite")

    monkeypatch.setattr(GeneratorConfig, "build", failing_build)
    with pytest.raises(RuntimeError, match="trial 0"):
        run_trials(plan)


def test_generator_config_checks_the_range_at_construction():
    with pytest.raises(ValueError, match="0 < c <= 1/2"):
        GeneratorConfig(kind="converse", c=0.9)


def test_mixed_windows_match_individual_statistics(rng):
    from modone import k_level_correlation, reduce_scaled

    plan = small_plan(
        generator=GeneratorConfig(kind="theorem1", c=1.0),
        n_schedule=(400,),
        windows=(CorrelationWindow.pair(1.0),
                 CorrelationWindow(k=3, intervals=((0.0, 1.0), (0.0, 1.0)))),
        trials=2, alpha_mode=("uniform", 1.0, 2.0))
    summary = run_trials(plan)
    for t in range(2):
        zseed, alpha = derive_trial(7, t, ("uniform", 1.0, 2.0))
        pts = reduce_scaled(plan.generator.build(400, zseed), alpha)
        assert summary.values[t, 0, 0] == pair_correlation(pts, 1.0)
        assert summary.values[t, 0, 1] == k_level_correlation(
            pts, plan.windows[1])


# ---------------------------------------------------------------------------
# the perturbation model

MODEL_CONFIGS = [
    GeneratorConfig(kind="theorem1", c=1.0),
    GeneratorConfig(kind="converse", c=0.5),
    GeneratorConfig(kind="arithmetic", alpha=GOLDEN_ALPHA),
    GeneratorConfig(kind="arithmetic", alpha=-0.7, scale=ScaleFunction.constant(0.2)),
    GeneratorConfig(kind="power", theta=1.5),
    GeneratorConfig(kind="power", theta=1.5, scale=ScaleFunction.power_log(1.0)),
    GeneratorConfig(kind="van_der_corput", base=3),
    GeneratorConfig(kind="van_der_corput", base=2, scale=ScaleFunction.beck(1.0)),
    GeneratorConfig(kind="van_der_corput", base=5,
                    scale=ScaleFunction.table(np.linspace(0.0, 0.3, 300))),
]
MODEL_IDS = [f"{g.kind}-{g.scale.family}" if g.scale else g.kind for g in MODEL_CONFIGS]


def _bits(seq):
    return seq.values.view(np.uint64)


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
@pytest.mark.parametrize("config", MODEL_CONFIGS, ids=MODEL_IDS)
def test_build_perturbs_the_model_at_alpha_one(config, seed):
    n = 300
    centres, widths = config.model(n, 1.0)
    built = config.build(n, seed)
    assert (widths is None) == (config.scale is None and config.kind in _BASE_PARAMETER)
    if widths is None:
        assert_array_equal(_bits(centres), _bits(built))
    else:
        assert_array_equal(_bits(perturb(centres, widths, seed)), _bits(built))


@pytest.mark.parametrize("alpha", [LIOUVILLE_ALPHA, -1.5])
@pytest.mark.parametrize("config", MODEL_CONFIGS, ids=MODEL_IDS)
def test_model_dilates_the_centres_and_widths(config, alpha):
    n = 300
    base, widths = config.model(n, 1.0)
    centres, dilated = config.model(n, alpha)
    assert_array_equal(_bits(centres), _bits(scale_by_alpha(base, alpha)))
    if widths is None:
        assert dilated is None
    else:
        assert_array_equal(dilated.values, abs(alpha) * widths.values)


def test_model_refuses_dilated_widths_past_the_cap():
    config = GeneratorConfig(kind="arithmetic", alpha=1.0, scale=ScaleFunction.constant(0.3))
    for alpha in (2.0, -2.0):
        with pytest.raises(ValueError,
                           match=rf"^dilated width 0\.6 at n=1, alpha={alpha:g} exceeds 0\.45$"):
            config.model(10, alpha)
    assert config.model(10, 1.5)[1].eval(10) == 0.3 * 1.5
    at_cap = GeneratorConfig(kind="arithmetic", alpha=1.0, scale=ScaleFunction.constant(0.45))
    assert at_cap.model(10, -1.0)[1].eval(10) == 0.45
    # the first index past the cap is the one named
    table = GeneratorConfig(kind="power", theta=1.0, scale=ScaleFunction.table([0.1, 0.2, 0.4]))
    with pytest.raises(ValueError, match=r"width 0\.6 at n=3, alpha=1\.5 "):
        table.model(3, 1.5)


# ---------------------------------------------------------------------------
# regularity conditions

def test_conditions_constant_family_trivial_flags():
    seq = arithmetic_sequence(GOLDEN_ALPHA, 20_000)
    prof = discrepancy_profile(seq, grid="geometric", ratio=1.15)
    rep = check_g_conditions(ScaleFunction.constant(0.1), prof)
    assert rep.passes_divergence_ng            # N g = 0.1 N diverges
    assert rep.passes_stretch_to_one           # ratio identically 1
    assert np.all(rep.stretch_ratio == 1.0)
    assert rep.slopes[1] == pytest.approx(1.0, abs=1e-6)


def test_conditions_beck_over_golden_all_pass():
    seq = arithmetic_sequence(GOLDEN_ALPHA, 50_000)
    prof = discrepancy_profile(seq, grid="geometric", ratio=1.07)
    rep = check_g_conditions(ScaleFunction.beck(1.0), prof)
    assert rep.all_pass


def test_conditions_powerlog_over_liouville_fails_first():
    seq = arithmetic_sequence(LIOUVILLE_ALPHA, 50_000)
    prof = discrepancy_profile(seq, grid="geometric", ratio=1.07)
    rep = check_g_conditions(ScaleFunction.power_log(0.5), prof)
    assert not rep.passes_divergence_g_over_d
    assert rep.passes_divergence_ng            # N g = sqrt(log N) still diverges
    assert not rep.all_pass


# ---------------------------------------------------------------------------
# converse experiment

CONVERSE = GeneratorConfig(kind="converse", c=0.5)


def test_converse_smoke_small():
    rep = converse_experiment(CONVERSE, LIOUVILLE_ALPHA, [26], trials=1, seed=3)
    assert len(rep.ratios) == 1
    assert rep.max_ratio == rep.ratios[0]


def test_converse_validation():
    with pytest.raises(ValueError):
        converse_experiment(CONVERSE, LIOUVILLE_ALPHA, [26], trials=0, seed=3)
    with pytest.raises(ValueError):
        converse_experiment(CONVERSE, LIOUVILLE_ALPHA, [], trials=1, seed=3)


def test_converse_means_are_pinned():
    # recorded before converse_experiment moved onto run_trials
    rep = converse_experiment(CONVERSE, LIOUVILLE_ALPHA, [1000, 5000], 7, 11)
    assert rep.means == (1.1297142857142857, 1.1924571428571427)


def test_converse_generator_override_smoke():
    rep = converse_experiment(GeneratorConfig(kind="theorem1", c=1.0), LIOUVILLE_ALPHA,
                              [50, 100], trials=2, seed=3)
    assert len(rep.means) == 2


# ---------------------------------------------------------------------------
# energy certificate

def test_energy_certificate_integer_progression():
    n = 16
    seq = RealSequence(2.0 * np.arange(1, n + 1))
    cert = energy_certificate(seq, 0.5)
    assert cert.energy.count == (2 * n**3 + n) // 3 == 2736
    assert cert.energy.count == brute_energy_count(seq.values, 0.5)
    assert cert.lower_ok and cert.upper_ok


def test_energy_certificate_rejects_crowded_sequences():
    with pytest.raises(ValueError, match="well spaced"):
        energy_certificate(RealSequence([1.0, 1.5, 2.0]), 0.5)


def test_energy_certificate_upper_bound_formula(rng):
    seq = RealSequence(np.cumsum(1.0 + rng.random(64)))
    gamma = 0.7
    cert = energy_certificate(seq, gamma)
    assert cert.upper_bound == (2 * gamma + 1) * 64**3 + 4 * 64**2
    assert cert.upper_ok


# ---------------------------------------------------------------------------
# subsequence concentration

def test_subsequence_check_fourth_powers():
    plan = small_plan(generator=GeneratorConfig(kind="theorem1", c=1.0),
                      n_schedule=(256, 625, 1296), trials=4,
                      windows=(CorrelationWindow.pair(1.0),),
                      alpha_mode=("uniform", 1.0, 2.0), master_seed=11)
    rep = subsequence_check(run_trials(plan))
    assert rep.deviations.shape == (3, 1)
    assert np.all(rep.thresholds == 3.0 / np.array([256, 625, 1296]) ** 0.25)
    assert np.all(rep.within)


def test_subsequence_check_degenerate_lattice_smoke():
    # equally spaced points: the report is produced, nothing is asserted on it
    plan = small_plan(generator=GeneratorConfig(kind="arithmetic", alpha=1 / 97),
                      n_schedule=(81, 256, 625), trials=1)
    rep = subsequence_check(run_trials(plan))
    assert rep.deviations.shape == (3, 1)


def test_subsequence_check_needs_three_points():
    plan = small_plan(n_schedule=(256, 625), trials=1)
    with pytest.raises(ValueError, match="3 schedule points"):
        subsequence_check(run_trials(plan))


# ---------------------------------------------------------------------------
# density diagnostics

def test_density_l2_decreases_for_wellspaced_construction():
    _, alpha = derive_trial(888, 0, ("uniform", 1.0, 2.0))
    theorem1 = GeneratorConfig(kind="theorem1", c=1.0)
    vals = [density_l2(*theorem1.model(n, alpha)) for n in (1000, 10_000, 100_000)]
    assert vals[0] > vals[1] > vals[2] >= 1.0


def test_density_l2_stays_concentrated_for_converse_orbit():
    from modone import converse_schedule, convergents

    sched = converse_schedule(LIOUVILLE_ALPHA, 2)
    cv = {c.q: c for c in convergents(LIOUVILLE_ALPHA, max(sched.q_values))}
    # first schedule point is enough to exercise the rational-orbit pileup
    n, q = sched.n_values[0], sched.q_values[0]
    widths = GeneratorConfig(kind="converse", c=0.5).model(n, LIOUVILLE_ALPHA)[1]
    l2 = density_l2(arithmetic_sequence(cv[q].p / q, n), widths)
    assert l2 >= 1.1


def test_wellspaced_energy_at_ten_thousand():
    from modone import additive_energy, gen_theorem1

    n = 10_000
    seq = gen_theorem1(1.0, n, 7)
    g_n = float(ScaleFunction.beck(1.0).eval(n))
    res = additive_energy(seq, 10.0 * g_n)
    assert res.normalized >= 1.0 / 50.0
