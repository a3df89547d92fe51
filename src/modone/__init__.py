"""Local statistics of sequences modulo 1 and seeded perturbation experiments."""

from .seqcore import (RealSequence, TorusPoints, frac_part, frac_reduce,
                      scale_by_alpha)
from .generators import (Convergent, ConverseSchedule, GOLDEN_ALPHA,
                         LIOUVILLE_ALPHA, ScaleFunction, arithmetic_sequence,
                         converse_schedule, convergents, gen_base, gen_converse,
                         gen_theorem1, perturb, power_sequence, van_der_corput)
from .stats import (CorrelationWindow, DiscrepancyProfile, EnergyResult,
                    GapDistribution, additive_energy, discrepancy,
                    discrepancy_profile, gap_distribution, k_level_correlation,
                    pair_correlation, pair_correlation_count, reduce_scaled)
from .density import (density_l2, expected_pair_correlation, expected_pair_mean,
                      expected_window_count, perturbation_density,
                      sweep_density_integrals)
from .experiments import (ConverseReport, EnergyCertificate, GConditionReport,
                          GeneratorConfig, StatSummary, SubsequenceReport,
                          TrialPlan, check_g_conditions, converse_experiment,
                          derive_trial, energy_certificate, run_trials, subsequence_check)
from .io import ResultRecord, plan_from_json, read_points, write_points

__version__ = "0.1.0"
