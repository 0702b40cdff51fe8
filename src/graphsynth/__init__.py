"""Graphon-level predictive synthesis for random networks.

The package combines agent network models (ER, block, logistic dot-product,
product-weight, degree-histogram) into synthesized edge-probability
forecasts: closed-form entropic tilts and KL-optimal moment calibration at
enumeration scale, least-squares/ridge/simplex synthesis of dyad forecasts,
graphon functionals with Lipschitz error transfer, sparse-regime
phase-transition simulation, heavy-tail analysis, and a link-prediction
evaluation protocol with calibration diagnostics and paired effect sizes.
"""

from .graphons import (Block, Constant, FunctionalSet, Graphon, GraphonError,
                       LinearCombo, LipschitzBudget, LogisticLowRank,
                       ProductWeight, StepMap, common_refinement,
                       functionals, gram_and_target, l2_distance,
                       lipschitz_budget, spectral_bracket, spectral_radius,
                       uniform_step_map)
from .agents import (AgentError, CalibrationFailure, ChungLu, ER,
                     ErgmSpec, GraphEnumeration, GraphPmf, InfeasibleTarget,
                     RDPG, SBM, calibrate_moment, edge_prob_matrix,
                     edge_tilt_weights, er_as_ergm, ergm_stack_tilt,
                     exact_enumeration_pmf, mixture_pmf, stat_tilt_weights,
                     statistic_matrix, tilt_er, tilt_rdpg, tilt_sbm)
from .synthesis import (DyadData, SingularDesign, WeightVector, fit_ls,
                        fit_ridge, fit_simplex, l2_risk, population_projection,
                        predict_clipped)
from .sampling import (GraphSample, PhaseCurve, giant_fraction, make_rng,
                       phase_sweep, sample_dyads, sample_graph,
                       sample_sparse_graph)
from .netstats import (DegreePmf, GraphStatistics, NetstatsError,
                       bounded_tilt_bracket, centralities, fit_tail_exponent,
                       graph_statistics, hill_tail_exponent,
                       mixture_degree_pmf, polynomial_tilt_exponent_bracket,
                       power_law_pmf, tilt_degree_pmf, triangle_count,
                       verify_tail_bracket)
from .evaluation import (MetricReport, PairedGapReport, SplitError, SplitSpec,
                         audit_split, cv_best_agent, fit_logistic_stack,
                         make_split, paired_gaps, score_metrics)
from .experiments import (ConfigError, ExperimentConfig, RunManifest,
                          StageFailure, agent_dyad_probs, config_hash,
                          default_generator, fit_agents_to_graph,
                          load_edge_list, run_experiment)
from .serialize import write_edge_list

__version__ = "0.1.0"
