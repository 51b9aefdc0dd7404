"""ealab: a desk-scale laboratory for measuring population evolutionary
algorithms on bit-string benchmarks and checking the runs against closed-form
runtime bounds."""

from .bounds import (BoundReport, FAST_REGIME, PhaseParams, ea0_growth_lb,
                     level_bound_fast, level_bound_general, log_plus,
                     master_bound, min_level_bound_general, phase_params,
                     sudholt_bound, takeover_bound_fast, takeover_bound_general)
from .engines import EaConfig, EvolutionState, RunResult, Variant, run, run_batch
from .genotype import (BitString, ConfigError, MultiOptOneMax, OneMax,
                       UniqueOptGeneric, make_fitness)
from .harness import (CSV_COLUMNS, DominanceReport, ExperimentRow,
                      ExperimentTable, RatioFit, SweepSpec, compare_dominance,
                      emit, fit_ratio, parse_table, run_cell, sweep,
                      summarize_runs)
from .rng import mix64
from .stats import SampleStats, summarize
from .takeover import (Ea0Spec, TakeoverSpec, ea0_once, measure_level_time,
                       measure_takeover, run_ea0)
from .trees import (FamilyTreeResult, POptCheck, QOptBound, count_at_distance,
                    p_opt, q_opt_bound, simulate_family_tree, total_nodes,
                    verify_p_opt)

__version__ = "0.1.0"

__all__ = [
    "BitString", "BoundReport", "CSV_COLUMNS", "ConfigError",
    "DominanceReport", "Ea0Spec", "EaConfig", "EvolutionState",
    "ExperimentRow", "ExperimentTable", "FAST_REGIME", "FamilyTreeResult",
    "MultiOptOneMax", "OneMax", "POptCheck", "PhaseParams", "QOptBound",
    "RatioFit", "RunResult", "SampleStats", "SweepSpec", "TakeoverSpec",
    "UniqueOptGeneric", "Variant", "compare_dominance", "count_at_distance",
    "ea0_growth_lb", "ea0_once", "emit", "fit_ratio", "level_bound_fast",
    "level_bound_general", "log_plus", "make_fitness", "master_bound",
    "measure_level_time", "measure_takeover", "min_level_bound_general",
    "mix64", "p_opt", "parse_table", "phase_params", "q_opt_bound",
    "run", "run_batch", "run_cell", "run_ea0",
    "simulate_family_tree", "sudholt_bound", "summarize", "summarize_runs",
    "sweep", "takeover_bound_fast", "takeover_bound_general", "total_nodes",
    "verify_p_opt",
]
