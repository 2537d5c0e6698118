"""Variance partitioning of site-by-species tables with bootstrap uncertainty.

The package covers the full pipeline: synthetic Gaussian-niche communities,
linear and chi-square ordination statistics, a two-block variance partition
with the small-sample adjustment, site-bootstrap error estimates, and the
replicated simulation studies that validate those estimates.
"""

from ._version import __version__
from .analysis import (AnalysisReport, format_report, partition_tables,
                       report_to_dict, run_analysis, trend_surface)
from .errors import (DegenerateDataError, ReproductionCheckError,
                     ValidationError, VpbootError)
from .experiments import (CcaScenarioOutcome, ScenarioOutcome,
                          bootstrap_validation, cca_proportion,
                          cca_validation, pearson_r, predictor_effect_r2,
                          run_replicated_scenario, spearman_rho,
                          sweep_optimum_distance, sweep_sample_size,
                          sweep_sampling_range)
from .ordination import (PartitionResult, adjusted_r2, cca_explained,
                         center_columns, chi_square_transform,
                         fit_projection, numerical_rank, partition_from_r2,
                         rda_r2, varpart_two)
from .resample import BootstrapSummary, bootstrap_statistic
from .rng import derive_seed, stream
from .synth import (ScenarioConfig, SpeciesNiche, generate_complex_dataset,
                    generate_dataset)
from .tables import CommunityTable, PredictorBlock

__all__ = [
    "__version__",
    "AnalysisReport", "BootstrapSummary", "CcaScenarioOutcome",
    "CommunityTable", "DegenerateDataError", "PartitionResult",
    "PredictorBlock", "ReproductionCheckError", "ScenarioConfig",
    "ScenarioOutcome", "SpeciesNiche", "ValidationError", "VpbootError",
    "adjusted_r2", "bootstrap_statistic", "bootstrap_validation",
    "cca_explained", "cca_proportion", "cca_validation", "center_columns",
    "chi_square_transform", "derive_seed", "fit_projection", "format_report",
    "generate_complex_dataset", "generate_dataset", "numerical_rank",
    "partition_from_r2", "partition_tables", "pearson_r",
    "predictor_effect_r2", "rda_r2", "report_to_dict", "run_analysis",
    "run_replicated_scenario", "spearman_rho", "stream",
    "sweep_optimum_distance", "sweep_sample_size", "sweep_sampling_range",
    "trend_surface", "varpart_two",
]
