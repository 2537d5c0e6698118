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
                          sweep_sample_size)
from .ordination import PartitionResult
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
    "bootstrap_statistic", "bootstrap_validation", "cca_proportion",
    "cca_validation", "derive_seed", "format_report",
    "generate_complex_dataset", "generate_dataset", "partition_tables",
    "pearson_r", "predictor_effect_r2", "report_to_dict", "run_analysis",
    "run_replicated_scenario", "spearman_rho", "stream", "sweep_sample_size",
    "trend_surface",
]
