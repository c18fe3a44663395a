"""thckit: how consistently do hyper-parameter choices transfer?

Given sweep results (final score per run, keyed by agent, environment, data
regime, hyper-parameter value, and seed), this package aggregates per-value
scores into uncertainty intervals, ranks values within each context with an
overlap-aware fractional ranking, and summarizes how much each value's rank
moves across contexts as a THC score in [0, 1]. Kendall's W and tau-b are
included as classical baselines, plus a synthetic-sweep generator with
planted ground truth and a byte-stable report exporter.
"""

__version__ = "0.1.0"

from .consistency import (
    AssembledProfiles,
    AssemblyOptions,
    CellTable,
    ConsistencyReport,
    HyperparameterConsistency,
    IntervalSource,
    KendallSummary,
    PtpNormalization,
    RankProfile,
    SkippedHyperparameter,
    TransferSetup,
    assemble_profiles,
    build_consistency_report,
    kendall_tau_matrix,
    kendall_w,
    mean_pairwise_tau,
    normalized_ptp,
    ptp,
    rank_context,
    thc,
)
from .dataset import (
    Axis,
    BaselineTable,
    DatasetError,
    EmptySliceError,
    RunRecord,
    SweepDataset,
    SweepSchema,
    bundled_schema,
    load_dataset,
    load_schema,
    parse_dataset,
    slice_scores,
)
from .ranking import RankedSetting, RankingMode, RankingTable, compute_rankings
from .report import ReportBundle, build_report_bundle, write_report_bundle
from .stats import (
    Interval,
    ScoreMatrix,
    derive_seed,
    human_normalize,
    iqm,
    mean_and_spread,
    stratified_bootstrap_ci,
)

# Names of ``__all__`` not bound above come from ``synth``, imported on first
# use (PEP 562): only ``thckit synth`` and library callers use the generator.
def __getattr__(name: str):
    if name in __all__:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "AssembledProfiles",
    "AssemblyOptions",
    "Axis",
    "BaselineTable",
    "CellTable",
    "ConsistencyReport",
    "DatasetError",
    "EmptySliceError",
    "HyperparameterConsistency",
    "Interval",
    "IntervalSource",
    "KendallSummary",
    "PlantedDesign",
    "PlantedHyperparameter",
    "PtpNormalization",
    "RankProfile",
    "RankedSetting",
    "RankingMode",
    "RankingTable",
    "RecoveryRow",
    "ReportBundle",
    "RunRecord",
    "ScoreMatrix",
    "SkippedHyperparameter",
    "SweepDataset",
    "SweepSchema",
    "TransferSetup",
    "assemble_profiles",
    "build_consistency_report",
    "build_report_bundle",
    "bundled_schema",
    "compute_rankings",
    "derive_seed",
    "generate",
    "human_normalize",
    "iqm",
    "kendall_tau_matrix",
    "kendall_w",
    "load_dataset",
    "load_design",
    "load_schema",
    "mean_and_spread",
    "mean_pairwise_tau",
    "normalized_ptp",
    "parse_dataset",
    "ptp",
    "rank_context",
    "recovery_study",
    "slice_scores",
    "stratified_bootstrap_ci",
    "thc",
    "write_report_bundle",
]
