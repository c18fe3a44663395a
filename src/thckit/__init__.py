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
    AssemblyOptions,
    CellTable,
    ConsistencyReport,
    HyperparameterConsistency,
    IntervalSource,
    PtpNormalization,
    RankProfile,
    SkippedHyperparameter,
    TransferSetup,
    assemble_profiles,
    build_consistency_report,
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
)
from .ranking import RankingMode
from .report import ReportBundle, build_report_bundle, write_report_bundle
from .stats import derive_seed, human_normalize

# Names of ``__all__`` not bound above come from ``synth``, imported on first
# use (PEP 562): only ``thckit synth`` and library callers use the generator.
def __getattr__(name: str):
    if name in __all__:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "AssemblyOptions",
    "Axis",
    "BaselineTable",
    "CellTable",
    "ConsistencyReport",
    "DatasetError",
    "EmptySliceError",
    "HyperparameterConsistency",
    "IntervalSource",
    "PlantedDesign",
    "PlantedHyperparameter",
    "PtpNormalization",
    "RankProfile",
    "RankingMode",
    "RecoveryRow",
    "ReportBundle",
    "RunRecord",
    "SkippedHyperparameter",
    "SweepDataset",
    "SweepSchema",
    "TransferSetup",
    "assemble_profiles",
    "build_consistency_report",
    "build_report_bundle",
    "bundled_schema",
    "derive_seed",
    "generate",
    "human_normalize",
    "load_dataset",
    "load_design",
    "load_schema",
    "parse_dataset",
    "rank_context",
    "recovery_study",
    "thc",
    "write_report_bundle",
]
