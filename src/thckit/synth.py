"""Synthetic sweeps with planted ranking structure.

A planted design declares the sweep axes, the hyper-parameter values, and a
true mean score per (value, context). Generated run logs are those means
plus Gaussian noise, so the rankings a pipeline should recover are known in
advance: consistent designs must score THC 0, full reversals THC 1, and the
recovery study traces how both THC and Kendall's W respond as noise grows.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from itertools import product
from typing import Any, Mapping, Sequence

import numpy as np

from .consistency import (
    AssemblyOptions,
    IntervalSource,
    TransferSetup,
    build_consistency_report,
)
from .dataset import (
    Axis,
    BaselineTable,
    RunRecord,
    SweepDataset,
    SweepSchema,
    _AXIS_FIELDS,
    _SCHEMA_LIST_KEYS,
    _items,
    _load_yaml,
    _stringify,
)
from .stats import derive_seed

__all__ = [
    "PlantedDesign",
    "PlantedHyperparameter",
    "RecoveryRow",
    "design_from_mapping",
    "generate",
    "load_design",
    "recovery_study",
]

PATTERNS = ("consistent", "reversal", "explicit")


@dataclass(frozen=True)
class PlantedHyperparameter:
    """One hyper-parameter of a planted design.

    ``pattern`` fixes the true mean table: ``consistent`` plants the same
    strict ordering (declared order, best first) in every context,
    ``reversal`` flips that ordering on every odd-indexed context, and
    ``explicit`` takes the table from ``means`` (rows = values, columns =
    contexts). ``values`` is held as strings and ``means`` as floats.
    """

    name: str
    values: tuple[str, ...]
    pattern: str = "consistent"
    means: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        values = _items(self.values)
        if values is None:
            raise ValueError(f"hyperparameter {self.name!r}: 'values' must be a list, got {self.values!r}")
        means = _items(self.means, lambda row: _items(row, lambda x: float(x) if _is_a(x, numbers.Real) else None))
        if self.means is not None and (means is None or any(row is None or None in row for row in means)):
            raise ValueError(
                f"hyperparameter {self.name!r}: 'means' must be a list of lists of numbers, got {self.means!r}")
        for name, value in (("name", _stringify(self.name)), ("values", values),
                            ("pattern", _stringify(self.pattern)), ("means", means)):
            object.__setattr__(self, name, value)
        if not self.name:
            raise ValueError("hyperparameter name must be non-empty")
        if not self.values:
            raise ValueError(f"{self.name}: at least one value required")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"{self.name}: values must be unique")
        if "" in self.values:
            raise ValueError(f"{self.name}: values must not contain an empty string")
        if self.pattern not in PATTERNS:
            raise ValueError(f"{self.name}: unknown pattern {self.pattern!r}; expected one of {PATTERNS}")
        if (self.pattern == "explicit") != (means is not None):
            raise ValueError(f"{self.name}: a means table is required exactly when pattern is 'explicit'")
        if means is not None:
            if len(means) != len(self.values) or len({len(r) for r in means}) > 1:
                raise ValueError(f"{self.name}: means must be one equal-length row per value")
            if not all(np.isfinite(x) for row in means for x in row):
                raise ValueError(f"{self.name}: means must be finite")


@dataclass(frozen=True)
class PlantedDesign:
    """Full description of a synthetic sweep and its ground truth. An axis is
    a list of labels or a positive integer count, which numbers its labels
    (``env01`` ...). A wrongly typed field raises ``ValueError`` naming it."""

    hyperparameters: tuple[PlantedHyperparameter, ...]
    agents: tuple[str, ...] = ("agent01",)
    environments: tuple[str, ...] = ("env01", "env02")
    data_regimes: tuple[str, ...] = ("regime01",)
    context_axis: Axis = Axis.ENVIRONMENT
    seeds_per_cell: int = 3
    noise_scale: float = 0.0
    score_gap: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hyperparameters", tuple(self.hyperparameters))
        for name, prefix in zip(_SCHEMA_LIST_KEYS, ("agent", "env", "regime")):
            value = getattr(self, name)
            counted = _is_a(value, numbers.Integral) and value > 0
            labels = tuple(f"{prefix}{i:02d}" for i in range(1, value + 1)) if counted else _items(value)
            if labels is None:
                raise ValueError(f"{name!r} must be a list of labels or a positive integer count, got {value!r}")
            object.__setattr__(self, name, labels)
        try:
            object.__setattr__(self, "context_axis", Axis(self.context_axis))
        except ValueError:
            raise ValueError(f"'context_axis' must be one of {', '.join(repr(axis.value) for axis in Axis)}, "
                             f"got {self.context_axis!r}") from None
        for name, kind in (("seeds_per_cell", int), ("noise_scale", float), ("score_gap", float), ("seed", int)):
            value = getattr(self, name)
            if not _is_a(value, numbers.Integral if kind is int else numbers.Real):
                raise ValueError(f"{name!r} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
            object.__setattr__(self, name, kind(value))
        for name in _SCHEMA_LIST_KEYS:
            labels = getattr(self, name)
            if not labels or len(set(labels)) != len(labels):
                raise ValueError(f"{name} must be non-empty and unique")
            if "" in labels:
                raise ValueError(f"{name} must not contain an empty label")
        if not self.hyperparameters:
            raise ValueError("at least one hyperparameter required")
        names = [h.name for h in self.hyperparameters]
        if len(set(names)) != len(names):
            raise ValueError("hyperparameter names must be unique")
        if self.seeds_per_cell < 1:
            raise ValueError("seeds_per_cell must be >= 1")
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError("noise_scale must be finite and >= 0")
        if not (np.isfinite(self.score_gap) and self.score_gap > 0):
            raise ValueError("score_gap must be finite and > 0")
        n = len(self.axis_values(self.context_axis))
        for h in self.hyperparameters:
            if h.means is not None and len(h.means[0]) != n:
                raise ValueError(f"{h.name}: means rows must have {n} columns, one per context")

    def axis_values(self, axis: Axis) -> tuple[str, ...]:
        return getattr(self, _AXIS_FIELDS[Axis(axis)])

    def true_means(self, hyperparameter: PlantedHyperparameter) -> np.ndarray:
        """True mean score table, values x contexts."""
        m = len(hyperparameter.values)
        n = len(self.axis_values(self.context_axis))
        if hyperparameter.means is not None:
            return np.array(hyperparameter.means, dtype=float)
        forward = self.score_gap * np.arange(m - 1, -1, -1, dtype=float)
        table = np.tile(forward[:, None], (1, n))
        if hyperparameter.pattern == "reversal":
            table[:, 1::2] = forward[::-1, None]
        return table

    def schema(self) -> SweepSchema:
        return SweepSchema(**{key: getattr(self, key) for key in _SCHEMA_LIST_KEYS},
                           hyperparameters={h.name: h.values for h in self.hyperparameters})


def generate(design: PlantedDesign) -> SweepDataset:
    """Materialize a design as a validated dataset.

    Each (hyper-parameter, value, agent, environment, regime) cell draws its
    per-seed noise from its own derived generator, so output is bit-identical
    for a given design regardless of generation order. Baselines are
    random=0, human=1, so normalized scores equal raw scores.
    """
    baselines = BaselineTable({env: (0.0, 1.0) for env in design.environments})
    records: list[RunRecord] = []
    axes = list(Axis)  # A run record's order: agent, environment, data regime.
    position = axes.index(design.context_axis)
    context_index = {label: i for i, label in enumerate(design.axis_values(design.context_axis))}
    for hp in design.hyperparameters:
        means = design.true_means(hp)
        for (vi, value), *coords in product(enumerate(hp.values), *map(design.axis_values, axes)):
            mean = means[vi, context_index[coords[position]]]
            if design.noise_scale > 0:
                rng = np.random.default_rng(derive_seed(design.seed, "synth", hp.name, value, *coords))
                noise = design.noise_scale * rng.standard_normal(design.seeds_per_cell)
            else:
                noise = np.zeros(design.seeds_per_cell)
            records.extend(RunRecord(*coords, hp.name, value, s, float(mean + noise[s]))
                           for s in range(design.seeds_per_cell))
    return SweepDataset(records, baselines, design.schema())


@dataclass(frozen=True)
class RecoveryRow:
    """Monte-Carlo summary of THC and Kendall's W at one noise level.

    ``w_mean``/``w_sd`` are ``None`` when W was undefined in every trial.
    """

    noise_scale: float
    trials: int
    thc_mean: float
    thc_sd: float
    w_mean: float | None
    w_sd: float | None


def _spread(samples: Sequence[float]) -> float:
    if len(samples) < 2:
        return 0.0
    return float(np.std(samples, ddof=1))


def recovery_study(
    design: PlantedDesign,
    noise_levels: Sequence[float],
    trials: int,
    setup: TransferSetup | None = None,
    options: AssemblyOptions = AssemblyOptions(interval_source=IntervalSource.MEAN_SD),
) -> list[RecoveryRow]:
    """Re-generate a design at each noise level and summarize the scores.

    Per trial, every hyper-parameter entry of the consistency report
    contributes its THC (and W when defined); rows report the mean and
    spread over trials. Deterministic for a fixed design seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if setup is None:
        setup = next(s for s in TransferSetup if s.axis is design.context_axis)

    rows = []
    for noise in noise_levels:
        thc_samples: list[float] = []
        w_samples: list[float] = []
        for trial in range(trials):
            trial_design = dataclasses.replace(
                design, noise_scale=float(noise),
                seed=derive_seed(design.seed, "recovery", repr(float(noise)), trial))
            report, _ = build_consistency_report(
                generate(trial_design), setup, options, include_kendall=True)
            for entry in report.entries:
                thc_samples.append(entry.thc)
                if entry.kendall is not None and entry.kendall.w is not None:
                    w_samples.append(entry.kendall.w)
        rows.append(RecoveryRow(
            noise_scale=float(noise),
            trials=trials,
            thc_mean=float(np.mean(thc_samples)),
            thc_sd=_spread(thc_samples),
            w_mean=float(np.mean(w_samples)) if w_samples else None,
            w_sd=_spread(w_samples) if w_samples else None,
        ))
    return rows


def design_from_mapping(data: Mapping[str, Any]) -> PlantedDesign:
    """Build a design from parsed config data.

    Keys are :class:`PlantedDesign`'s fields, and an absent key takes its
    default; hyper-parameters map name to ``{values, pattern, means}``. This
    checks only the document's shape: :class:`PlantedDesign` and
    :class:`PlantedHyperparameter` check their fields, so a wrongly typed
    entry raises ``ValueError`` naming its key.
    """
    hps = data.get("hyperparameters")
    if not isinstance(hps, Mapping) or not hps:
        raise ValueError("design must declare a non-empty 'hyperparameters' mapping")
    planted = []
    for name, entry in hps.items():
        if not isinstance(entry, Mapping):
            raise ValueError(f"hyperparameter {name!r} must be a mapping with a 'values' list")
        planted.append(PlantedHyperparameter(name, entry.get("values", ()), entry.get("pattern", "consistent"),
                                             entry.get("means")))
    unknown = set(data) - {field.name for field in dataclasses.fields(PlantedDesign)}
    if unknown:
        raise ValueError(f"unknown design keys: {sorted(unknown, key=str)}")
    return PlantedDesign(**{**data, "hyperparameters": planted})


def _is_a(value: object, kind: type | tuple[type, ...]) -> bool:
    """Whether ``value`` is a ``kind`` and not a bool, which YAML reads from
    ``true`` and ``false``."""
    return isinstance(value, kind) and not isinstance(value, bool)


def load_design(source: Any) -> PlantedDesign:
    """Read a design from a YAML path or file object."""
    data, _ = _load_yaml(source, "<design>")
    if not isinstance(data, Mapping):
        raise ValueError("design file must contain a mapping at the top level")
    return design_from_mapping(data)
