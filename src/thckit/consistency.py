"""Cross-context consistency scoring.

Given rankings of a hyper-parameter's values in several contexts (agents,
environments, or data regimes), the THC score measures how much each value's
rank moves around: per value, take the peak-to-peak spread of its ranks
across contexts, normalize by the largest spread a value could show
(``m - 1`` for ``m`` values), and average over values. 0 means every value
kept its rank everywhere; 1 means every value swung between best and worst.

Kendall's W and pairwise Kendall's tau-b are provided as classical
comparison baselines. Profiles read their cells' intervals from a
:class:`CellTable`, which aggregates whole contexts of the dataset's
human-normalised scores in array passes. Each profile's contexts are
ranked with one ``rank_intervals`` call, and a setup's profiles of one
shape are scored in one pass; the one-profile functions are calls of that
pass.
"""

from __future__ import annotations

import enum
import functools
import itertools
import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .dataset import Axis, SweepDataset, SweepSchema, slice_scores
from .ranking import RankingMode, RankingTable, compute_rankings, rank_intervals
from .stats import (
    _require_resampling,
    DEFAULT_CONFIDENCE,
    DEFAULT_RESAMPLES,
    Interval,
    derive_seed,
    pooled_bootstrap_cis,
    pooled_mean_and_spreads,
)

__all__ = [
    "AssembledProfiles",
    "AssemblyOptions",
    "CellTable",
    "ConsistencyReport",
    "HyperparameterConsistency",
    "IntervalSource",
    "KendallSummary",
    "PtpNormalization",
    "RankProfile",
    "SkippedHyperparameter",
    "TransferSetup",
    "assemble_profiles",
    "build_consistency_report",
    "kendall_tau_matrix",
    "kendall_w",
    "mean_pairwise_tau",
    "normalized_ptp",
    "ptp",
    "rank_context",
    "thc",
]

logger = logging.getLogger(__name__)


class TransferSetup(str, enum.Enum):
    """Which coordinate plays the role of the context being varied."""

    ACROSS_AGENTS = "agents"
    ACROSS_ENVIRONMENTS = "environments"
    ACROSS_DATA_REGIMES = "data_regimes"

    @property
    def axis(self) -> Axis:
        return {
            TransferSetup.ACROSS_AGENTS: Axis.AGENT,
            TransferSetup.ACROSS_ENVIRONMENTS: Axis.ENVIRONMENT,
            TransferSetup.ACROSS_DATA_REGIMES: Axis.DATA_REGIME,
        }[self]


class PtpNormalization(str, enum.Enum):
    """How per-value peak-to-peak rank spreads are normalized.

    ``MAX`` divides each spread by its largest attainable value, ``m - 1``.
    ``SUM`` divides by the total spread over all values; it is kept for
    auditability only, since it collapses the averaged score to ``1/m``
    whenever any inconsistency exists at all.
    """

    MAX = "max"
    SUM = "sum"


class IntervalSource(str, enum.Enum):
    """How per-value seed scores become an interval for ranking."""

    IQM_CI = "iqm_ci"
    MEAN_SD = "mean_sd"


@dataclass(frozen=True)
class RankProfile:
    """Final ranks of one hyper-parameter's values across several contexts.

    ``ranks[i, j]`` is the rank of ``values[i]`` in ``contexts[j]``. All
    entries must be present; values that could not be ranked in every
    context are excluded before a profile is built. An assembled profile
    also holds the cells and positions it was ranked from, which the report
    export writes; a profile built from ranks alone has neither.
    """

    hyperparameter: str
    values: tuple[str, ...]
    contexts: tuple[str, ...]
    ranks: np.ndarray
    fixed: Mapping[str, str] = field(default_factory=dict)
    #: ``(3, values, contexts)`` lower bounds, upper bounds and points of the ranked cells.
    intervals: np.ndarray | None = field(default=None, compare=False, repr=False)
    #: ``(values, contexts)``: ``order[p, j]`` is the index of the value at position ``p + 1`` in context ``j``.
    order: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        # C order, so that scoring the profile alone or in a stack adds alike.
        ranks = np.ascontiguousarray(self.ranks, dtype=float)
        object.__setattr__(self, "ranks", ranks)
        if len(set(self.values)) != len(self.values):
            raise ValueError("profile values must be unique")
        if len(set(self.contexts)) != len(self.contexts):
            raise ValueError("profile contexts must be unique")
        if ranks.shape != (len(self.values), len(self.contexts)):
            raise ValueError(
                f"rank matrix shape {ranks.shape} does not match "
                f"{len(self.values)} values x {len(self.contexts)} contexts"
            )
        if ranks.size == 0:
            raise ValueError("profile must contain at least one value and one context")
        for name, shape in (("intervals", (3, *ranks.shape)), ("order", ranks.shape)):
            array = getattr(self, name)
            if array is not None and np.shape(array) != shape:
                raise ValueError(f"{name} shape {np.shape(array)} does not match {shape}")
        if not np.all(np.isfinite(ranks)):
            raise ValueError("profile ranks must all be present and finite")


def ptp(ranks: Sequence[float]) -> float:
    """Peak-to-peak spread (max minus min) of one value's ranks."""
    arr = np.asarray(ranks, dtype=float)
    if arr.size == 0:
        raise ValueError("ptp of an empty rank list is undefined")
    return float(arr.max() - arr.min())


def normalized_ptp(
    ptp_values: Sequence[float],
    m: int | None = None,
    mode: PtpNormalization = PtpNormalization.MAX,
) -> list[float]:
    """Normalize per-value rank spreads into [0, 1].

    ``m`` is the number of values the spreads were computed over; it
    defaults to ``len(ptp_values)``.
    """
    spreads = np.array([[float(p) for p in ptp_values]])
    if (spreads < 0).any():
        raise ValueError("ptp values must be non-negative")
    if m is None:
        m = spreads.shape[1]
    if m < 1:
        raise ValueError("value count m must be >= 1")
    return _normalized(spreads, m, PtpNormalization(mode))[0].tolist()


# The kernels below score a stack of ``n`` profiles' ``(v, c)`` rank matrices
# at once. Each of their numpy reductions runs over a contiguous last axis, so
# a profile's scores are bit for bit those of a stack of one.

@functools.cache
def _triu(n: int, k: int) -> tuple[np.ndarray, ...]:
    """``np.triu_indices(n, k)``, made once per size and read-only, as every caller shares it."""
    pairs = np.triu_indices(n, k)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _normalized(spreads: np.ndarray, m: int, mode: PtpNormalization) -> np.ndarray:
    """Each row of ``(n, k)`` rank spreads over ``m`` values, normalized."""
    if mode is PtpNormalization.MAX:
        return spreads / (m - 1) if m > 1 else np.zeros_like(spreads)
    totals = np.array([[sum(row)] for row in spreads.tolist()])
    return np.divide(spreads, totals, out=np.zeros_like(spreads), where=totals != 0)


def _spreads(ranks: np.ndarray, mode: PtpNormalization) -> list[list[float]]:
    """Each profile's normalized rank spread per value."""
    return _normalized(ranks.max(axis=2) - ranks.min(axis=2), ranks.shape[1], mode).tolist()


def _kendall_ws(ranks: np.ndarray) -> list[float | None]:
    """Each profile's Kendall W; see :func:`kendall_w`."""
    n, v, c = ranks.shape
    totals = ranks.sum(axis=2)
    s = ((totals - totals.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
    # Tie groups of every context at once: sort each context's ranks, mark
    # where a new rank starts, and take each group's size t as the gap
    # between marks. Each context's row starts with a mark, so no group
    # spans two contexts, and the t**3 - t sums are exact integers.
    ordered = np.sort(ranks, axis=1).transpose(0, 2, 1)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    marks = np.flatnonzero(starts)
    t = np.diff(np.append(marks, starts.size))
    tie_term = np.bincount(marks // (v * c), weights=t**3 - t, minlength=n)
    denom = c * c * (v**3 - v) - c * tie_term
    return [12.0 * total / d if d > 0 else None for total, d in zip(s.tolist(), denom.tolist())]


def _taus(ranks: np.ndarray, diagonal: int) -> np.ndarray:
    """Each profile's tau-b of every context pair ``(i, j)``, ``i + diagonal
    <= j``, in ``np.triu_indices`` order.

    All come from one sign matrix ``S`` per profile with a row per value pair
    and a column per context: ``S.T @ S`` holds every concordant minus
    discordant count exactly, and its diagonal each context's number of
    non-tied pairs ``n``. Entry ``(i, j)`` is formed in scipy's
    ``kendalltau`` operation order: the count divided by ``sqrt(n_i)``, then
    by ``sqrt(n_j)``, clipped to [-1, 1]."""
    _, v, c = ranks.shape
    first, second = _triu(v, 1)
    signs = np.sign(ranks[:, first] - ranks[:, second]).astype(np.int64)
    con_minus_dis = np.einsum("nkc,nkd->ncd", signs, signs)
    untied = np.einsum("ncc->nc", con_minus_dis)
    root = np.where(untied > 0, np.sqrt(untied), np.nan)
    i, j = _triu(c, diagonal)
    # Indexing after a slice lays the pairs out profile-minor; a profile's
    # mean must add its entries along a contiguous row.
    return np.ascontiguousarray(np.clip(con_minus_dis[:, i, j] / root[:, i] / root[:, j], -1.0, 1.0))


def _mean_taus(ranks: np.ndarray) -> list[float | None]:
    """Each profile's mean of its defined off-diagonal tau-b entries."""
    taus = _taus(ranks, 1)
    finite = np.isfinite(taus)
    means = taus.mean(axis=1).tolist()
    for k in np.flatnonzero(~finite.all(axis=1)).tolist():
        defined = taus[k, finite[k]]
        means[k] = defined.mean().item() if defined.size else None
    return means


def _contexts(profile: RankProfile, name: str) -> int:
    if profile.ranks.shape[1] < 2:
        raise ValueError(f"{name} needs at least 2 contexts")
    return profile.ranks.shape[1]


def thc(profile: RankProfile, mode: PtpNormalization = PtpNormalization.MAX) -> float:
    """THC score of a profile: mean normalized rank spread over its values.

    A single-context profile scores 0 (there is nothing to be inconsistent
    about), as does one whose values keep identical ranks everywhere.
    """
    (spreads,) = _spreads(profile.ranks[np.newaxis], PtpNormalization(mode))
    return sum(spreads) / len(spreads)


def kendall_w(profile: RankProfile) -> float | None:
    """Tie-corrected coefficient of concordance across the profile's
    contexts; 1 means identical rankings. Returns ``None`` when every
    ranking is fully tied (the statistic is undefined)."""
    _contexts(profile, "kendall_w")
    if len(profile.values) < 2:
        raise ValueError("kendall_w needs at least 2 values")
    return _kendall_ws(profile.ranks[np.newaxis])[0]


def kendall_tau_matrix(profile: RankProfile) -> np.ndarray:
    """Pairwise tau-b between every pair of context rankings.

    Entries are ``nan`` where the statistic is undefined (a fully tied
    ranking involved); the diagonal is 1 whenever a ranking has at least one
    non-tied pair. Each entry equals ``kendalltau(ranks[:, i], ranks[:, j])``
    bit for bit; see :func:`_taus`.
    """
    c = _contexts(profile, "kendall_tau_matrix")
    i, j = _triu(c, 0)
    out = np.empty((c, c))
    out[i, j] = out[j, i] = _taus(profile.ranks[np.newaxis], 0)[0]
    return out


def mean_pairwise_tau(profile: RankProfile) -> float | None:
    """Mean of the defined off-diagonal tau-b entries; ``None`` if none are
    defined."""
    _contexts(profile, "mean_pairwise_tau")
    return _mean_taus(profile.ranks[np.newaxis])[0]


# -- profile assembly from a dataset -----------------------------------------


@dataclass(frozen=True)
class AssemblyOptions:
    """Knobs for turning a dataset into rank profiles. The bootstrap's
    ``resamples`` and ``confidence`` are checked whatever the interval source."""

    interval_source: IntervalSource = IntervalSource.IQM_CI
    ranking_mode: RankingMode = RankingMode.SPAN
    resamples: int = DEFAULT_RESAMPLES
    confidence: float = DEFAULT_CONFIDENCE
    seed: int = 0
    agent: str | None = None
    environment: str | None = None
    data_regime: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "interval_source", IntervalSource(self.interval_source))
        object.__setattr__(self, "ranking_mode", RankingMode(self.ranking_mode))
        _require_resampling(self.resamples, self.confidence)


@dataclass(frozen=True)
class SkippedHyperparameter:
    hyperparameter: str
    fixed: Mapping[str, str]
    reason: str


@dataclass(frozen=True)
class AssembledProfiles:
    profiles: tuple[RankProfile, ...]
    skipped: tuple[SkippedHyperparameter, ...]
    setup: TransferSetup


@dataclass(frozen=True)
class KendallSummary:
    """Classical concordance baselines for one profile. ``None`` fields mean
    the statistic is undefined for this profile's ranks."""

    w: float | None
    mean_tau: float | None


@dataclass(frozen=True)
class HyperparameterConsistency:
    hyperparameter: str
    fixed: Mapping[str, str]
    contexts: tuple[str, ...]
    values: tuple[str, ...]
    thc: float
    normalized_ptp: Mapping[str, float]
    kendall: KendallSummary | None = None


@dataclass(frozen=True)
class ConsistencyReport:
    setup: TransferSetup
    entries: tuple[HyperparameterConsistency, ...]
    skipped: tuple[SkippedHyperparameter, ...]


def _check_varying(setup: TransferSetup, options: AssemblyOptions) -> None:
    """Raise ``ValueError`` when ``options`` pins the axis that ``setup`` varies."""
    if getattr(options, setup.axis.value) is not None:
        raise ValueError(f"cannot fix {setup.axis.value!r}; it is the varying axis of setup {setup.value!r}")


def _check_pins(schema: SweepSchema, pins: Mapping[Axis, str | None]) -> None:
    """Raise ``KeyError`` for a pinned coordinate the schema does not declare."""
    for axis, value in pins.items():
        if value is not None and value not in schema.axis_values(axis):
            raise KeyError(f"unknown {axis.value} {value!r}")


CellKey = tuple[str, str, str, str, str | None]
ContextKey = tuple[str, str, str, str | None]

# Most cells one batched pass aggregates: enough to fill many bootstrap chunks,
# few enough that the pending score rows of a large setup stay small.
_FILL_BLOCK = 256


class CellTable:
    """Memoised interval and point estimate of every cell of one dataset.

    A cell is one (hyper-parameter, value, agent, data regime, environment
    scope); ``environment=None`` pools all declared environments as
    bootstrap strata. A cell's bootstrap seed is derived from its identity
    alone, so every setup and subcommand that reads a cell gets the same
    interval, and each cell is aggregated and warned about once, a whole
    context (hyper-parameter, agent, data regime, environment scope) at a
    time. A fill block's cells find their groups of runs in the dataset's
    (cell, seed) sort with one search over the codes of every (context,
    value, environment); groups of one seed are dropped (and warned about),
    and one ragged gather lays the kept groups' scores end to end, as the
    dataset normalised and checked them when it admitted its runs. Both
    aggregators read that array as it is, mean +/- sd with each cell's length
    and the bootstrap with each cell's row sizes, and both return lower
    bounds, upper bounds and points. A context's cells are held as arrays
    over the declared values.
    """

    def __init__(self, dataset: SweepDataset, options: AssemblyOptions) -> None:
        self.dataset = dataset
        self.options = options
        self._contexts: dict[ContextKey, np.ndarray] = {}

    def fill(self, keys: Iterable[ContextKey]) -> None:
        """Aggregate the cells of every listed context the table does not hold,
        in batched passes of about ``_FILL_BLOCK`` cells. Each cell is warned
        about when it drops thin groups, in the order listed."""
        block: dict[ContextKey, None] = {}
        groups: set[object] = set()
        pending = aggregated = held = 0
        for key in keys:
            m = len(self.dataset.schema.hyperparameters[key[0]])
            if key in self._contexts:
                held += m
            elif key not in block:
                block[key], pending = None, pending + m
                if pending >= _FILL_BLOCK:
                    aggregated += self._aggregate(list(block), groups)
                    block, pending = {}, 0
        aggregated += self._aggregate(list(block), groups)
        iqm_ci = self.options.interval_source is IntervalSource.IQM_CI
        replicates = aggregated * self.options.resamples if iqm_ci else 0
        logger.info("cell table: aggregated %d cells in %d size groups and drew %d bootstrap "
                    "replicates; %d cells were already held", aggregated, len(groups), replicates, held)

    def context_arrays(self, hp: str, agent: str, data_regime: str,
                       environment: str | None = None) -> np.ndarray:
        """Read-only ``(3, m)`` lower bounds, upper bounds and points of one
        context's cells over the ``m`` declared values of ``hp``; ``nan`` for a
        cell without an environment group of 2 seeds. Fills a context not held."""
        key = (hp, agent, data_regime, environment)
        if key not in self._contexts:
            self.fill([key])
        return self._contexts[key]

    def _aggregate(self, block: list[ContextKey], groups: set[object]) -> int:
        """Store the arrays of every context in ``block``, its cells'
        normalised scores gathered and aggregated in array passes, and return
        its cell count. Adds the size groups of the aggregating call (row
        sizes, or pooled lengths for mean +/- sd) to ``groups``."""
        if not block:
            return 0
        dataset, schema, options = self.dataset, self.dataset.schema, self.options
        # Each context's agent, data regime, first value and first environment
        # code, and its numbers of values and of environments.
        a, r, p, e, m, s = np.array([(schema.agents.index(agent), schema.data_regimes.index(regime), dataset._first[hp],
                                      0 if env is None else schema.environments.index(env),
                                      len(schema.hyperparameters[hp]), len(schema.environments) if env is None else 1)
                                     for hp, agent, regime, env in block]).T
        # A cell is a context's value, an entry a cell's environment.
        context = np.repeat(np.arange(len(block)), m)
        position, width = _ragged(0 * m, m), len(context)
        cell = np.repeat(np.arange(width), s[context])
        env = _ragged(e[context], s[context])
        starts, sizes = dataset._groups_at(a[context][cell], env, r[context][cell], (p[context] + position)[cell])
        contexts, positions = context.tolist(), position.tolist()

        def key(i: int) -> CellKey:
            hp, agent, regime, environment = block[contexts[i]]
            return hp, schema.hyperparameters[hp][positions[i]], agent, regime, environment

        thin = np.flatnonzero(sizes == 1)
        for i, entries in itertools.groupby(zip(cell[thin].tolist(), env[thin].tolist()), lambda x: x[0]):
            hp, value, agent, regime, _ = key(i)
            logger.warning("%s=%s, agent %s, regime %s: dropping groups with fewer than 2 seeds: %s",
                           hp, value, agent, regime, ", ".join(schema.environments[e] for _, e in entries))
        kept = sizes >= 2
        rows = np.bincount(cell[kept], minlength=width)
        columns = np.flatnonzero(rows)
        sizes, rows = sizes[kept], rows[columns]
        lengths = np.bincount(cell[kept], weights=sizes, minlength=width)[columns].astype(int)
        normalised = dataset._sorted[_ragged(starts[kept], sizes)]
        # An aggregate of finite scores can still overflow; the check below names its cell.
        with np.errstate(over="ignore", invalid="ignore"):
            if options.interval_source is IntervalSource.MEAN_SD:
                out = pooled_mean_and_spreads(normalised, lengths)
                groups |= set(lengths.tolist())
            else:
                flat, ends = sizes.tolist(), np.cumsum(rows).tolist()
                patterns = [tuple(flat[end - n:end]) for end, n in zip(ends, rows.tolist())]
                seeds = [derive_seed(options.seed, hp, value, agent, regime, environment or "*")
                         for hp, value, agent, regime, environment in map(key, columns.tolist())]
                out = pooled_bootstrap_cis(normalised, patterns, seeds, options.resamples, options.confidence)
                groups |= set(patterns)
        finite = np.isfinite(out).all(axis=0)
        if not finite.all():
            hp, value, agent, regime, environment = key(columns[int(np.argmin(finite))])
            scope = f"environment {environment}" if environment else "pooled environments"
            raise ValueError(f"{hp}={value}, agent {agent}, regime {regime}, {scope}: "
                             "an interval bound or point estimate is not finite")
        arrays = np.full((3, width), np.nan)
        arrays[:, columns] = out
        arrays.flags.writeable = False
        for k, n in zip(block, m.tolist()):
            self._contexts[k], arrays = arrays[:, :n], arrays[:, n:]
        return len(columns)


def _ragged(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1`` for each
    ``i``, laid end to end."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def assemble_profiles(
    dataset: SweepDataset,
    setup: TransferSetup,
    options: AssemblyOptions = AssemblyOptions(),
    *,
    cells: CellTable | None = None,
) -> AssembledProfiles:
    """Build one rank profile per (hyper-parameter, complementary-coordinate
    combination) for a transfer setup.

    Each context's values are ranked by their cells' intervals, read from
    ``cells`` (a fresh :class:`CellTable` when omitted). Environments are
    pooled as strata unless the setup varies them or ``options.environment``
    pins one. Hyper-parameters that cannot be compared across the setup
    (fewer than two contexts with data, or no value rankable in every
    context) are skipped with a reason. An undeclared pin raises
    ``KeyError``; a table of another dataset or other options ``ValueError``.
    """
    setup = TransferSetup(setup)
    axis = setup.axis
    _check_varying(setup, options)
    _check_pins(dataset.schema, {a: getattr(options, a.value) for a in Axis})
    if cells is None:
        cells = CellTable(dataset, options)
    elif cells.dataset is not dataset or cells.options != options:
        raise ValueError("cell table was built from another dataset or other options")

    # Each plan's contexts as coordinates: its combo plus one label of the axis.
    plans = [(hp, combo, [{**combo, axis.value: label}
                          for label in dataset._labels_with_runs(hp, axis, combo)])
             for hp in dataset.schema.hyperparameters if dataset._labels_with_runs(hp, Axis.AGENT, {})
             for combo in _combos(dataset, hp, setup, options)]
    # Every context the profiles read, in reading order, filled in one pass.
    cells.fill(_context_key(hp, c) for hp, _, contexts in plans if len(contexts) >= 2 for c in contexts)

    profiles: list[RankProfile] = []
    skipped: list[SkippedHyperparameter] = []
    for hp, combo, coords in plans:
        result = _profile_of(dataset, hp, axis, combo, coords, cells)
        (skipped if isinstance(result, SkippedHyperparameter) else profiles).append(result)

    return AssembledProfiles(tuple(profiles), tuple(skipped), setup)


def _combos(
    dataset: SweepDataset,
    hp: str,
    setup: TransferSetup,
    options: AssemblyOptions,
) -> list[dict[str, str]]:
    """Concrete coordinates for the axes the setup does not vary.

    The environment axis is aggregated (absent from the combo) unless pinned
    via options or varied by the setup.
    """
    def choices(axis: Axis) -> list[str]:
        pinned = getattr(options, axis.value)
        return [pinned] if pinned is not None else dataset._labels_with_runs(hp, axis, {})

    # assemble_profiles has rejected a pin on the varying axis.
    free_axes = [a for a in (Axis.AGENT, Axis.DATA_REGIME) if a is not setup.axis]
    if options.environment is not None:
        free_axes.append(Axis.ENVIRONMENT)
    return [{a.value: v for a, v in zip(free_axes, picks)}
            for picks in itertools.product(*(choices(a) for a in free_axes))]


def _context_key(hp: str, coords: Mapping[str, str]) -> ContextKey:
    return (hp, coords["agent"], coords["data_regime"], coords.get("environment"))


def _profile_of(
    dataset: SweepDataset,
    hp: str,
    axis: Axis,
    combo: dict[str, str],
    coords: list[dict[str, str]],
    cells: CellTable,
) -> RankProfile | SkippedHyperparameter:
    """The profile, or the skip, of one plan: a hyper-parameter's ``combo``
    and the coordinates of its contexts with data. Logs the plan's warnings,
    then ranks its kept contexts with one ``rank_intervals`` call, which logs
    its overlap-mode lines."""
    def skip(reason: str) -> SkippedHyperparameter:
        logger.warning("skipping %s %s: %s", hp, dict(combo), reason)
        return SkippedHyperparameter(hp, dict(combo), reason)

    if len(coords) < 2:
        return skip(f"only {len(coords)} context(s) with data")
    intervals = np.stack([cells.context_arrays(*_context_key(hp, c)) for c in coords], axis=2)
    rankable = ~np.isnan(intervals[0])
    kept = rankable.any(axis=0)
    if kept.sum() < 2:
        return skip(f"only {int(kept.sum())} context(s) with rankable values")
    common = rankable[:, kept].all(axis=1)
    declared = dataset.schema.hyperparameters[hp]
    partial = sorted(v for v, some, every in zip(declared, rankable.any(axis=1), common) if some and not every)
    if partial:
        logger.warning("%s %s: excluding values not rankable in every context: %s",
                       hp, dict(combo), ", ".join(partial))
    if not common.any():
        return skip("no value is rankable in every context")
    values = [v for v, every in zip(declared, common) if every]
    contexts = tuple(c[axis.value] for c, keep in zip(coords, kept) if keep)
    intervals = intervals[:, common][..., kept]
    order, ranks = rank_intervals(values, *intervals[:2], cells.options.ranking_mode)
    return RankProfile(hp, tuple(values), contexts, ranks, dict(combo), intervals, order)


def rank_context(
    dataset: SweepDataset,
    hyperparameter: str,
    agent: str,
    data_regime: str,
    environment: str | None = None,
    options: AssemblyOptions = AssemblyOptions(),
) -> tuple[RankingTable, dict[str, float]]:
    """Rank one hyper-parameter's values in a single context.

    Environments are pooled as strata unless ``environment`` pins one. Each
    value's interval is its :class:`CellTable` cell, so it equals the one
    every ``report`` setup gives that cell, and the kept cells are ranked by
    :func:`compute_rankings`. Returns the ranking table and per-value point
    estimates. Raises ``KeyError`` for an undeclared hyper-parameter, agent,
    data regime or environment, :class:`EmptySliceError` when the selector
    matches nothing and ``ValueError`` when no value has enough seeds to
    rank; it calls :func:`slice_scores` for its errors about the
    hyper-parameter and the pair.
    """
    _check_pins(dataset.schema, {Axis.AGENT: agent, Axis.DATA_REGIME: data_regime,
                                 Axis.ENVIRONMENT: environment})
    slice_scores(dataset, hyperparameter, agent, data_regime)
    lower, upper, points = CellTable(dataset, options).context_arrays(
        hyperparameter, agent, data_regime, environment)
    kept = ~np.isnan(lower)
    if not kept.any():
        raise ValueError(f"no value of {hyperparameter!r} has at least 2 seeds in this context")

    values = [v for v, keep in zip(dataset.schema.hyperparameters[hyperparameter], kept) if keep]
    context = {"agent": agent, "data_regime": data_regime, **({"environment": environment} if environment else {})}
    table = compute_rankings(list(zip(values, map(Interval, lower[kept], upper[kept]))), options.ranking_mode,
                             hyperparameter, context)
    return table, dict(zip(values, points[kept].tolist()))


def build_consistency_report(
    dataset: SweepDataset,
    setup: TransferSetup,
    options: AssemblyOptions = AssemblyOptions(),
    normalization: PtpNormalization = PtpNormalization.MAX,
    include_kendall: bool = False,
    *,
    cells: CellTable | None = None,
) -> tuple[ConsistencyReport, tuple[RankProfile, ...]]:
    """Score every assembled profile for one transfer setup, one pass per
    (values x contexts) shape, bit for bit as the one-profile functions do.

    Returns the report plus the underlying profiles (for table/plot export).
    """
    assembled = assemble_profiles(dataset, setup, options, cells=cells)
    profiles, entries = assembled.profiles, [None] * len(assembled.profiles)
    shapes: dict[tuple[int, int], list[int]] = {}
    for k, profile in enumerate(profiles):
        shapes.setdefault(profile.ranks.shape, []).append(k)
    for (v, _), members in shapes.items():
        ranks = np.stack([profiles[k].ranks for k in members])
        kendall = itertools.repeat(None)
        if include_kendall:
            kendall = map(KendallSummary, _kendall_ws(ranks), _mean_taus(ranks)) if v >= 2 else \
                itertools.repeat(KendallSummary(None, None))
        for k, spreads, summary in zip(members, _spreads(ranks, PtpNormalization(normalization)), kendall):
            p = profiles[k]
            entries[k] = HyperparameterConsistency(p.hyperparameter, dict(p.fixed), p.contexts, p.values,
                                                   sum(spreads) / len(spreads), dict(zip(p.values, spreads)),
                                                   summary)
    return ConsistencyReport(assembled.setup, tuple(entries), assembled.skipped), profiles
