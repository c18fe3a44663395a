"""Fractional ranking of labeled intervals.

Point estimates alone over-state how sure a sweep is about which setting won;
two settings whose intervals overlap cannot honestly be given distinct ranks.
The ranking here works on the intervals themselves:

1. Sort settings by decreasing upper bound (ties: decreasing lower bound,
   then label), giving 1-based positions ``p = 1..m``. A setting's position
   is its initial rank.
2. For setting ``j``, find ``l_j``, the lowest position whose lower bound is
   <= ``j``'s upper bound, and ``u_j``, the highest position whose upper
   bound is >= ``j``'s lower bound.
3. Its final rank is ``(l_j + u_j) / 2`` -- the average position over the
   span of settings it cannot be separated from. Rank 1 is best.

Final ranks are half-integer multiples in ``[1, m]``. Disjoint intervals
reduce to the strict ordering 1..m; mutually overlapping intervals all share
the mean rank ``(1 + m) / 2``.

A second mode averages the initial ranks of the settings whose intervals
actually overlap ``j``'s. Both agree whenever each setting's overlapping
neighbours occupy a contiguous block of positions; where they diverge (a wide
interval straddling a narrow non-overlapping one) the divergence is logged.

:func:`rank_intervals` ranks many contexts in one array pass and logs their
divergences; :func:`compute_rankings` is its one-context call.
:func:`ranking_tables` builds :class:`RankingTable` objects only for the
callers that read them.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .stats import Interval

__all__ = [
    "RankedSetting",
    "RankingMode",
    "RankingTable",
    "compute_rankings",
    "rank_intervals",
    "ranking_tables",
]

logger = logging.getLogger(__name__)


class RankingMode(str, enum.Enum):
    """How overlapping intervals share rank mass."""

    #: Average of the extreme positions whose intervals touch the setting's.
    SPAN = "span"
    #: Mean initial rank over the set of settings whose intervals overlap.
    OVERLAP = "overlap"


@dataclass(frozen=True)
class RankedSetting:
    label: str
    interval: Interval
    initial_rank: int
    final_rank: float

    def __post_init__(self) -> None:
        if self.initial_rank < 1:
            raise ValueError("initial_rank is 1-based")
        if self.final_rank < 1:
            raise ValueError("final_rank must be >= 1")


@dataclass(frozen=True)
class RankingTable:
    """Fractional ranks of one hyper-parameter's settings in one context."""

    entries: tuple[RankedSetting, ...]
    hyperparameter: str | None = None
    context: Mapping[str, str] | None = field(default=None)

    def __post_init__(self) -> None:
        labels = [e.label for e in self.entries]
        if len(set(labels)) != len(labels):
            raise ValueError(f"ranking table labels must be unique: {sorted(labels)}")

    def final_ranks(self) -> dict[str, float]:
        return {e.label: e.final_rank for e in self.entries}

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def rank_intervals(labels: Sequence[str], lower: np.ndarray, upper: np.ndarray,
                   mode: RankingMode = RankingMode.SPAN) -> tuple[np.ndarray, np.ndarray]:
    """Rank ``m`` uniquely labeled values in ``C`` contexts at once, from
    ``(m, C)`` arrays of finite bounds. Returns ``(order, final)``: value
    ``order[p, j]`` holds position ``p + 1`` in context ``j``, where value
    ``i`` has final rank ``final[i, j]``. In overlap mode, each value whose
    overlap set is non-contiguous is logged, context by context in position
    order. One lexsort gives every position, one ``(m, m, C)`` comparison
    every span and overlap set, and each context's result depends on its own
    column alone."""
    m = len(labels)
    mode = RankingMode(mode)
    # Rows in label order, so the stable sort breaks full ties by label.
    by_label = np.array(sorted(range(m), key=labels.__getitem__))
    order = by_label[np.lexsort((-lower[by_label], -upper[by_label]), axis=0)]
    columns = np.arange(lower.shape[1])
    # [i, p, j]: position p's lower bound <= value i's upper bound, and
    # position p's upper bound >= value i's lower bound, in context j.
    below = lower[order, columns][np.newaxis] <= upper[:, np.newaxis]
    above = upper[order, columns][np.newaxis] >= lower[:, np.newaxis]
    span = (below.argmax(axis=1) + m - above[:, ::-1].argmax(axis=1) + 1) / 2.0
    if mode is RankingMode.SPAN:
        return order, span
    members = below & above
    count = members.sum(axis=1)
    final = (members * np.arange(1, m + 1)[:, np.newaxis]).sum(axis=1) / count
    # A set is contiguous when it fills every position from its first to its last.
    gaps = count != m - members[:, ::-1].argmax(axis=1) - members.argmax(axis=1)
    for j, p in zip(*np.nonzero(gaps[order, columns].T)):
        i = order[p, j]
        logger.info("setting %r overlaps a non-contiguous position set %s; overlap-mode rank %.3f "
                    "differs from span rank %.3f", labels[i],
                    (np.flatnonzero(members[i, :, j]) + 1).tolist(), final[i, j].item(), span[i, j].item())
    return order, final


def compute_rankings(
    settings: Sequence[tuple[str, Interval]],
    mode: RankingMode = RankingMode.SPAN,
    hyperparameter: str | None = None,
    context: Mapping[str, str] | None = None,
) -> RankingTable:
    """Rank labeled intervals, sharing rank between settings that overlap.

    ``settings`` is a sequence of ``(label, interval)`` pairs with unique
    labels; input order never affects the result. Returns entries in rank
    order (best first). The one-context call of :func:`rank_intervals`.
    """
    if not settings:
        raise ValueError("compute_rankings needs at least one setting")
    labels = [label for label, _ in settings]
    lower, upper = np.array([[iv.lower, iv.upper] for _, iv in settings], dtype=float).T[..., np.newaxis]
    order, final = rank_intervals(labels, lower, upper, mode)
    return ranking_tables(labels, lower, upper, order, final, hyperparameter, [context])[0]


def ranking_tables(labels: Sequence[str], lower: np.ndarray, upper: np.ndarray, order: np.ndarray,
                   final: np.ndarray, hyperparameter: str | None = None,
                   contexts: Sequence[Mapping[str, str] | None] = (None,)) -> tuple[RankingTable, ...]:
    """The table of each context, given its column of :func:`rank_intervals`'
    bounds and result."""
    return tuple(
        RankingTable(tuple(RankedSetting(labels[i], Interval(lo[i], up[i]), p + 1, ranks[i])
                           for p, i in enumerate(column)), hyperparameter, context)
        for column, lo, up, ranks, context in zip(order.T.tolist(), lower.T.tolist(),
                                                  upper.T.tolist(), final.T.tolist(), contexts))
