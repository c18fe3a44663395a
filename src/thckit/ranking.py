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
divergences.
"""

from __future__ import annotations

import enum
import logging
from typing import Sequence

import numpy as np

__all__ = ["RankingMode", "rank_intervals"]

logger = logging.getLogger(__name__)


class RankingMode(str, enum.Enum):
    """How overlapping intervals share rank mass."""

    #: Average of the extreme positions whose intervals touch the setting's.
    SPAN = "span"
    #: Mean initial rank over the set of settings whose intervals overlap.
    OVERLAP = "overlap"


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

