"""Score normalization and interval estimation.

Converts raw per-seed scores into the aggregate intervals the ranking layer
consumes: human-normalized scores, the interquartile mean (IQM), stratified
bootstrap confidence intervals, and plain mean +/- standard deviation spreads.

All functions are pure. The batched aggregators share one layout: the
cells' scores laid end to end in one array, each cell described by its
length (mean +/- sd) or by its tuple of row sizes, its strata (bootstrap),
and both return a ``(3, k)`` array of lower bounds, upper bounds and point
estimates. Each bootstrap cell draws its indices from the stream of a fresh
``Philox(key=seed)``: replicate after replicate, each row's indices in row
order, as ``Generator.integers`` gives them. Cells with the same row sizes
are evaluated together in bounded-memory chunks, all replicates of several
cells or a span of one cell's, in three stages. Draw re-keys a cell at its
first span and takes a span's indices with one ``integers`` call per cell,
which continues the stream where the last call stopped. Reduce takes each
replicate's IQM by a min/max network over entries-major lanes for cells of
at most 13 entries, else by a row sort, chosen with the index layout once
per row-size pattern. Select takes a chunk's percentile pairs from one
partition. Results equal the one-cell ``np.sort``, ``np.mean`` and
``np.percentile`` formulas bit for bit at any chunking. The row-sorted
cells of a pattern are split into one contiguous slice per CPU the process
may run on, each on its own thread, generator and buffers; since a cell's
stream depends only on its seed, results are bit-identical at any CPU count.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import threading
from dataclasses import dataclass
from hashlib import sha256
from typing import Callable, Iterable, Sequence

import numpy as np
# numpy 2 loads this lazily, inside the first bootstrap call; load it at
# import instead.
import numpy.random  # noqa: F401

__all__ = [
    "Interval",
    "ScoreMatrix",
    "derive_seed",
    "human_normalize",
    "iqm",
    "mean_and_spread",
    "pooled_bootstrap_cis",
    "pooled_mean_and_spreads",
    "stratified_bootstrap_ci",
]

DEFAULT_RESAMPLES = 2000
DEFAULT_CONFIDENCE = 0.95
MIN_RESAMPLES = 100


@dataclass(frozen=True)
class Interval:
    """Closed interval ``[lower, upper]`` describing an aggregate estimate.

    Houses either ``mean - sd .. mean + sd`` or a bootstrap confidence
    interval; downstream ranking treats both uniformly.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"interval bounds must be finite, got ({self.lower}, {self.upper})")
        if self.lower > self.upper:
            raise ValueError(f"interval lower bound {self.lower} exceeds upper bound {self.upper}")

    def overlaps(self, other: "Interval") -> bool:
        """True when the closed intervals share at least one point."""
        return self.lower <= other.upper and other.lower <= self.upper


class ScoreMatrix:
    """Per-environment rows of per-seed scores; rows may be ragged.

    The environment row is the resampling stratum for the bootstrap. A
    single-row matrix describes a per-environment analysis where seeds are
    the only stratum.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[float]]):
        collected = []
        for i, row in enumerate(rows):
            arr = np.asarray(row, dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"score matrix row {i} must be a non-empty 1-D sequence")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"score matrix row {i} contains non-finite entries")
            arr.flags.writeable = False
            collected.append(arr)
        if not collected:
            raise ValueError("score matrix must have at least one row")
        self.rows: tuple[np.ndarray, ...] = tuple(collected)

    def __len__(self) -> int:
        return len(self.rows)

    def pooled(self) -> np.ndarray:
        """All entries concatenated in row order."""
        return np.concatenate(self.rows)


def human_normalize(score: float | np.ndarray, random_score: float | np.ndarray,
                    human_score: float | np.ndarray) -> float | np.ndarray:
    """Rescale a raw score so the random baseline maps to 0 and human to 1;
    takes floats or equal-shaped arrays of scores and their baselines."""
    denom = human_score - random_score
    if np.any(denom == 0):
        raise ValueError("human_score equals random_score; normalization denominator is zero")
    return (score - random_score) / denom


def iqm(samples: Sequence[float]) -> float:
    """Interquartile mean: drop the lowest and highest ``floor(n/4)`` samples,
    then average the rest.

    For ``n < 4`` nothing is dropped and this is the plain mean. Ties are
    broken by sort order, so the result is exact and reproducible.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("iqm of an empty sample set is undefined")
    trim = arr.size // 4
    core = np.sort(arr)[trim: arr.size - trim]
    return float(np.mean(core))


def mean_and_spread(samples: Sequence[float]) -> Interval:
    """Interval ``mean - sd .. mean + sd`` with the sample (n-1) standard
    deviation. Requires at least two samples. The one-set call of
    :func:`pooled_mean_and_spreads`."""
    arr = np.asarray(samples, dtype=float).ravel()
    (lower,), (upper,), _ = pooled_mean_and_spreads(arr, np.array([arr.size])).tolist()
    return Interval(lower, upper)


def pooled_mean_and_spreads(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``mean - sd``, ``mean + sd`` and mean, as a ``(3, k)`` array, of the
    ``k`` sample sets laid end to end in ``values``, set ``i`` holding
    ``lengths[i] >= 2`` entries. Sets of one length share one row-wise
    ``mean`` and ``std`` whose per-row sums run in a single set's order."""
    short = np.flatnonzero(lengths < 2)
    if short.size:
        raise ValueError(f"mean +/- sd needs >= 2 samples per set, "
                         f"but set {short[0]} holds {lengths[short[0]]}")
    _require_laid_end_to_end(values, lengths)
    starts = np.cumsum(lengths) - lengths
    out = np.empty((3, len(lengths)))
    for n in set(lengths.tolist()):
        members = np.flatnonzero(lengths == n)
        rows = values[starts[members, np.newaxis] + np.arange(n)]
        mu, sd = rows.mean(axis=1), rows.std(axis=1, ddof=1)
        out[:, members] = mu - sd, mu + sd, mu
    return out


def derive_seed(master: int, *parts: object) -> int:
    """Stable 64-bit sub-seed for (master seed, structured key) pairs.

    Hash-based so results do not depend on iteration order, process, or
    platform.
    """
    text = repr((int(master),) + tuple(str(p) for p in parts))
    return int.from_bytes(sha256(text.encode("utf-8")).digest()[:8], "big")


def _require_resampling(resamples: int, confidence: float) -> None:
    """Reject fewer than ``MIN_RESAMPLES`` resamples or a confidence off (0, 1)."""
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_RESAMPLES}, got {resamples}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")


def _require_laid_end_to_end(values: np.ndarray, lengths: np.ndarray) -> None:
    """Reject ``values`` unless the cells of ``lengths`` fill it exactly."""
    if lengths.sum() != len(values):
        raise ValueError(f"the cells hold {lengths.sum()} entries in all, "
                         f"but values holds {len(values)}")


# Bound of one chunk of replicates, in resampled entries. Each entry takes
# an int64 index and a float64 sample in the chunk's buffers, at most one more
# int64 while a cell's draws are added in (24 bytes), and the network's spare
# lane at most 8 bytes more. So a chunk's buffers take at most 1 MiB per
# thread at any cell and resample count, and its cells' replicate IQMs 8 bytes
# per replicate besides. Only row-sorted groups run on more than one thread.
_CHUNK_ENTRIES = 1 << 15

# Cells of at most this many entries sort their replicates with a min/max
# network instead of a row sort. Their kept slice then holds at most 7
# entries, few enough that numpy's row mean sums them left to right from
# +0.0 (its pairwise sum unrolls from 8), which the network path repeats.
_NETWORK_MAX_ENTRIES = 13


def stratified_bootstrap_ci(
    matrix: ScoreMatrix,
    resamples: int = DEFAULT_RESAMPLES,
    confidence: float = DEFAULT_CONFIDENCE,
    seed: int = 0,
) -> Interval:
    """Percentile bootstrap interval for the IQM, resampling each environment
    row independently (stratified).

    Every replicate resamples each row with replacement to its own length,
    pools the entries, and takes their IQM; the interval is the empirical
    ``(1-confidence)/2`` and ``1-(1-confidence)/2`` percentile pair of the
    replicate IQMs.

    The cell's indices come from one ``Generator(Philox(key=seed))``, one
    replicate after another and one row after another, each row's as
    ``integers(0, row.size, size=row.size)`` would give them.

    This is the one-cell call of :func:`pooled_bootstrap_cis`.
    Deterministic for fixed ``(matrix, resamples, confidence, seed)``. A
    degenerate matrix (all rows constant) yields a zero-width interval rather
    than an error. ``seed`` must lie in ``[0, 2**128)``.
    """
    (lower,), (upper,), _ = pooled_bootstrap_cis(
        matrix.pooled(), [tuple(row.size for row in matrix.rows)], [seed], resamples, confidence).tolist()
    return Interval(lower, upper)


def pooled_bootstrap_cis(
    values: np.ndarray,
    patterns: Sequence[tuple[int, ...]],
    seeds: Sequence[int],
    resamples: int = DEFAULT_RESAMPLES,
    confidence: float = DEFAULT_CONFIDENCE,
) -> np.ndarray:
    """:func:`stratified_bootstrap_ci` bounds and :func:`iqm` point, as a
    ``(3, k)`` array, of the ``k`` cells laid end to end in ``values``, cell
    ``i`` holding rows of the sizes ``patterns[i]`` and drawing from
    ``seeds[i]``; each cell's results equal the one-cell call's bit for bit.

    The cells of one row-size pattern share a :class:`_PatternGroup` and its
    chunks of at most ``_CHUNK_ENTRIES`` resampled entries. Groups of cells
    wider than ``_NETWORK_MAX_ENTRIES`` are split into one contiguous slice
    per CPU in the process's affinity set (at most one per cell), each on its
    own thread and group, this thread taking the first. Chunk buffers stay
    within 1 MiB per thread at any cell and resample count, and a chunk's
    replicate IQMs take 8 bytes per replicate. A resample count whose
    replicate IQMs cannot be allocated raises ``ValueError``, the first
    failing slice's, once every thread is joined.
    """
    _require_resampling(resamples, confidence)
    if len(seeds) != len(patterns):
        raise ValueError(f"got {len(seeds)} seeds for {len(patterns)} cells")
    seeds = [operator.index(seed) for seed in seeds]
    for seed in seeds:
        if not 0 <= seed < 2**128:
            raise ValueError(f"bootstrap seed must lie in [0, 2**128), got {seed}")
    alpha = (1.0 - confidence) / 2.0
    percents = (100.0 * alpha, 100.0 * (1.0 - alpha))

    groups: dict[tuple[int, ...], list[int]] = {}
    for i, sizes in enumerate(patterns):
        groups.setdefault(tuple(sizes), []).append(i)
    # Groups run in order of their first cell, so the first bad cell is named.
    for sizes, members in groups.items():
        if not sizes or min(sizes) < 1:
            raise ValueError(f"cell {members[0]} must have rows of at least one entry, "
                             f"got row sizes {sizes}")
    lengths = np.array([sum(sizes) for sizes in patterns], dtype=int)
    _require_laid_end_to_end(values, lengths)
    starts = np.cumsum(lengths) - lengths
    out = np.empty((3, len(patterns)))

    def evaluate(sizes: tuple[int, ...], members: list[int]) -> None:
        out[:, members] = _PatternGroup(sizes, resamples, len(members)).estimates(
            values, starts[members], [seeds[i] for i in members], percents)

    for sizes, members in groups.items():
        # One group's buffers are alive at a time, one set per slice. Only
        # row-sorted groups are split: on two cores, a second thread made
        # small network groups slower and large ones at most 10% faster.
        parts = min(_cpus(), len(members)) if sum(sizes) > _NETWORK_MAX_ENTRIES else 1
        cuts = [len(members) * i // parts for i in range(parts + 1)]
        _in_threads(evaluate, [(sizes, members[a:b]) for a, b in zip(cuts, cuts[1:])])
    return out


def _cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _in_threads(function: Callable[..., None], calls: Sequence[tuple]) -> None:
    """``function(*args)`` for each ``args`` of ``calls``: the first on this
    thread, each other on a thread of its own. Every thread is joined before
    the error of the first failing call, in ``calls`` order, is raised."""
    errors: list[BaseException | None] = [None] * len(calls)

    def call(i: int) -> None:
        try:
            function(*calls[i])
        except BaseException as exc:
            errors[i] = exc

    threads: list[threading.Thread] = []
    try:
        for i in range(1, len(calls)):
            thread = threading.Thread(target=call, args=(i,))
            thread.start()
            threads.append(thread)
        call(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _merge_exchange(n: int) -> list[tuple[int, int]]:
    """Batcher's merge-exchange sorting network on ``n`` lanes (Knuth, TAOCP
    vol. 3, 5.2.2, Algorithm M), as ``(i, j)`` pairs, ``i < j``, after which
    lane ``i`` holds the minimum and lane ``j`` the maximum."""
    pairs: list[tuple[int, int]] = []
    t = (n - 1).bit_length()
    p = 1 << t >> 1
    while p > 0:
        q, r, d = 1 << t >> 1, 0, p
        while True:
            pairs += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
        p >>= 1
    return pairs


def _rekey(bitgen: np.random.Philox, seed: int) -> None:
    """Put ``bitgen`` in a fresh ``Philox(key=seed)``'s state: counter 0, the
    128-bit key as two 64-bit words, low first, and no buffered output."""
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed & 0xFFFF_FFFF_FFFF_FFFF, seed >> 64)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def _percentiles(stats: np.ndarray, percents: tuple[float, float]) -> np.ndarray:
    """``np.percentile(stats, percents, axis=1)`` bit for bit, by numpy's
    "linear" method, partitioning each row of ``stats`` in place.

    numpy partitions a copy at the same positions, ``0``, ``-1`` and the two
    neighbours of each percentile's virtual index, so equal values of either
    sign of zero land where its partition puts them; then it interpolates
    from the nearer neighbour, and a row holding a NaN yields NaN. The
    bootstrap's replicate IQMs are never -0.0 (both reduce paths sum from
    +0.0), so for them the picks do not depend on the positions partitioned."""
    last = stats.shape[1] - 1
    picks = []
    for percent in percents:
        virtual = last * (percent / 100)
        below = -1 if virtual >= last else math.floor(virtual)
        picks.append((below, -1 if below == -1 else below + 1, virtual - below))
    stats.partition(sorted({0, -1, *(i for below, above, _ in picks for i in (below, above))}), axis=1)
    out = np.empty((len(picks), len(stats)))
    for row, (below, above, gamma) in zip(out, picks):
        a, b = stats[:, below], stats[:, above]
        diff = b - a
        if gamma >= 0.5:
            np.subtract(b, diff * (1 - gamma), out=row)
        else:
            np.add(a, diff * gamma, out=row)
    np.copyto(out, stats[:, -1], where=np.isnan(stats[:, -1]))
    return out


class _PatternGroup:
    """Generator, draw bounds and chunk buffers of the cells of one row-size
    pattern; :func:`stratified_bootstrap_ci` gives the draws. ``estimates``
    runs ``draw`` and ``reduce`` per chunk span and ``_percentiles`` per chunk."""

    def __init__(self, sizes: tuple[int, ...], resamples: int, cells: int) -> None:
        sizes_arr = np.array(sizes)
        # One row size is a scalar bound, which numpy draws much faster than
        # a per-entry array of bounds.
        self.high = sizes[0] if len(set(sizes)) == 1 else np.repeat(sizes_arr, sizes_arr)
        self.n = n = int(sizes_arr.sum())
        self.trim = n // 4
        self.resamples = resamples
        self.bitgen = np.random.Philox(0)
        self.stream = np.random.Generator(self.bitgen)

        fit = max(1, _CHUNK_ENTRIES // n)
        self.cells_per_chunk = min(cells, max(1, fit // resamples))
        self.replicates_per_chunk = min(fit, resamples)
        # Each entry's position in a chunk's pooled values: its row's start,
        # plus ``n`` times its cell's place in the chunk.
        self.offsets = (np.repeat(np.cumsum(sizes_arr) - sizes_arr, sizes_arr)
                        + np.arange(0, self.cells_per_chunk * n, n)[:, np.newaxis])
        rows = self.cells_per_chunk * self.replicates_per_chunk
        self.idx = np.empty(rows * n, dtype=np.int64)
        # Reduce is a function of the buffers: a bound method would make a cycle.
        if n <= _NETWORK_MAX_ENTRIES:
            # ``draw`` lays replicates out entries-major, as the network's
            # ``(n + 1, rows)`` lanes take them. Each comparator writes its min
            # to the spare row and its max over its upper lane, whose old row
            # becomes the spare, so ``steps`` names rows, not lanes.
            row_of = list(range(n + 1))
            steps = []
            for i, j in _merge_exchange(n):
                steps.append((row_of[i], row_of[j], row_of[n]))
                row_of[i], row_of[n] = row_of[n], row_of[i]
            self.order, self.reduce = "F", functools.partial(
                _iqms_by_network, np.empty((n + 1) * rows), steps, row_of[self.trim: n - self.trim])
        else:
            self.order, self.reduce = "C", functools.partial(_iqms_by_rows, np.empty(n * rows), self.trim)

    def estimates(self, values: np.ndarray, starts: np.ndarray, seeds: Sequence[int],
                  percents: tuple[float, float]) -> np.ndarray:
        """``(3, len(starts))`` percentile pair of each cell's replicate IQMs
        and its IQM; cell ``i``'s entries start at ``values[starts[i]]``. A
        chunk holds whole cells, or one cell in spans of its replicates."""
        n, resamples, trim = self.n, self.resamples, self.trim
        out = np.empty((3, len(starts)))
        for first in range(0, len(starts), self.cells_per_chunk):
            chunk = slice(first, first + self.cells_per_chunk)
            cells = values[starts[chunk, np.newaxis] + np.arange(n)]
            count = len(cells)
            # Rows run cell by cell, each cell's replicates in order, so a
            # span's replicate IQMs are one contiguous run of ``stats``.
            try:
                stats = np.empty(count * resamples)
            except (MemoryError, ValueError) as exc:
                raise ValueError(f"resamples={resamples} needs {count * resamples * 8:,} bytes for the "
                                 f"replicate IQMs of {count} cell(s), more than can be allocated") from exc
            for start in range(0, resamples, self.replicates_per_chunk):
                span = min(self.replicates_per_chunk, resamples - start)
                idx = self.draw(seeds[chunk], start, span)
                self.reduce(cells, idx, stats[start * count: (start + span) * count])
            out[:2, chunk] = _percentiles(stats.reshape(count, resamples), percents)
            cells.sort(axis=1)
            out[2, chunk] = cells[:, trim: n - trim].mean(axis=1)
        return out

    def draw(self, seeds: Sequence[int], start: int, span: int) -> np.ndarray:
        """Each entry's draw plus offset for replicates ``start`` to ``start +
        span`` of each cell of ``seeds``, as a ``(len(seeds) * span, n)`` view
        of the index buffer in ``self.order``; a cell is re-keyed at span 0.
        Adding along the span is fastest for the network's layout."""
        idx = self.idx[:len(seeds) * span * self.n].reshape(-1, self.n, order=self.order)
        for cell, seed in enumerate(seeds):
            if start == 0:
                _rekey(self.bitgen, seed)
            draws = self.stream.integers(0, self.high, size=(span, self.n))
            np.add(draws.T, self.offsets[cell, :, np.newaxis], out=idx[cell * span: (cell + 1) * span].T)
        return idx


def _iqms_by_network(samples: np.ndarray, steps: list[tuple[int, int, int]], kept: list[int],
                     cells: np.ndarray, idx: np.ndarray, iqms: np.ndarray) -> None:
    """Write the IQM of each ``draw`` replicate of ``cells`` into ``iqms`` by
    the min/max network's ``steps`` over lanes in ``samples``."""
    lanes = samples[:(idx.shape[1] + 1) * len(iqms)].reshape(-1, len(iqms))
    # Every index is in range, and ``clip`` writes straight into ``out``
    # where the default mode would buffer.
    np.take(cells, idx.T, out=lanes[:-1], mode="clip")
    lane = list(lanes)
    for low, high, spare in steps:
        np.minimum(lane[low], lane[high], out=lane[spare])
        np.maximum(lane[low], lane[high], out=lane[high])
    # The row mean's sum, from +0.0 and left to right; a sum from the first
    # lane would keep an all -0.0 slice's sign.
    np.add(lane[kept[0]], 0.0, out=iqms)
    for row in kept[1:]:
        np.add(iqms, lane[row], out=iqms)
    np.divide(iqms, len(kept), out=iqms)


def _iqms_by_rows(samples: np.ndarray, trim: int,
                  cells: np.ndarray, idx: np.ndarray, iqms: np.ndarray) -> None:
    """As ``_iqms_by_network``, by a row sort. A mean over a contiguous slice
    sums pairwise exactly like the 1-D ``iqm``, bit for bit."""
    samples = samples[:idx.size].reshape(idx.shape)
    np.take(cells, idx, out=samples, mode="clip")
    samples.sort(axis=1)
    np.mean(samples[:, trim: idx.shape[1] - trim], axis=1, out=iqms)
