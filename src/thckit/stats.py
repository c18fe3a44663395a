"""Score normalization and interval estimation.

Converts raw per-seed scores into the aggregate intervals the ranking layer
consumes: human-normalized scores, the interquartile mean (IQM), stratified
bootstrap confidence intervals, and plain mean +/- standard deviation spreads.

All functions are pure. The bootstrap's replicate ``k`` draws exactly the
indices that numpy's ``Generator(Philox(key=seed, counter=[0, 0, k, 0]))``
would give from ``integers``, bit for bit, but computes them for a whole chunk
of replicates in one vectorised pass:

- block ``b`` of replicate ``k`` is Philox4x64-10 of counter ``[b + 1, 0, k,
  0]`` under key ``[seed mod 2**64, seed >> 64]``, its 64-bit products built
  from 32-bit limbs;
- each 64-bit output word gives two uint32 draws, low word first;
- a row of size ``n > 1`` maps each draw ``u`` to ``(u * n) >> 32`` (Lemire's
  bounded step, as numpy does), and a size-1 row draws nothing;
- a replicate where any draw's low 32 bits of ``u * n`` fall below ``n``
  might be one numpy rejects and redraws, so it is redone on a ``Philox``
  started at its counter, with ``integers``.

Cells with the same row sizes are evaluated together, in bounded-memory
chunks that may hold several cells' replicates (one vectorised sort, trim and
mean per chunk), so results are bit-identical regardless of chunking or of
which cells are evaluated together.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from hashlib import sha256
from typing import Iterable, Sequence

import numpy as np
# numpy 2 loads these lazily, inside the first bootstrap call (Philox, and
# np.unique under np.percentile); load them at import instead.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

__all__ = [
    "Interval",
    "ScoreMatrix",
    "derive_seed",
    "human_normalize",
    "iqm",
    "mean_and_spread",
    "mean_and_spreads",
    "stratified_bootstrap_ci",
    "stratified_bootstrap_cis",
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

    @property
    def width(self) -> float:
        return self.upper - self.lower

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


def human_normalize(score: float, random_score: float, human_score: float) -> float:
    """Rescale a raw score so the random baseline maps to 0 and human to 1."""
    denom = human_score - random_score
    if denom == 0:
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
    :func:`mean_and_spreads`."""
    return mean_and_spreads([samples])[0][1]


def mean_and_spreads(sample_sets: Sequence[Sequence[float]]) -> list[tuple[float, Interval]]:
    """Each sample set's mean and its :func:`mean_and_spread` interval, in
    order. Sets of one length share one row-wise ``mean`` and ``std``, whose
    per-row sums run in the same order as a single set's, so every value is
    bit-identical to the one-set call's."""
    arrays = [np.asarray(samples, dtype=float).ravel() for samples in sample_sets]
    by_length: dict[int, list[int]] = {}
    for i, arr in enumerate(arrays):
        if arr.size < 2:
            raise ValueError(f"mean_and_spread needs >= 2 samples, got {arr.size}")
        by_length.setdefault(arr.size, []).append(i)
    out: list[tuple[float, Interval]] = [None] * len(arrays)  # type: ignore[list-item]
    for members in by_length.values():
        rows = np.stack([arrays[i] for i in members])
        mu, sd = rows.mean(axis=1), rows.std(axis=1, ddof=1)
        for i, mean, lo, hi in zip(members, mu.tolist(), (mu - sd).tolist(), (mu + sd).tolist()):
            out[i] = (mean, Interval(lo, hi))
    return out


def derive_seed(master: int, *parts: object) -> int:
    """Stable 64-bit sub-seed for (master seed, structured key) pairs.

    Hash-based so results do not depend on iteration order, process, or
    platform.
    """
    text = repr((int(master),) + tuple(str(p) for p in parts))
    return int.from_bytes(sha256(text.encode("utf-8")).digest()[:8], "big")


# Bounds of one chunk of replicates: resampled entries, each with a 64-bit
# index, a sample and the redraw check's flag (17 bytes), and Philox blocks
# (replicates times blocks per replicate), each with 8 scratch and 4 output
# uint64 words (96 bytes). The block bound binds only for cells of fewer than
# 32 entries, which use few of each block's 8 draws: a chunk of 2**15 entries
# of a wider cell needs at most 2**12 + 2**15 / 32 blocks. A chunk's buffers
# thus take at most about 1 MiB, at any cell count and resample count.
_CHUNK_ENTRIES = 1 << 15
_CHUNK_BLOCKS = 5 << 10

# Philox4x64-10 constants (Salmon et al. 2011, "Parallel random numbers: as
# easy as 1, 2, 3"), as in numpy's ``Philox``; each multiplier is kept with
# its 32-bit limbs.
_PHILOX_M = tuple((m, m & np.uint64(0xFFFFFFFF), m >> np.uint64(32))
                  for m in (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
# Unsigned operands keep every array uint64 under numpy 1.x promotion too.
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
# Index of a uint64's low half among its two uint32 halves in memory.
_LOW_HALF = 0 if sys.byteorder == "little" else 1


def _mulhilo(m: tuple[np.uint64, np.uint64, np.uint64], x: np.ndarray, hi: np.ndarray,
             t: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Replace ``x`` by the low 64-bit words of the 128-bit products ``m *
    x`` and write their high words into ``hi``. The high word is assembled
    from 32-bit limbs so no partial product overflows; ``t``, ``u`` and
    ``v`` are scratch of ``x``'s shape."""
    m, m_lo, m_hi = m
    np.bitwise_and(x, _LOW32, out=t)
    np.right_shift(x, _32, out=hi)
    np.multiply(t, m_lo, out=u)
    u >>= _32
    t *= m_hi
    t += u                      # t = m_hi * x_lo + (m_lo * x_lo >> 32)
    np.bitwise_and(t, _LOW32, out=u)
    t >>= _32
    np.multiply(hi, m_lo, out=v)
    v += u
    v >>= _32                   # (m_lo * x_hi + (t & 0xFFFFFFFF)) >> 32
    hi *= m_hi
    hi += t
    hi += v
    x *= m


def _key_words(seeds: Sequence[int]) -> np.ndarray:
    """``(len(seeds), 2)`` uint64 Philox key words ``[seed mod 2**64, seed >> 64]``."""
    return np.array([(seed & 0xFFFFFFFFFFFFFFFF, seed >> 64) for seed in seeds], dtype=np.uint64)


def _philox_blocks(keys: np.ndarray, replicates: np.ndarray, blocks: int,
                   out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """The first ``blocks`` Philox4x64-10 output blocks of each replicate.

    ``keys`` holds key words (see :func:`_key_words`), one row per replicate
    or one row for all. Returns a ``(len(replicates), 4 * blocks)`` uint64
    array whose row ``i`` equals ``Philox(key=key_i, counter=[0, 0,
    replicates[i], 0]).random_raw(4 * blocks)``: block ``b`` (from 0) is the
    generator applied to counter ``[b + 1, 0, replicates[i], 0]`` (numpy
    increments the counter before each block).

    Every round writes in place: into ``out`` and ``scratch``, an ``(8, n)``
    uint64 array with ``n >= len(replicates) * blocks``, when given.
    """
    rows = len(replicates)
    size = rows * blocks
    if out is None:
        out = np.empty((rows, 4 * blocks), dtype=np.uint64)
    if scratch is None:
        scratch = np.empty((8, size), dtype=np.uint64)
    c0, c1, c2, c3, hi, t, u, v = (buf[:size].reshape(rows, blocks) for buf in scratch)
    c0[...] = np.arange(1, blocks + 1, dtype=np.uint64)
    c1.fill(0)
    c2[...] = np.asarray(replicates, dtype=np.uint64)[:, np.newaxis]
    c3.fill(0)
    key0, key1 = keys[:, :1].copy(), keys[:, 1:].copy()
    for _ in range(_PHILOX_ROUNDS):
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0),
        # where (hi0, lo0) and (hi1, lo1) are the products of c0 and c2.
        _mulhilo(_PHILOX_M[0], c0, hi, t, u, v)
        c3 ^= hi
        c3 ^= key1
        _mulhilo(_PHILOX_M[1], c2, hi, t, u, v)
        c1 ^= hi
        c1 ^= key0
        c0, c1, c2, c3 = c1, c2, c3, c0
        # Array arithmetic wraps modulo 2**64, as the key schedule does.
        key0 += _PHILOX_W[0]
        key1 += _PHILOX_W[1]
    np.stack((c0, c1, c2, c3), axis=-1, out=out.reshape(rows, blocks, 4))
    return out


def _redraw_risk(scaled: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Replicates (rows) with a lane whose Lemire step might reject its draw.

    numpy rejects ``u`` for bound ``n`` when the low 32 bits of ``u * n`` fall
    below ``(2**32 - n) % n``; ``n`` bounds that threshold, so a lane at or
    above ``limit`` (uint32: ``n``, or 0 for a lane that draws nothing)
    never redraws. The low halves are read in place, so the only temporary
    is one flag per entry.
    """
    low = scaled.view(np.uint32)[:, _LOW_HALF::2]
    return (low < limit).any(axis=1)


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

    Replicate ``k`` draws the indices that ``Generator(Philox(key=seed,
    counter=[0, 0, k, 0])).integers(0, highs)`` would, where ``highs`` holds
    each pooled entry's row size: each replicate owns a disjoint 2^128-draw
    block, so the result does not depend on how replicates are chunked.
    Those draws are computed for a whole chunk of replicates at once:

    - Block ``b`` (from 0) of replicate ``k`` is Philox4x64-10 of counter
      ``[b + 1, 0, k, 0]`` under key ``[seed mod 2**64, seed >> 64]``; its
      four 64-bit words give eight uint32 draws, low word first.
    - Each entry of a row of size ``n > 1`` takes the next uint32 ``u`` and
      becomes ``(u * n) >> 32``, numpy's Lemire step (Lemire 2019, "Fast
      random integer generation in an interval"). Size-1 rows draw nothing.
    - numpy redraws ``u`` when the low 32 bits of ``u * n`` fall below
      ``(2**32 - n) % n``. Any replicate with a lane whose low bits fall
      below ``n`` (probability under ``n / 2**32`` per draw) is redone on a
      ``Philox`` started at its counter, with ``integers``.

    This is the one-cell call of :func:`stratified_bootstrap_cis`.
    Deterministic for fixed ``(matrix, resamples, confidence, seed)``. A
    degenerate matrix (all rows constant) yields a zero-width interval rather
    than an error. ``seed`` must lie in ``[0, 2**128)``.
    """
    return stratified_bootstrap_cis([(matrix, seed)], resamples, confidence)[0]


def stratified_bootstrap_cis(
    cells: Sequence[tuple[ScoreMatrix, int]],
    resamples: int = DEFAULT_RESAMPLES,
    confidence: float = DEFAULT_CONFIDENCE,
) -> list[Interval]:
    """:func:`stratified_bootstrap_ci` of every ``(matrix, seed)`` cell, in
    order, each interval equal to the one-cell call's bit for bit.

    Cells with the same row sizes share one draw layout and are evaluated
    together, in chunks that reuse one set of preallocated buffers. A chunk
    holds every replicate of as many whole cells as fit in
    ``_CHUNK_ENTRIES`` resampled entries and ``_CHUNK_BLOCKS`` Philox
    blocks, each row under its own cell's key, and takes one sort, trim,
    mean and ``np.percentile``. A cell too large for that is evaluated alone,
    a slice of its replicates per chunk. Working memory stays bounded at any
    cell and resample count.
    """
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_RESAMPLES}, got {resamples}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    seeds = [operator.index(seed) for _, seed in cells]
    for seed in seeds:
        if not 0 <= seed < 2**128:
            raise ValueError(f"bootstrap seed must lie in [0, 2**128), got {seed}")
    alpha = (1.0 - confidence) / 2.0
    percents = [100.0 * alpha, 100.0 * (1.0 - alpha)]

    groups: dict[tuple[int, ...], list[int]] = {}
    for i, (matrix, _) in enumerate(cells):
        groups.setdefault(tuple(row.size for row in matrix.rows), []).append(i)
    intervals: list[Interval] = [None] * len(cells)  # type: ignore[list-item]
    for sizes, members in groups.items():
        # One group's buffers are alive at a time.
        bounds = _PatternGroup(sizes, resamples, len(members)).percentiles(
            [cells[i][0] for i in members], [seeds[i] for i in members], percents)
        for i, (lower, upper) in zip(members, bounds):
            intervals[i] = Interval(lower, upper)
    return intervals


class _PatternGroup:
    """Draw layout and chunk buffers shared by the cells with one row-size
    pattern; see :func:`stratified_bootstrap_ci` for the draws."""

    def __init__(self, sizes: tuple[int, ...], resamples: int, cells: int) -> None:
        sizes_arr = np.array(sizes)
        self.highs = highs = np.repeat(sizes_arr, sizes_arr)
        self.offsets = np.repeat(np.cumsum(sizes_arr) - sizes_arr, sizes_arr)
        drawn = highs > 1
        # Position of each entry's uint32 in its replicate's stream, as the
        # 64-bit word it sits in and the shift that brings it to the low half.
        # An entry that draws nothing reads word 0 and scales it by 1, which
        # gives 0.
        position = np.where(drawn, np.cumsum(drawn) - 1, 0)
        self.word, self.shift = position // 2, (position % 2 * 32).astype(np.uint64)
        self.blocks = blocks = max(1, (int(drawn.sum()) + 7) // 8)
        self.bound = highs.astype(np.uint64)
        self.limit = np.where(drawn, highs, 0).astype(np.uint32)
        self.n = n = int(highs.size)
        self.trim = n // 4
        self.resamples = resamples

        fit = max(1, min(_CHUNK_ENTRIES // n, _CHUNK_BLOCKS // blocks))
        self.cells_per_chunk = min(cells, max(1, fit // resamples))
        self.replicates_per_chunk = min(fit, resamples)
        rows = self.cells_per_chunk * self.replicates_per_chunk
        self.scratch = np.empty((8, rows * blocks), dtype=np.uint64)
        self.words = np.empty((rows, 4 * blocks), dtype=np.uint64)
        self.scaled = np.empty((rows, n), dtype=np.uint64)
        self.samples = np.empty((rows, n))

    def percentiles(self, matrices: Sequence[ScoreMatrix], seeds: Sequence[int],
                    percents: list[float]) -> list[tuple[float, float]]:
        """The percentile pair of each cell's replicate IQMs, one
        ``np.percentile`` per chunk of cells."""
        bounds: list[tuple[float, float]] = []
        for first in range(0, len(matrices), self.cells_per_chunk):
            last = first + self.cells_per_chunk
            stats = self.statistics(matrices[first:last], seeds[first:last])
            lower, upper = np.percentile(stats, percents, axis=1)
            bounds.extend(zip(lower.tolist(), upper.tolist()))
        return bounds

    def statistics(self, matrices: Sequence[ScoreMatrix], seeds: Sequence[int]) -> np.ndarray:
        """``(len(matrices), resamples)`` replicate IQMs of one chunk's cells,
        or of one cell in slices of its replicates."""
        n, resamples = self.n, self.resamples
        values = np.concatenate([matrix.pooled() for matrix in matrices])
        keys = _key_words(seeds)
        count = len(matrices)
        # Rows run cell by cell, each cell's replicates in order, so a chunk's
        # statistics are one contiguous run of ``stats``.
        stats = np.empty(count * resamples)
        for start in range(0, resamples, self.replicates_per_chunk):
            stop = min(start + self.replicates_per_chunk, resamples)
            span = stop - start
            rows = count * span
            # A chunk of several cells gives each row its cell's key; a slice
            # of one cell broadcasts its key as a scalar.
            words = _philox_blocks(np.repeat(keys, span, axis=0) if count > 1 else keys,
                                   np.tile(np.arange(start, stop), count),
                                   self.blocks, self.words[:rows], self.scratch)
            idx = self.scaled[:rows]
            # ``take`` keeps each replicate's row contiguous, which the mean
            # below needs. Every index is in range, and ``clip`` writes
            # straight into ``out`` where the default mode would buffer.
            np.take(words, self.word, axis=1, out=idx, mode="clip")
            idx >>= self.shift
            idx &= _LOW32
            idx *= self.bound
            redo = np.flatnonzero(_redraw_risk(idx, self.limit))
            idx >>= _32
            # The indices are far below 2**63, and numpy gathers faster with int64.
            idx = idx.view(np.int64)
            for j in redo:
                cell, k = divmod(int(j), span)
                bitgen = np.random.Philox(key=seeds[cell], counter=[0, 0, start + k, 0])
                idx[j] = np.random.Generator(bitgen).integers(0, self.highs)
            idx += self.offsets
            if count > 1:
                idx += np.repeat(np.arange(0, count * n, n), span)[:, np.newaxis]
            samples = self.samples[:rows]
            np.take(values, idx, out=samples, mode="clip")
            samples.sort(axis=1)
            # Each replicate's mean over a contiguous slice sums pairwise
            # exactly like the 1-D ``iqm``, so the replicate IQMs are
            # bit-identical to it.
            np.mean(samples[:, self.trim: n - self.trim], axis=1,
                    out=stats[start * count: start * count + rows])
        return stats.reshape(count, resamples)
