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
  might be one numpy rejects and redraws, so it is redone by resetting a
  ``Philox`` to its counter and calling ``integers``.

Replicates are evaluated in bounded-memory chunks (one vectorised sort, trim
and mean per chunk), so results are bit-identical regardless of chunk size.
"""

from __future__ import annotations

import math
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
    deviation. Requires at least two samples."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise ValueError(f"mean_and_spread needs >= 2 samples, got {arr.size}")
    mu = float(np.mean(arr))
    sd = float(np.std(arr, ddof=1))
    return Interval(mu - sd, mu + sd)


def derive_seed(master: int, *parts: object) -> int:
    """Stable 64-bit sub-seed for (master seed, structured key) pairs.

    Hash-based so results do not depend on iteration order, process, or
    platform.
    """
    text = repr((int(master),) + tuple(str(p) for p in parts))
    return int.from_bytes(sha256(text.encode("utf-8")).digest()[:8], "big")


# Resampled entries per chunk of replicates. At a chunk's peak an entry holds
# up to about 27 bytes (its share of the Philox blocks, its 64-bit draw and
# the redraw check's temporaries, then its index and sample; measured with
# tracemalloc), so working memory stays under 1 MiB at any resample count.
_CHUNK_ENTRIES = 1 << 15

# Philox4x64-10 constants (Salmon et al. 2011, "Parallel random numbers: as
# easy as 1, 2, 3"), as in numpy's ``Philox``.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Unsigned operands keep every array uint64 under numpy 1.x promotion too.
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``m * x``, the high
    word assembled from 32-bit limbs so no partial product overflows."""
    m_lo, m_hi = m & _LOW32, m >> _32
    x_lo, x_hi = x & _LOW32, x >> _32
    t = m_hi * x_lo + ((m_lo * x_lo) >> _32)
    u = m_lo * x_hi + (t & _LOW32)
    return m_hi * x_hi + (t >> _32) + (u >> _32), m * x


def _philox_blocks(key: int, replicates: np.ndarray, blocks: int) -> np.ndarray:
    """The first ``blocks`` Philox4x64-10 output blocks of each replicate.

    Returns a ``(len(replicates), 4 * blocks)`` uint64 array whose row ``i``
    equals ``Philox(key=key, counter=[0, 0, replicates[i], 0]).random_raw(4 *
    blocks)``: block ``b`` (from 0) is the generator applied to counter
    ``[b + 1, 0, replicates[i], 0]`` (numpy increments the counter before each
    block) and key words ``[key mod 2**64, key >> 64]``.
    """
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[np.newaxis, :]
    c2 = np.asarray(replicates, dtype=np.uint64)[:, np.newaxis]
    c1 = c3 = np.zeros((1, 1), dtype=np.uint64)
    k0, k1 = key & 0xFFFFFFFFFFFFFFFF, key >> 64
    for r in range(_PHILOX_ROUNDS):
        key0 = np.uint64((k0 + r * _PHILOX_W[0]) & 0xFFFFFFFFFFFFFFFF)
        key1 = np.uint64((k1 + r * _PHILOX_W[1]) & 0xFFFFFFFFFFFFFFFF)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(len(replicates), -1)


def _redraw_risk(scaled: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Replicates with a lane whose Lemire step might reject its draw.

    numpy rejects ``u`` for bound ``n`` when the low 32 bits of ``u * n`` fall
    below ``(2**32 - n) % n``; ``n`` bounds that threshold, so a lane at or
    above ``limit`` (``n``, or 0 for a lane that draws nothing) never redraws.
    """
    return ((scaled & _LOW32) < limit).any(axis=1)


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
      below ``n`` (probability under ``n / 2**32`` per draw) is redone by
      resetting one ``Philox`` to its counter and calling ``integers``.

    Replicates are evaluated in chunks of at most ``_CHUNK_ENTRIES`` resampled
    entries, one sort, trim and mean per chunk, so working memory stays
    bounded at any ``resamples``.

    Deterministic for fixed ``(matrix, resamples, confidence, seed)``. A
    degenerate matrix (all rows constant) yields a zero-width interval rather
    than an error. ``seed`` must lie in ``[0, 2**128)``.
    """
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_RESAMPLES}, got {resamples}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")

    # Built first so that a seed outside [0, 2**128) raises ValueError.
    bitgen = np.random.Philox(key=seed)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    counter = fresh["state"]["counter"]

    values = matrix.pooled()
    sizes = np.array([row.size for row in matrix.rows])
    highs = np.repeat(sizes, sizes)
    offsets = np.repeat(np.cumsum(sizes) - sizes, sizes)
    drawn = highs > 1
    # Position of each entry's uint32 in its replicate's stream, as the 64-bit
    # word it sits in and the shift that brings it to the low half. An entry
    # that draws nothing reads word 0 and scales it by 1, which gives 0.
    position = np.where(drawn, np.cumsum(drawn) - 1, 0)
    word, shift = position // 2, (position % 2 * 32).astype(np.uint64)
    blocks = max(1, (int(drawn.sum()) + 7) // 8)
    bound = highs.astype(np.uint64)
    limit = np.where(drawn, bound, np.uint64(0))
    trim = values.size // 4
    chunk = min(resamples, max(1, _CHUNK_ENTRIES // values.size))
    stats = np.empty(resamples, dtype=float)
    for start in range(0, resamples, chunk):
        stop = min(start + chunk, resamples)
        words = _philox_blocks(seed, np.arange(start, stop), blocks)
        # ``take`` keeps each replicate's row contiguous, which the mean below needs.
        idx = np.take(words, word, axis=1)
        del words
        idx >>= shift
        idx &= _LOW32
        idx *= bound
        redo = np.flatnonzero(_redraw_risk(idx, limit))
        idx >>= _32
        # The indices are far below 2**63, and numpy gathers faster with int64.
        idx = idx.view(np.int64)
        for j in redo:
            counter[2] = start + j
            bitgen.state = fresh
            idx[j] = gen.integers(0, highs)
        idx += offsets
        samples = values[idx]
        del idx
        samples.sort(axis=1)
        # Each replicate's mean over a contiguous slice sums pairwise exactly
        # like the 1-D ``iqm``, so the replicate IQMs are bit-identical to it.
        stats[start:stop] = samples[:, trim: values.size - trim].mean(axis=1)

    alpha = (1.0 - confidence) / 2.0
    lower, upper = np.percentile(stats, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return Interval(float(lower), float(upper))
