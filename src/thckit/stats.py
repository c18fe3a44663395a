"""Score normalization and interval estimation.

Converts raw per-seed scores into the aggregate intervals the ranking layer
consumes: human-normalized scores, the interquartile mean (IQM), stratified
bootstrap confidence intervals, and plain mean +/- standard deviation spreads.

All functions are pure. The bootstrap draws every replicate's randomness from
a counter-based generator keyed on ``(seed, replicate index)`` and evaluates
replicates serially in bounded-memory chunks (one vectorised sort, trim and
mean per chunk), so results are bit-identical regardless of chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from hashlib import sha256
from typing import Iterable, Sequence

import numpy as np

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

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

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


# Resampled entries held per chunk of replicates (indices plus samples,
# 8 bytes each), so working memory stays near 1 MiB at any resample count.
_CHUNK_ENTRIES = 1 << 16


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

    Replicate ``k`` draws from a Philox stream keyed ``(seed, counter=[0, 0,
    k, 0])``: each replicate owns a disjoint 2^128-draw block, so the result
    does not depend on how replicates are chunked. One bit generator is reset
    to each replicate's counter in turn and draws every row's indices in a
    single ``integers`` call; numpy draws a broadcast ``high`` element by
    element through the same bounded path as one call per row, and a size-1
    row consumes no draws on either path. Replicates are then evaluated in
    chunks of at most ``_CHUNK_ENTRIES`` resampled entries, one sort, trim and
    mean per chunk, so working memory stays bounded at any ``resamples``.

    Deterministic for fixed ``(matrix, resamples, confidence, seed)``. A
    degenerate matrix (all rows constant) yields a zero-width interval rather
    than an error.
    """
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_RESAMPLES}, got {resamples}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")

    values = matrix.pooled()
    sizes = np.array([row.size for row in matrix.rows])
    highs = np.repeat(sizes, sizes)
    offsets = np.repeat(np.cumsum(sizes) - sizes, sizes)
    trim = values.size // 4
    chunk = min(resamples, max(1, _CHUNK_ENTRIES // values.size))
    bitgen = np.random.Philox(key=seed)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    counter = fresh["state"]["counter"]
    idx = np.empty((chunk, values.size), dtype=np.int64)
    stats = np.empty(resamples, dtype=float)
    for start in range(0, resamples, chunk):
        block = idx[:resamples - start]
        for j in range(len(block)):
            counter[2] = start + j
            bitgen.state = fresh
            block[j] = gen.integers(0, highs)
        block += offsets
        samples = values[block]
        samples.sort(axis=1)
        # Each replicate's mean over a contiguous slice sums pairwise exactly
        # like the 1-D ``iqm``, so the replicate IQMs are bit-identical to it.
        stats[start:start + len(block)] = samples[:, trim: values.size - trim].mean(axis=1)

    alpha = (1.0 - confidence) / 2.0
    lower, upper = np.percentile(stats, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return Interval(float(lower), float(upper))
