"""Normalization, IQM, and stratified bootstrap tests."""

from __future__ import annotations

import gc
import math
import os
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thckit import stats
from thckit.stats import (
    DEFAULT_CONFIDENCE,
    Interval,
    MIN_RESAMPLES,
    ScoreMatrix,
    derive_seed,
    human_normalize,
    iqm,
    mean_and_spread,
    pooled_bootstrap_cis,
    pooled_mean_and_spreads,
    stratified_bootstrap_ci,
)

finite_scores = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestInterval:
    def test_bounds_and_accessors(self):
        iv = Interval(1.0, 3.0)
        assert (iv.lower, iv.upper) == (1.0, 3.0)

    def test_zero_width_allowed(self):
        iv = Interval(2.0, 2.0)
        assert iv.lower == iv.upper == 2.0

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Interval(3.0, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            Interval(0.0, bad)

    def test_overlap_is_closed(self):
        # sharing a single endpoint counts as overlap
        assert Interval(0, 1).overlaps(Interval(1, 2))
        assert Interval(1, 2).overlaps(Interval(0, 1))
        assert not Interval(0, 1).overlaps(Interval(1.0000001, 2))
        assert Interval(0, 10).overlaps(Interval(4, 5))

    def test_overlap_is_symmetric_and_reflexive(self):
        a, b = Interval(0, 5), Interval(3, 9)
        assert a.overlaps(b) == b.overlaps(a) is True
        assert a.overlaps(a)


class TestScoreMatrix:
    def test_ragged_rows_allowed(self):
        m = ScoreMatrix([[1.0, 2.0], [3.0, 4.0, 5.0]])
        assert len(m) == 2
        assert m.pooled().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_rows_are_read_only(self):
        m = ScoreMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            m.rows[0][0] = 9.0

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            ScoreMatrix([[1.0], []])

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError):
            ScoreMatrix([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ScoreMatrix([[1.0, float("nan")]])


class TestHumanNormalize:
    def test_unit_interval(self):
        assert human_normalize(0.5, 0, 1) == 0.5

    def test_fixed_points(self):
        assert human_normalize(100, 100, 1100) == 0.0
        assert human_normalize(1100, 100, 1100) == 1.0

    def test_arithmetic(self):
        assert human_normalize(300, 100, 1100) == pytest.approx(0.2, abs=0)

    def test_above_human_and_below_random(self):
        assert human_normalize(2100, 100, 1100) == 2.0
        assert human_normalize(-900, 100, 1100) == -1.0

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            human_normalize(1.0, 5.0, 5.0)

    def test_arrays_normalise_score_by_score(self):
        scores = np.array([300.0, 0.5, -900.0])
        random, human = np.array([100.0, 0.0, 100.0]), np.array([1100.0, 1.0, 1100.0])
        assert human_normalize(scores, random, human).tolist() == [
            human_normalize(*args) for args in zip(scores.tolist(), random.tolist(), human.tolist())]
        with pytest.raises(ValueError):
            human_normalize(scores, random, np.array([1100.0, 0.0, 1100.0]))


def brute_force_iqm(samples):
    ordered = np.sort(np.asarray(samples, dtype=float))
    trim = len(ordered) // 4
    kept = ordered[trim: len(ordered) - trim]
    return float(np.mean(kept))


class TestIqm:
    def test_trim_rule(self):
        assert iqm([1, 2, 3, 4, 5, 6, 7, 8]) == 4.5

    def test_constant(self):
        assert iqm([3.25] * 11) == 3.25

    def test_short_inputs_are_plain_mean(self):
        assert iqm([4.0]) == 4.0
        assert iqm([1.0, 3.0]) == 2.0
        assert iqm([1.0, 2.0, 6.0]) == 3.0

    def test_n4_trims_one_each_side(self):
        assert iqm([0.0, 10.0, 20.0, 1000.0]) == 15.0

    def test_order_invariant(self):
        assert iqm([8, 1, 5, 2, 7, 3, 6, 4]) == 4.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            iqm([])

    def test_matches_brute_force_on_random_data(self):
        rng = np.random.default_rng(1234)
        for n in list(range(1, 30)) + [100, 257]:
            samples = rng.normal(size=n) * 100
            assert iqm(samples) == brute_force_iqm(samples)

    @given(st.lists(finite_scores, min_size=1, max_size=60))
    def test_bounded_by_extremes(self, samples):
        value = iqm(samples)
        assert min(samples) - 1e-9 <= value <= max(samples) + 1e-9

    @given(st.lists(finite_scores, min_size=1, max_size=40))
    def test_matches_brute_force(self, samples):
        assert iqm(samples) == brute_force_iqm(samples)


class TestMeanAndSpread:
    def test_known_values(self):
        iv = mean_and_spread([0.0, 2.0])
        sd = math.sqrt(2.0)
        assert iv.lower == pytest.approx(1.0 - sd)
        assert iv.upper == pytest.approx(1.0 + sd)

    def test_constant_data_zero_width(self):
        iv = mean_and_spread([5.0, 5.0, 5.0])
        assert iv.lower == iv.upper == 5.0

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            mean_and_spread([1.0])

    def test_batched_single_sample_set_rejected(self):
        with pytest.raises(ValueError, match="set 1 holds 1"):
            pooled_mean_and_spreads(np.arange(5.0), np.array([2, 1, 2]))

    @pytest.mark.parametrize("values", [np.arange(5.0), np.arange(3.0)], ids=["extra value", "missing value"])
    def test_batched_values_must_match_lengths(self, values):
        with pytest.raises(ValueError, match=f"cells hold 4 entries in all, but values holds {values.size}"):
            pooled_mean_and_spreads(values, np.array([2, 2]))

    def test_batched_matches_one_dimensional_mean_and_std(self):
        # Sets of one length share a row-wise mean and std; each interval must
        # equal the 1-D numpy formula bit for bit, whatever the set's
        # neighbours.
        rng = np.random.default_rng(77)
        sets = [np.round(rng.normal(scale=10, size=int(rng.integers(2, 40))), 3)
                for _ in range(600)]
        sets += [[5.0, 5.0, 5.0], [1.0, 2.0]]
        lengths = np.array([len(samples) for samples in sets])
        got = pooled_mean_and_spreads(np.concatenate(sets), lengths)
        assert got.shape == (3, len(sets))
        for i, samples in enumerate(sets):
            mu = float(np.mean(np.asarray(samples, dtype=float)))
            sd = float(np.std(np.asarray(samples, dtype=float), ddof=1))
            lower, upper, mean = got[:, i].tolist()
            assert [v.hex() for v in (mean, lower, upper)] == \
                [v.hex() for v in (mu, mu - sd, mu + sd)], f"set {i}"
            assert mean_and_spread(samples) == Interval(lower, upper)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_sensitive_to_every_part(self):
        base = derive_seed(7, "a", 1)
        assert derive_seed(8, "a", 1) != base
        assert derive_seed(7, "b", 1) != base
        assert derive_seed(7, "a", 2) != base
        assert derive_seed(7, "a") != base

    def test_uint64_range(self):
        for parts in [(0,), (123, "x", "y", 5), (2**63, "z")]:
            value = derive_seed(*parts)
            assert 0 <= value < 2**64


def reference_bootstrap(rows, resamples, confidence, seed):
    """Slow resampler written straight from the documented contract: the
    cell owns one Philox stream keyed by its seed; each replicate in turn
    resamples each row in order with one integers() call, pools, and takes
    the IQM; the interval is the percentile pair of the replicate stats."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    stats = []
    for _ in range(resamples):
        pooled = []
        for row in rows:
            row = np.asarray(row, dtype=float)
            pooled.extend(row[rng.integers(0, row.size, size=row.size)])
        stats.append(brute_force_iqm(pooled))
    alpha = (1.0 - confidence) / 2.0
    lower, upper = np.percentile(stats, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return float(lower), float(upper)


def hex_bounds(lower, upper):
    """Interval bounds as ``float.hex()``, so that ``-0.0`` and ``0.0`` differ."""
    return lower.hex(), upper.hex()


def hexes(intervals):
    return [hex_bounds(iv.lower, iv.upper) for iv in intervals]


def random_rows(rng, max_rows=26, max_size=12):
    sizes = rng.integers(1, max_size + 1, size=int(rng.integers(1, max_rows + 1)))
    sizes[rng.random(sizes.size) < 0.2] = 1
    return [np.round(rng.normal(scale=3, size=size), 1) for size in sizes]


class TestStratifiedBootstrap:
    def test_constant_data_zero_width(self):
        matrix = ScoreMatrix([[2.0] * 5, [2.0] * 7])
        iv = stratified_bootstrap_ci(matrix, resamples=200, seed=3)
        assert iv.lower == iv.upper == 2.0

    def test_deterministic_same_seed(self):
        matrix = ScoreMatrix([[1.0, 5.0, 2.0], [4.0, 0.5, 2.5]])
        a = stratified_bootstrap_ci(matrix, resamples=300, seed=11)
        b = stratified_bootstrap_ci(matrix, resamples=300, seed=11)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_seed_changes_result(self):
        matrix = ScoreMatrix([[1.0, 5.0, 2.0, 8.0, 3.0]])
        a = stratified_bootstrap_ci(matrix, resamples=300, seed=11)
        b = stratified_bootstrap_ci(matrix, resamples=300, seed=12)
        assert (a.lower, a.upper) != (b.lower, b.upper)

    def test_matches_reference_resampler(self):
        rng = np.random.default_rng(2024)
        for case in range(20):
            rows = [rng.normal(loc=rng.uniform(-5, 5), scale=2, size=5) for _ in range(3)]
            matrix = ScoreMatrix(rows)
            seed = int(rng.integers(0, 2**32))
            iv = stratified_bootstrap_ci(matrix, resamples=MIN_RESAMPLES, seed=seed)
            ref = reference_bootstrap(rows, MIN_RESAMPLES, DEFAULT_CONFIDENCE, seed)
            assert hex_bounds(iv.lower, iv.upper) == hex_bounds(*ref), f"case {case}"

    def test_seeds_above_64_bits_match_reference(self):
        rng = np.random.default_rng(67)
        for case in range(8):
            rows = random_rows(rng)
            high, low = rng.integers(1, 2**64, size=2, dtype=np.uint64)
            seed = int(high) << 64 | int(low)
            iv = stratified_bootstrap_ci(ScoreMatrix(rows), resamples=MIN_RESAMPLES, seed=seed)
            ref = reference_bootstrap(rows, MIN_RESAMPLES, DEFAULT_CONFIDENCE, seed)
            assert hex_bounds(iv.lower, iv.upper) == hex_bounds(*ref), f"case {case}: seed {seed:#x}"

    def test_interval_within_sample_range(self):
        rng = np.random.default_rng(6)
        rows = [rng.uniform(0, 10, size=7) for _ in range(3)]
        matrix = ScoreMatrix(rows)
        iv = stratified_bootstrap_ci(matrix, resamples=200, seed=0)
        pooled = matrix.pooled()
        assert pooled.min() <= iv.lower <= iv.upper <= pooled.max()

    def test_validation_errors(self):
        matrix = ScoreMatrix([[1.0, 2.0]])
        with pytest.raises(ValueError):
            stratified_bootstrap_ci(matrix, resamples=MIN_RESAMPLES - 1)
        with pytest.raises(ValueError):
            stratified_bootstrap_ci(matrix, confidence=0.0)
        with pytest.raises(ValueError):
            stratified_bootstrap_ci(matrix, confidence=1.0)
        # Philox keys are 128-bit and non-negative; a uint64 cast would wrap.
        with pytest.raises(ValueError):
            stratified_bootstrap_ci(matrix, seed=-1)
        with pytest.raises(ValueError):
            stratified_bootstrap_ci(matrix, seed=2**128)

    def test_wider_confidence_widens_interval(self):
        rng = np.random.default_rng(21)
        matrix = ScoreMatrix([rng.normal(size=8) for _ in range(3)])
        narrow = stratified_bootstrap_ci(matrix, resamples=500, confidence=0.5, seed=1)
        wide = stratified_bootstrap_ci(matrix, resamples=500, confidence=0.99, seed=1)
        assert wide.lower <= narrow.lower and narrow.upper <= wide.upper


class TestBatchedBootstrap:
    """The chunked kernel against the per-replicate reference resampler."""

    @pytest.mark.parametrize("replicates_per_chunk", [1, 7, 10**6])
    def test_bit_identical_to_reference_across_chunkings(self, monkeypatch, replicates_per_chunk):
        # Every cell draws an odd number of indices per replicate, so a chunk
        # of 1 or 7 replicates ends halfway through a 64-bit Philox output,
        # whose other half the next chunk must draw first.
        rng = np.random.default_rng(replicates_per_chunk)
        cells = [
            # Constant rows and signed zeros: one row size, then several.
            [[-0.0] * 3, [0.0, -0.0, 0.0], [2.5] * 3],
            [[-0.0, 0.0, -0.0, 0.0, -0.0], [1.5] * 4, [0.0, -1.5, -0.0], [-0.0], [3.0] * 3],
        ]
        for case in range(12):
            # Alternate a few long rows with many short ones.
            n_rows = int(rng.integers(1, 4)) if case % 2 else int(rng.integers(1, 27))
            max_size = 300 if case % 2 else 12
            sizes = rng.integers(1, max_size + 1, size=n_rows)
            sizes[rng.random(n_rows) < 0.2] = 1
            if sizes[sizes > 1].sum() % 2 == 0:
                sizes = np.append(sizes, 3)
            cells.append([np.round(rng.normal(scale=3, size=size), 1) for size in sizes])
        for case, rows in enumerate(cells):
            sizes = [len(row) for row in rows]
            assert sum(size for size in sizes if size > 1) % 2 == 1
            resamples = MIN_RESAMPLES + 1 + 7 * int(rng.integers(0, 20))
            seed = int(rng.integers(0, 2**63))
            monkeypatch.setattr("thckit.stats._CHUNK_ENTRIES", replicates_per_chunk * sum(sizes))
            iv = stratified_bootstrap_ci(ScoreMatrix(rows), resamples=resamples, seed=seed)
            ref = reference_bootstrap(rows, resamples, DEFAULT_CONFIDENCE, seed)
            assert hex_bounds(iv.lower, iv.upper) == hex_bounds(*ref), f"case {case}: sizes {sizes}"

    @pytest.mark.parametrize("resamples", [2_000, 50_000])
    def test_memory_bounded_at_any_resample_count(self, resamples):
        rng = np.random.default_rng(8)
        matrix = ScoreMatrix([rng.normal(size=5) for _ in range(26)])
        tracemalloc.start()
        try:
            stratified_bootstrap_ci(matrix, resamples=resamples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The replicate statistics, partitioned in place, are the only
        # allocation that grows with the resample count.
        assert peak - resamples * 8 < 4 * 2**20

    def test_memory_bounded_for_one_narrow_cell_at_a_million_resamples(self):
        # A second resample-sized array (8 MB) would overrun the slack.
        resamples = 1_000_000
        matrix = ScoreMatrix([np.random.default_rng(8).normal(size=5)])
        tracemalloc.start()
        try:
            stratified_bootstrap_ci(matrix, resamples=resamples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - resamples * 8 < 4 * 2**20

    @pytest.mark.parametrize("sizes", [(3,), (5,) * 26], ids=["network", "rows"])
    def test_a_group_and_its_buffers_are_freed_without_the_cycle_collector(self, sizes):
        # One group's buffers are alive at a time only if dropping a group frees them.
        gc.disable()
        try:
            group = stats._PatternGroup(sizes, MIN_RESAMPLES, 2)
            freed = weakref.ref(group)
            del group
            assert freed() is None
        finally:
            gc.enable()

    def test_unallocatable_replicates_name_the_resample_count(self, monkeypatch):
        # Three (5,) cells at 1,000 resamples share one chunk: 3,000 replicate IQMs.
        empty = np.empty

        def refuse_replicates(shape, *args, **kwargs):
            if shape == 3_000:
                raise MemoryError("Unable to allocate 23.4 KiB")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refuse_replicates)
        with pytest.raises(ValueError) as excinfo:
            pooled_bootstrap_cis(np.arange(15.0), [(5,)] * 3, [1, 2, 3], resamples=1_000)
        assert str(excinfo.value) == ("resamples=1000 needs 24,000 bytes for the replicate IQMs "
                                      "of 3 cell(s), more than can be allocated")
        assert isinstance(excinfo.value.__cause__, MemoryError)


def mixed_cells(rng, count):
    """Cells of four row-size patterns, interleaved, as ``(rows, seed)``;
    every third seed has a nonzero high 64-bit word."""
    patterns = [[3] * 4, [3], [5] * 26, [1, 4, 7, 1]]
    cells = []
    for i in range(count):
        rows = [np.round(rng.normal(scale=3, size=size), 1) for size in patterns[i % len(patterns)]]
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        if i % 3 == 0:
            seed |= int(rng.integers(1, 2**64, dtype=np.uint64)) << 64
        cells.append((rows, seed))
    return cells


def pooled_cells(cells, resamples):
    """:func:`pooled_bootstrap_cis` of ``(rows, seed)`` cells, laid end to end."""
    values = np.concatenate([np.concatenate(rows) for rows, _ in cells])
    patterns = [tuple(len(row) for row in rows) for rows, _ in cells]
    return pooled_bootstrap_cis(values, patterns, [seed for _, seed in cells], resamples)


class TestCellBatches:
    """Many cells in one call against one call per cell."""

    # 1 entry: one replicate per chunk. 3,000: two 12-entry cells per chunk,
    # slices of the 130-entry cells. Default: all six cells of each narrow
    # pattern in one chunk.
    @pytest.mark.parametrize("chunk_entries", [1, 3_000, None],
                             ids=["one replicate", "two small cells", "default"])
    def test_batched_equals_one_cell_calls(self, monkeypatch, chunk_entries):
        rng = np.random.default_rng(chunk_entries or 0)
        cells = mixed_cells(rng, 24)
        resamples = MIN_RESAMPLES + 7
        one_by_one = [stratified_bootstrap_ci(ScoreMatrix(rows), resamples=resamples, seed=seed)
                      for rows, seed in cells]
        if chunk_entries is not None:
            monkeypatch.setattr("thckit.stats._CHUNK_ENTRIES", chunk_entries)
        lower, upper, _ = pooled_cells(cells, resamples).tolist()
        assert [hex_bounds(lo, up) for lo, up in zip(lower, upper)] == hexes(one_by_one)

    @pytest.mark.parametrize("chunk_entries", [1, 3_000, None],
                             ids=["one replicate", "two small cells", "default"])
    def test_points_are_each_cells_iqm(self, monkeypatch, chunk_entries):
        rng = np.random.default_rng(5)
        cells = mixed_cells(rng, 24) + [
            # Signed zeros, constant rows and 1-entry rows.
            ([[-0.0] * 3, [0.0, -0.0, 0.0], [2.5] * 3], 1),
            ([[-0.0, 0.0, -0.0, 0.0, -0.0], [1.5] * 4, [0.0, -1.5, -0.0], [-0.0], [3.0] * 3], 2),
            ([[-0.0] * 3], 3),
            ([[-0.0]], 4),
            ([[7.25]], 5),
            ([[4.0], [-0.0], [0.0], [1.0]], 6),
            ([[3.25] * 6, [3.25] * 4], 7),
        ]
        if chunk_entries is not None:
            monkeypatch.setattr("thckit.stats._CHUNK_ENTRIES", chunk_entries)
        points = pooled_cells(cells, MIN_RESAMPLES)[2].tolist()
        assert [point.hex() for point in points] == \
            [iqm(np.concatenate(rows)).hex() for rows, _ in cells]

    @pytest.mark.parametrize("values, patterns, seeds, message", [
        (np.arange(3.0), [(3,)], [1, 2], "got 2 seeds for 1 cells"),
        (np.arange(6.0), [(3,), (3,)], [1], "got 1 seeds for 2 cells"),
        (np.arange(6.0), [(3,)], [1], "cells hold 3 entries in all, but values holds 6"),
        (np.arange(2.0), [(3,)], [1], "cells hold 3 entries in all, but values holds 2"),
        (np.arange(6.0), [(3,), (0, 3)], [1, 2], r"cell 1 must have rows of at least one entry, got row sizes \(0, 3\)"),
        (np.arange(3.0), [(3,), ()], [1, 2], r"cell 1 must have rows of at least one entry, got row sizes \(\)"),
    ], ids=["extra seed", "missing seed", "extra value", "missing value", "empty row", "no rows"])
    def test_malformed_layout_rejected(self, values, patterns, seeds, message):
        with pytest.raises(ValueError, match=message):
            pooled_bootstrap_cis(values, patterns, seeds, MIN_RESAMPLES)

    def test_any_bad_seed_rejected(self):
        for seeds in ([1, 2**128], [-1, 1]):
            with pytest.raises(ValueError):
                pooled_bootstrap_cis(np.array([1.0, 2.0, 1.0, 2.0]), [(2,), (2,)], seeds)

    def test_memory_does_not_grow_with_cell_count(self):
        rng = np.random.default_rng(10)
        values = rng.normal(size=5 * 2_000)
        tracemalloc.start()
        try:
            out = pooled_bootstrap_cis(values, [(5,)] * 2_000, range(2_000), resamples=2_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (3, 2_000)
        # Held at once, the replicate statistics alone would take 32 MB.
        assert peak < 4 * 2**20


class CountedThread(threading.Thread):
    """A thread that records itself in ``started`` when it starts."""

    started: list = []

    def start(self):
        CountedThread.started.append(self)
        super().start()


@pytest.fixture
def cpus(monkeypatch):
    """Set the process's CPU affinity, as ``pooled_bootstrap_cis`` reads it,
    to ``count`` CPUs, and count the threads started."""
    monkeypatch.setattr(CountedThread, "started", [])
    monkeypatch.setattr(threading, "Thread", CountedThread)

    def set_count(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        return CountedThread.started
    return set_count


class TestThreads:
    """Groups of row-sorted cells split across one thread per CPU."""

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("chunk_entries", [1, 3_000, None],
                             ids=["one replicate", "two small cells", "default"])
    def test_bit_identical_at_any_cpu_count(self, monkeypatch, cpus, count, chunk_entries):
        rng = np.random.default_rng(count)
        # Seven cells of the 130-entry pattern take the row sort; the last
        # slice, on a worker, holds the most cells.
        cells = mixed_cells(rng, 28)
        if chunk_entries is not None:
            monkeypatch.setattr("thckit.stats._CHUNK_ENTRIES", chunk_entries)
        cpus(1)
        serial = pooled_cells(cells, MIN_RESAMPLES + 7).tolist()
        assert CountedThread.started == []
        started = cpus(count)
        # Switch threads as often as the interpreter allows.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = pooled_cells(cells, MIN_RESAMPLES + 7).tolist()
        finally:
            sys.setswitchinterval(interval)
        assert [[v.hex() for v in row] for row in threaded] == [[v.hex() for v in row] for row in serial]
        assert len(started) == count - 1
        assert not any(thread.is_alive() for thread in started)

    def test_a_slow_worker_finishes_before_the_call_returns(self, monkeypatch, cpus):
        # Two cells on three CPUs: one worker, which sleeps before its cell.
        started = cpus(3)
        estimates = stats._PatternGroup.estimates

        def slow_on_workers(group, *args):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)
            return estimates(group, *args)

        monkeypatch.setattr(stats._PatternGroup, "estimates", slow_on_workers)
        rows = np.random.default_rng(3).normal(size=(2, 26, 5))
        lower, upper, _ = pooled_bootstrap_cis(rows.ravel(), [(5,) * 26] * 2, [1, 2], MIN_RESAMPLES).tolist()
        assert len(started) == 1 and not started[0].is_alive()
        assert [hex_bounds(lo, up) for lo, up in zip(lower, upper)] == \
            hexes(stratified_bootstrap_ci(ScoreMatrix(cell), MIN_RESAMPLES, seed=seed)
                  for cell, seed in zip(rows, [1, 2]))

    def test_network_groups_and_lone_cells_start_no_thread(self, monkeypatch, cpus):
        cpus(3)

        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", refuse)
        rng = np.random.default_rng(4)
        # Network cells of 3, 12 and 13 entries, then one row-sorted cell.
        patterns = [(3,)] * 6 + [(3,) * 4] * 6 + [(1, 4, 7, 1)] * 6 + [(5,) * 26]
        values = rng.normal(size=sum(map(sum, patterns)))
        pooled_bootstrap_cis(values, patterns, range(len(patterns)), MIN_RESAMPLES)

    @pytest.mark.parametrize("refused, message", [
        ({200}, "resamples=100 needs 1,600 bytes for the replicate IQMs of 2 cell(s)"),
        ({100, 200}, "resamples=100 needs 800 bytes for the replicate IQMs of 1 cell(s)"),
    ], ids=["worker slice", "both slices"])
    def test_allocation_error_reaches_the_caller_after_every_join(self, monkeypatch, cpus, refused, message):
        # Three 130-entry cells on two CPUs: this thread takes one cell, whose
        # replicate IQMs take 100 floats, and a worker the other two (200).
        started = cpus(2)
        empty = np.empty

        def refuse_replicates(shape, *args, **kwargs):
            if shape in refused:
                raise MemoryError("Unable to allocate")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refuse_replicates)
        values = np.random.default_rng(5).normal(size=3 * 130)
        with pytest.raises(ValueError) as excinfo:
            pooled_bootstrap_cis(values, [(5,) * 26] * 3, [1, 2, 3], MIN_RESAMPLES)
        assert str(excinfo.value) == message + ", more than can be allocated"
        assert isinstance(excinfo.value.__cause__, MemoryError)
        assert len(started) == 1 and not started[0].is_alive()

    def test_cpu_count_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert stats._cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert stats._cpus() == 1


def narrow_cells(rng, n):
    """Cells of ``n`` entries, as ``(rows, seed)``, in two row-size patterns
    (a random split, then one row): ties, a constant cell, signed zeros, and
    signed zeros among values that cancel to zero."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, int(rng.integers(1, 4))), replace=False))
    split = np.diff([0, *cuts.tolist(), n]).tolist()
    cells = []
    for i, values in enumerate([
        rng.choice([-1.5, 0.5, 2.0], size=n),
        np.full(n, 3.25),
        rng.choice([-0.0, 0.0], size=n),
        rng.choice([-0.0, 0.0, -1.0, 1.0], size=n),
        np.round(rng.normal(scale=3, size=n), 1),
    ]):
        sizes = [n] if i % 2 else split
        rows = np.split(values, np.cumsum(sizes)[:-1])
        cells.append((rows, int(rng.integers(0, 2**64, dtype=np.uint64))))
    return cells


class TestNarrowCells:
    """The sorting-network path of cells of at most 13 entries against the
    row path and the reference resampler."""

    @pytest.mark.parametrize("n", range(1, 14))
    def test_network_equals_row_path_and_reference(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        cells = narrow_cells(rng, n)
        resamples = MIN_RESAMPLES + 1
        reference = [hex_bounds(*reference_bootstrap(rows, resamples, DEFAULT_CONFIDENCE, seed))
                     for rows, seed in cells]
        for chunk_entries in (1, 3_000, stats._CHUNK_ENTRIES):
            monkeypatch.setattr("thckit.stats._CHUNK_ENTRIES", chunk_entries)
            monkeypatch.setattr("thckit.stats._NETWORK_MAX_ENTRIES", 13)
            network = pooled_cells(cells, resamples).tolist()
            monkeypatch.setattr("thckit.stats._NETWORK_MAX_ENTRIES", 0)
            rows = pooled_cells(cells, resamples).tolist()
            assert [[v.hex() for v in row] for row in network] == [[v.hex() for v in row] for row in rows], \
                f"chunk entries {chunk_entries}"
            assert [hex_bounds(lo, up) for lo, up in zip(*network[:2])] == reference, \
                f"chunk entries {chunk_entries}"

    def test_merge_exchange_sorts_every_zero_one_input(self):
        # A comparator network sorts every input if it sorts every 0-1 input
        # (Knuth, TAOCP vol. 3, 5.3.4, Theorem Z).
        for n in range(1, 14):
            lanes = (np.arange(2**n)[:, np.newaxis] >> np.arange(n)) & 1
            for i, j in stats._merge_exchange(n):
                lanes[:, i], lanes[:, j] = np.minimum(lanes[:, i], lanes[:, j]), np.maximum(lanes[:, i], lanes[:, j])
            assert (np.diff(lanes, axis=1) >= 0).all(), f"n={n}"


def chunk_spans(group, count):
    """``(chunk, start, span)`` of each chunk span that ``estimates`` runs
    over ``count`` cells, in its order."""
    for first in range(0, count, group.cells_per_chunk):
        chunk = slice(first, first + group.cells_per_chunk)
        for start in range(0, group.resamples, group.replicates_per_chunk):
            yield chunk, start, min(group.replicates_per_chunk, group.resamples - start)


STAGE_PATTERNS = [(5,), (3,) * 4, (1, 4, 7, 1), (13,), (14,), (5,) * 26]


def stage_cells(sizes):
    """:func:`narrow_cells`' values for row sizes ``sizes``, as a ``(cells,
    n)`` array, and seeds, every other one with a nonzero high 64-bit word."""
    cells = narrow_cells(np.random.default_rng(sum(sizes)), sum(sizes))
    return (np.array([np.concatenate(rows) for rows, _ in cells]),
            [seed << 64 * (i % 2) for i, (_, seed) in enumerate(cells)])


class TestStages:
    """The draw and reduce stages of ``_PatternGroup``, each on its own, over
    the chunk spans ``estimates`` runs."""

    @pytest.mark.parametrize("chunk_entries", [1, 3_000, None],
                             ids=["one replicate", "two small cells", "default"])
    @pytest.mark.parametrize("sizes", STAGE_PATTERNS, ids=str)
    def test_draw_equals_each_cells_stream(self, monkeypatch, chunk_entries, sizes):
        if chunk_entries is not None:
            monkeypatch.setattr("thckit.stats._CHUNK_ENTRIES", chunk_entries)
        n, resamples = sum(sizes), MIN_RESAMPLES + 7
        _, seeds = stage_cells(sizes)
        streams = []
        for seed in seeds:
            rng = np.random.Generator(np.random.Philox(key=seed))
            streams.append([np.concatenate([rng.integers(0, size, size=size) for size in sizes])
                            for _ in range(resamples)])
        row_starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
        group = stats._PatternGroup(sizes, resamples, len(seeds))
        for chunk, start, span in chunk_spans(group, len(seeds)):
            idx = group.draw(seeds[chunk], start, span)
            for place, cell in enumerate(range(len(seeds))[chunk]):
                got = idx[place * span: (place + 1) * span] - row_starts - place * n
                assert got.tolist() == [draws.tolist() for draws in streams[cell][start: start + span]], \
                    f"cell {cell}, replicates {start}-{start + span}"

    @pytest.mark.parametrize("chunk_entries", [1, 3_000, None],
                             ids=["one replicate", "two small cells", "default"])
    @pytest.mark.parametrize("path", ["network", "rows"])
    def test_reduce_equals_sort_and_trimmed_mean(self, monkeypatch, chunk_entries, path):
        if chunk_entries is not None:
            monkeypatch.setattr("thckit.stats._CHUNK_ENTRIES", chunk_entries)
        monkeypatch.setattr("thckit.stats._NETWORK_MAX_ENTRIES", 13 if path == "network" else 0)
        for sizes in STAGE_PATTERNS:
            n = sum(sizes)
            if path == "network" and n > 13:
                continue
            trim = n // 4
            cells, seeds = stage_cells(sizes)
            group = stats._PatternGroup(sizes, MIN_RESAMPLES + 7, len(cells))
            assert group.reduce.func is getattr(stats, f"_iqms_by_{path}")
            for chunk, start, span in chunk_spans(group, len(cells)):
                idx = group.draw(seeds[chunk], start, span)
                # Draw writes the layout reduce reads: entries-major for the network.
                assert (idx.T if path == "network" else idx).flags.c_contiguous
                samples = cells[chunk].ravel()[idx]
                iqms = np.empty(len(idx))
                group.reduce(cells[chunk], idx, iqms)
                assert [v.hex() for v in iqms.tolist()] == \
                    [float(np.mean(np.sort(row)[trim: n - trim])).hex() for row in samples], \
                    f"sizes {sizes}, replicates {start}-{start + span}"


class TestSignedZeros:
    """Replicate IQMs and points are never -0.0, on either reduce path, so
    which positions ``_percentiles`` partitions cannot change a bound's sign."""

    @pytest.mark.parametrize("network_max", [130, 0], ids=["network", "rows"])
    @pytest.mark.parametrize("sizes", [(5,), (3,) * 4, (14,), (20,), (5,) * 26], ids=str)
    def test_no_replicate_iqm_or_point_is_negative_zero(self, monkeypatch, network_max, sizes):
        monkeypatch.setattr("thckit.stats._NETWORK_MAX_ENTRIES", network_max)
        replicates = []
        percentiles = stats._percentiles

        def recording(iqms, percents):
            replicates.append(iqms.copy())
            return percentiles(iqms, percents)

        monkeypatch.setattr(stats, "_percentiles", recording)
        rng = np.random.default_rng(sum(sizes))
        n = sum(sizes)
        cells = [np.full(n, -0.0), rng.choice([-0.0, 0.0], size=n)]
        cells += [rng.choice([-0.0, 0.0, -1.0, 1.0], size=n) for _ in range(4)]
        out = pooled_bootstrap_cis(np.concatenate(cells), [sizes] * len(cells), range(len(cells)), MIN_RESAMPLES)
        iqms = np.concatenate([chunk.ravel() for chunk in replicates])
        assert iqms.size == len(cells) * MIN_RESAMPLES
        assert (iqms == 0).any()
        for name, values in [("replicate IQMs", iqms), ("bounds and points", out.ravel())]:
            assert not (np.signbit(values) & (values == 0)).any(), name


class TestPercentiles:
    def test_equals_np_percentile(self):
        rng = np.random.default_rng(42)
        for case in range(200):
            resamples = int(rng.integers(MIN_RESAMPLES, 3_000))
            confidence = [rng.uniform(0.01, 0.99), 0.95, 0.5, np.nextafter(1.0, 0.0)][case % 4]
            alpha = (1.0 - confidence) / 2.0
            percents = (100.0 * alpha, 100.0 * (1.0 - alpha))
            data = np.round(rng.normal(size=(int(rng.integers(1, 6)), resamples)), 1)
            # Half of every row is zeros of either sign.
            zeros = rng.random(data.shape) < 0.5
            data[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
            got = stats._percentiles(data.copy(), percents)
            want = np.percentile(data, percents, axis=1)
            assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()], \
                f"case {case}"

    def test_end_percentiles_and_nan_rows_equal_np_percentile(self):
        rng = np.random.default_rng(43)
        data = rng.choice([-0.0, 0.0, 1.0], size=(4, MIN_RESAMPLES))
        data[1, 7] = np.nan
        data[2, 3] = np.inf
        for percents in [(0.0, 100.0), (100.0, 0.0), (50.0, 99.5)]:
            with np.errstate(invalid="ignore"):
                got = stats._percentiles(data.copy(), percents)
                want = np.percentile(data, percents, axis=1)
            assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()], \
                f"percents {percents}"


class TestRekey:
    def test_equals_a_fresh_philox(self):
        bitgen = np.random.Philox(0)
        stream = np.random.Generator(bitgen)
        rng = np.random.default_rng(9)
        seeds = [0, 1, 2**64 - 1, 2**64, 2**128 - 1]
        seeds += [int(rng.integers(0, 2**64, dtype=np.uint64)) << shift for shift in (0, 32, 64) for _ in range(3)]
        for seed in seeds:
            # An odd count of 32-bit draws leaves half of a 64-bit output
            # buffered, which the re-key must drop.
            stream.integers(0, 2**32, size=int(rng.integers(0, 5)) * 2 + 1, dtype=np.uint32)
            stats._rekey(bitgen, seed)
            fresh = np.random.Generator(np.random.Philox(key=seed))
            for draw in (lambda g: g.integers(0, 2**32, size=7, dtype=np.uint32),
                         lambda g: g.integers(0, 13, size=(3, 5)),
                         lambda g: g.integers(0, 2**64, size=5, dtype=np.uint64)):
                assert draw(stream).tolist() == draw(fresh).tolist(), f"seed {seed:#x}"
