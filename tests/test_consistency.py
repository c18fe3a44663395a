"""Consistency scoring tests: spread oracles, Kendall baselines, assembly."""

from __future__ import annotations

import csv
import dataclasses
import itertools
import logging
import math
import warnings
from collections import defaultdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import kendalltau, rankdata

from thckit import consistency
from thckit.consistency import (
    AssemblyOptions,
    CellTable,
    IntervalSource,
    PtpNormalization,
    RankProfile,
    TransferSetup,
    assemble_profiles,
    build_consistency_report,
    kendall_tau_matrix,
    kendall_w,
    mean_pairwise_tau,
    normalized_ptp,
    ptp,
    rank_context,
    thc,
)
from thckit.dataset import BaselineTable, EmptySliceError, RunRecord, SweepDataset, SweepSchema, load_dataset
from thckit.ranking import RankingMode, rank_intervals
from thckit.report import build_report_bundle, write_report_bundle
from thckit.stats import (Interval, ScoreMatrix, derive_seed, human_normalize, pooled_bootstrap_cis,
                          pooled_mean_and_spreads)

from conftest import dataset_from_intervals, reference_trajectory_cells


def profile(matrix, name="hp") -> RankProfile:
    matrix = np.asarray(matrix, dtype=float)
    return RankProfile(
        name,
        tuple(f"v{i}" for i in range(matrix.shape[0])),
        tuple(f"c{j}" for j in range(matrix.shape[1])),
        matrix,
    )


# The four reference rank trajectories with hand-checked scores.
TRAJECTORY_A1 = [[1, 1, 2, 1, 3], [2, 3, 2, 3, 2], [3, 2, 2, 2, 1]]
TRAJECTORY_B1 = [[1, 2, 1, 2, 1], [2, 1, 2, 1, 2], [3, 3, 3, 3, 3]]
TRAJECTORY_A2 = [[1, 1, 1, 3], [2, 2, 2, 2], [3, 3, 3, 1], [4, 4, 4, 4]]
TRAJECTORY_B2 = [[1, 1, 1, 1], [2.5, 2, 3, 2], [2.5, 3, 2, 3]]


class TestPtp:
    def test_peak_to_peak(self):
        assert ptp([1, 1, 2, 1, 3]) == 2.0
        assert ptp([2.5, 2, 3, 2]) == 1.0
        assert ptp([4.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ptp([])


class TestNormalizedPtp:
    def test_reference_vectors(self):
        assert normalized_ptp([2, 1, 2], m=3) == [1.0, 0.5, 1.0]
        assert normalized_ptp([1, 1, 0], m=3) == [0.5, 0.5, 0.0]
        assert normalized_ptp([2, 0, 2, 0], m=4) == [2 / 3, 0.0, 2 / 3, 0.0]

    def test_all_zero(self):
        assert normalized_ptp([0, 0, 0], m=3) == [0.0, 0.0, 0.0]

    def test_single_value_scores_zero(self):
        assert normalized_ptp([0.0], m=1) == [0.0]

    def test_sum_mode(self):
        assert normalized_ptp([2, 1, 2], m=3, mode=PtpNormalization.SUM) == [0.4, 0.2, 0.4]
        assert normalized_ptp([0, 0], m=2, mode=PtpNormalization.SUM) == [0.0, 0.0]

    def test_m_defaults_to_length(self):
        assert normalized_ptp([2, 1, 2]) == [1.0, 0.5, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            normalized_ptp([-1.0], m=2)
        with pytest.raises(ValueError):
            normalized_ptp([1.0], m=0)


class TestThcOracles:
    @pytest.mark.parametrize("matrix,expected", [
        (TRAJECTORY_A1, 2.5 / 3),
        (TRAJECTORY_B1, 1 / 3),
        (TRAJECTORY_A2, 1 / 3),
        (TRAJECTORY_B2, 1 / 3),
    ])
    def test_reference_scores(self, matrix, expected):
        assert abs(thc(profile(matrix)) - expected) < 1e-12

    def test_consistent_rankings_score_zero(self):
        assert thc(profile([[1, 1, 1], [2, 2, 2], [3, 3, 3]])) == 0.0

    def test_single_context_scores_zero(self):
        assert thc(profile([[1], [2], [3]])) == 0.0

    def test_single_value_scores_zero(self):
        assert thc(profile([[1, 1, 1]])) == 0.0

    def test_two_value_reversal_scores_one(self):
        assert thc(profile([[1, 2], [2, 1]])) == 1.0

    def test_sum_mode_collapses_to_reciprocal_value_count(self):
        for matrix in (TRAJECTORY_A1, TRAJECTORY_B1, TRAJECTORY_A2, TRAJECTORY_B2):
            m = len(matrix)
            assert abs(thc(profile(matrix), PtpNormalization.SUM) - 1 / m) < 1e-12


class TestRankProfileValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            RankProfile("hp", ("a", "b"), ("c1",), np.array([[1.0], [2.0], [3.0]]))

    def test_nonfinite_ranks(self):
        with pytest.raises(ValueError):
            profile([[1, float("nan")], [2, 2]])

    def test_duplicate_values(self):
        with pytest.raises(ValueError):
            RankProfile("hp", ("a", "a"), ("c1",), np.array([[1.0], [2.0]]))

    def test_empty(self):
        with pytest.raises(ValueError):
            RankProfile("hp", (), ("c1",), np.empty((0, 1)))

    def test_duplicate_contexts(self):
        with pytest.raises(ValueError, match="contexts must be unique"):
            RankProfile("hp", ("a", "b"), ("c1", "c1"), np.array([[1.0, 1.0], [2.0, 2.0]]))

    @pytest.mark.parametrize("intervals, order, message", [
        (np.zeros((3, 3, 2)), None, r"intervals shape \(3, 3, 2\) does not match \(3, 2, 3\)"),
        (np.zeros((2, 2, 3)), None, r"intervals shape \(2, 2, 3\) does not match \(3, 2, 3\)"),
        (None, np.zeros((3, 2), dtype=int), r"order shape \(3, 2\) does not match \(2, 3\)"),
        (None, np.zeros(6, dtype=int), r"order shape \(6,\) does not match \(2, 3\)"),
    ])
    def test_intervals_and_order_must_be_values_by_contexts(self, intervals, order, message):
        ranks = np.array([[1.0, 1.0, 2.0], [2.0, 2.0, 1.0]])
        RankProfile("hp", ("a", "b"), ("c1", "c2", "c3"), ranks, {}, np.zeros((3, 2, 3)),
                    np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError, match=message):
            RankProfile("hp", ("a", "b"), ("c1", "c2", "c3"), ranks, {}, intervals, order)


def brute_force_tau_b(x, y):
    """Tau-b via explicit pair counting."""
    n = len(x)
    concordant = discordant = tied_x = tied_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                tied_x += 1
            if dy == 0:
                tied_y += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    n0 = n * (n - 1) // 2
    if n0 == tied_x or n0 == tied_y:
        return math.nan
    return (concordant - discordant) / math.sqrt((n0 - tied_x) * (n0 - tied_y))


def textbook_w(ranks):
    """Tie-corrected coefficient of concordance, written out independently."""
    v, c = ranks.shape
    totals = ranks.sum(axis=1)
    s = float(((totals - totals.mean()) ** 2).sum())
    ties = 0.0
    for j in range(c):
        seen = {}
        for r in ranks[:, j]:
            seen[r] = seen.get(r, 0) + 1
        ties += sum(t**3 - t for t in seen.values())
    denom = c * c * (v**3 - v) - c * ties
    return None if denom <= 0 else 12.0 * s / denom


def scipy_tau_matrix(ranks):
    """``kendalltau`` of every context pair ``i <= j``, mirrored below the
    diagonal: the matrix a pairwise scipy loop gives."""
    c = ranks.shape[1]
    out = np.full((c, c), np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns about 1-value samples
        for i in range(c):
            for j in range(i, c):
                out[i, j] = out[j, i] = kendalltau(ranks[:, i], ranks[:, j]).statistic
    return out


def tied_profiles(rng, shapes):
    """One random tied rank profile per ``(values, contexts)`` shape; about
    a quarter of them get a fully tied column."""
    for v, c in shapes:
        levels = int(rng.integers(1, v + 2))
        ranks = np.column_stack([rankdata(rng.integers(0, levels, size=v), method="average")
                                 for _ in range(c)])
        if rng.random() < 0.25:
            ranks[:, rng.integers(c)] = (v + 1) / 2
        yield profile(ranks)


def random_rank_profile(rng, max_values=5, max_contexts=4):
    v = int(rng.integers(2, max_values + 1))
    c = int(rng.integers(2, max_contexts + 1))
    columns = [rankdata(rng.integers(0, v, size=v), method="average") for _ in range(c)]
    return profile(np.column_stack(columns))


class TestKendall:
    def test_w_identical_rankings(self):
        assert kendall_w(profile([[1, 1], [2, 2], [3, 3]])) == 1.0

    def test_w_reversal_is_zero(self):
        assert kendall_w(profile([[1, 3], [2, 2], [3, 1]])) == 0.0

    def test_w_all_tied_is_undefined(self):
        assert kendall_w(profile([[1.5, 1.5], [1.5, 1.5]])) is None

    def test_w_reference_trajectory(self):
        assert kendall_w(profile(TRAJECTORY_B1)) == pytest.approx(0.76)

    def test_w_requires_two_contexts_and_values(self):
        with pytest.raises(ValueError):
            kendall_w(profile([[1], [2]]))
        with pytest.raises(ValueError):
            kendall_w(profile([[1, 1]]))

    def test_w_matches_independent_formula(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            p = random_rank_profile(rng)
            expected = textbook_w(p.ranks)
            actual = kendall_w(p)
            if expected is None:
                assert actual is None
            else:
                assert actual == pytest.approx(expected, abs=1e-12)

    def test_tau_identical_and_reversed(self):
        identical = profile([[1, 1], [2, 2], [3, 3]])
        assert kendall_tau_matrix(identical)[0, 1] == pytest.approx(1.0)
        reversed_ = profile([[1, 3], [2, 2], [3, 1]])
        assert kendall_tau_matrix(reversed_)[0, 1] == pytest.approx(-1.0)

    def test_tau_matrix_needs_two_contexts(self):
        with pytest.raises(ValueError, match="at least 2 contexts"):
            kendall_tau_matrix(profile([[1], [2]]))

    def test_tau_matrix_shape_and_diagonal(self):
        p = profile(TRAJECTORY_A1)
        matrix = kendall_tau_matrix(p)
        assert matrix.shape == (5, 5)
        diagonal = np.diag(matrix)
        # the third context ranks everything 2, so its self-correlation is undefined
        assert np.allclose(diagonal[[0, 1, 3, 4]], 1.0)
        assert math.isnan(diagonal[2])
        assert np.allclose(matrix, matrix.T, equal_nan=True)

    def test_tau_undefined_for_fully_tied_column(self):
        p = profile([[1, 2.0], [2, 2.0], [3, 2.0]])
        matrix = kendall_tau_matrix(p)
        assert math.isnan(matrix[0, 1])
        assert math.isnan(matrix[1, 1])
        assert matrix[0, 0] == pytest.approx(1.0)

    def test_tau_matches_brute_force_pair_counting(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            p = random_rank_profile(rng)
            matrix = kendall_tau_matrix(p)
            c = p.ranks.shape[1]
            for i in range(c):
                for j in range(i + 1, c):
                    expected = brute_force_tau_b(p.ranks[:, i], p.ranks[:, j])
                    if math.isnan(expected):
                        assert math.isnan(matrix[i, j])
                    else:
                        assert matrix[i, j] == pytest.approx(expected, abs=1e-12)

    def test_mean_pairwise_tau_skips_undefined_pairs(self):
        p = profile([[1, 1, 2.0], [2, 2, 2.0], [3, 3, 2.0]])
        # pairs involving the tied column are undefined; the 0-1 pair is 1.0
        assert mean_pairwise_tau(p) == pytest.approx(1.0)

    def test_mean_pairwise_tau_none_when_all_undefined(self):
        p = profile([[1.5, 1.5], [1.5, 1.5]])
        assert mean_pairwise_tau(p) is None

    def test_tau_matrix_and_mean_bit_identical_to_scipy(self):
        rng = np.random.default_rng(2024)
        shapes = [(1, 3), (2, 2), (5, 2), (8, 2), (4, 26), (4, 27), (6, 29)]
        shapes += [(int(rng.integers(1, 9)), int(rng.integers(2, 13))) for _ in range(80)]
        all_tied = [[[1.0, 1.0, 1.0]], [[1.5, 1.0], [1.5, 2.0]], [[2.0] * 27] * 3]
        for p in [*map(profile, all_tied), *tied_profiles(rng, shapes)]:
            expected = scipy_tau_matrix(p.ranks)
            actual = kendall_tau_matrix(p)
            assert [x.hex() for x in actual.ravel()] == [x.hex() for x in expected.ravel()], p.ranks
            c = expected.shape[0]
            offdiag = [expected[i, j] for i in range(c) for j in range(i + 1, c)
                       if math.isfinite(expected[i, j])]
            mean = mean_pairwise_tau(p)
            if offdiag:
                assert mean.hex() == float(np.mean(offdiag)).hex(), p.ranks
            else:
                assert mean is None

    def test_w_one_implies_thc_zero_for_untied_rankings(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            order = rng.permutation(4) + 1
            p = profile(np.column_stack([order, order, order]))
            assert kendall_w(p) == pytest.approx(1.0)
            assert thc(p) == 0.0


ranks_column = st.integers(min_value=2, max_value=5).flatmap(
    lambda v: st.lists(
        st.lists(st.integers(min_value=0, max_value=4), min_size=v, max_size=v)
        .map(lambda scores: tuple(rankdata(scores, method="average"))),
        min_size=1, max_size=5,
    )
)


def loop_kendall_w(ranks: np.ndarray) -> float | None:
    """Kendall's W with one ``np.unique`` tie count per context: the
    per-context loop ``kendall_w`` replaced, kept as its reference."""
    v, c = ranks.shape
    totals = ranks.sum(axis=1)
    s = float(((totals - totals.mean()) ** 2).sum())
    tie_term = 0.0
    for j in range(c):
        _, counts = np.unique(ranks[:, j], return_counts=True)
        tie_term += float((counts**3 - counts).sum())
    denom = c * c * (v**3 - v) - c * tie_term
    return None if denom <= 0 else 12.0 * s / denom


def assert_w_matches_loop(p: RankProfile) -> None:
    expected = loop_kendall_w(p.ranks)
    actual = kendall_w(p)
    if expected is None:
        assert actual is None, p.ranks
    else:
        assert actual.hex() == expected.hex(), p.ranks


class TestKendallWTies:
    @given(ranks_column.filter(lambda columns: len(columns) >= 2))
    def test_bit_identical_to_per_context_loop(self, columns):
        assert_w_matches_loop(profile(np.column_stack(columns)))

    def test_bit_identical_to_per_context_loop_on_wide_profiles(self):
        rng = np.random.default_rng(10)
        shapes = [(4, 26), (4, 416), (15, 29), (2, 2)]
        shapes += [(int(rng.integers(2, 16)), int(rng.integers(2, 60))) for _ in range(100)]
        for p in tied_profiles(rng, shapes):
            assert_w_matches_loop(p)


class TestThcInvariants:
    @given(ranks_column)
    def test_bounds_and_zero_iff_consistent(self, columns):
        p = profile(np.column_stack(columns))
        score = thc(p)
        assert 0.0 <= score <= 1.0
        consistent = all(len(set(row)) == 1 for row in p.ranks)
        assert (score == 0.0) == consistent

    @given(ranks_column, st.randoms())
    def test_relabeling_invariance(self, columns, rnd):
        matrix = np.column_stack(columns)
        p = profile(matrix)
        rows = list(range(matrix.shape[0]))
        cols = list(range(matrix.shape[1]))
        rnd.shuffle(rows)
        rnd.shuffle(cols)
        shuffled = profile(matrix[np.ix_(rows, cols)])
        assert thc(shuffled) == pytest.approx(thc(p), abs=1e-12)

    @given(ranks_column)
    def test_dropping_a_context_never_increases_thc(self, columns):
        matrix = np.column_stack(columns)
        if matrix.shape[1] < 2:
            return
        full = thc(profile(matrix))
        for j in range(matrix.shape[1]):
            reduced = np.delete(matrix, j, axis=1)
            assert thc(profile(reduced)) <= full + 1e-12

    @given(ranks_column)
    def test_sum_mode_degenerates(self, columns):
        matrix = np.column_stack(columns)
        p = profile(matrix)
        spreads = [ptp(row) for row in matrix]
        score = thc(p, PtpNormalization.SUM)
        if sum(spreads) > 0:
            assert abs(score - 1 / matrix.shape[0]) < 1e-12
        else:
            assert score == 0.0


class TestAssembly:
    def test_reference_dataset_end_to_end(self):
        dataset = dataset_from_intervals(reference_trajectory_cells())
        options = AssemblyOptions(interval_source=IntervalSource.MEAN_SD)
        report, profiles = build_consistency_report(
            dataset, TransferSetup.ACROSS_ENVIRONMENTS, options)
        scores = {e.hyperparameter: e.thc for e in report.entries}
        assert abs(scores["ha"] - 2.5 / 3) < 1e-12
        assert abs(scores["hb"] - 1 / 3) < 1e-12
        ranks = {p.hyperparameter: p.ranks.tolist() for p in profiles}
        assert ranks["ha"] == TRAJECTORY_A1
        assert ranks["hb"] == TRAJECTORY_B1

    def test_profile_holds_its_cells_and_positions(self):
        dataset = dataset_from_intervals(reference_trajectory_cells())
        options = AssemblyOptions(interval_source=IntervalSource.MEAN_SD)
        setup = TransferSetup.ACROSS_ENVIRONMENTS
        profiles = assemble_profiles(dataset, setup, options).profiles
        assert len(profiles) == 2
        for p in profiles:
            assert hexed_cells(p) == fresh_cells(dataset, setup, options, p)
            for coords, rows in ranked_rows(p, setup):
                assert rank_context_rows(dataset, p.hyperparameter, coords, options) == rows

    def test_cannot_pin_the_varying_axis(self):
        dataset = dataset_from_intervals(reference_trajectory_cells())
        with pytest.raises(ValueError, match="varying axis"):
            assemble_profiles(dataset, TransferSetup.ACROSS_ENVIRONMENTS,
                              AssemblyOptions(environment="g1"))

    def test_single_context_hyperparameter_skipped_with_reason(self):
        cells = {"solo": {"x": {"g1": (0.0, 1.0)}, "y": {"g1": (2.0, 3.0)}}}
        dataset = dataset_from_intervals(cells)
        assembled = assemble_profiles(dataset, TransferSetup.ACROSS_ENVIRONMENTS,
                                      AssemblyOptions(interval_source=IntervalSource.MEAN_SD))
        assert not assembled.profiles
        assert len(assembled.skipped) == 1
        assert "1 context" in assembled.skipped[0].reason

    def test_context_of_thin_groups_only_skipped_with_reason(self):
        cells = {"hp": {"x": {"g1": (0.0, 1.0), "g2": (0.0, 1.0)}, "y": {"g1": (2.0, 3.0), "g2": (2.0, 3.0)}}}
        dataset = dataset_from_intervals(cells)
        # g2 keeps one seed per value: it has data but no rankable value.
        dataset = SweepDataset([r for r in dataset.records if (r.environment, r.seed) != ("g2", 1)],
                               dataset.baselines, dataset.schema)
        assembled = assemble_profiles(dataset, TransferSetup.ACROSS_ENVIRONMENTS,
                                      AssemblyOptions(interval_source=IntervalSource.MEAN_SD))
        assert not assembled.profiles
        assert [(s.hyperparameter, dict(s.fixed), s.reason) for s in assembled.skipped] == [
            ("hp", {"agent": "agent01", "data_regime": "regime01"}, "only 1 context(s) with rankable values")]

    def test_no_value_rankable_in_every_context_skipped_with_reason(self):
        cells = {"hp": {"x": {"g1": (0.0, 1.0)}, "y": {"g2": (2.0, 3.0)}}}
        dataset = dataset_from_intervals(cells)
        assembled = assemble_profiles(dataset, TransferSetup.ACROSS_ENVIRONMENTS,
                                      AssemblyOptions(interval_source=IntervalSource.MEAN_SD))
        assert not assembled.profiles
        assert [(s.hyperparameter, dict(s.fixed), s.reason) for s in assembled.skipped] == [
            ("hp", {"agent": "agent01", "data_regime": "regime01"}, "no value is rankable in every context")]

    def test_value_missing_from_one_context_is_excluded(self, caplog):
        cells = {
            "hp": {
                "x": {"g1": (90.0, 100.0), "g2": (90.0, 100.0)},
                "y": {"g1": (60.0, 70.0), "g2": (60.0, 70.0)},
                "z": {"g1": (30.0, 40.0)},  # never run in g2
            }
        }
        dataset = dataset_from_intervals(cells)
        with caplog.at_level(logging.WARNING, logger="thckit.consistency"):
            assembled = assemble_profiles(dataset, TransferSetup.ACROSS_ENVIRONMENTS,
                                          AssemblyOptions(interval_source=IntervalSource.MEAN_SD))
        assert assembled.profiles[0].values == ("x", "y")
        assert any("not rankable in every context" in r.message for r in caplog.records)

    def test_thin_groups_dropped_with_warning(self, caplog):
        cells = {
            "hp": {
                "x": {"g1": (90.0, 100.0), "g2": (90.0, 100.0)},
                "y": {"g1": (60.0, 70.0), "g2": (60.0, 70.0)},
            }
        }
        dataset = dataset_from_intervals(cells)
        # add a single-seed group for a third value
        from thckit import RunRecord, SweepDataset, SweepSchema, BaselineTable
        schema = SweepSchema(
            agents=dataset.schema.agents,
            environments=dataset.schema.environments,
            data_regimes=dataset.schema.data_regimes,
            hyperparameters={"hp": ("x", "y", "z")},
        )
        records = list(dataset.records)
        records.append(RunRecord("agent01", "g1", "regime01", "hp", "z", 0, 10.0))
        records.append(RunRecord("agent01", "g2", "regime01", "hp", "z", 0, 10.0))
        dataset = SweepDataset(records, dataset.baselines, schema)
        with caplog.at_level(logging.WARNING, logger="thckit.consistency"):
            assembled = assemble_profiles(dataset, TransferSetup.ACROSS_ENVIRONMENTS,
                                          AssemblyOptions(interval_source=IntervalSource.MEAN_SD))
        assert assembled.profiles[0].values == ("x", "y")
        assert any("fewer than 2 seeds" in r.message for r in caplog.records)

    def test_iqm_ci_source_is_deterministic(self):
        dataset = dataset_from_intervals(reference_trajectory_cells())
        options = AssemblyOptions(resamples=150, seed=9)
        first = assemble_profiles(dataset, TransferSetup.ACROSS_ENVIRONMENTS, options)
        second = assemble_profiles(dataset, TransferSetup.ACROSS_ENVIRONMENTS, options)
        assert first.profiles
        for a, b in zip(first.profiles, second.profiles):
            assert np.array_equal(a.ranks, b.ranks)
            assert profile_fields(a) == profile_fields(b)

    def test_report_includes_kendall_when_requested(self):
        dataset = dataset_from_intervals(reference_trajectory_cells())
        options = AssemblyOptions(interval_source=IntervalSource.MEAN_SD)
        report, _ = build_consistency_report(
            dataset, TransferSetup.ACROSS_ENVIRONMENTS, options, include_kendall=True)
        entry = {e.hyperparameter: e for e in report.entries}["hb"]
        assert entry.kendall is not None
        assert entry.kendall.w == pytest.approx(0.76)
        assert entry.kendall.mean_tau == pytest.approx(0.6)

    @pytest.mark.parametrize("normalization", list(PtpNormalization))
    def test_entry_scores_are_the_profiles_thc_and_spreads(self, normalization):
        dataset = dataset_from_intervals(reference_trajectory_cells())
        options = AssemblyOptions(interval_source=IntervalSource.MEAN_SD)
        report, profiles = build_consistency_report(
            dataset, TransferSetup.ACROSS_ENVIRONMENTS, options, normalization)
        for entry, profile in zip(report.entries, profiles, strict=True):
            assert entry.thc == thc(profile, normalization)
            spreads = normalized_ptp([ptp(row) for row in profile.ranks], len(profile.values), normalization)
            assert list(entry.normalized_ptp.values()) == spreads

    def test_report_omits_kendall_by_default(self):
        dataset = dataset_from_intervals(reference_trajectory_cells())
        options = AssemblyOptions(interval_source=IntervalSource.MEAN_SD)
        report, _ = build_consistency_report(
            dataset, TransferSetup.ACROSS_ENVIRONMENTS, options)
        assert all(e.kendall is None for e in report.entries)


class TestRankContext:
    def test_matches_direct_ranking(self):
        cells = {"hp": {
            "1e-2": {"g1": (200.0, 300.0)},
            "1e-1": {"g1": (250.0, 350.0)},
            "1": {"g1": (400.0, 600.0)},
            "1e1": {"g1": (110.0, 220.0)},
            "1e2": {"g1": (30.0, 70.0)},
        }}
        dataset = dataset_from_intervals(cells)
        table, points = rank_context(
            dataset, "hp", agent="agent01", data_regime="regime01",
            options=AssemblyOptions(interval_source=IntervalSource.MEAN_SD))
        assert table.final_ranks() == {
            "1": 1.0, "1e-1": 2.5, "1e-2": 3.0, "1e1": 3.5, "1e2": 5.0}
        assert set(points) == {"1e-2", "1e-1", "1", "1e1", "1e2"}

    def test_selector_matching_nothing(self):
        dataset = dataset_from_intervals(reference_trajectory_cells())
        with pytest.raises(KeyError, match="unknown agent 'agent99'"):
            rank_context(dataset, "ha", agent="agent99", data_regime="regime01")
        # A declared agent without runs selects nothing.
        schema = dataclasses.replace(dataset.schema, agents=("agent01", "agent02"))
        declared = SweepDataset(dataset.records, dataset.baselines, schema)
        with pytest.raises(EmptySliceError):
            rank_context(declared, "ha", agent="agent02", data_regime="regime01")

    def test_pinned_environment_without_enough_seeds(self):
        cells = {"hp": {
            "x": {"g1": (0.0, 1.0), "g2": (2.0, 3.0)},
            "y": {"g1": (4.0, 5.0), "g2": (6.0, 7.0)},
        }}
        dataset = dataset_from_intervals(cells)
        table, _ = rank_context(
            dataset, "hp", agent="agent01", data_regime="regime01", environment="g2",
            options=AssemblyOptions(interval_source=IntervalSource.MEAN_SD))
        assert table.final_ranks() == {"y": 1.0, "x": 2.0}

    def test_context_without_a_rankable_value_raises(self):
        cells = {"hp": {"x": {"g1": (0.0, 1.0), "g2": (0.0, 1.0)}, "y": {"g1": (2.0, 3.0)}}}
        dataset = dataset_from_intervals(cells)
        dataset = SweepDataset([r for r in dataset.records if (r.environment, r.seed) != ("g2", 1)],
                               dataset.baselines, dataset.schema)
        with pytest.raises(ValueError, match="^no value of 'hp' has at least 2 seeds in this context$"):
            rank_context(dataset, "hp", agent="agent01", data_regime="regime01", environment="g2")

    def test_empty_context_raises(self):
        cells = {"hp": {"x": {"g1": (0.0, 1.0)}}}
        dataset = dataset_from_intervals(cells)
        with pytest.raises(KeyError):
            rank_context(dataset, "nope", agent="agent01", data_regime="regime01")


# The committed fixture sweep with the golden bundle's bootstrap flags.
FIXTURE = Path(__file__).parent / "data"
FIXTURE_OPTIONS = AssemblyOptions(resamples=200, seed=0)
ALL_SETUPS = tuple(TransferSetup)


@pytest.fixture(scope="module")
def fixture_dataset():
    return load_dataset(FIXTURE / "runs.csv", FIXTURE / "baselines.csv", FIXTURE / "schema.yaml")


@pytest.fixture(scope="module")
def bundle_cells(fixture_dataset, tmp_path_factory):
    """``(lower, upper, point)`` triples per cell identity in the
    ``intervals.csv`` of the fixture's all-setup bundle."""
    out = tmp_path_factory.mktemp("bundle")
    write_report_bundle(build_report_bundle(fixture_dataset, ALL_SETUPS, FIXTURE_OPTIONS), out)
    cells = defaultdict(set)
    with open(out / "intervals.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            coords = dict(part.split("=") for part in row["fixed"].split(";") if part)
            coords[TransferSetup(row["setup"]).axis.value] = row["context"]
            key = (row["hyperparameter"], row["value"], coords["agent"],
                   coords["data_regime"], coords.get("environment"))
            cells[key].add((float(row["lower"]), float(row["upper"]), float(row["point"])))
    return cells


def hexed_cells(p: RankProfile) -> list[list[list[str]]]:
    """A profile's ``(3, values, contexts)`` ranked cells as ``float.hex`` strings."""
    return [[list(map(float.hex, row)) for row in rows] for rows in p.intervals.tolist()]


def context_coords(p: RankProfile, setup: TransferSetup) -> list[dict[str, str]]:
    """The coordinates of each of a profile's contexts."""
    return [{**p.fixed, setup.axis.value: context} for context in p.contexts]


def fresh_cells(dataset: SweepDataset, setup: TransferSetup, options: AssemblyOptions,
                p: RankProfile) -> list[list[list[str]]]:
    """The :func:`hexed_cells` of ``p`` as a fresh ``CellTable`` holds them."""
    fresh = CellTable(dataset, options)
    arrays = np.stack([fresh.context_arrays(p.hyperparameter, **c) for c in context_coords(p, setup)], axis=2)
    rows = [dataset.schema.hyperparameters[p.hyperparameter].index(value) for value in p.values]
    return [[list(map(float.hex, row)) for row in array] for array in arrays[:, rows].tolist()]


def ranked_rows(p: RankProfile, setup: TransferSetup) -> list[tuple[dict[str, str], list[tuple]]]:
    """Each of a profile's contexts as its coordinates and, in position order
    read from the profile's arrays, its values' bounds and points (as
    ``float.hex``), positions and final ranks."""
    cells = hexed_cells(p)
    return [(coords, [(p.values[i], *(array[i][j] for array in cells), position, p.ranks[i, j].item())
                      for position, i in enumerate(p.order[:, j].tolist(), 1)])
            for j, coords in enumerate(context_coords(p, setup))]


def rank_context_rows(dataset: SweepDataset, hp: str, coords: dict[str, str],
                      options: AssemblyOptions) -> list[tuple]:
    """The rows of :func:`ranked_rows` for one context, from ``rank_context``."""
    table, points = rank_context(dataset, hp, **coords, options=options)
    assert (table.hyperparameter, dict(table.context)) == (hp, coords)
    return [(e.label, e.interval.lower.hex(), e.interval.upper.hex(), points[e.label].hex(),
             e.initial_rank, e.final_rank) for e in table]


def profile_fields(p: RankProfile) -> tuple:
    """A profile's fields, ranked cells (as ``float.hex``) and positions."""
    return (p.hyperparameter, p.values, p.contexts, p.ranks.tolist(), dict(p.fixed), hexed_cells(p),
            p.order.tolist())


class TestCellTable:
    def test_one_interval_per_cell(self, bundle_cells):
        assert len(bundle_cells) == 160
        assert {key: found for key, found in bundle_cells.items() if len(found) != 1} == {}

    def test_rank_context_reads_the_bundle_cells(self, fixture_dataset, bundle_cells):
        table, points = rank_context(fixture_dataset, "lr", agent="agent01", data_regime="low",
                                     options=FIXTURE_OPTIONS)
        assert len(table) == 3
        for e in table:
            assert bundle_cells["lr", e.label, "agent01", "low", None] == {
                (e.interval.lower, e.interval.upper, points[e.label])}

        table, points = rank_context(fixture_dataset, "lr", agent="agent01", data_regime="low",
                                     environment="env01", options=FIXTURE_OPTIONS)
        pinned = assemble_profiles(fixture_dataset, TransferSetup.ACROSS_AGENTS,
                                   dataclasses.replace(FIXTURE_OPTIONS, environment="env01"))
        profile = next(p for p in pinned.profiles
                       if p.hyperparameter == "lr" and p.fixed["data_regime"] == "low")
        lower, upper, _ = profile.intervals[:, :, profile.contexts.index("agent01")].tolist()
        across_agents = dict(zip(profile.values, map(Interval, lower, upper)))
        assert len(table) == 3
        for e in table:
            assert bundle_cells["lr", e.label, "agent01", "low", "env01"] == {
                (e.interval.lower, e.interval.upper, points[e.label])}
            assert across_agents[e.label] == e.interval

    @pytest.mark.parametrize("mode", list(RankingMode))
    @pytest.mark.parametrize("source", list(IntervalSource))
    def test_rank_context_gives_every_bundle_table(self, fixture_dataset, source, mode):
        options = dataclasses.replace(FIXTURE_OPTIONS, interval_source=source, ranking_mode=mode)
        bundle = build_report_bundle(fixture_dataset, ALL_SETUPS, options)
        contexts = 0
        for setup, profiles in zip(ALL_SETUPS, bundle.profiles):
            for p in profiles:
                assert hexed_cells(p) == fresh_cells(fixture_dataset, setup, options, p)
                for coords, rows in ranked_rows(p, setup):
                    assert rank_context_rows(fixture_dataset, p.hyperparameter, coords, options) == rows
                    contexts += 1
        assert contexts == 72

    def test_bundle_aggregates_each_cell_once(self, fixture_dataset, monkeypatch):
        seeds = []
        bootstrap = consistency.pooled_bootstrap_cis

        def counted(values, patterns, cell_seeds, *args, **kwargs):
            seeds.extend(cell_seeds)
            return bootstrap(values, patterns, cell_seeds, *args, **kwargs)

        monkeypatch.setattr(consistency, "pooled_bootstrap_cis", counted)
        bundle = build_report_bundle(fixture_dataset, ALL_SETUPS, FIXTURE_OPTIONS)
        assert len(seeds) == len(set(seeds)) == 160
        for setup, shared in zip(ALL_SETUPS, bundle.profiles):
            cells = CellTable(fixture_dataset, FIXTURE_OPTIONS)
            _, alone = build_consistency_report(fixture_dataset, setup, FIXTURE_OPTIONS, cells=cells)
            assert list(map(profile_fields, shared)) == list(map(profile_fields, alone))

    def test_bundle_builds_no_score_matrix(self, fixture_dataset, monkeypatch):
        # The cell table checks every normalised score once and hands the
        # bootstrap the checked array itself, never a ScoreMatrix to check
        # again.
        def checked_again(self, rows):
            raise AssertionError("ScoreMatrix checked the cell table's rows again")

        monkeypatch.setattr(ScoreMatrix, "__init__", checked_again)
        bundle = build_report_bundle(fixture_dataset, ALL_SETUPS, FIXTURE_OPTIONS)
        assert len(bundle.profiles) == len(ALL_SETUPS)

    @pytest.mark.parametrize("source", list(IntervalSource))
    def test_overflowing_aggregate_names_the_cell(self, source):
        # Finite normalised scores whose sum overflows: the error names the
        # first cell whose aggregate is not finite.
        schema = SweepSchema(agents=("a",), environments=("e",), data_regimes=("r",),
                             hyperparameters={"h": ("1", "2")})
        records = [RunRecord("a", "e", "r", "h", value, seed, 1.5e308 if value == "2" else seed)
                   for value in ("1", "2") for seed in range(3)]
        dataset = SweepDataset(records, BaselineTable({"e": (0.0, 1.0)}), schema)
        cells = CellTable(dataset, AssemblyOptions(interval_source=source, resamples=100))
        with pytest.raises(ValueError) as excinfo:
            cells.context_arrays("h", "a", "r")
        assert str(excinfo.value) == ("h=2, agent a, regime r, pooled environments: "
                                      "an interval bound or point estimate is not finite")

    @pytest.mark.parametrize("source", list(IntervalSource))
    def test_fill_in_small_blocks_changes_nothing(self, fixture_dataset, monkeypatch, caplog, source):
        # Drop one pooled group's second seed so that a thin-group warning
        # falls inside the blocked fills.
        thin = ("lr", "0.01", "agent02", "env03", "high")
        records = [r for r in fixture_dataset.records
                   if (r.hyperparameter, r.value, r.agent, r.environment, r.data_regime) != thin
                   or r.seed == 0]
        dataset = SweepDataset(records, fixture_dataset.baselines, fixture_dataset.schema)
        options = dataclasses.replace(FIXTURE_OPTIONS, interval_source=source)

        def bundle_and_log():
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="thckit.consistency"):
                bundle = build_report_bundle(dataset, ALL_SETUPS, options)
            fills = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
            warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
            fields = [list(map(profile_fields, profiles)) for profiles in bundle.profiles]
            return fields, fills, warned

        whole, whole_fills, whole_warned = bundle_and_log()
        monkeypatch.setattr(consistency, "_FILL_BLOCK", 7)
        blocked, blocked_fills, blocked_warned = bundle_and_log()
        assert blocked == whole
        assert blocked_warned == whole_warned and any("fewer than 2 seeds" in w for w in whole_warned)
        # One log line per fill, whatever the block size.
        assert blocked_fills == whole_fills and len(whole_fills) == len(ALL_SETUPS)

    def test_table_of_another_dataset_or_options_rejected(self, fixture_dataset):
        cells = CellTable(fixture_dataset, FIXTURE_OPTIONS)
        other = dataset_from_intervals(reference_trajectory_cells())
        with pytest.raises(ValueError, match="cell table"):
            assemble_profiles(other, TransferSetup.ACROSS_ENVIRONMENTS, FIXTURE_OPTIONS, cells=cells)
        with pytest.raises(ValueError, match="cell table"):
            build_consistency_report(fixture_dataset, TransferSetup.ACROSS_AGENTS,
                                     dataclasses.replace(FIXTURE_OPTIONS, seed=1), cells=cells)

    def test_thin_pooled_cell_warned_once(self, fixture_dataset, caplog):
        thin = ("lr", "0.1", "agent01", "env01", "low")
        records = [r for r in fixture_dataset.records
                   if (r.hyperparameter, r.value, r.agent, r.environment, r.data_regime) != thin
                   or r.seed == 0]
        dataset = SweepDataset(records, fixture_dataset.baselines, fixture_dataset.schema)
        options = AssemblyOptions(interval_source=IntervalSource.MEAN_SD)
        with caplog.at_level(logging.WARNING, logger="thckit.consistency"):
            build_report_bundle(dataset, (TransferSetup.ACROSS_AGENTS,
                                          TransferSetup.ACROSS_DATA_REGIMES), options)
        warned = [r.getMessage() for r in caplog.records if "fewer than 2 seeds" in r.message]
        assert len(warned) == 1
        assert "lr=0.1, agent agent01, regime low" in warned[0] and warned[0].endswith("env01")


# -- assembly and cell gathering against brute-force references -----------------
# Sparse sweeps over 2 agents x 3 environments x 2 regimes: per hyper-parameter,
# some (agent, regime) pairs have runs, in some environments, with 0-3 seeds per
# value, so contexts without data, contexts of thin groups only and values
# rankable in some contexts but not all all occur. Scores and each
# environment's baselines are drawn.

SPARSE_AXES = {"agent": ("a1", "a2"), "environment": ("e1", "e2", "e3"), "data_regime": ("r1", "r2")}


@st.composite
def sparse_sweeps(draw) -> SweepDataset:
    hyperparameters = {hp: ("v1", "v2", "v3")[:draw(st.integers(2, 3))] for hp in ("h1", "h2")}
    records = []
    for hp, values in hyperparameters.items():
        for agent, regime in sorted(draw(st.sets(st.sampled_from(
                [(a, r) for a in SPARSE_AXES["agent"] for r in SPARSE_AXES["data_regime"]])))):
            for env in sorted(draw(st.sets(st.sampled_from(SPARSE_AXES["environment"]), min_size=1))):
                for value in values:
                    records += [RunRecord(agent, env, regime, hp, value, seed, draw(st.floats(-100, 100)))
                                for seed in range(draw(st.integers(0, 3)))]
    schema = SweepSchema(SPARSE_AXES["agent"], SPARSE_AXES["environment"], SPARSE_AXES["data_regime"],
                         hyperparameters)
    baselines = {}
    for env in schema.environments:
        random = draw(st.floats(-10, 10))
        baselines[env] = (random, random + draw(st.floats(0.5, 50)))
    return SweepDataset(records, BaselineTable(baselines), schema)



@st.composite
def setups_and_pins(draw) -> tuple[TransferSetup, dict[str, str | None]]:
    setup = draw(st.sampled_from(ALL_SETUPS))
    pins = {axis: draw(st.sampled_from([None, *labels]))
            for axis, labels in SPARSE_AXES.items() if axis != setup.axis.value}
    return setup, pins


def reference_plan(dataset: SweepDataset, setup: TransferSetup, pins: dict[str, str | None]):
    """The profiles' ``(hyperparameter, fixed, contexts, values)`` and the
    skips' ``(hyperparameter, fixed, reason)`` of one setup, read from
    ``dataset.records`` one run at a time."""
    varying = setup.axis.value
    seeds: defaultdict[tuple, int] = defaultdict(int)
    for r in dataset.records:
        seeds[r.hyperparameter, r.value, r.agent, r.environment, r.data_regime] += 1

    def rankable(hp: str, value: str, coords: dict[str, str]) -> bool:
        scope = [coords["environment"]] if "environment" in coords else SPARSE_AXES["environment"]
        return any(seeds[hp, value, coords["agent"], env, coords["data_regime"]] >= 2 for env in scope)

    profiles, skipped = [], []
    for hp, values in dataset.schema.hyperparameters.items():
        runs = [r for r in dataset.records if r.hyperparameter == hp]
        if not runs:
            continue
        free = [a for a in ("agent", "data_regime") if a != varying] + (["environment"] if pins["environment"] else [])
        choices = [[pins[a]] if pins[a] else [label for label in SPARSE_AXES[a]
                                              if any(getattr(r, a) == label for r in runs)] for a in free]
        for picks in itertools.product(*choices):
            combo = dict(zip(free, picks))
            contexts = []
            for label in SPARSE_AXES[varying]:
                coords = {**combo, varying: label}
                # Across environments the environment needs runs too; a pinned one need not.
                if any(r.agent == coords["agent"] and r.data_regime == coords["data_regime"]
                       and (varying != "environment" or r.environment == label) for r in runs):
                    contexts.append(coords)
            kept = [c for c in contexts if any(rankable(hp, v, c) for v in values)]
            common = tuple(v for v in values if all(rankable(hp, v, c) for c in kept))
            if len(contexts) < 2:
                skipped.append((hp, combo, f"only {len(contexts)} context(s) with data"))
            elif len(kept) < 2:
                skipped.append((hp, combo, f"only {len(kept)} context(s) with rankable values"))
            elif not common:
                skipped.append((hp, combo, "no value is rankable in every context"))
            else:
                profiles.append((hp, combo, tuple(c[varying] for c in kept), common))
    return profiles, skipped


class TestAssemblyReference:
    @given(sparse_sweeps(), setups_and_pins())
    @settings(deadline=None)
    def test_matches_brute_force_plan(self, dataset, setup_and_pins):
        setup, pins = setup_and_pins
        options = AssemblyOptions(interval_source=IntervalSource.MEAN_SD, **pins)
        assembled = assemble_profiles(dataset, setup, options)
        profiles, skipped = reference_plan(dataset, setup, {"environment": None, **pins})
        assert [(p.hyperparameter, dict(p.fixed), p.contexts, p.values) for p in assembled.profiles] == profiles
        assert [(s.hyperparameter, dict(s.fixed), s.reason) for s in assembled.skipped] == skipped


def walked_context(dataset: SweepDataset, options: AssemblyOptions, key: tuple,
                   warned: list[str]) -> np.ndarray:
    """One context's ``(3, m)`` arrays built cell by cell from
    ``dataset.records`` filtered and sorted by seed, each cell aggregated
    alone; appends the context's thin-group warnings to ``warned``."""
    hp, agent, regime, env = key
    node: dict[str, dict[str, list[float]]] = {}
    for rec in sorted(dataset.records, key=lambda rec: rec.seed):
        if (rec.hyperparameter, rec.agent, rec.data_regime) == (hp, agent, regime):
            node.setdefault(rec.environment, {}).setdefault(rec.value, []).append(rec.final_score)
    values = dataset.schema.hyperparameters[hp]
    out = np.full((3, len(values)), np.nan)
    for i, value in enumerate(values):
        found = [(e, node[e][value]) for e in (dataset.schema.environments if env is None else (env,))
                 if value in node.get(e, {})]
        thin = [e for e, scores in found if len(scores) < 2]
        if thin:
            warned.append(f"{hp}={value}, agent {agent}, regime {regime}: "
                          f"dropping groups with fewer than 2 seeds: {', '.join(thin)}")
        kept = [(e, scores) for e, scores in found if len(scores) >= 2]
        if not kept:
            continue
        normalised = np.concatenate([human_normalize(np.array(scores), *dataset.baselines.scores[e])
                                     for e, scores in kept])
        if options.interval_source is IntervalSource.MEAN_SD:
            out[:, i] = pooled_mean_and_spreads(normalised, np.array([len(normalised)]))[:, 0]
        else:
            seed = derive_seed(options.seed, hp, value, agent, regime, env or "*")
            out[:, i] = pooled_bootstrap_cis(normalised, [tuple(len(scores) for _, scores in kept)], [seed],
                                             options.resamples, options.confidence)[:, 0]
    return out


class WarningList(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


class TestCellGather:
    @given(sparse_sweeps(), st.data())
    @settings(deadline=None)
    def test_matches_a_cell_by_cell_walk_of_the_index(self, dataset, data):
        # Every context, pooled and pinned, listed in a drawn order and filled in drawn block sizes.
        keys = data.draw(st.permutations([(hp, agent, regime, env) for hp in dataset.schema.hyperparameters
                                          for agent in SPARSE_AXES["agent"]
                                          for regime in SPARSE_AXES["data_regime"]
                                          for env in (None, *SPARSE_AXES["environment"])]))
        block = data.draw(st.integers(1, 300))
        for source in IntervalSource:
            options = AssemblyOptions(interval_source=source, resamples=100, seed=7)
            warned: list[str] = []
            walked = [walked_context(dataset, options, key, warned) for key in keys]
            cells, handler = CellTable(dataset, options), WarningList()
            consistency.logger.addHandler(handler)
            try:
                with mock.patch.object(consistency, "_FILL_BLOCK", block):
                    cells.fill(keys)
            finally:
                consistency.logger.removeHandler(handler)
            assert handler.messages == warned
            for key, arrays in zip(keys, walked):
                assert ([list(map(float.hex, row)) for row in cells.context_arrays(*key).tolist()]
                        == [list(map(float.hex, row)) for row in arrays.tolist()]), key


# -- batched scoring ------------------------------------------------------------
# A batch of profiles of a few shapes, from 1 to 12 values and 2 to 12
# contexts. Each profile's ranks are a rank_intervals result over intervals on
# a small grid, so ties, fully tied contexts (undefined tau-b) and overlap-mode
# fractions all come up.

@st.composite
def rank_matrices(draw, shape: tuple[int, int]) -> np.ndarray:
    v, c = shape
    bounds = draw(arrays(np.int8, (2, v, c), elements=st.integers(0, 6), fill=st.nothing()))
    lower, upper = np.sort(bounds, axis=0).astype(float)
    return rank_intervals([f"v{i}" for i in range(v)], lower, upper, draw(st.sampled_from(list(RankingMode))))[1]


profile_batches = st.lists(st.tuples(st.integers(1, 12), st.integers(2, 12)), min_size=1, max_size=3).flatmap(
    lambda shapes: st.lists(st.sampled_from(shapes).flatmap(rank_matrices), min_size=1, max_size=8))


def reference_spreads(ranks: np.ndarray, mode: PtpNormalization) -> list[float]:
    """Normalized spreads written out one Python float at a time."""
    spreads, m = [float(row.max() - row.min()) for row in ranks], ranks.shape[0]
    divisor = (m - 1) if mode is PtpNormalization.MAX else sum(spreads)
    return [p / divisor if divisor else 0.0 for p in spreads]


def reference_mean_tau(p: RankProfile) -> float | None:
    """The defined off-diagonal entries of the profile's tau-b matrix, averaged."""
    matrix = kendall_tau_matrix(p)
    offdiag = matrix[np.triu_indices(matrix.shape[0], 1)]
    offdiag = offdiag[np.isfinite(offdiag)]
    return float(np.mean(offdiag)) if offdiag.size else None


def hexed(x: float | None) -> str | None:
    return None if x is None else x.hex()


def per_plan_assembly(dataset: SweepDataset, setup: TransferSetup, options: AssemblyOptions,
                  cells: CellTable) -> tuple[list[RankProfile], list]:
    """Profile assembly one plan at a time: each plan's contexts read,
    checked and ranked alone, and its lines logged in turn."""
    axis = setup.axis
    plans = [(hp, combo, [{**combo, axis.value: label} for label in dataset._labels_with_runs(hp, axis, combo)])
             for hp in dataset.schema.hyperparameters if dataset._labels_with_runs(hp, consistency.Axis.AGENT, {})
             for combo in consistency._combos(dataset, hp, setup, options)]
    cells.fill(consistency._context_key(hp, c) for hp, _, contexts in plans if len(contexts) >= 2
               for c in contexts)
    profiles, skipped = [], []
    for hp, combo, coords in plans:
        def skip(reason: str) -> None:
            consistency.logger.warning("skipping %s %s: %s", hp, dict(combo), reason)
            skipped.append((hp, dict(combo), reason))

        if len(coords) < 2:
            skip(f"only {len(coords)} context(s) with data")
            continue
        intervals = np.stack([cells.context_arrays(*consistency._context_key(hp, c)) for c in coords], axis=2)
        rankable = ~np.isnan(intervals[0])
        kept = rankable.any(axis=0)
        if kept.sum() < 2:
            skip(f"only {int(kept.sum())} context(s) with rankable values")
            continue
        common = rankable[:, kept].all(axis=1)
        declared = dataset.schema.hyperparameters[hp]
        partial = sorted(v for v, some, every in zip(declared, rankable[:, kept].any(axis=1), common)
                         if some and not every)
        if partial:
            consistency.logger.warning("%s %s: excluding values not rankable in every context: %s",
                                       hp, dict(combo), ", ".join(partial))
        if not common.any():
            skip("no value is rankable in every context")
            continue
        values = [v for v, every in zip(declared, common) if every]
        coords = [c for c, keep in zip(coords, kept) if keep]
        intervals = intervals[np.ix_(range(3), common, kept)]
        order, ranks = rank_intervals(values, intervals[0], intervals[1], options.ranking_mode)
        profiles.append(RankProfile(hp, tuple(values), tuple(c[axis.value] for c in coords), ranks, dict(combo),
                                    intervals, order))
    return profiles, skipped


@st.composite
def dense_sweeps(draw) -> SweepDataset:
    """Sweeps on SPARSE_AXES whose cells mostly have 2 or 3 seeds, scored on
    a coarse grid, so most plans of a hyper-parameter keep the same values,
    and narrow and wide intervals mix into non-contiguous overlap sets."""
    hyperparameters = {hp: tuple(f"v{i}" for i in range(draw(st.integers(2, 5)))) for hp in ("h1", "h2")}
    shape = tuple(map(len, SPARSE_AXES.values()))
    records = []
    for hp, values in hyperparameters.items():
        seeds = draw(arrays(np.int8, (*shape, len(values)), elements=st.sampled_from([0, 1, 2, 2, 3, 3]),
                              fill=st.nothing()))
        scores = draw(arrays(np.int8, (*seeds.shape, 3), elements=st.sampled_from([0, 1, 9, 10]),
                              fill=st.nothing()))
        for (a, e, r, v), n in np.ndenumerate(seeds):
            coords = [labels[i] for labels, i in zip(SPARSE_AXES.values(), (a, e, r))]
            records += [RunRecord(*coords, hp, values[v], seed, float(scores[a, e, r, v, seed]))
                        for seed in range(n)]
    schema = SweepSchema(*SPARSE_AXES.values(), hyperparameters)
    return SweepDataset(records, BaselineTable({env: (0.0, 1.0) for env in schema.environments}), schema)


def straddling_sweep() -> SweepDataset:
    """A sweep on SPARSE_AXES whose two plans of ``h1`` across agents keep
    different values. In regime r1, v4 has one seed under agent a2 and is
    excluded, and under agent a1 the wide v1 straddles the narrow v2, so
    v3's overlap set, positions 1 and 3, is non-contiguous. In regime r2
    every value is kept."""
    scores = {("a1", "r1"): [[0, 20], [15, 16], [5, 6], [1, 2]], ("a2", "r1"): [[1, 2], [3, 4], [5, 6], [7]]}
    records = [RunRecord(agent, "e1", regime, "h1", f"v{v + 1}", seed, float(score))
               for agent in SPARSE_AXES["agent"] for regime in SPARSE_AXES["data_regime"]
               for v, seeds in enumerate(scores.get((agent, regime), [[1, 2], [3, 4], [5, 6], [7, 8]]))
               for seed, score in enumerate(seeds)]
    schema = SweepSchema(*SPARSE_AXES.values(), {"h1": ("v1", "v2", "v3", "v4")})
    return SweepDataset(records, BaselineTable({env: (0.0, 1.0) for env in schema.environments}), schema)


def profile_record(p: RankProfile) -> tuple:
    return (p.hyperparameter, p.values, p.contexts, dict(p.fixed),
            [list(map(float.hex, row)) for row in p.ranks.tolist()], hexed_cells(p), p.order.tolist())


class TestBatchedScoring:
    @given(profile_batches, st.sampled_from(list(PtpNormalization)))
    @settings(deadline=None)
    def test_report_scores_equal_per_profile_calls(self, batch, normalization):
        profiles = tuple(profile(ranks, name=f"hp{k}") for k, ranks in enumerate(batch))
        assembled = consistency.AssembledProfiles(profiles, (), TransferSetup.ACROSS_AGENTS)
        with mock.patch.object(consistency, "assemble_profiles", return_value=assembled):
            report, _ = build_consistency_report(None, TransferSetup.ACROSS_AGENTS, AssemblyOptions(),
                                                 normalization, include_kendall=True)
        for entry, p in zip(report.entries, profiles, strict=True):
            spreads = reference_spreads(p.ranks, normalization)
            assert list(map(float.hex, entry.normalized_ptp.values())) == list(map(float.hex, spreads))
            assert entry.thc.hex() == thc(p, normalization).hex() == (sum(spreads) / len(spreads)).hex()
            if len(p.values) < 2:
                assert entry.kendall == consistency.KendallSummary(None, None)
                continue
            assert hexed(entry.kendall.w) == hexed(kendall_w(p)) == hexed(loop_kendall_w(p.ranks))
            assert hexed(entry.kendall.mean_tau) == hexed(mean_pairwise_tau(p)) == hexed(reference_mean_tau(p))

    def test_wide_profiles_equal_per_profile_calls(self):
        rng = np.random.default_rng(23)
        shapes = [(4, 26)] * 3 + [(15, 29)] * 2 + [(9, 9), (1, 12)]
        batch = list(tied_profiles(rng, shapes))
        assembled = consistency.AssembledProfiles(tuple(batch), (), TransferSetup.ACROSS_AGENTS)
        with mock.patch.object(consistency, "assemble_profiles", return_value=assembled):
            report, _ = build_consistency_report(None, TransferSetup.ACROSS_AGENTS, AssemblyOptions(),
                                                 include_kendall=True)
        for entry, p in zip(report.entries, batch, strict=True):
            assert entry.thc.hex() == thc(p).hex()
            if len(p.values) >= 2:
                assert hexed(entry.kendall.w) == hexed(loop_kendall_w(p.ranks))
                assert hexed(entry.kendall.mean_tau) == hexed(reference_mean_tau(p))

    @given(st.one_of(sparse_sweeps(), dense_sweeps()), setups_and_pins(), st.sampled_from(list(RankingMode)))
    @example(straddling_sweep(), (TransferSetup.ACROSS_AGENTS, {"environment": None, "data_regime": None}),
             RankingMode.OVERLAP)
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_assembly_equals_the_per_plan_reference(self, caplog, dataset, setup_and_pins, mode):
        setup, pins = setup_and_pins
        options = AssemblyOptions(interval_source=IntervalSource.MEAN_SD, ranking_mode=mode, **pins)
        cells = CellTable(dataset, options)
        cells.fill(key for hp in dataset.schema.hyperparameters for key in itertools.product(
            [hp], SPARSE_AXES["agent"], SPARSE_AXES["data_regime"], (None, *SPARSE_AXES["environment"])))

        def records() -> list[tuple]:
            logged = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
            caplog.clear()
            return logged

        with caplog.at_level(logging.INFO, logger="thckit"):
            caplog.clear()
            with mock.patch.object(consistency, "rank_intervals", wraps=consistency.rank_intervals) as ranked:
                assembled = assemble_profiles(dataset, setup, options, cells=cells)
            batched_log = records()
            profiles, skipped = per_plan_assembly(dataset, setup, options, cells)
            assert batched_log == records()
        assert list(map(profile_record, assembled.profiles)) == list(map(profile_record, profiles))
        assert [(s.hyperparameter, dict(s.fixed), s.reason) for s in assembled.skipped] == skipped
        assert ranked.call_count == len(assembled.profiles)
