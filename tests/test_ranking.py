"""Interval ranking tests: worked oracles, tie handling, and properties."""

from __future__ import annotations

import contextlib
import logging
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rankable_cells, reference_rankings
from thckit import CellTable, TransferSetup, assemble_profiles, load_dataset
from thckit.consistency import AssemblyOptions, IntervalSource
from thckit.ranking import (
    RankedSetting,
    RankingMode,
    RankingTable,
    compute_rankings,
    rank_intervals,
)
from thckit.stats import Interval


def ranks(settings_list, **kwargs):
    return compute_rankings(settings_list, **kwargs).final_ranks()


FIVE_SETTINGS = [
    ("1e-2", Interval(200, 300)),
    ("1e-1", Interval(250, 350)),
    ("1", Interval(400, 600)),
    ("1e1", Interval(110, 220)),
    ("1e2", Interval(30, 70)),
]


class TestWorkedOracles:
    def test_five_interval_case(self):
        assert ranks(FIVE_SETTINGS) == {
            "1": 1.0, "1e-1": 2.5, "1e-2": 3.0, "1e1": 3.5, "1e2": 5.0,
        }

    def test_five_interval_initial_positions(self):
        table = compute_rankings(FIVE_SETTINGS)
        assert {e.label: e.initial_rank for e in table} == {
            "1": 1, "1e-1": 2, "1e-2": 3, "1e1": 4, "1e2": 5,
        }

    def test_full_overlap_shares_mean_rank(self):
        settings_list = [
            ("A", Interval(200, 300)),
            ("B", Interval(250, 350)),
            ("C", Interval(180, 260)),
        ]
        assert ranks(settings_list) == {"A": 2.0, "B": 2.0, "C": 2.0}


class TestEdgeCases:
    def test_single_setting(self):
        assert ranks([("only", Interval(1, 2))]) == {"only": 1.0}

    def test_two_disjoint(self):
        assert ranks([("lo", Interval(0, 1)), ("hi", Interval(5, 6))]) == {"hi": 1.0, "lo": 2.0}

    def test_identical_intervals_all_tied(self):
        settings_list = [(label, Interval(10, 20)) for label in "zxy"]
        assert ranks(settings_list) == {"x": 2.0, "y": 2.0, "z": 2.0}

    def test_identical_intervals_initial_order_lexicographic(self):
        table = compute_rankings([(label, Interval(10, 20)) for label in "zxy"])
        assert [e.label for e in table] == ["x", "y", "z"]

    def test_touching_endpoints_overlap(self):
        # closed intervals sharing an endpoint cannot be separated
        result = ranks([("a", Interval(0, 5)), ("b", Interval(5, 10))])
        assert result == {"a": 1.5, "b": 1.5}

    def test_upper_tie_broken_by_lower(self):
        table = compute_rankings([("narrow", Interval(8, 10)), ("wide", Interval(0, 10))])
        assert [e.label for e in table] == ["narrow", "wide"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_rankings([])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            compute_rankings([("a", Interval(0, 1)), ("a", Interval(2, 3))])

    def test_entries_carry_metadata(self):
        table = compute_rankings(FIVE_SETTINGS, hyperparameter="lr",
                                 context={"agent": "x"})
        assert table.hyperparameter == "lr"
        assert table.context == {"agent": "x"}

    def test_ranked_setting_validation(self):
        with pytest.raises(ValueError):
            RankedSetting("a", Interval(0, 1), 0, 1.0)
        with pytest.raises(ValueError):
            RankedSetting("a", Interval(0, 1), 1, 0.5)

    def test_table_rejects_duplicate_labels(self):
        entry = RankedSetting("a", Interval(0, 1), 1, 1.0)
        with pytest.raises(ValueError):
            RankingTable((entry, entry))


class TestOverlapMode:
    def test_agrees_on_contiguous_overlaps(self):
        for settings_list in (FIVE_SETTINGS,
                              [("A", Interval(200, 300)), ("B", Interval(250, 350)),
                               ("C", Interval(180, 260))]):
            assert ranks(settings_list, mode=RankingMode.OVERLAP) == ranks(settings_list)

    def test_diverges_when_overlap_set_not_contiguous(self, caplog):
        # "wide" straddles "mid-hi" without touching it, so its overlap set
        # {positions 1, 3, 4} skips position 2 and the two rules disagree.
        settings_list = [
            ("wide", Interval(0, 100)),
            ("mid-hi", Interval(80, 90)),
            ("low-a", Interval(40, 50)),
            ("low-b", Interval(35, 45)),
        ]
        span = ranks(settings_list, mode=RankingMode.SPAN)
        with caplog.at_level(logging.INFO, logger="thckit.ranking"):
            overlap = ranks(settings_list, mode=RankingMode.OVERLAP)
        assert span == {"wide": 2.5, "mid-hi": 1.5, "low-a": 2.5, "low-b": 2.5}
        assert overlap["low-a"] == pytest.approx(8 / 3)
        assert overlap["low-b"] == pytest.approx(8 / 3)
        assert overlap["mid-hi"] == 1.5
        assert any("non-contiguous" in record.message for record in caplog.records)


# Integer-valued bounds keep translation/scaling float-exact: a sub-ulp gap
# between two bounds would otherwise collapse under a shift and genuinely
# change which intervals overlap.
intervals_st = st.builds(
    lambda a, b: Interval(float(min(a, b)), float(max(a, b))),
    st.integers(min_value=-100_000, max_value=100_000),
    st.integers(min_value=-100_000, max_value=100_000),
)
settings_st = st.integers(min_value=1, max_value=8).flatmap(
    lambda m: st.tuples(*(intervals_st for _ in range(m))).map(
        lambda ivs: [(f"v{i}", iv) for i, iv in enumerate(ivs)]
    )
)


class TestProperties:
    @given(settings_st, st.randoms())
    def test_input_order_is_irrelevant(self, settings_list, rnd):
        shuffled = list(settings_list)
        rnd.shuffle(shuffled)
        assert ranks(shuffled) == ranks(settings_list)

    @given(settings_st, st.integers(min_value=-10_000, max_value=10_000).map(float))
    def test_translation_invariant(self, settings_list, shift):
        moved = [(label, Interval(iv.lower + shift, iv.upper + shift))
                 for label, iv in settings_list]
        assert ranks(moved) == ranks(settings_list)

    @given(settings_st, st.floats(min_value=0.01, max_value=100))
    def test_positive_scaling_invariant(self, settings_list, factor):
        scaled = [(label, Interval(iv.lower * factor, iv.upper * factor))
                  for label, iv in settings_list]
        assert ranks(scaled) == ranks(settings_list)

    @given(settings_st)
    def test_rank_bounds_and_half_integers(self, settings_list):
        m = len(settings_list)
        table = compute_rankings(settings_list)
        assert sorted(e.initial_rank for e in table) == list(range(1, m + 1))
        for entry in table:
            assert 1.0 <= entry.final_rank <= m
            assert (2 * entry.final_rank) == int(2 * entry.final_rank)

    @given(st.integers(min_value=1, max_value=8), st.randoms())
    def test_disjoint_intervals_rank_strictly(self, m, rnd):
        settings_list = []
        for i in range(m):
            base = 100.0 * (m - i)
            settings_list.append((f"v{i}", Interval(base, base + 50.0)))
        rnd.shuffle(settings_list)
        result = ranks(settings_list)
        assert result == {f"v{i}": float(i + 1) for i in range(m)}

    @given(settings_st)
    def test_overlap_mode_respects_bounds_too(self, settings_list):
        table = compute_rankings(settings_list, mode=RankingMode.OVERLAP)
        for entry in table:
            assert 1.0 <= entry.final_rank <= len(settings_list)


class _Messages(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


@contextlib.contextmanager
def ranking_messages():
    """INFO messages of ``thckit.ranking`` logged inside the block."""
    logger = logging.getLogger("thckit.ranking")
    handler, level = _Messages(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield handler.messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


# Bounds from a small grid, so ties, touching endpoints, nested intervals and
# a -0.0 lower bound against a 0.0 upper bound all come up often.
grid_intervals_st = st.lists(st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]),
                             min_size=2, max_size=2).map(lambda b: Interval(min(b), max(b)))
profiles_st = st.tuples(st.integers(1, 8), st.integers(1, 6)).flatmap(
    lambda shape: st.tuples(
        st.permutations([f"v{i}" for i in range(shape[0])]),
        st.lists(st.lists(grid_intervals_st, min_size=shape[0], max_size=shape[0]),
                 min_size=shape[1], max_size=shape[1])))


class TestReferenceEquivalence:
    """The array rank pass against the per-context reference oracle."""

    @given(profiles_st, st.sampled_from(list(RankingMode)))
    def test_rank_intervals_matches_reference(self, profile, mode):
        labels, contexts = profile
        lower = np.array([[iv.lower for iv in column] for column in contexts]).T
        upper = np.array([[iv.upper for iv in column] for column in contexts]).T
        with ranking_messages() as messages:
            order, final = rank_intervals(labels, lower, upper, mode)
        expected, expected_messages = reference_rankings(
            [list(zip(labels, column)) for column in contexts], mode)
        got = [[(labels[i], p + 1, final[i, j].item()) for p, i in enumerate(order[:, j].tolist())]
               for j in range(len(contexts))]
        assert got == expected
        assert messages == expected_messages
        for column, table in zip(contexts, expected):
            ranked = compute_rankings(list(zip(labels, column)), mode=mode)
            assert [(e.label, e.initial_rank, e.final_rank) for e in ranked] == table

    @pytest.mark.parametrize("source", list(IntervalSource))
    @pytest.mark.parametrize("setup", list(TransferSetup))
    def test_overlap_mode_profiles_match_reference(self, source, setup):
        data = Path(__file__).parent / "data"
        dataset = load_dataset(data / "runs.csv", data / "baselines.csv", data / "schema.yaml")
        options = AssemblyOptions(interval_source=source, ranking_mode=RankingMode.OVERLAP,
                                  resamples=200)
        cells = CellTable(dataset, options)
        with ranking_messages() as messages:
            profiles = assemble_profiles(dataset, setup, options, cells=cells).profiles
        assert profiles
        expected_messages = []
        for profile in profiles:
            contexts = [[(value, rankable_cells(cells, profile.hyperparameter, **table.context)[value][0])
                         for value in profile.values] for table in profile.tables]
            expected, logged = reference_rankings(contexts, RankingMode.OVERLAP)
            expected_messages += logged
            assert [[(e.label, e.initial_rank, e.final_rank) for e in t]
                    for t in profile.tables] == expected
            ranks = {(label, j): rank for j, table in enumerate(expected) for label, _, rank in table}
            assert profile.ranks.tolist() == [[ranks[value, j] for j in range(len(expected))]
                                              for value in profile.values]
        assert messages == expected_messages
