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
from thckit.ranking import RankingMode, rank_intervals


def rank_one(settings_list, mode=RankingMode.SPAN):
    """One context's ``(label, (lower, upper))`` settings ranked by
    ``rank_intervals``, as ``(label, initial_rank, final_rank)`` triples in
    rank order."""
    labels = [label for label, _ in settings_list]
    lower, upper = np.array([bounds for _, bounds in settings_list], dtype=float).T[:, :, np.newaxis]
    order, final = rank_intervals(labels, lower, upper, mode)
    return [(labels[i], p + 1, final[i, 0].item()) for p, i in enumerate(order[:, 0].tolist())]


def ranks(settings_list, mode=RankingMode.SPAN):
    return {label: final for label, _, final in rank_one(settings_list, mode)}


FIVE_SETTINGS = [
    ("1e-2", (200, 300)),
    ("1e-1", (250, 350)),
    ("1", (400, 600)),
    ("1e1", (110, 220)),
    ("1e2", (30, 70)),
]


class TestWorkedOracles:
    def test_five_interval_case(self):
        assert ranks(FIVE_SETTINGS) == {
            "1": 1.0, "1e-1": 2.5, "1e-2": 3.0, "1e1": 3.5, "1e2": 5.0,
        }

    def test_five_interval_initial_positions(self):
        assert {label: initial for label, initial, _ in rank_one(FIVE_SETTINGS)} == {
            "1": 1, "1e-1": 2, "1e-2": 3, "1e1": 4, "1e2": 5,
        }

    def test_full_overlap_shares_mean_rank(self):
        settings_list = [
            ("A", (200, 300)),
            ("B", (250, 350)),
            ("C", (180, 260)),
        ]
        assert ranks(settings_list) == {"A": 2.0, "B": 2.0, "C": 2.0}


class TestEdgeCases:
    def test_single_setting(self):
        assert ranks([("only", (1, 2))]) == {"only": 1.0}

    def test_two_disjoint(self):
        assert ranks([("lo", (0, 1)), ("hi", (5, 6))]) == {"hi": 1.0, "lo": 2.0}

    def test_identical_intervals_all_tied(self):
        settings_list = [(label, (10, 20)) for label in "zxy"]
        assert ranks(settings_list) == {"x": 2.0, "y": 2.0, "z": 2.0}

    def test_identical_intervals_initial_order_lexicographic(self):
        ranked = rank_one([(label, (10, 20)) for label in "zxy"])
        assert [label for label, _, _ in ranked] == ["x", "y", "z"]

    def test_touching_endpoints_overlap(self):
        # closed intervals sharing an endpoint cannot be separated
        result = ranks([("a", (0, 5)), ("b", (5, 10))])
        assert result == {"a": 1.5, "b": 1.5}

    def test_a_gap_separates_and_nesting_overlaps(self):
        assert ranks([("a", (0, 1)), ("b", (1.0000001, 2))]) == {"b": 1.0, "a": 2.0}
        assert ranks([("outer", (0, 10)), ("inner", (4, 5))]) == {"outer": 1.5, "inner": 1.5}

    def test_zero_width_intervals(self):
        assert ranks([("point", (2, 2)), ("span", (1, 3))]) == {"point": 1.5, "span": 1.5}
        assert ranks([("lo", (1, 1)), ("hi", (2, 2))]) == {"hi": 1.0, "lo": 2.0}

    def test_upper_tie_broken_by_lower(self):
        ranked = rank_one([("narrow", (8, 10)), ("wide", (0, 10))])
        assert [label for label, _, _ in ranked] == ["narrow", "wide"]

    def test_signed_zero_endpoints_touch(self):
        assert ranks([("neg", (-1.0, -0.0)), ("pos", (0.0, 1.0))]) == {"neg": 1.5, "pos": 1.5}

    def test_mode_given_by_value(self):
        for mode in RankingMode:
            assert ranks(FIVE_SETTINGS, mode.value) == ranks(FIVE_SETTINGS, mode)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="'median' is not a valid RankingMode"):
            ranks(FIVE_SETTINGS, "median")

    def test_each_context_ranks_from_its_own_column(self):
        labels = ["a", "b", "c"]
        lower = np.array([[0.0, 5.0], [2.0, 0.0], [4.0, 9.0]])
        upper = lower + 1.0
        order, final = rank_intervals(labels, lower, upper)
        assert order.T.tolist() == [[2, 1, 0], [2, 0, 1]]
        assert final.T.tolist() == [[3.0, 2.0, 1.0], [2.0, 3.0, 1.0]]
        lower[:, 1], upper[:, 1] = 0.0, 10.0
        moved_order, moved_final = rank_intervals(labels, lower, upper)
        assert moved_order[:, 0].tolist() == order[:, 0].tolist()
        assert moved_final[:, 0].tolist() == final[:, 0].tolist()
        assert moved_final[:, 1].tolist() == [2.0, 2.0, 2.0]


class TestOverlapMode:
    def test_agrees_on_contiguous_overlaps(self):
        for settings_list in (FIVE_SETTINGS,
                              [("A", (200, 300)), ("B", (250, 350)), ("C", (180, 260))]):
            assert ranks(settings_list, mode=RankingMode.OVERLAP) == ranks(settings_list)

    def test_contiguous_overlaps_log_nothing(self, caplog):
        with caplog.at_level(logging.INFO, logger="thckit.ranking"):
            ranks(FIVE_SETTINGS, mode=RankingMode.OVERLAP)
        assert caplog.records == []

    def test_diverges_when_overlap_set_not_contiguous(self, caplog):
        # "wide" straddles "mid-hi" without touching it, so its overlap set
        # {positions 1, 3, 4} skips position 2 and the two rules disagree.
        settings_list = [
            ("wide", (0, 100)),
            ("mid-hi", (80, 90)),
            ("low-a", (40, 50)),
            ("low-b", (35, 45)),
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
    lambda a, b: (float(min(a, b)), float(max(a, b))),
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
        moved = [(label, (lower + shift, upper + shift)) for label, (lower, upper) in settings_list]
        assert ranks(moved) == ranks(settings_list)

    @given(settings_st, st.floats(min_value=0.01, max_value=100))
    def test_positive_scaling_invariant(self, settings_list, factor):
        scaled = [(label, (lower * factor, upper * factor)) for label, (lower, upper) in settings_list]
        assert ranks(scaled) == ranks(settings_list)

    @given(settings_st)
    def test_rank_bounds_and_half_integers(self, settings_list):
        m = len(settings_list)
        ranked = rank_one(settings_list)
        assert sorted(initial for _, initial, _ in ranked) == list(range(1, m + 1))
        for _, _, final in ranked:
            assert 1.0 <= final <= m
            assert (2 * final) == int(2 * final)

    @given(st.integers(min_value=1, max_value=8), st.randoms())
    def test_disjoint_intervals_rank_strictly(self, m, rnd):
        settings_list = []
        for i in range(m):
            base = 100.0 * (m - i)
            settings_list.append((f"v{i}", (base, base + 50.0)))
        rnd.shuffle(settings_list)
        result = ranks(settings_list)
        assert result == {f"v{i}": float(i + 1) for i in range(m)}

    @given(settings_st)
    def test_overlap_mode_respects_bounds_too(self, settings_list):
        for _, _, final in rank_one(settings_list, mode=RankingMode.OVERLAP):
            assert 1.0 <= final <= len(settings_list)

    @given(settings_st, st.randoms())
    def test_overlap_mode_input_order_is_irrelevant(self, settings_list, rnd):
        shuffled = list(settings_list)
        rnd.shuffle(shuffled)
        assert ranks(shuffled, RankingMode.OVERLAP) == ranks(settings_list, RankingMode.OVERLAP)

    @given(settings_st)
    def test_a_separated_interval_ranks_better(self, settings_list):
        result = ranks(settings_list)
        for a, (a_lower, _) in settings_list:
            for b, (_, b_upper) in settings_list:
                if a_lower > b_upper:
                    assert result[a] < result[b]

    @pytest.mark.parametrize("mode", list(RankingMode))
    @given(settings_st, st.integers(min_value=-100_000, max_value=100_000).map(float))
    def test_intervals_sharing_a_point_share_the_mean_rank(self, mode, settings_list, point):
        # Stretch every interval to cover the point, so that all overlap.
        covering = [(label, (min(lower, point), max(upper, point))) for label, (lower, upper) in settings_list]
        m = len(covering)
        assert ranks(covering, mode) == {label: (1 + m) / 2 for label, _ in covering}


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
                             min_size=2, max_size=2).map(lambda b: (min(b), max(b)))
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
        lower = np.array([[lo for lo, _ in column] for column in contexts]).T
        upper = np.array([[up for _, up in column] for column in contexts]).T
        with ranking_messages() as messages:
            order, final = rank_intervals(labels, lower, upper, mode)
        expected, expected_messages = reference_rankings(
            [list(zip(labels, column)) for column in contexts], mode)
        got = [[(labels[i], p + 1, final[i, j].item()) for p, i in enumerate(order[:, j].tolist())]
               for j in range(len(contexts))]
        assert got == expected
        assert messages == expected_messages
        for column, table in zip(contexts, expected):
            assert rank_one(list(zip(labels, column)), mode) == table

    @pytest.mark.parametrize("source", list(IntervalSource))
    @pytest.mark.parametrize("setup", list(TransferSetup))
    def test_overlap_mode_profiles_match_reference(self, source, setup):
        data = Path(__file__).parent / "data"
        dataset = load_dataset(data / "runs.csv", data / "baselines.csv", data / "schema.yaml")
        options = AssemblyOptions(interval_source=source, ranking_mode=RankingMode.OVERLAP,
                                  resamples=200)
        cells = CellTable(dataset, options)
        with ranking_messages() as messages:
            profiles, _ = assemble_profiles(dataset, setup, options, cells=cells)
        assert profiles
        expected_messages = []
        for profile in profiles:
            held = [rankable_cells(cells, profile.hyperparameter, **profile.fixed, **{setup.axis.value: context})
                    for context in profile.contexts]
            expected, logged = reference_rankings([[(value, context[value][0]) for value in profile.values]
                                                   for context in held], RankingMode.OVERLAP)
            expected_messages += logged
            assert [[(profile.values[i], position, profile.ranks[i, j].item())
                     for position, i in enumerate(profile.order[:, j].tolist(), 1)]
                    for j in range(len(profile.contexts))] == expected
            ranks = {(label, j): rank for j, table in enumerate(expected) for label, _, rank in table}
            assert profile.ranks.tolist() == [[ranks[value, j] for j in range(len(expected))]
                                              for value in profile.values]
        assert messages == expected_messages
