"""Data model tests: parsing, validation diagnostics, slicing, round trips."""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import math
import random
import re
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import thckit.dataset
from thckit.consistency import rank_context
from thckit.dataset import (
    BLOCK_LINES,
    MAX_DIAGNOSTICS,
    RUN_LOG_HEADER,
    Axis,
    BaselineTable,
    DatasetError,
    EmptySliceError,
    RunRecord,
    SweepDataset,
    SweepSchema,
    bundled_schema,
    dump_schema,
    load_dataset,
    load_schema,
    parse_dataset,
    write_baselines,
    write_run_log,
)
from thckit.dataset import _rows, _run_log_blocks
from thckit.stats import human_normalize
from thckit.synth import PlantedDesign, PlantedHyperparameter, generate

from conftest import reference_parse, write_dataset_files


def small_schema() -> SweepSchema:
    return SweepSchema(
        agents=("a1", "a2"),
        environments=("e1", "e2"),
        data_regimes=("r1", "r2"),
        hyperparameters={"lr": ("0.1", "0.01"), "bs": ("32",)},
    )


def small_baselines() -> BaselineTable:
    return BaselineTable({"e1": (0.0, 1.0), "e2": (100.0, 1100.0)})


def make_records(seeds=5):
    records = []
    for value in ("0.1", "0.01"):
        for env in ("e1", "e2"):
            for seed in range(seeds):
                records.append(RunRecord("a1", env, "r1", "lr", value, seed, float(seed)))
    return records


RUNS_CSV = """\
agent,environment,data_regime,hyperparameter,value,seed,final_score
# comment lines and blanks are ignored
a1,e1,r1,lr,0.1,0,1.5
a1,e1,r1,lr,0.1,1,2.5

a1,e2,r1,lr,0.01,0,300
a1,e2,r1,lr,0.01,1,500
"""

BASELINES_CSV = """\
environment,random_score,human_score
e1,0,1
e2,100,1100
"""


class TestRunRecord:
    def test_key_roundtrip(self):
        rec = RunRecord("a1", "e1", "r1", "lr", "0.1", 3, 1.25)
        assert rec.key == ("a1", "e1", "r1", "lr", "0.1", 3)


class TestBaselineTable:
    def test_lookup(self):
        table = small_baselines()
        assert table.scores == {"e1": (0.0, 1.0), "e2": (100.0, 1100.0)}
        assert all(type(pair) is tuple for pair in table.scores.values())

    def test_equal_scores_rejected(self):
        with pytest.raises(ValueError):
            BaselineTable({"e1": (5.0, 5.0)})


# The records RUNS_CSV holds, for building the same input directly.
RUNS_RECORDS = [
    RunRecord("a1", "e1", "r1", "lr", "0.1", 0, 1.5),
    RunRecord("a1", "e1", "r1", "lr", "0.1", 1, 2.5),
    RunRecord("a1", "e2", "r1", "lr", "0.01", 0, 300.0),
    RunRecord("a1", "e2", "r1", "lr", "0.01", 1, 500.0),
]


def with_record(*fields):
    return lambda: SweepDataset(RUNS_RECORDS + [RunRecord(*fields)], small_baselines(), small_schema())


def with_baseline(env, rnd, hum):
    return lambda: BaselineTable({**small_baselines().scores, env: (rnd, hum)})


# One single-fault kind per row: the run log and baseline table to parse,
# the exact diagnostics parse_dataset gives, and a direct construction of the
# same input (None where only text can hold the fault) that must give the
# same diagnostics without their "source:lineno: " prefix. Faulty seeds use
# agent a2 so that no earlier row shares the rest of their key.
FAULTS = [
    pytest.param(RUNS_CSV + "a1,e1,r1,lr,0.1,7\n", BASELINES_CSV,
                 ["<run log>:8: expected 7 columns, got 6"], None, id="column-count"),
    pytest.param(RUNS_CSV + ",e1,r1,lr,0.1,7,1.0\n", BASELINES_CSV,
                 ["<run log>:8: unknown agent ''"],
                 with_record("", "e1", "r1", "lr", "0.1", 7, 1.0), id="empty-identifier"),
    pytest.param(RUNS_CSV + "a2,e1,r1,lr,0.1,x,1.0\n", BASELINES_CSV,
                 ["<run log>:8: column 'seed' must be a non-negative integer, got 'x'"],
                 with_record("a2", "e1", "r1", "lr", "0.1", "x", 1.0), id="bad-seed"),
    pytest.param(RUNS_CSV + "a2,e1,r1,lr,0.1,-3,1.0\n", BASELINES_CSV,
                 ["<run log>:8: column 'seed' must be a non-negative integer, got '-3'"],
                 with_record("a2", "e1", "r1", "lr", "0.1", -3, 1.0), id="negative-seed"),
    pytest.param(RUNS_CSV + "a1,e1,r1,lr,0.1,7,nope\n", BASELINES_CSV,
                 ["<run log>:8: column 'final_score' is not a number: 'nope'"],
                 with_record("a1", "e1", "r1", "lr", "0.1", 7, "nope"), id="non-numeric-score"),
    pytest.param(RUNS_CSV + "a1,e1,r1,lr,0.1,7,1_5.0\n", BASELINES_CSV,
                 ["<run log>:8: column 'final_score' is not a number: '1_5.0'"], None,
                 id="digit-separator-score"),
    pytest.param(RUNS_CSV + "a1,e1,r1,lr,0.1,7,\u0661\u0665\n", BASELINES_CSV,
                 ["<run log>:8: column 'final_score' is not a number: '\u0661\u0665'"], None,
                 id="arabic-indic-score"),
    pytest.param(RUNS_CSV + "a2,e1,r1,lr,0.1,\uff11,1.0\n", BASELINES_CSV,
                 ["<run log>:8: column 'seed' must be a non-negative integer, got '\uff11'"], None,
                 id="fullwidth-seed"),
    pytest.param(RUNS_CSV + "a2,e1,r1,lr,0.1,1_0,1.0\n", BASELINES_CSV,
                 ["<run log>:8: column 'seed' must be a non-negative integer, got '1_0'"], None,
                 id="digit-separator-seed"),
    pytest.param(RUNS_CSV + "a1,e1,r1,lr,0.1,7,inf\n", BASELINES_CSV,
                 ["<run log>:8: column 'final_score' must be finite, got 'inf'"],
                 with_record("a1", "e1", "r1", "lr", "0.1", 7, math.inf), id="infinite-score"),
    pytest.param(RUNS_CSV + "zz,e1,r1,lr,0.1,7,1.0\n", BASELINES_CSV,
                 ["<run log>:8: unknown agent 'zz'"],
                 with_record("zz", "e1", "r1", "lr", "0.1", 7, 1.0), id="unknown-agent"),
    pytest.param(RUNS_CSV + "a1,zz,r1,lr,0.1,7,1.0\n", BASELINES_CSV,
                 ["<run log>:8: unknown environment 'zz'"],
                 with_record("a1", "zz", "r1", "lr", "0.1", 7, 1.0), id="unknown-environment"),
    pytest.param(RUNS_CSV + "a1,e1,zz,lr,0.1,7,1.0\n", BASELINES_CSV,
                 ["<run log>:8: unknown data_regime 'zz'"],
                 with_record("a1", "e1", "zz", "lr", "0.1", 7, 1.0), id="unknown-regime"),
    pytest.param(RUNS_CSV + "a1,e1,r1,zz,0.1,7,1.0\n", BASELINES_CSV,
                 ["<run log>:8: unknown hyperparameter 'zz'"],
                 with_record("a1", "e1", "r1", "zz", "0.1", 7, 1.0), id="unknown-hyperparameter"),
    pytest.param(RUNS_CSV + "a1,e1,r1,lr,0.7,7,1.0\n", BASELINES_CSV,
                 ["<run log>:8: value '0.7' not declared for hyperparameter 'lr'"],
                 with_record("a1", "e1", "r1", "lr", "0.7", 7, 1.0), id="undeclared-value"),
    pytest.param(RUNS_CSV, "environment,random_score,human_score\ne1,0,1\n",
                 ["<run log>:6: no baseline scores for environment 'e2'",
                  "<run log>:7: no baseline scores for environment 'e2'"],
                 lambda: SweepDataset(RUNS_RECORDS, BaselineTable({"e1": (0.0, 1.0)}), small_schema()),
                 id="missing-baseline"),
    pytest.param(RUNS_CSV + "a1,e1,r1,lr,0.1,0,9.9\n", BASELINES_CSV,
                 ["<run log>:8: duplicate record key ('a1', 'e1', 'r1', 'lr', '0.1', 0)"],
                 with_record("a1", "e1", "r1", "lr", "0.1", 0, 9.9), id="duplicate-key"),
    pytest.param(RUNS_CSV, BASELINES_CSV + "e3,nan,1\n",
                 ["<baselines>:4: non-finite baseline score for environment 'e3'"],
                 with_baseline("e3", math.nan, 1.0), id="non-finite-baseline"),
    pytest.param(RUNS_CSV, BASELINES_CSV + "e3,7,7\n",
                 ["<baselines>:4: human_score equals random_score for environment 'e3'"],
                 with_baseline("e3", 7.0, 7.0), id="equal-baseline"),
    pytest.param(RUNS_CSV, BASELINES_CSV + "e1,0,1\n",
                 ["<baselines>:4: duplicate baseline row for environment 'e1'"], None,
                 id="duplicate-baseline"),
    pytest.param(RUNS_CSV, BASELINES_CSV + "e3,x,1\n",
                 ["<baselines>:4: non-numeric score for environment 'e3'"],
                 with_baseline("e3", "x", 1.0), id="non-numeric-baseline"),
    pytest.param(RUNS_CSV, BASELINES_CSV + "e3,0_0.0,1\n",
                 ["<baselines>:4: non-numeric score for environment 'e3'"], None,
                 id="digit-separator-baseline"),
    pytest.param(RUNS_CSV, BASELINES_CSV + "e3,0,\u0661\n",
                 ["<baselines>:4: non-numeric score for environment 'e3'"], None,
                 id="arabic-indic-baseline"),
    pytest.param(RUNS_CSV, BASELINES_CSV + "e3,False,True\n",
                 ["<baselines>:4: non-numeric score for environment 'e3'"],
                 with_baseline("e3", False, True), id="bool-baseline"),
]


class TestFaultTable:
    @pytest.mark.parametrize("runs, baselines, diagnostics, direct", FAULTS)
    def test_single_fault(self, runs, baselines, diagnostics, direct):
        with pytest.raises(DatasetError) as excinfo:
            parse_dataset(io.StringIO(runs), io.StringIO(baselines), small_schema())
        assert excinfo.value.diagnostics == diagnostics
        if direct is not None:
            with pytest.raises(DatasetError) as excinfo:
                direct()
            assert excinfo.value.diagnostics == [re.sub(r"^<[a-z ]+>:\d+: ", "", d) for d in diagnostics]

    @pytest.mark.parametrize("seed, score, diagnostic", [
        pytest.param(2.5, 1.0, "column 'seed' must be a non-negative integer, got '2.5'", id="float-seed"),
        pytest.param("3", 1.0, "column 'seed' must be a non-negative integer, got '3'", id="text-seed"),
        pytest.param(7, "1.5", "column 'final_score' is not a number: '1.5'", id="text-score"),
        pytest.param(True, 1.0, "column 'seed' must be a non-negative integer, got 'True'", id="bool-seed"),
    ])
    def test_direct_record_of_another_type_rejected(self, seed, score, diagnostic):
        # A record given directly is checked as a text cell that did not convert.
        with pytest.raises(DatasetError) as excinfo:
            with_record("a2", "e1", "r1", "lr", "0.1", seed, score)()
        assert excinfo.value.diagnostics == [diagnostic]

    @pytest.mark.parametrize("scores", [(0.0,), (0.0, 1.0, 2.0), 5.0], ids=["one", "three", "not-a-sequence"])
    def test_direct_baseline_that_is_not_a_pair_rejected(self, scores):
        with pytest.raises(DatasetError) as excinfo:
            BaselineTable({**small_baselines().scores, "e3": scores})
        assert excinfo.value.diagnostics == [
            f"baseline scores for environment 'e3' must be a (random, human) pair, got {scores!r}"]

    def test_direct_numpy_seeds_and_scores_accepted(self):
        records = [dataclasses.replace(r, seed=np.int64(r.seed), final_score=np.float64(r.final_score))
                   for r in RUNS_RECORDS]
        dataset = SweepDataset(records, small_baselines(), small_schema())
        plain = SweepDataset(RUNS_RECORDS, small_baselines(), small_schema())
        assert dataset == plain
        for hp, agent, regime in {(r.hyperparameter, r.agent, r.data_regime) for r in RUNS_RECORDS}:
            assert sorted_groups(dataset, hp, agent, regime) == sorted_groups(plain, hp, agent, regime)

    def test_diagnostics_quote_cells_as_written(self):
        runs = RUNS_CSV + "a2,e1,r1,lr,0.1,-03,NaN\n"
        with pytest.raises(DatasetError) as excinfo:
            parse_dataset(io.StringIO(runs), io.StringIO(BASELINES_CSV), small_schema())
        assert excinfo.value.diagnostics == [
            "<run log>:8: column 'seed' must be a non-negative integer, got '-03'",
            "<run log>:8: column 'final_score' must be finite, got 'NaN'",
        ]

    def test_unparsed_seeds_never_collide(self):
        # Both rows share the rest of their key with the seed-0 row on line 3.
        runs = RUNS_CSV + "a1,e1,r1,lr,0.1,x,1.0\na1,e1,r1,lr,0.1,y,1.0\n"
        with pytest.raises(DatasetError) as excinfo:
            parse_dataset(io.StringIO(runs), io.StringIO(BASELINES_CSV), small_schema())
        assert excinfo.value.diagnostics == [
            "<run log>:8: column 'seed' must be a non-negative integer, got 'x'",
            "<run log>:9: column 'seed' must be a non-negative integer, got 'y'",
        ]


# Line text for the tokeniser: characters a plain comma split could read
# differently from csv (quotes, NUL, carriage return), whitespace that
# str.strip removes, ASCII and not, other unprintable text, and plain cells.
line_texts = st.lists(st.sampled_from([
    "a", "b7", "0.5", "\xe9", "#", ",", ",,", '"', '""', " ", "\t", "\r", "\0",
    "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u2028", "\u3000", "\u200b",
]), max_size=12).map("".join)


def tokenised(text: str) -> list[tuple[int, list[str]]]:
    """``(lineno, cells)`` of the one line, read as line 2."""
    return [(lineno, cells) for lineno, cells, _ in _rows(io.StringIO(text), 2, "<t>", 1)]


class TestTokeniser:
    @settings(max_examples=1000, deadline=None)
    @given(line_texts, st.sampled_from(["\n", "\r\n", ""]))
    def test_cells_match_stripped_csv_reader(self, text, end):
        line = text + end
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            assert tokenised(line) == []
            return
        try:
            expected = [cell.strip() for cell in next(csv.reader([line]))]
        except csv.Error as exc:
            with pytest.raises(DatasetError) as excinfo:
                tokenised(line)
            assert excinfo.value.diagnostics == [f"<t>:2: malformed row: {exc}"]
            return
        assert tokenised(line) == [(2, expected)]

    def test_field_size_limit_is_kept(self):
        limit = csv.field_size_limit()
        try:
            csv.field_size_limit(8)
            assert tokenised("a,12345678\n") == [(2, ["a", "12345678"])]
            with pytest.raises(DatasetError) as excinfo:
                tokenised("a,123456789\n")
            assert excinfo.value.diagnostics == ["<t>:2: malformed row: field larger than field limit (8)"]
        finally:
            csv.field_size_limit(limit)


# Run logs for checking the block ingest against the row-by-row reference:
# plain rows with unique keys, of which some are rewritten into a fault or a
# spelling only the line tokeniser reads, or get a line inserted before them.
INGEST_SCHEMA = SweepSchema(
    agents=("a1", "a2"),
    environments=("e1", "e2", "e3"),
    data_regimes=("r1", "r2"),
    hyperparameters={"lr": ("0.1", "0.01", "0.001"), "bs": ("32", "64")},
)
# e3 is declared but has no baseline scores.
INGEST_BASELINES_CSV = "environment,random_score,human_score\ne1,0,1\ne2,100,1100\n"
INGEST_PAIRS = (("lr", "0.1"), ("lr", "0.01"), ("lr", "0.001"), ("bs", "32"), ("bs", "64"))


def plain_fields(i: int) -> list[str]:
    """Row ``i`` of a valid log: 40 cells, each taking seeds 0, 1, ... in turn."""
    hp, value = INGEST_PAIRS[i // 8 % 5]
    return [("a1", "a2")[i % 2], ("e1", "e2")[i // 2 % 2], ("r1", "r2")[i // 4 % 2], hp, value,
            str(i // 40), repr((i * 7919 % 1009) / 16 - 20)]


def with_cell(column: int, text: str):
    return lambda fields: [*fields[:column], text, *fields[column + 1:]]


# How a row's fields are rewritten: faults of every kind the rules know, and
# spellings that parse to the same run.
ROW_EDITS = {
    "column-count": lambda fields: fields[:6],
    "extra-column": lambda fields: [*fields, "x"],
    "empty-agent": with_cell(0, ""),
    "empty-value": with_cell(4, ""),
    "bad-seed": with_cell(5, "x"),
    "negative-seed": with_cell(5, "-3"),
    "plus-seed": lambda fields: with_cell(5, "+" + fields[5])(fields),
    "zero-padded-seed": lambda fields: with_cell(5, "0" + fields[5])(fields),
    "huge-seed": with_cell(5, str(2**64 + 1)),
    "non-numeric-score": with_cell(6, "nope"),
    "digit-separator-score": with_cell(6, "1_5.0"),
    "non-ascii-digit-score": with_cell(6, "\u0661\u0665"),
    "digit-separator-seed": with_cell(5, "1_0"),
    "fullwidth-seed": with_cell(5, "\uff11"),
    "infinite-score": with_cell(6, "inf"),
    "nan-score": with_cell(6, "NaN"),
    "unknown-agent": with_cell(0, "zz"),
    "non-ascii-agent": with_cell(0, "\xe9"),
    "unknown-environment": with_cell(1, "zz"),
    "missing-baseline": with_cell(1, "e3"),
    "unknown-regime": with_cell(2, "zz"),
    "unknown-hyperparameter": with_cell(3, "zz"),
    "undeclared-value": with_cell(4, "0.7"),
    "quoted": lambda fields: ['"' + fields[0] + '"', *fields[1:]],
    "padded": lambda fields: [" " + fields[0], fields[1] + "\t", *fields[2:]],
    "unicode-space": lambda fields: ["\u2003" + fields[0], *fields[1:]],
    "malformed": with_cell(2, "r\r1"),
}
# Lines inserted before a row.
INSERTED_LINES = ["\n", "   \n", "# a comment\n", "#a,b,c,d,e,f,g\n", ",,,,,,\n"]

ingest_edits = st.lists(st.tuples(
    st.integers(0, 10**6),
    st.one_of(st.sampled_from(sorted(ROW_EDITS)), st.just("crlf"), st.just("duplicate"),
              st.sampled_from(INSERTED_LINES)),
    st.integers(0, 10**6)), max_size=8)


@st.composite
def ingest_logs(draw) -> tuple[int, str]:
    """A block size and a run log: more than two blocks at the real size, or
    up to 300 rows in small blocks; faults anywhere, on the first and last
    row of a block, and on more than ``MAX_DIAGNOSTICS`` rows."""
    block = draw(st.sampled_from([BLOCK_LINES, 1, 2, 3, 7]))
    rows = draw(st.integers(2 * BLOCK_LINES + 1, 2 * BLOCK_LINES + 30) if block == BLOCK_LINES
                else st.integers(0, 300))
    lines = [plain_fields(i) for i in range(rows)]
    edits = draw(ingest_edits)
    if rows:
        edges = st.sampled_from([k * block + d for k in range(1, rows // block + 1) for d in (-1, 0)
                                 if k * block + d < rows] or [0])
        edits += [(row, kind, other) for row, (_, kind, other)
                  in zip(draw(st.lists(edges, max_size=3)), draw(ingest_edits))]
        spray = draw(st.sampled_from([0, 0, MAX_DIAGNOSTICS - 1, MAX_DIAGNOSTICS, MAX_DIAGNOSTICS + 1]))
        if spray and rows >= spray:
            kind = draw(st.sampled_from(["unknown-agent", "negative-seed", "column-count", "duplicate"]))
            # Ending on a block's last row puts the cap on the last row read.
            end = draw(st.one_of(st.integers(spray, rows),
                                 st.sampled_from([k * block for k in range(1, rows // block + 1)
                                                  if spray <= k * block] or [rows])))
            edits += [(row, kind, 0) for row in range(end - spray, end)]
    ends = ["\n"] * rows
    before: dict[int, list[str]] = {}
    for row, kind, other in edits:
        if not rows:
            break
        row %= rows
        if kind in ROW_EDITS:
            lines[row] = ROW_EDITS[kind](lines[row])
        elif kind == "crlf":
            ends[row] = "\r\n"
        elif kind == "duplicate":
            lines[row] = [*plain_fields(other % rows)[:6], "1.5"]
        else:
            before.setdefault(row, []).append(kind)
    head = draw(st.sampled_from(["", "# leading comment\n\n"]))
    text = head + ",".join(RUN_LOG_HEADER) + "\n" + "".join(
        "".join(before.get(i, [])) + ",".join(fields) + end
        for i, (fields, end) in enumerate(zip(lines, ends)))
    if rows and draw(st.booleans()):
        text = text[:-1]
    return block, text


def outcome(parse):
    try:
        return parse()
    except DatasetError as exc:
        return exc.diagnostics


def assert_ingest_matches_reference(block: int, text: str) -> None:
    """Parse ``text`` in blocks of ``block`` lines and compare the outcome
    with the row-by-row reference."""
    baselines = BaselineTable({"e1": (0.0, 1.0), "e2": (100.0, 1100.0)})
    with mock.patch.object(thckit.dataset, "BLOCK_LINES", block):
        parsed = outcome(lambda: parse_dataset(io.StringIO(text), io.StringIO(INGEST_BASELINES_CSV),
                                               INGEST_SCHEMA))
    expected = outcome(lambda: reference_parse(io.StringIO(text), baselines, INGEST_SCHEMA))
    if isinstance(expected, list):
        assert parsed == expected
        return
    runs, index = expected
    assert isinstance(parsed, SweepDataset)
    assert len(parsed) == len(runs)
    for hp in INGEST_SCHEMA.hyperparameters:
        for pair in itertools.product(INGEST_SCHEMA.agents, INGEST_SCHEMA.data_regimes):
            groups = sorted_groups(parsed, hp, *pair)
            assert groups == {env: {value: normalised(baselines, env, leaf) for value, leaf in by_value.items()}
                              for env, by_value in index.get(hp, {}).get(pair, {}).items()}
            assert all(type(leaf) is tuple and all(type(score) is float for score in leaf)
                       for by_value in groups.values() for leaf in by_value.values())
    # repr also compares the types of fields.
    records = tuple(RunRecord(*key, score) for key, score in runs)
    assert parsed.records == records and repr(parsed.records) == repr(records)
    assert parsed == SweepDataset(records[::-1], baselines, INGEST_SCHEMA)
    if runs:
        changed = [dataclasses.replace(records[0], final_score=records[0].final_score + 1), *records[1:]]
        assert parsed != SweepDataset(changed, baselines, INGEST_SCHEMA)
        assert parsed != SweepDataset(records[1:], baselines, INGEST_SCHEMA)


def ingest_text(rows: int, edits: dict[int, str], before: dict[int, str] | None = None, tail: str = "") -> str:
    """A run log of ``rows`` plain rows, row ``i`` rewritten by the
    ``ROW_EDITS`` entry ``edits[i]`` and preceded by ``before[i]``, then ``tail``."""
    before = before or {}
    lines = [ROW_EDITS[edits[i]](plain_fields(i)) if i in edits else plain_fields(i) for i in range(rows)]
    return ",".join(RUN_LOG_HEADER) + "\n" + "".join(
        before.get(i, "") + ",".join(fields) + "\n" for i, fields in enumerate(lines)) + tail


# Row faults around a malformed line and the diagnostics cap, in blocks of 3 lines.
CAPPED = {i: "unknown-agent" for i in range(MAX_DIAGNOSTICS + 1)}
INGEST_EDGES = [
    pytest.param(ingest_text(6, {1: "unknown-agent", 4: "malformed"}), id="problems-then-malformed"),
    pytest.param(ingest_text(MAX_DIAGNOSTICS + 3, {**CAPPED, MAX_DIAGNOSTICS + 1: "malformed"}),
                 id="capped-then-malformed-block-start"),
    pytest.param(ingest_text(MAX_DIAGNOSTICS + 3, {**CAPPED, MAX_DIAGNOSTICS + 2: "malformed"}),
                 id="capped-then-malformed-mid-block"),
    pytest.param(ingest_text(6, {3: "malformed"}), id="malformed-block-start"),
    pytest.param(ingest_text(MAX_DIAGNOSTICS + 1, CAPPED, tail="# a\n# b\n\n"), id="capped-then-comment-block"),
    pytest.param(ingest_text(MAX_DIAGNOSTICS + 2, CAPPED, {MAX_DIAGNOSTICS + 1: "# a\n# b\n\n"}),
                 id="capped-then-comment-block-then-row"),
]


class TestIngestMatchesReference:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(ingest_logs())
    def test_diagnostics_index_records_and_equality(self, case):
        assert_ingest_matches_reference(*case)

    @pytest.mark.parametrize("text", INGEST_EDGES)
    def test_edges_of_a_malformed_line_and_the_cap(self, text):
        assert_ingest_matches_reference(3, text)

    @pytest.mark.parametrize("edit, diagnostic", [
        ("digit-separator-score", "column 'final_score' is not a number: '1_5.0'"),
        ("non-ascii-digit-score", "column 'final_score' is not a number: '\u0661\u0665'"),
        ("digit-separator-seed", "column 'seed' must be a non-negative integer, got '1_0'"),
        ("fullwidth-seed", "column 'seed' must be a non-negative integer, got '\uff11'"),
    ])
    def test_refused_number_spellings_in_a_plain_block(self, edit, diagnostic):
        # Python's int and float read each of these; a plain block is split at
        # once and converted a column at a time, so it must refuse them too.
        text = ingest_text(3, {0: edit})
        assert thckit.dataset._plain(text.split("\n", 1)[1].rstrip("\n"), 3)
        with pytest.raises(DatasetError) as excinfo:
            parse_dataset(io.StringIO(text), io.StringIO(INGEST_BASELINES_CSV), INGEST_SCHEMA)
        assert excinfo.value.diagnostics == [f"<run log>:2: {diagnostic}"]

    def test_blocks_end_at_a_malformed_line(self):
        # Blocks of lines 2-4 and 5-7: the second ends at the malformed line 6,
        # and lines 8-10 make no block.
        with mock.patch.object(thckit.dataset, "BLOCK_LINES", 3):
            blocks = list(_run_log_blocks(io.StringIO(ingest_text(9, {4: "malformed"})), "<run log>"))
        assert [list(block.linenos) for block in blocks] == [[2, 3, 4], [5]]
        assert blocks[0].error is None
        assert blocks[-1].error.diagnostics[0].startswith("<run log>:6: malformed row: ")


class TestSweepSchema:
    def test_axis_values(self):
        schema = small_schema()
        assert schema.axis_values(Axis.AGENT) == ("a1", "a2")
        assert schema.axis_values(Axis.DATA_REGIME) == ("r1", "r2")

    @pytest.mark.parametrize("kwargs", [
        {"agents": ()},
        {"environments": ("e1", "e1")},
        {"hyperparameters": {}},
        {"hyperparameters": {"lr": ()}},
        {"hyperparameters": {"lr": ("0.1", "0.1")}},
        {"defaults": {"nope": "1"}},
    ])
    def test_invalid_schemas_rejected(self, kwargs):
        base = dict(agents=("a1",), environments=("e1",), data_regimes=("r1",),
                    hyperparameters={"lr": ("0.1",)})
        base.update(kwargs)
        with pytest.raises(DatasetError):
            SweepSchema(**base)

    @pytest.mark.parametrize("kwargs, diagnostic", [
        ({"agents": "DER"}, "schema key 'agents' must be a list"),
        ({"environments": 3}, "schema key 'environments' must be a list"),
        ({"data_regimes": {"r1": 1}}, "schema key 'data_regimes' must be a list"),
        ({"hyperparameters": [("lr", ("0.1",))]},
         "schema key 'hyperparameters' must be a mapping of name to value list"),
        ({"hyperparameters": {"lr": "0.1"}}, "hyperparameter 'lr' must map to a list of values"),
        ({"defaults": [("lr", "0.1")]}, "schema key 'defaults' must be a mapping"),
    ], ids=["agents-string", "environments-count", "data-regimes-mapping", "hyperparameters", "value-list",
            "defaults"])
    def test_wrongly_typed_fields_rejected_naming_them(self, kwargs, diagnostic):
        base = dict(agents=("a1",), environments=("e1",), data_regimes=("r1",),
                    hyperparameters={"lr": ("0.1",)})
        with pytest.raises(DatasetError) as excinfo:
            SweepSchema(**{**base, **kwargs})
        assert excinfo.value.diagnostics == [diagnostic]

    @pytest.mark.parametrize("entries, diagnostic", [
        ({"agents": ["", "a1"]}, "schema key 'agents' must not contain an empty label"),
        ({"environments": ["e1", ""]}, "schema key 'environments' must not contain an empty label"),
        ({"data_regimes": [""]}, "schema key 'data_regimes' must not contain an empty label"),
        ({"hyperparameters": {"": ["0.1"]}}, "hyperparameter names must not contain an empty label"),
        ({"hyperparameters": {"lr": ["", "0.1"]}}, "hyperparameter 'lr' must not contain an empty label"),
    ], ids=["agent", "environment", "data-regime", "hyperparameter-name", "value"])
    def test_empty_labels_rejected_by_either_route(self, entries, diagnostic):
        # No run can carry an empty identifier, so a schema declaring one could never be met.
        doc = {"agents": ["a1"], "environments": ["e1"], "data_regimes": ["r1"], "hyperparameters": {"lr": ["0.1"]},
               **entries}
        with pytest.raises(DatasetError) as excinfo:
            SweepSchema(**doc)
        assert excinfo.value.diagnostics == [diagnostic]
        with pytest.raises(DatasetError) as excinfo:
            load_schema(io.StringIO(yaml.safe_dump(doc)))
        assert excinfo.value.diagnostics == [f"<schema>: {diagnostic}"]

    def test_every_empty_label_reported_at_once(self):
        with pytest.raises(DatasetError) as excinfo:
            SweepSchema(["", "a"], ["e"], ["r"], {"lr": ["", "x"]})
        assert excinfo.value.diagnostics == ["schema key 'agents' must not contain an empty label",
                                             "hyperparameter 'lr' must not contain an empty label"]

    def test_values_are_held_as_strings_and_match_runs(self):
        schema = SweepSchema(["a1"], np.array(["e1"]), ("r1",), {"lr": (0.1, True)}, {"lr": 0.1})
        assert schema.environments == ("e1",)
        assert schema.hyperparameters == {"lr": ("0.1", "True")}
        assert schema.defaults == {"lr": "0.1"}
        runs = "agent,environment,data_regime,hyperparameter,value,seed,final_score\na1,e1,r1,lr,0.1,0,1.0\n"
        dataset = parse_dataset(io.StringIO(runs), io.StringIO("environment,random_score,human_score\ne1,0,1\n"),
                                schema)
        assert dataset.records[0].value == "0.1"

    def test_lists_tuples_and_arrays_agree(self):
        as_lists = SweepSchema(["a1", "a2"], ["e1"], ["r1"], {"lr": [0.5, 2]})
        assert SweepSchema(("a1", "a2"), ("e1",), ("r1",), {"lr": ("0.5", "2")}) == as_lists
        assert SweepSchema(np.array(["a1", "a2"]), np.array(["e1"]), np.array(["r1"]),
                           {"lr": np.array([0.5, 2.0])}) == SweepSchema(["a1", "a2"], ["e1"], ["r1"], {"lr": [0.5, 2.0]})


class TestParse:
    def test_valid_sample(self):
        ds = parse_dataset(io.StringIO(RUNS_CSV), io.StringIO(BASELINES_CSV), small_schema())
        assert len(ds) == 4
        assert ds.records[0].final_score == 1.5

    def test_normalize(self):
        ds = parse_dataset(io.StringIO(RUNS_CSV), io.StringIO(BASELINES_CSV), small_schema())
        by_key = {rec.key: rec for rec in ds.records}
        rec = by_key[("a1", "e2", "r1", "lr", "0.01", 0)]
        rnd, hum = ds.baselines.scores["e2"]
        assert human_normalize(rec.final_score, rnd, hum) == pytest.approx(0.2)

    def test_byte_order_mark_is_read_past(self):
        plain = parse_dataset(io.StringIO(RUNS_CSV), io.StringIO(BASELINES_CSV), small_schema())
        marked = parse_dataset(io.StringIO("\ufeff" + RUNS_CSV), io.StringIO("\ufeff" + BASELINES_CSV),
                               small_schema())
        assert marked == plain
        # Only a mark that starts the stream is read past.
        with pytest.raises(DatasetError, match=r"<run log>:2: expected header"):
            parse_dataset(io.StringIO("\n\ufeff" + RUNS_CSV), io.StringIO(BASELINES_CSV), small_schema())

    def test_header_mismatch(self):
        bad = RUNS_CSV.replace("final_score", "score")
        with pytest.raises(DatasetError, match="expected header"):
            parse_dataset(io.StringIO(bad), io.StringIO(BASELINES_CSV), small_schema())

    def test_empty_run_log(self):
        with pytest.raises(DatasetError, match="empty"):
            parse_dataset(io.StringIO(""), io.StringIO(BASELINES_CSV), small_schema())

    def test_diagnostics_carry_line_numbers(self):
        bad = RUNS_CSV + "a1,e1,r1,lr,0.1,-3,nope\n"
        with pytest.raises(DatasetError) as excinfo:
            parse_dataset(io.StringIO(bad), io.StringIO(BASELINES_CSV), small_schema())
        messages = excinfo.value.diagnostics
        assert any(":8:" in msg and "seed" in msg for msg in messages)
        assert any(":8:" in msg and "final_score" in msg for msg in messages)

    def test_duplicate_row_named(self):
        bad = RUNS_CSV + "a1,e1,r1,lr,0.1,0,9.9\n"
        with pytest.raises(DatasetError, match="duplicate record key"):
            parse_dataset(io.StringIO(bad), io.StringIO(BASELINES_CSV), small_schema())

    def test_unknown_identifiers_reported(self):
        bad = RUNS_CSV + "zz,e1,r1,lr,0.1,7,1.0\na1,e1,r1,lr,0.7,7,1.0\n"
        with pytest.raises(DatasetError) as excinfo:
            parse_dataset(io.StringIO(bad), io.StringIO(BASELINES_CSV), small_schema())
        joined = "\n".join(excinfo.value.diagnostics)
        assert "unknown agent 'zz'" in joined
        assert "value '0.7' not declared" in joined

    def test_wrong_column_count_reported(self):
        bad = RUNS_CSV + "a1,e1,r1,lr,0.1,7\n"
        with pytest.raises(DatasetError, match="expected 7 columns, got 6"):
            parse_dataset(io.StringIO(bad), io.StringIO(BASELINES_CSV), small_schema())

    def test_missing_baseline_for_environment(self):
        baselines = "environment,random_score,human_score\ne1,0,1\n"
        with pytest.raises(DatasetError, match="no baseline scores for environment 'e2'"):
            parse_dataset(io.StringIO(RUNS_CSV), io.StringIO(baselines), small_schema())

    def test_baseline_duplicate_and_equal_scores(self):
        bad = BASELINES_CSV + "e1,0,1\ne2,7,7\n"
        with pytest.raises(DatasetError) as excinfo:
            parse_dataset(io.StringIO(RUNS_CSV), io.StringIO(bad), small_schema())
        joined = "\n".join(excinfo.value.diagnostics)
        assert "duplicate baseline row" in joined
        assert "human_score equals random_score" in joined

    def test_exact_value_strings_not_canonicalized(self):
        schema = SweepSchema(agents=("a1",), environments=("e1",), data_regimes=("r1",),
                             hyperparameters={"lr": ("0.5",)})
        runs = ("agent,environment,data_regime,hyperparameter,value,seed,final_score\n"
                "a1,e1,r1,lr,0.50,0,1.0\n")
        with pytest.raises(DatasetError, match="value '0.50' not declared"):
            parse_dataset(io.StringIO(runs), io.StringIO("environment,random_score,human_score\ne1,0,1\n"), schema)


class TestSweepDataset:
    def test_immutable(self):
        ds = SweepDataset(make_records(), small_baselines(), small_schema())
        with pytest.raises(AttributeError):
            ds.records = ()

    def test_duplicate_keys_rejected_at_construction(self):
        records = make_records() + [make_records()[0]]
        with pytest.raises(DatasetError, match="duplicate record key"):
            SweepDataset(records, small_baselines(), small_schema())

    def test_equality(self):
        a = SweepDataset(make_records(), small_baselines(), small_schema())
        b = SweepDataset(make_records(), small_baselines(), small_schema())
        assert a == b
        assert SweepDataset(make_records()[::-1], small_baselines(), small_schema()) == a
        changed = make_records()
        changed[3] = dataclasses.replace(changed[3], final_score=-1.0)
        assert SweepDataset(changed, small_baselines(), small_schema()) != a
        assert SweepDataset(make_records()[1:], small_baselines(), small_schema()) != a
        assert a.__eq__(make_records()) is NotImplemented
        assert a != "not a dataset"

    def test_empty_identifiers_rejected_in_direct_records(self):
        with pytest.raises(DatasetError) as excinfo:
            SweepDataset([RunRecord("", "e1", "r1", "lr", "", 0, 1.0)], small_baselines(), small_schema())
        assert excinfo.value.diagnostics == ["unknown agent ''", "value '' not declared for hyperparameter 'lr'"]

    def test_a_falsy_identifier_is_not_empty(self):
        with pytest.raises(DatasetError) as excinfo:
            SweepDataset([RunRecord(0, "e1", "r1", "lr", "0.1", 0, 1.0)], small_baselines(), small_schema())
        assert excinfo.value.diagnostics == ["unknown agent 0"]


def sorted_groups(ds: SweepDataset, hyperparameter: str, agent: str, data_regime: str) -> dict:
    """One (agent, data regime) pair's groups of runs of a hyper-parameter in
    the dataset's (cell, seed) sort, found by ``_groups_at`` as ``CellTable``
    finds them: environment -> value -> human-normalised scores, only groups
    that were run, both levels in schema order."""
    schema = ds.schema
    values = schema.hyperparameters[hyperparameter]
    env, value = np.divmod(np.arange(len(schema.environments) * len(values)), len(values))
    starts, sizes = ds._groups_at(schema.agents.index(agent), env, schema.data_regimes.index(data_regime),
                                  ds._first[hyperparameter] + value)
    groups: dict[str, dict[str, tuple[float, ...]]] = {}
    for e, v, start, size in zip(env.tolist(), value.tolist(), starts.tolist(), sizes.tolist()):
        if size:
            groups.setdefault(schema.environments[e], {})[values[v]] = tuple(ds._sorted[start:start + size].tolist())
    return groups


def normalised(baselines: BaselineTable, environment: str, scores) -> tuple[float, ...]:
    """Raw scores of one environment, human-normalised one at a time."""
    return tuple(human_normalize(score, *baselines.scores[environment]) for score in scores)


def reference_slice(ds: SweepDataset, hyperparameter: str, agent: str, data_regime: str) -> dict:
    """Brute-force filter-and-sort over every record, for checking the sort."""
    pairs: dict[str, dict[str, list[tuple[int, float]]]] = {}
    for rec in ds.records:
        if (rec.hyperparameter, rec.agent, rec.data_regime) == (hyperparameter, agent, data_regime):
            pairs.setdefault(rec.environment, {}).setdefault(rec.value, []).append(
                (rec.seed, rec.final_score))
    return {env: {value: normalised(ds.baselines, env, [score for _, score in sorted(runs)])
                  for value, runs in by_value.items()}
            for env, by_value in pairs.items()}


# Sparse record sets in arbitrary order: unique keys drawn from a grid of
# 2 agents x 2 environments x 2 regimes x 3 settings x 8 seeds, so seeds
# arrive shuffled and most groups are never run.
record_sets = st.lists(
    st.tuples(st.sampled_from(("a1", "a2")),
              st.sampled_from(("e1", "e2")),
              st.sampled_from(("r1", "r2")),
              st.sampled_from((("lr", "0.1"), ("lr", "0.01"), ("bs", "32"))),
              st.integers(0, 7),
              st.floats(-1e6, 1e6))
    .map(lambda t: RunRecord(t[0], t[1], t[2], *t[3], t[4], t[5])),
    max_size=40,
    unique_by=lambda rec: rec.key,
)


class TestSlice:
    def test_grouping_counts(self):
        ds = SweepDataset(make_records(seeds=5), small_baselines(), small_schema())
        groups = sorted_groups(ds, "lr", "a1", "r1")
        assert sum(len(by_value) for by_value in groups.values()) == 4
        assert all(len(scores) == 5 for by_value in groups.values() for scores in by_value.values())

    def test_partition_property(self):
        ds = SweepDataset(make_records(seeds=5), small_baselines(), small_schema())
        groups = sorted_groups(ds, "lr", "a1", "r1")
        pooled = Counter()
        for by_value in groups.values():
            for scores in by_value.values():
                pooled.update(scores)
        expected = Counter(normalised(ds.baselines, rec.environment, [rec.final_score])[0] for rec in ds.records
                           if (rec.agent, rec.data_regime, rec.hyperparameter) == ("a1", "r1", "lr"))
        assert pooled == expected

    def test_scores_ordered_by_seed(self):
        records = [RunRecord("a1", "e1", "r1", "lr", "0.1", seed, score)
                   for seed, score in ((2, 30.0), (0, 10.0), (1, 20.0))]
        ds = SweepDataset(records, small_baselines(), small_schema())
        assert list(sorted_groups(ds, "lr", "a1", "r1")["e1"]["0.1"]) == [10.0, 20.0, 30.0]

    def test_groups_never_run_are_absent(self):
        records = [RunRecord("a1", "e1", "r1", "lr", "0.1", 0, 1.0)]
        ds = SweepDataset(records, small_baselines(), small_schema())
        assert sorted_groups(ds, "lr", "a1", "r1") == {"e1": {"0.1": (1.0,)}}
        assert sorted_groups(ds, "lr", "a2", "r2") == {}

    def test_undeclared_hyperparameter(self):
        ds = SweepDataset(make_records(), small_baselines(), small_schema())
        with pytest.raises(KeyError):
            rank_context(ds, "momentum", "a1", "r1")

    def test_empty_slice(self):
        ds = SweepDataset(make_records(), small_baselines(), small_schema())
        with pytest.raises(EmptySliceError):
            rank_context(ds, "lr", "a2", "r2")

    @settings(max_examples=200, deadline=None)
    @given(record_sets)
    def test_matches_brute_force_filter_and_sort(self, records):
        ds = SweepDataset(records, small_baselines(), small_schema())
        slices = {}
        for hp in ("lr", "bs"):
            for agent in ("a1", "a2"):
                for regime in ("r1", "r2"):
                    groups = slices[hp, agent, regime] = sorted_groups(ds, hp, agent, regime)
                    assert groups == reference_slice(ds, hp, agent, regime)
                    # A pair has runs exactly when it has a group.
                    assert bool(ds._labels_with_runs(hp, Axis.AGENT, {"agent": agent, "data_regime": regime})) \
                        == bool(groups)
        # Keys come in schema order at both levels.
        for (hp, agent, regime), groups in slices.items():
            assert list(groups) == [env for env in ds.schema.environments if env in groups]
            assert all(list(by_value) == [v for v in ds.schema.hyperparameters[hp] if v in by_value]
                       for by_value in groups.values())

    def test_keys_in_schema_order_when_runs_come_in_reverse(self):
        ds = SweepDataset(make_records(seeds=2)[::-1], small_baselines(), small_schema())
        groups = sorted_groups(ds, "lr", "a1", "r1")
        assert [(env, list(by_value)) for env, by_value in groups.items()] == \
            [("e1", ["0.1", "0.01"]), ("e2", ["0.1", "0.01"])]
        assert groups["e2"]["0.01"] == normalised(ds.baselines, "e2", (0.0, 1.0))


def shuffled_run_log() -> tuple[SweepDataset, str, list[str], str]:
    """A 3,120-run synthetic dataset and its run log written out, as the
    header line and the row lines shuffled with blank and comment lines
    mixed in, plus its baseline table."""
    design = PlantedDesign(
        hyperparameters=(PlantedHyperparameter("lr", ("0.1", "0.01", "0.001", "1e-4")),
                         PlantedHyperparameter("width", ("64", "128", "256", "512"), pattern="reversal"),
                         PlantedHyperparameter("depth", ("1", "2", "3", "4"))),
        agents=("agent01", "agent02"),
        environments=tuple(f"env{i:02d}" for i in range(13)),
        data_regimes=("low", "high"),
        seeds_per_cell=5,
        noise_scale=0.3,
    )
    direct = generate(design)
    runs, baselines = io.StringIO(), io.StringIO()
    write_run_log(direct, runs)
    write_baselines(direct, baselines)
    header, *lines = runs.getvalue().splitlines(keepends=True)
    rng = random.Random(10)
    rng.shuffle(lines)
    for filler in ["\n", "# a comment, with a comma\n", "   \n", "#\n"] * 25:
        lines.insert(rng.randrange(len(lines) + 1), filler)
    return direct, header, lines, baselines.getvalue()


class TestRoundTrip:
    def test_dataset_roundtrip_is_exact(self, tmp_path):
        ds = SweepDataset(
            [RunRecord("a1", "e1", "r1", "lr", "0.1", 0, 0.1 + 0.2),
             RunRecord("a1", "e2", "r1", "lr", "0.01", 3, -1.2345678901234567e-05)],
            small_baselines(), small_schema())
        paths = write_dataset_files(ds, tmp_path)
        again = load_dataset(paths["runs"], paths["baselines"], paths["schema"])
        assert again == ds

    def test_numpy_seeds_and_baselines_roundtrip(self):
        ds = SweepDataset([dataclasses.replace(r, seed=np.int64(r.seed)) for r in RUNS_RECORDS],
                          BaselineTable({"e1": (np.float64(0.0), np.float32(1.5)),
                                         "e2": [np.float32(0.1), np.float64(1100.0)]}),
                          small_schema())
        runs, baselines = io.StringIO(), io.StringIO()
        write_run_log(ds, runs)
        write_baselines(ds, baselines)
        assert baselines.getvalue().splitlines()[1:] == ["e1,0.0,1.5", f"e2,{float(np.float32(0.1))!r},1100.0"]
        again = parse_dataset(io.StringIO(runs.getvalue()), io.StringIO(baselines.getvalue()), small_schema())
        assert again == ds

    def test_shuffled_log_at_scale(self):
        direct, header, lines, baselines = shuffled_run_log()
        parsed = parse_dataset(io.StringIO(header + "".join(lines)), io.StringIO(baselines), direct.schema)
        assert parsed == direct
        assert len(parsed) == len(direct) == 3120
        for hp in direct.schema.hyperparameters:
            for agent in direct.schema.agents:
                for regime in direct.schema.data_regimes:
                    assert sorted_groups(parsed, hp, agent, regime) == sorted_groups(direct, hp, agent, regime)
        by_key = {rec.key: rec for rec in direct.records}
        in_file_order = []
        for row in csv.reader(line for line in lines if line.strip() and not line.startswith("#")):
            in_file_order.append(by_key[(*row[:5], int(row[5]))])
        assert type(parsed.records) is tuple
        assert parsed.records == tuple(in_file_order)
        assert all(type(rec) is RunRecord for rec in parsed.records)
        assert parsed.records is parsed.records
        assert len({id(rec.environment) for rec in parsed.records}) == 13
        with pytest.raises(dataclasses.FrozenInstanceError):
            parsed.records[0].seed = 99

    def test_problem_cap_stops_with_the_same_final_diagnostic(self):
        direct, header, lines, baselines = shuffled_run_log()
        expected = []
        for i, line in enumerate(lines):
            if line.strip() and not line.startswith("#") and len(expected) < 300:
                lines[i] = f"zz{i}" + line[line.index(","):]
                expected.append(f"<run log>:{i + 2}: unknown agent 'zz{i}'")
        with pytest.raises(DatasetError) as excinfo:
            parse_dataset(io.StringIO(header + "".join(lines)), io.StringIO(baselines), direct.schema)
        assert excinfo.value.diagnostics == expected[:200] + ["<run log>: stopping after 200 problems"]

    def test_schema_roundtrip(self, tmp_path):
        schema = small_schema()
        out = io.StringIO()
        dump_schema(schema, out)
        assert load_schema(io.StringIO(out.getvalue())) == schema

    def test_comment_and_blank_line_handling(self, tmp_path):
        runs = tmp_path / "runs.csv"
        runs.write_text(RUNS_CSV, encoding="utf-8")
        baselines = tmp_path / "baselines.csv"
        baselines.write_text(BASELINES_CSV, encoding="utf-8")
        schema_file = tmp_path / "schema.yaml"
        with open(schema_file, "w", encoding="utf-8") as fh:
            dump_schema(small_schema(), fh)
        assert len(load_dataset(runs, baselines, schema_file)) == 4


class TestSchemaConfig:
    def test_scalars_become_canonical_strings(self):
        doc = io.StringIO(
            "agents: [a1]\n"
            "environments: [e1]\n"
            "data_regimes: [r1]\n"
            "hyperparameters:\n"
            "  flag: [true, false]\n"
            "  width: [0.5, 2, \"0.50\"]\n"
        )
        schema = load_schema(doc)
        assert schema.hyperparameters["flag"] == ("True", "False")
        assert schema.hyperparameters["width"] == ("0.5", "2", "0.50")

    def test_non_mapping_rejected(self):
        with pytest.raises(DatasetError):
            load_schema(io.StringIO("- just\n- a list\n"))

    def test_missing_keys_rejected(self):
        with pytest.raises(DatasetError, match="'environments' must be a list"):
            load_schema(io.StringIO("agents: [a1]\ndata_regimes: [r1]\nhyperparameters: {lr: ['0.1']}\n"))

    @pytest.mark.parametrize("entries, diagnostic", [
        ("hyperparameters: [lr]\n", "schema key 'hyperparameters' must be a mapping of name to value list"),
        ("hyperparameters: {lr: '0.1'}\n", "hyperparameter 'lr' must map to a list of values"),
        ("hyperparameters: {lr: ['0.1']}\ndefaults: ['0.1']\n", "schema key 'defaults' must be a mapping"),
    ], ids=["hyperparameters", "value-list", "defaults"])
    def test_wrongly_typed_entries_rejected(self, entries, diagnostic):
        doc = io.StringIO("agents: [a1]\nenvironments: [e1]\ndata_regimes: [r1]\n" + entries)
        with pytest.raises(DatasetError) as excinfo:
            load_schema(doc)
        assert excinfo.value.diagnostics == [f"<schema>: {diagnostic}"]

    def test_content_problems_name_the_file_and_come_with_type_problems(self):
        doc = io.StringIO("agents: a\nenvironments: [e, e]\ndata_regimes: [r1]\nhyperparameters: {lr: ['0.1']}\n")
        with pytest.raises(DatasetError) as excinfo:
            load_schema(doc)
        assert excinfo.value.diagnostics == ["<schema>: schema key 'agents' must be a list",
                                             "<schema>: schema key 'environments' contains duplicates"]

    @pytest.mark.parametrize("entries, diagnostic", [
        ({"hyperparameters": {1: ["a"], "1": ["b"]}}, "hyperparameter names 1 and '1' both read as '1'"),
        ({"hyperparameters": {"1": ["a", "b"]}, "defaults": {1: "a", "1": "b"}},
         "default keys 1 and '1' both read as '1'"),
    ], ids=["hyperparameters", "defaults"])
    def test_names_that_read_alike_rejected_by_either_route(self, entries, diagnostic):
        doc = {"agents": ["a1"], "environments": ["e1"], "data_regimes": ["r1"], **entries}
        with pytest.raises(DatasetError) as excinfo:
            SweepSchema(**doc)
        assert excinfo.value.diagnostics == [diagnostic]
        with pytest.raises(DatasetError) as excinfo:
            load_schema(io.StringIO(yaml.safe_dump(doc)))
        assert excinfo.value.diagnostics == [f"<schema>: {diagnostic}"]

    def test_unknown_keys_rejected_with_the_other_problems(self):
        doc = "agents: [a1]\nenvironments: [e1]\ndata_regimes: [r1]\nhyperparameters: {lr: [a]}\n"
        with pytest.raises(DatasetError) as excinfo:
            load_schema(io.StringIO(doc + "default: {lr: a}\n"))
        assert excinfo.value.diagnostics == ["<schema>: unknown schema keys: ['default']"]
        with pytest.raises(DatasetError) as excinfo:
            load_schema(io.StringIO(doc.replace("[e1]", "[e1, e1]") + "1: x\nnotes: x\n"))
        assert excinfo.value.diagnostics == ["<schema>: unknown schema keys: [1, 'notes']",
                                             "<schema>: schema key 'environments' contains duplicates"]

    def test_readme_example_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        [block] = re.findall(r"```yaml\n(.*?)```", readme, flags=re.DOTALL)
        schema = load_schema(io.StringIO(block))
        assert schema.data_regimes == ("100k", "40M")
        assert schema.hyperparameters["learning_rate"] == ("0.001", "0.0001", "1e-05")
        assert schema.defaults == {"learning_rate": "0.0001"}


# Schema documents for checking that load_schema and direct construction
# agree: valid ones, and ones with a single wrongly typed or duplicated entry.
# Scalars include spellings YAML reads as another type unless quoted.
schema_scalars = st.one_of(st.sampled_from(["a", "e1", "0.50", "1e5", "null", "yes", "True", "~", "x: y", ""]),
                           st.integers(-3, 300), st.floats(allow_nan=False, allow_infinity=False), st.booleans())
schema_lists = st.lists(schema_scalars, min_size=1, max_size=3, unique_by=str)
non_lists = st.one_of(schema_scalars, st.none(), st.dictionaries(st.sampled_from(["a", "b"]), schema_scalars))
non_mappings = st.one_of(schema_scalars, st.none(), st.lists(schema_scalars, max_size=2))


@st.composite
def schema_documents(draw) -> dict:
    doc = {key: draw(schema_lists) for key in ("agents", "environments", "data_regimes")}
    doc["hyperparameters"] = draw(st.dictionaries(schema_scalars, schema_lists, min_size=1, max_size=3))
    if draw(st.booleans()):
        name, values = draw(st.sampled_from(list(doc["hyperparameters"].items())))
        doc["defaults"] = {name: draw(st.sampled_from(values))}
    # Every slot a list or a mapping belongs in, as (container, key).
    slots = [(doc, key) for key in doc] + [(doc["hyperparameters"], name) for name in doc["hyperparameters"]]
    container, key = draw(st.sampled_from(slots))
    fault = draw(st.sampled_from(["none", "wrong type", "duplicate", "collision", "empty"]))
    if fault == "wrong type":
        container[key] = draw(non_lists if isinstance(container[key], list) else non_mappings)
    elif fault == "duplicate" and isinstance(container[key], list):
        container[key].append(container[key][0])
    elif fault == "empty":
        # An empty label in a list, or an empty hyper-parameter name.
        if isinstance(container[key], list):
            container[key].insert(draw(st.integers(0, len(container[key]))), "")
        else:
            doc["hyperparameters"][""] = draw(schema_lists)
    elif fault == "collision":
        # Two names that read as one string, such as 7 and "7".
        name, key = draw(st.integers(2, 300)), draw(st.sampled_from(["hyperparameters", "defaults"]))
        entry = schema_lists if key == "hyperparameters" else schema_scalars
        doc.setdefault(key, {}).update({name: draw(entry), str(name): draw(entry)})
    return doc


class TestSchemaRoutes:
    @settings(deadline=None)
    @given(schema_documents())
    def test_load_schema_equals_direct_construction(self, doc):
        text = yaml.safe_dump(doc, sort_keys=False)
        assert repr(yaml.safe_load(text)) == repr(doc)
        direct = outcome(lambda: SweepSchema(**doc))
        read = outcome(lambda: load_schema(io.StringIO(text)))
        assert read == ([f"<schema>: {line}" for line in direct] if isinstance(direct, list) else direct)


REPO = Path(__file__).parents[1]


def committed_yaml_documents() -> dict[str, str]:
    """Every committed YAML document: the bundled schema, the test fixture's
    schema and design, and the README's schema block."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"```yaml\n(.*?)```", readme, flags=re.DOTALL)
    paths = (REPO / "src" / "thckit" / "data" / "atari_der_drq.yaml",
             REPO / "tests" / "data" / "schema.yaml", REPO / "tests" / "data" / "design.yaml")
    return {"README.md": block, **{path.name: path.read_text(encoding="utf-8") for path in paths}}


class TestYamlLoaders:
    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml")
    @pytest.mark.parametrize("name", sorted(committed_yaml_documents()))
    def test_libyaml_and_pure_python_agree(self, name):
        text = committed_yaml_documents()[name]
        fast, slow = yaml.load(text, Loader=yaml.CSafeLoader), yaml.load(text, Loader=yaml.SafeLoader)
        # repr also compares key order and scalar types.
        assert fast == slow and repr(fast) == repr(slow)

    def test_schemas_load_alike_under_either_loader(self, yaml_loader):
        assert bundled_schema().hyperparameters["batch_size"] == ("4", "8", "16", "32", "64")
        schema = load_schema(REPO / "tests" / "data" / "schema.yaml")
        assert schema == load_schema(io.StringIO(committed_yaml_documents()["schema.yaml"]))

    def test_malformed_schema_names_line_and_column(self, yaml_loader):
        with pytest.raises(DatasetError) as excinfo:
            load_schema(io.StringIO("agents: [a1\nenvironments: [e1]\n"))
        [line] = excinfo.value.diagnostics
        assert line.startswith("<schema>: malformed YAML at line 2, column 13: ")


class TestBundledSchema:
    def test_loads_and_has_expected_shape(self):
        schema = bundled_schema()
        assert schema.agents == ("DER", "DrQ_eps")
        assert len(schema.environments) == 26
        assert schema.data_regimes == ("100k", "40M")
        assert len(schema.hyperparameters) == 20

    def test_value_lists_are_exact_strings(self):
        schema = bundled_schema()
        assert schema.hyperparameters["adam_eps"] == (
            "1", "0.5", "0.3125", "0.03125", "0.003125", "0.0003125",
            "3.125e-05", "3.125e-06")
        assert schema.hyperparameters["batch_size"] == ("4", "8", "16", "32", "64")
        assert schema.hyperparameters["reward_clipping"] == ("True", "False")
        assert len(schema.hyperparameters["conv_activation"]) == 15

    def test_defaults_subset(self):
        schema = bundled_schema()
        assert schema.defaults["batch_size"] == "32"
        assert schema.defaults["adam_eps"] == "0.00015"
        assert "exploration_epsilon" not in schema.defaults
