"""Experiment sweep data model: run logs, baselines, schemas, and slicing.

A sweep is stored in long form, one row per training run, keyed by
``(agent, environment, data_regime, hyperparameter, value, seed)``. The
resulting :class:`SweepDataset` is immutable and safe to share.

Each rule is stated once: the run-record rules in ``SweepDataset._admit``,
the baseline rules in ``_admit_baselines``, and the schema rules, its field
types as well as its contents, in ``SweepSchema.__post_init__``. Direct
construction of a :class:`SweepSchema`, :class:`SweepDataset` or
:class:`BaselineTable` applies them and reports unprefixed diagnostics;
:func:`parse_dataset` checks only what needs the text and sends each block
of rows through them once, prefixed ``source:lineno:``, and
:func:`load_schema` hands the YAML document's keys to :class:`SweepSchema`
and prefixes each diagnostic with the file name.

Parsing reads the run log in blocks of ``BLOCK_LINES`` lines. A block
whose every line is a plain 7-cell row (no quote, whitespace or other
unprintable character, no blank or comment line, none longer than
``csv.field_size_limit()``) is split into seven columns at once. Any other
block goes line by line through ``_rows``, the reader of the baseline
table's rows too: a line's cells are
``[cell.strip() for cell in next(csv.reader([line]))]``, a row of the wrong
width gets its ``expected N columns`` problem, and a line the reader rejects
gets a ``malformed row`` diagnostic. The header line is read the same way,
and a byte-order mark that starts either stream is read past. Each rule is
then one predicate over a column of a block, whether the block was parsed or
given as records: an empty identifier is one ``== ""`` per cell of a column
that holds one, identifiers become integer codes by dict lookup, seeds and
scores are converted with ``map``, finiteness is one ``np.isfinite``, and
duplicate keys come from one stable sort of all runs. Diagnostics are
formatted only for the rows that fail.

The dataset keeps its runs as columns in input order: one integer code per
run for its (agent, environment, data regime, hyper-parameter value) cell,
the seeds, and the scores. It also keeps what the sort by (cell, seed) that
finds duplicate keys gives: the code of each cell with runs (a group) in code
order, the start and size of each group's runs in that order, and the scores
so ordered, and, made from the group codes, a mask per hyper-parameter of
the (agent, environment, data regime) triples with runs. These arrays are
the dataset's only store of runs, and the analysis reads only the sort:
``CellTable`` gathers its cells' scores from the groups,
``SweepDataset._labels_with_runs`` reads the masks, and :func:`slice_scores`
reads one (agent, data regime) pair's groups as ``environment -> value ->
scores``, each leaf the group's scores in seed order and both levels in
schema order. ``SweepDataset.records``, the runs as :class:`RunRecord`
objects with the schema's identifier strings, is built the first time it is
read.

Hyper-parameter values are opaque strings compared by exact match. ``"0.5"``
and ``"0.50"`` are different settings on purpose: ranking only needs
identity, and numeric coercion silently corrupts keys.
"""

from __future__ import annotations

import csv
import enum
import math
import numbers
from dataclasses import dataclass, field, fields
from importlib import resources
from itertools import chain, islice, repeat
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import IO, AbstractSet, Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
import yaml

from .stats import human_normalize

__all__ = [
    "Axis",
    "BaselineTable",
    "DatasetError",
    "EmptySliceError",
    "RunRecord",
    "SweepDataset",
    "SweepSchema",
    "bundled_schema",
    "bundled_schema_bytes",
    "dump_schema",
    "load_dataset",
    "load_schema",
    "parse_dataset",
    "slice_scores",
    "write_baselines",
    "write_run_log",
]

RUN_LOG_HEADER = ("agent", "environment", "data_regime", "hyperparameter", "value", "seed", "final_score")
BASELINES_HEADER = ("environment", "random_score", "human_score")

MAX_DIAGNOSTICS = 200
# Run-log lines tokenised and checked together; bounds the text held at once.
BLOCK_LINES = 2048


class DatasetError(ValueError):
    """Raised when a run log, baseline table, or schema fails validation.

    ``diagnostics`` holds one message per offending row or key.
    """

    def __init__(self, diagnostics: Sequence[str]):
        self.diagnostics = list(diagnostics)
        preview = "\n".join(self.diagnostics[:20])
        extra = len(self.diagnostics) - 20
        if extra > 0:
            preview += f"\n... and {extra} more"
        super().__init__(preview)


class EmptySliceError(LookupError):
    """Raised when an (agent, data regime) pair has no runs of a
    hyper-parameter at all."""


class Axis(str, enum.Enum):
    """The three coordinates a run is indexed by besides its setting."""

    AGENT = "agent"
    ENVIRONMENT = "environment"
    DATA_REGIME = "data_regime"


@dataclass(frozen=True)
class RunRecord:
    """Final score of one training run, checked when it enters a
    :class:`SweepDataset`. A run-log cell that did not convert is ``None``."""

    agent: str
    environment: str
    data_regime: str
    hyperparameter: str
    value: str
    seed: int
    final_score: float

    @property
    def key(self) -> tuple[str, str, str, str, str, int]:
        return (self.agent, self.environment, self.data_regime,
                self.hyperparameter, self.value, self.seed)


@dataclass(frozen=True)
class BaselineTable:
    """Per-environment random and human reference scores, each held as a
    ``(random, human)`` tuple."""

    scores: Mapping[str, tuple[float, float]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scores", _admit_baselines(map(_given_baseline, self.scores.items())))

    @classmethod
    def _parsed(cls, rows: Iterable[tuple], source: str) -> BaselineTable:
        """Table from parsed rows, which pass through the rules only here."""
        table = cls.__new__(cls)
        object.__setattr__(table, "scores", _admit_baselines(rows, source))
        return table

    def __contains__(self, environment: str) -> bool:
        return environment in self.scores

    @property
    def environments(self) -> tuple[str, ...]:
        return tuple(self.scores)

    def random_score(self, environment: str) -> float:
        return self.scores[environment][0]

    def human_score(self, environment: str) -> float:
        return self.scores[environment][1]


def _given_baseline(item: tuple[str, object]) -> tuple:
    """A directly given table's entry as ``_admit_baselines`` reads a row: a
    score that is not a real number, or is a bool, reads as one that did not
    convert, and a value that is not a pair is a problem of its own."""
    env, pair = item
    try:
        scores = tuple(pair)
    except TypeError:
        scores = ()
    if len(scores) != 2:
        return None, [f"baseline scores for environment {env!r} must be a (random, human) pair, "
                      f"got {pair!r}"], None
    return None, None, (env, *_of_kind(scores, numbers.Real, bool))


def _admit_baselines(rows: Iterable[tuple], source: str | None = None) -> dict[str, tuple[float, float]]:
    """Apply every baseline rule once per row and return the scores by
    environment. ``rows`` are as :func:`parse_dataset` makes them, with
    ``(environment, random, human)`` items; a row gets at most one problem."""
    problems: list[str] = []
    scores: dict[str, tuple[float, float]] = {}
    for lineno, found, entry in rows:
        if not found:
            env, rnd, hum = entry
            if rnd is None or hum is None:
                found = [f"non-numeric score for environment {env!r}"]
            elif not (math.isfinite(rnd) and math.isfinite(hum)):
                found = [f"non-finite baseline score for environment {env!r}"]
            elif hum == rnd:
                found = [f"human_score equals random_score for environment {env!r}"]
            elif env in scores:
                found = [f"duplicate baseline row for environment {env!r}"]
            else:
                scores[env] = (rnd, hum)
                continue
        prefix = "" if lineno is None else f"{source}:{lineno}: "
        problems.extend(prefix + problem for problem in found)
    if problems:
        raise DatasetError(problems)
    return scores


def _stringify(value: object) -> str:
    """Canonical string for a schema scalar: a string as it is, else ``str(value)``."""
    return value if isinstance(value, str) else str(value)


def _items(value: object, convert: Callable[[Any], Any] = _stringify) -> tuple | None:
    """``value``'s items, each converted (stringified by default), or None
    when it is not a list of them: a string, mapping or set, or not iterable
    at all."""
    if isinstance(value, (str, bytes, Mapping, AbstractSet)):
        return None
    try:
        return tuple(map(convert, value))
    except TypeError:
        return None


def _collisions(names: Iterable, what: str) -> list[str]:
    """A problem for each of ``names`` that reads as the same string as an
    earlier one, such as ``1`` and ``"1"``."""
    first: dict[str, object] = {}
    problems = []
    for name in names:
        key = _stringify(name)
        if key in first:
            problems.append(f"{what} {first[key]!r} and {name!r} both read as {key!r}")
        first.setdefault(key, name)
    return problems


#: The schema's identifier lists, in document order: each is a field of
#: :class:`SweepSchema` and a key of its YAML document.
_SCHEMA_LIST_KEYS = ("agents", "environments", "data_regimes")
#: The field that lists each axis's labels, in a schema or a planted design.
_AXIS_FIELDS = dict(zip(Axis, _SCHEMA_LIST_KEYS))


@dataclass(frozen=True)
class SweepSchema:
    """Declared identifier vocabularies a dataset is validated against. Each
    list may be any list-like but a string; names and values are held as
    strings, lists as tuples. All problems are raised in one :class:`DatasetError`."""

    agents: tuple[str, ...]
    environments: tuple[str, ...]
    data_regimes: tuple[str, ...]
    hyperparameters: Mapping[str, tuple[str, ...]]
    defaults: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        problems = []
        for name in _SCHEMA_LIST_KEYS:
            values = _items(getattr(self, name))
            if values is None:
                problems.append(f"schema key {name!r} must be a list")
                continue
            object.__setattr__(self, name, values)
            if not values:
                problems.append(f"schema key {name!r} must list at least one identifier")
            if len(set(values)) != len(values):
                problems.append(f"schema key {name!r} contains duplicates")
            if "" in values:
                problems.append(f"schema key {name!r} must not contain an empty label")
        hps: dict[str, tuple[str, ...]] | None = None
        if not isinstance(self.hyperparameters, Mapping):
            problems.append("schema key 'hyperparameters' must be a mapping of name to value list")
        else:
            hps = {}
            if not self.hyperparameters:
                problems.append("schema must declare at least one hyperparameter")
            for name, values in self.hyperparameters.items():
                hp = _stringify(name)
                hps[hp] = values = _items(values)
                if values is None:
                    problems.append(f"hyperparameter {name!r} must map to a list of values")
                    continue
                if not values:
                    problems.append(f"hyperparameter {hp!r} declares no values")
                if len(set(values)) != len(values):
                    problems.append(f"hyperparameter {hp!r} declares duplicate values")
                if "" in values:
                    problems.append(f"hyperparameter {hp!r} must not contain an empty label")
            if "" in hps:
                problems.append("hyperparameter names must not contain an empty label")
            problems.extend(_collisions(self.hyperparameters, "hyperparameter names"))
            object.__setattr__(self, "hyperparameters", hps)
        if not isinstance(self.defaults, Mapping):
            problems.append("schema key 'defaults' must be a mapping")
        else:
            problems.extend(_collisions(self.defaults, "default keys"))
            object.__setattr__(self, "defaults", {_stringify(k): _stringify(v) for k, v in self.defaults.items()})
            problems.extend(f"default given for undeclared hyperparameter {hp!r}"
                            for hp in self.defaults if hps is not None and hp not in hps)
        if problems:
            raise DatasetError(problems)

    def axis_values(self, axis: Axis) -> tuple[str, ...]:
        return getattr(self, _AXIS_FIELDS[Axis(axis)])


def _vocabulary(schema: SweepSchema) -> tuple[Sequence, Sequence, Sequence, list[tuple[str, str]]]:
    """Every agent, environment, data regime and (hyper-parameter, value)
    pair the schema declares, in its order: a run's codes index these."""
    return (schema.agents, schema.environments, schema.data_regimes,
            [(hp, value) for hp, values in schema.hyperparameters.items() for value in values])


class _Block(NamedTuple):
    """Consecutive rows as ``SweepDataset._admit`` reads them, by column."""

    # The seven fields in run-log column order; None for a cell that did not convert.
    fields: Sequence[Sequence]
    # The same columns as written; None for records given directly.
    cells: Sequence[Sequence[str]] | None
    linenos: Sequence[int] | None
    # Problems parsing found, by row.
    found: Mapping[int, list[str]]
    # Rows with the wrong number of cells: they hold placeholder fields that no rule checks.
    unchecked: Sequence[int] = ()
    # What a malformed line right after the rows raised; it ends the log.
    error: DatasetError | None = None


class SweepDataset:
    """Validated, immutable collection of run records plus baselines.

    The runs are held once, as columns in input order and their (cell,
    seed) sort. ``records`` holds them as :class:`RunRecord` objects in
    input order, built on first read.
    """

    __slots__ = ("_cells", "_seeds", "_scores", "_groups", "_starts", "_sizes", "_sorted", "_runs",
                 "_shape", "_first", "_baseline_scores", "_records", "baselines", "schema")

    def __init__(self, records: Iterable[RunRecord], baselines: BaselineTable, schema: SweepSchema):
        self._admit(_record_blocks(records), baselines, schema)

    @classmethod
    def _parsed(cls, blocks: Iterable[_Block], baselines: BaselineTable, schema: SweepSchema,
                source: str) -> SweepDataset:
        """Dataset from parsed blocks, which pass through the rules only here."""
        dataset = cls.__new__(cls)
        dataset._admit(blocks, baselines, schema, source)
        return dataset

    def _admit(self, blocks: Iterable[_Block], baselines: BaselineTable, schema: SweepSchema,
               source: str | None = None) -> None:
        """Apply every run-record rule to each block, one column at a time, and
        keep and sort the runs if no row has a problem. Otherwise raise the
        problems in row order and, within a row, in rule order, stopping as a
        row-by-row check would after the row that brings them to
        ``MAX_DIAGNOSTICS``; a file row's are prefixed ``source:lineno:``."""
        vocabulary = _vocabulary(schema)
        codes = [{name: code for code, name in enumerate(names)} for names in vocabulary]
        # The cell-code shape, each hyper-parameter's first value code, and the random and
        # human scores by environment code (NaN where the table has no row): derived here only.
        declared, counts = tuple(map(len, vocabulary)), list(map(len, schema.hyperparameters.values()))
        first = dict(zip(schema.hyperparameters, np.cumsum([0, *counts]).tolist()))
        table = np.array([baselines.scores.get(env, (np.nan, np.nan)) for env in schema.environments], np.float64)
        unbased = np.flatnonzero(np.isnan(table[:, 0]))
        keys, seeds, scores, keyed, linenos = [np.zeros((4, 0), np.int64)], [], [np.zeros(0)], [], []
        problems: dict[int, list[str]] = {}
        count = rows = 0
        # What follows the rows read: nothing, another row (True), or a malformed line's error.
        after: bool | DatasetError | None = None
        for block in blocks:
            if count >= MAX_DIAGNOSTICS:
                after = True if len(block.fields[0]) else block.error
                if after is not None:
                    break
                continue
            key, value, ok, found = _check(block, codes, declared, unbased, schema)
            for i, row_problems in found.items():
                problems[rows + i] = row_problems
                count += len(row_problems)
            keys.append(key)
            seeds.extend(block.fields[5])
            scores.append(value)
            keyed.append(ok)
            linenos.append(block.linenos)
            rows += len(value)
            after = block.error
            # Read the next block holding no cell of this one.
            del block
            if after is not None:
                break

        key = np.concatenate(keys, axis=1)
        cells = np.ravel_multi_index(tuple(key), [len(c) for c in codes])
        keyed_rows = np.flatnonzero(np.concatenate([np.zeros(0, bool), *keyed]))
        seed_keys = _seed_keys(seeds if keyed_rows.size == rows else [seeds[i] for i in keyed_rows.tolist()])
        sort = np.lexsort((seed_keys, cells[keyed_rows]))
        order, sorted_seeds = keyed_rows[sort], seed_keys[sort]
        repeats = (np.diff(cells[order]) == 0) & (sorted_seeds[1:] == sorted_seeds[:-1])
        if repeats.any():
            names = [list(c) for c in codes]
            for row in order[1:][repeats].tolist():
                a, e, r, p = key[:, row].tolist()
                duplicate = (names[0][a], names[1][e], names[2][r], *names[3][p], seeds[row])
                problems.setdefault(row, []).append(f"duplicate record key {duplicate}")
        if problems or after is not None:
            _raise_problems(problems, rows, after,
                            None if source is None else list(chain.from_iterable(linenos)), source)

        scores, ordered = np.concatenate(scores), cells[order]
        # Each group's start, and a past-the-end group of no runs that a cell without runs finds.
        starts = np.append(np.flatnonzero(np.diff(ordered, prepend=-1)), len(order))
        groups = np.append(ordered[starts[:-1]], np.iinfo(np.int64).max)
        # Whether each (hyper-parameter, agent, environment, data regime) has runs, read by
        # _labels_with_runs: unravelling the group codes per question costs more than the fill.
        a, e, r, p = np.unravel_index(groups[:-1], declared)
        runs = np.zeros((len(counts), *declared[:3]), bool)
        runs[np.repeat(np.arange(len(counts)), counts)[p], a, e, r] = True
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_seeds", tuple(seeds))
        object.__setattr__(self, "_scores", scores)
        object.__setattr__(self, "_groups", groups)
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_sizes", np.diff(starts, append=len(order)))
        object.__setattr__(self, "_sorted", scores[order])
        object.__setattr__(self, "_runs", dict(zip(schema.hyperparameters, runs)))
        object.__setattr__(self, "_shape", declared)
        object.__setattr__(self, "_first", first)
        object.__setattr__(self, "_baseline_scores", table)
        object.__setattr__(self, "_records", None)
        object.__setattr__(self, "baselines", baselines)
        object.__setattr__(self, "schema", schema)

    def _groups_at(self, *codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The start in ``_sorted`` and the size of the group of runs of each
        cell whose (agent, environment, data regime, hyper-parameter value)
        codes are ``codes``; size 0 for a cell without runs."""
        cells = np.ravel_multi_index(codes, self._shape)
        found = np.searchsorted(self._groups, cells)
        return self._starts[found], np.where(self._groups[found] == cells, self._sizes[found], 0)

    def _labels_with_runs(self, hp: str, axis: Axis, coords: Mapping[str, str]) -> list[str]:
        """Declared labels of ``axis``, in schema order, with runs of ``hp`` at
        ``coords``. An agent or data regime that ``coords`` leaves out matches
        any label, and one the schema does not declare none; an environment in
        ``coords`` is ignored."""
        runs = self._runs[hp]
        for position, pinned in ((0, Axis.AGENT), (2, Axis.DATA_REGIME)):
            labels, label = self.schema.axis_values(pinned), coords.get(pinned.value)
            if label is not None:
                runs = runs.take([labels.index(label)] if label in labels else [], axis=position)
        found = runs.any(axis=tuple({0, 1, 2} - {list(Axis).index(axis)})).tolist()
        return [label for label, ran in zip(self.schema.axis_values(axis), found) if ran]

    def _normalisation_problems(self) -> list[str]:
        """One problem per environment, in schema order, with a run whose
        human-normalised score is not finite."""
        envs, baselines = self.schema.environments, self._baseline_scores
        env = np.unravel_index(self._cells, self._shape)[1]
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(human_normalize(self._scores, *baselines[env].T))
        return [f"a human-normalised score of environment {envs[code]!r} is not finite "
                "(random_score {!r}, human_score {!r})".format(*baselines[code].tolist())
                for code in np.flatnonzero(np.bincount(env[~finite], minlength=len(envs))).tolist()]

    def _columns(self) -> list[Sequence]:
        """The seven run-log columns in input order, identifiers spelled as
        the schema spells them."""
        agents, environments, regimes, pairs = _vocabulary(self.schema)
        a, e, r, p = (c.tolist() for c in np.unravel_index(self._cells, self._shape))
        hps, values = [hp for hp, _ in pairs], [value for _, value in pairs]
        return [list(map(names.__getitem__, column)) for names, column in
                ((agents, a), (environments, e), (regimes, r), (hps, p), (values, p))] \
            + [self._seeds, self._scores.tolist()]

    @property
    def records(self) -> tuple[RunRecord, ...]:
        """Every run in input order, built the first time it is read."""
        if self._records is None:
            object.__setattr__(self, "_records", tuple(map(RunRecord, *self._columns())))
        return self._records

    def __setattr__(self, name, value):
        raise AttributeError("SweepDataset is immutable")

    def __len__(self) -> int:
        return len(self._scores)

    def __eq__(self, other: object) -> bool:
        """Equal when both hold the same runs, in any order, and the same
        baselines and schema."""
        if not isinstance(other, SweepDataset):
            return NotImplemented

        def runs(dataset: SweepDataset) -> dict:
            *key, scores = dataset._columns()
            return dict(zip(zip(*key), scores))
        return (len(self) == len(other) and self.baselines == other.baselines
                and self.schema == other.schema and runs(self) == runs(other))


def _check(block: _Block, codes: list[dict], declared: Sequence[int], unbased: np.ndarray,
           schema: SweepSchema) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, list[str]]]:
    """Apply each row-local run-record rule to a block, one column at a time.
    Returns the rows' identifier codes (agent, environment, data regime,
    hyper-parameter value), their scores, which rows make a key that can
    collide (a valid seed, and all seven cells), and the problems of each
    failing row in rule order."""
    agents, envs, regimes, hps, values, seed, score = block.fields
    if block.cells is None:
        # Records given directly may hold any object; read one of another kind, or a
        # bool seed, as a text cell that did not convert.
        seed, score = _of_kind(seed, numbers.Integral, bool), _of_kind(score, numbers.Real)
    n = len(agents)
    key = np.stack([_encode(codes[0], agents), _encode(codes[1], envs), _encode(codes[2], regimes),
                    _encode(codes[3], hps, values)])
    try:
        seeds_ok = min(seed, default=0) >= 0
    except TypeError:  # a seed that did not convert
        seeds_ok = False
    bad_seed = np.zeros(n, bool) if seeds_ok else np.array([s is None or s < 0 for s in seed], dtype=bool)
    missing = np.array([s is None for s in score], dtype=bool) if None in score else np.zeros(n, bool)
    value = np.array(score, dtype=np.float64)
    undeclared = key[3] >= declared[3]
    unknown_hp = undeclared & np.array([hp not in schema.hyperparameters for hp in hps], dtype=bool) \
        if undeclared.any() else undeclared
    checked = np.ones(n, bool)
    checked[list(block.unchecked)] = False
    rules = (
        *((np.array([cell == "" for cell in column], bool) if "" in column else np.zeros(n, bool),
           lambda i, name=name: f"empty column {name!r}")
          for name, column in zip(RUN_LOG_HEADER, (agents, envs, regimes, hps, values))),
        (bad_seed, lambda i: f"column 'seed' must be a non-negative integer, got {_quoted(block, 5, i)!r}"),
        (missing, lambda i: f"column 'final_score' is not a number: {_quoted(block, 6, i)!r}"),
        (~(np.isfinite(value) | missing),
         lambda i: f"column 'final_score' must be finite, got {_quoted(block, 6, i)!r}"),
        (key[0] >= declared[0], lambda i: f"unknown agent {agents[i]!r}"),
        (key[1] >= declared[1], lambda i: f"unknown environment {envs[i]!r}"),
        (np.isin(key[1], unbased), lambda i: f"no baseline scores for environment {envs[i]!r}"),
        (key[2] >= declared[2], lambda i: f"unknown data_regime {regimes[i]!r}"),
        (unknown_hp, lambda i: f"unknown hyperparameter {hps[i]!r}"),
        (undeclared & ~unknown_hp,
         lambda i: f"value {values[i]!r} not declared for hyperparameter {hps[i]!r}"),
    )
    failing = np.logical_or.reduce([mask for mask, _ in rules]) & checked
    found = {i: [*block.found.get(i, ()), *(say(i) for mask, say in rules if checked[i] and mask[i])]
             for i in sorted({*np.flatnonzero(failing).tolist(), *block.found})}
    # A seed that is not valid makes no key, so it cannot collide.
    return key, value, checked & ~bad_seed, found


def _of_kind(column: Sequence, kind: type, excluded: type | tuple[type, ...] = ()) -> Sequence:
    """``column`` with None in place of each item that is not a ``kind``, or is
    an ``excluded``."""
    if all(issubclass(t, kind) and not issubclass(t, excluded) for t in set(map(type, column))):
        return column
    return [item if isinstance(item, kind) and not isinstance(item, excluded) else None for item in column]


def _encode(codes: dict, *columns: Sequence) -> np.ndarray:
    """Each row's code in ``codes`` for its cell in ``columns``, or for its
    tuple of cells when there are several. ``codes`` gives a name it lacks
    the next free code, so codes past the schema's stand for unknown names."""
    names = columns[0] if len(columns) == 1 else zip(*columns)
    found = np.fromiter(map(codes.get, names, repeat(-1)), np.int64, len(columns[0]))
    for row in np.flatnonzero(found < 0).tolist():
        name = columns[0][row] if len(columns) == 1 else tuple(column[row] for column in columns)
        found[row] = codes.setdefault(name, len(codes))
    return found


def _seed_keys(seeds: Sequence) -> np.ndarray:
    """Seeds as an array that orders and compares them as Python does: int64
    when every seed is an int that fits (numpy infers no other integer
    type from them), else the objects themselves."""
    keys = np.array(seeds)
    return keys if keys.dtype == np.int64 else np.array(seeds, dtype=object)


def _quoted(block: _Block, column: int, row: int) -> str:
    """The spelling a diagnostic quotes: the run-log cell, else the value."""
    return str(block.fields[column][row]) if block.cells is None else block.cells[column][row]


def _raise_problems(problems: Mapping[int, list[str]], rows: int, after: bool | DatasetError | None,
                    linenos: Sequence[int] | None, source: str | None) -> None:
    """Raise the problems of the ``rows`` read, by row, as a check of one row
    at a time reports them: it stops at the row after the one that brings
    them to ``MAX_DIAGNOSTICS``, noting so for a file, and a malformed line it
    reaches ends it with that line's error alone."""
    out: list[str] = []
    last = -1
    for row in sorted(problems):
        if len(out) >= MAX_DIAGNOSTICS:
            break
        prefix = "" if linenos is None else f"{source}:{linenos[row]}: "
        out.extend(prefix + problem for problem in problems[row])
        last = row
    if len(out) >= MAX_DIAGNOSTICS and (last < rows - 1 or after is True):
        if source is not None:
            out.append(f"{source}: stopping after {MAX_DIAGNOSTICS} problems")
    elif isinstance(after, DatasetError):
        raise after
    raise DatasetError(out)


def _convert(kind: type, text: str) -> int | float | None:
    try:
        return kind(text)
    except ValueError:
        return None


def _converted(kind: type, texts: Sequence[str], repeats: bool = False) -> list:
    """Each text converted by ``kind``, None where it fails; cell by cell
    only in a column where a conversion fails. With ``repeats`` (seeds, which
    every cell of a sweep repeats) each distinct text is converted once."""
    try:
        if repeats:
            distinct = set(texts)
            return list(map(dict(zip(distinct, map(kind, distinct))).__getitem__, texts))
        return list(map(kind, texts))
    except ValueError:
        return [_convert(kind, text) for text in texts]


_RECORD_FIELDS = attrgetter(*RUN_LOG_HEADER)


def _record_blocks(records: Iterable[RunRecord]) -> Iterator[_Block]:
    """Records given directly, ``BLOCK_LINES`` at a time."""
    records = iter(records)
    while chunk := list(islice(records, BLOCK_LINES)):
        yield _Block(list(zip(*map(_RECORD_FIELDS, chunk))), None, None, {})


def _header_line(stream: IO[str], source: str, header: tuple[str, ...], what: str) -> int:
    """Read through the first line that is not blank or a comment, check that
    it is ``header``, and return its line number. A byte-order mark that
    starts the stream is read past."""
    lines = chain([next(stream, "").removeprefix("\ufeff")], stream)
    for lineno, cells, _ in _rows(lines, 1, source, len(header)):
        if tuple(cells) != header:
            raise DatasetError([f"{source}:{lineno}: expected header {','.join(header)!r}, got {','.join(cells)!r}"])
        return lineno
    raise DatasetError([f"{source}: {what} is empty"])


def _rows(lines: Iterable[str], first: int, source: str,
          width: int) -> Iterator[tuple[int, list[str], list[str] | None]]:
    """Each line's number and cells, ``[cell.strip() for cell in
    next(csv.reader([line]))]``, numbering from ``first``, with its problem
    when it does not have ``width`` cells (None for none). Blank and comment
    lines are skipped; a malformed line raises."""
    for lineno, line in enumerate(lines, start=first):
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        try:
            cells = [cell.strip() for cell in next(csv.reader([line]))]
        except csv.Error as exc:
            raise DatasetError([f"{source}:{lineno}: malformed row: {exc}"]) from exc
        yield lineno, cells, None if len(cells) == width else [f"expected {width} columns, got {len(cells)}"]


def _plain(body: str, lines: int) -> bool:
    """Whether each of the ``lines`` lines of ``body`` is a plain 7-cell row:
    no quote, space or other unprintable character, not a comment, and six
    commas. Checked on the UTF-8 bytes, where an ASCII character is one byte."""
    raw = np.frombuffer(body.encode("utf-8", "surrogatepass"), np.uint8)
    if (((raw <= 0x20) & (raw != 0x0A)) | (raw == 0x22) | (raw == 0x7F)).any() \
            or not (body.isascii() or body.replace("\n", "").isprintable()):
        return False
    newlines, commas = np.flatnonzero(raw == 0x0A), np.flatnonzero(raw == 0x2C)
    # The 6k-th comma comes before the k-th line break and the next one after it.
    return (len(commas) == 6 * lines and (commas[5::6][:-1] < newlines).all()
            and (newlines < commas[6::6]).all() and raw[0] != 0x23 and not (raw[newlines + 1] == 0x23).any())


# Fields of a row with the wrong number of cells, which no rule checks.
_PLACEHOLDER = ("?",) * 5 + ("0", "0")


def _run_log_blocks(stream: IO[str], source: str) -> Iterator[_Block]:
    """The run log's rows after its checked header, ``BLOCK_LINES`` lines at a
    time: a block of plain 7-cell rows is split into columns at once, any
    other goes line by line. Parsing checks what needs the text: the column
    count and int/float conversion."""
    limit = csv.field_size_limit()
    lineno = _header_line(stream, source, RUN_LOG_HEADER, "run log")
    while lines := list(islice(stream, BLOCK_LINES)):
        first, lineno = lineno + 1, lineno + len(lines)
        body = "".join(lines)
        body = body[:-1] if body[-1] == "\n" else body
        # A line is no longer than the block; only a long block needs each line measured.
        if _plain(body, len(lines)) and (len(body) < limit or max(map(len, lines)) <= limit):
            cells = body.replace("\n", ",").split(",")
            block = _text_block([cells[k::7] for k in range(7)], range(first, lineno + 1), {})
            del lines, body, cells
            yield block
            del block
            continue
        rows, linenos, found, unchecked, error = [], [], {}, [], None
        try:
            for number, row, problem in _rows(lines, first, source, len(RUN_LOG_HEADER)):
                if problem:
                    found[len(rows)] = problem
                    unchecked.append(len(rows))
                    row = _PLACEHOLDER
                rows.append(row)
                linenos.append(number)
        except DatasetError as exc:
            error = exc
        yield _text_block(list(zip(*rows)) or [()] * 7, linenos, found, unchecked, error)
        if error is not None:
            return
        # Read the next block holding no text of this one.
        del lines, body, rows


def _text_block(cells: list[Sequence[str]], linenos: Sequence[int], found: dict[int, list[str]],
                unchecked: Sequence[int] = (), error: DatasetError | None = None) -> _Block:
    """A block of run-log cells by column, with seeds and scores converted."""
    fields = [*cells[:5], _converted(int, cells[5], repeats=True), _converted(float, cells[6])]
    return _Block(fields, cells, linenos, found, unchecked, error)


def parse_dataset(run_log: IO[str], baselines: IO[str], schema: SweepSchema) -> SweepDataset:
    """Parse and validate a run log and baseline table against a schema.

    Parsing checks what needs the text: the header, the column count, and
    int/float conversion. A byte-order mark that starts either stream is read
    past. The rows then pass once through the rules that direct construction
    of :class:`BaselineTable` and :class:`SweepDataset` applies, the
    empty-identifier rule among them. Raises :class:`DatasetError` carrying one
    diagnostic per problem, prefixed ``source:lineno:``; a bad baseline table
    is reported before the run log is read.
    """
    base_source = getattr(baselines, "name", "<baselines>")
    start = _header_line(baselines, base_source, BASELINES_HEADER, "baseline table")
    rows = ((lineno, found, None if found else (cells[0], _convert(float, cells[1]), _convert(float, cells[2])))
            for lineno, cells, found in _rows(baselines, start + 1, base_source, len(BASELINES_HEADER)))
    table = BaselineTable._parsed(rows, base_source)
    run_source = getattr(run_log, "name", "<run log>")
    return SweepDataset._parsed(_run_log_blocks(run_log, run_source), table, schema, run_source)


def load_dataset(run_log_path: str | Path, baselines_path: str | Path,
                 schema_path: str | Path | None = None) -> SweepDataset:
    """File-path convenience wrapper around :func:`parse_dataset`.

    With no schema path the bundled Atari DER/DrQ(eps) schema is used. Both
    files are read as UTF-8.
    """
    schema = bundled_schema() if schema_path is None else load_schema(schema_path)
    with open(run_log_path, encoding="utf-8") as run_log, \
            open(baselines_path, encoding="utf-8") as baselines:
        return parse_dataset(run_log, baselines, schema)


def slice_scores(
    dataset: SweepDataset,
    hyperparameter: str,
    agent: str,
    data_regime: str,
) -> Mapping[str, Mapping[str, tuple[float, ...]]]:
    """One hyper-parameter's per-seed final scores for one (agent, data
    regime) pair, grouped by environment and then by value.

    Read-only, from the pair's groups in the dataset's (cell, seed) sort:
    only groups that were run appear, environments and values in schema
    order, and each group's scores are ordered by seed. Raises ``KeyError``
    for an undeclared hyper-parameter and :class:`EmptySliceError` when the
    pair has no runs of it at all.
    """
    schema = dataset.schema
    if hyperparameter not in schema.hyperparameters:
        raise KeyError(f"hyperparameter {hyperparameter!r} is not declared in the schema")
    context = {"agent": agent, "data_regime": data_regime}
    if not dataset._labels_with_runs(hyperparameter, Axis.AGENT, context):
        raise EmptySliceError(f"no records for hyperparameter {hyperparameter!r} in context {context}")
    values, scores = schema.hyperparameters[hyperparameter], dataset._sorted
    env, value = np.divmod(np.arange(len(schema.environments) * len(values)), len(values))
    starts, sizes = dataset._groups_at(schema.agents.index(agent), env, schema.data_regimes.index(data_regime),
                                       dataset._first[hyperparameter] + value)
    node: dict = {}
    for e, v, start, size in zip(env.tolist(), value.tolist(), starts.tolist(), sizes.tolist()):
        if size:
            node.setdefault(schema.environments[e], {})[values[v]] = tuple(scores[start:start + size].tolist())
    return MappingProxyType({env: MappingProxyType(by_value) for env, by_value in node.items()})


# -- schema and dataset serialization ---------------------------------------


def load_schema(source: str | Path | IO[str]) -> SweepSchema:
    """Read a schema config document (YAML mapping).

    Keys: ``agents``, ``environments``, ``data_regimes`` (lists of
    identifiers), ``hyperparameters`` (mapping of name to value list), and
    optional ``defaults`` (mapping of name to value). Quote values that must
    keep an exact spelling, e.g. ``"0.50"`` or ``"None"``. Unknown keys are
    reported with the schema's own problems, each prefixed with the file name.
    """
    doc, name = _load_yaml(source, "<schema>", lambda line: DatasetError([line]))
    if not isinstance(doc, dict):
        raise DatasetError([f"{name}: schema document must be a mapping"])
    unknown = set(doc) - {f.name for f in fields(SweepSchema)}
    problems = [f"unknown schema keys: {sorted(unknown, key=str)}"] if unknown else []
    try:
        schema = SweepSchema(**{key: doc.get(key) for key in (*_SCHEMA_LIST_KEYS, "hyperparameters")},
                             defaults=doc.get("defaults", {}))
    except DatasetError as exc:
        problems += exc.diagnostics
    if problems:
        raise DatasetError([f"{name}: {line}" for line in problems])
    return schema


def _load_yaml(source: str | Path | IO[str], default_name: str,
               error: Callable[[str], Exception] = ValueError) -> tuple[Any, str]:
    """A path's or stream's YAML document, parsed by libyaml when PyYAML has it, and its
    name. Malformed YAML raises ``error("<name>: malformed YAML at line L, column C: ...")``."""
    if not hasattr(source, "read"):
        with open(source, encoding="utf-8") as handle:
            return _load_yaml(handle, str(source), error)
    name = str(getattr(source, "name", default_name))
    try:
        return yaml.load(source, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader)), name
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise error(f"{name}: malformed YAML{where}: {getattr(exc, 'problem', None) or exc}") from exc


def bundled_schema() -> SweepSchema:
    """The schema shipped with the package: DER and DrQ(eps) value sweeps on
    the 26-game Atari 100k suite at 100k and 40M budgets."""
    ref = resources.files("thckit").joinpath("data/atari_der_drq.yaml")
    with ref.open("r", encoding="utf-8") as handle:
        return load_schema(handle)


def bundled_schema_bytes() -> bytes:
    """Raw bytes of the bundled schema document, for provenance digests."""
    return resources.files("thckit").joinpath("data/atari_der_drq.yaml").read_bytes()


def dump_schema(schema: SweepSchema, stream: IO[str]) -> None:
    doc: dict[str, Any] = {key: list(getattr(schema, key)) for key in _SCHEMA_LIST_KEYS}
    doc["hyperparameters"] = {hp: list(values) for hp, values in schema.hyperparameters.items()}
    if schema.defaults:
        doc["defaults"] = dict(schema.defaults)
    yaml.safe_dump(doc, stream, sort_keys=False, default_flow_style=False, allow_unicode=True)


def write_run_log(dataset: SweepDataset, stream: IO[str]) -> None:
    """Emit records in the run-log format; floats keep full precision so a
    round trip reproduces the dataset exactly."""
    stream.write(",".join(RUN_LOG_HEADER) + "\n")
    writer = csv.writer(stream, lineterminator="\n")
    *keys, scores = dataset._columns()
    writer.writerows(zip(*keys, map(repr, scores)))


def write_baselines(dataset: SweepDataset, stream: IO[str]) -> None:
    stream.write(",".join(BASELINES_HEADER) + "\n")
    writer = csv.writer(stream, lineterminator="\n")
    for env in sorted(dataset.baselines.environments):
        writer.writerow([env,
                         repr(float(dataset.baselines.random_score(env))),
                         repr(float(dataset.baselines.human_score(env)))])
