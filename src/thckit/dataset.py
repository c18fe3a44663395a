"""Experiment sweep data model: run logs, baselines, schemas, and slicing.

A sweep is stored in long form, one row per training run, keyed by
``(agent, environment, data_regime, hyperparameter, value, seed)``. The
resulting :class:`SweepDataset` is immutable and safe to share.

Each rule is stated once: the run-record rules in ``SweepDataset._admit``,
the baseline rules in ``_admit_baselines``. Direct construction of a
:class:`SweepDataset` or :class:`BaselineTable` applies them and reports
unprefixed diagnostics; :func:`parse_dataset` checks only what needs the
text and sends each row through them once, prefixed ``source:lineno:``.

Parsing is one pass over the stream's lines. A line is split on commas
with ``str.split`` and its cells are stripped only when it holds
whitespace; a line holding a quote character, a NUL or a carriage return
(or longer than ``csv.field_size_limit()``) goes through :mod:`csv`
instead, so every line gives the cells that
``[cell.strip() for cell in next(csv.reader([line]))]`` gives, or the same
``malformed row`` diagnostic. The rules check each row against sets built
once per dataset from the schema and the baselines.

While admitting rows, the dataset keeps each run as a compact tuple in
input order, with identifier cells interned so that all runs share one
string per identifier, and builds one read-only index of its runs:
``hyperparameter -> (agent, data_regime) -> environment -> value -> scores``,
with each leaf a tuple of final scores ordered by seed. Only combinations
that were run appear in it. :func:`slice_scores` returns one
``(agent, data_regime)`` node of it; callers take their output order from
the schema, never from the index. ``SweepDataset.records``, the runs as
:class:`RunRecord` objects, is built the first time it is read.

Hyper-parameter values are opaque strings compared by exact match. ``"0.5"``
and ``"0.50"`` are different settings on purpose: ranking only needs
identity, and numeric coercion silently corrupts keys.
"""

from __future__ import annotations

import csv
import enum
import math
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, Sequence

import yaml

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
    """Per-environment random and human reference scores."""

    scores: Mapping[str, tuple[float, float]]

    def __post_init__(self) -> None:
        _admit_baselines((None, None, None, (env, *pair)) for env, pair in self.scores.items())

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


def _admit_baselines(rows: Iterable[tuple], source: str | None = None) -> dict[str, tuple[float, float]]:
    """Apply every baseline rule once per row and return the scores by
    environment. ``rows`` are as ``SweepDataset._admit`` reads them, with
    ``(environment, random, human)`` items; a row gets at most one problem."""
    problems: list[str] = []
    scores: dict[str, tuple[float, float]] = {}
    for lineno, _, found, entry in rows:
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
    """Canonical string for a schema scalar. Strings pass through untouched;
    quote values in the config to control the exact spelling."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class SweepSchema:
    """Declared identifier vocabularies a dataset is validated against."""

    agents: tuple[str, ...]
    environments: tuple[str, ...]
    data_regimes: tuple[str, ...]
    hyperparameters: Mapping[str, tuple[str, ...]]
    defaults: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        problems = []
        for name, values in (("agents", self.agents),
                             ("environments", self.environments),
                             ("data_regimes", self.data_regimes)):
            if not values:
                problems.append(f"schema key {name!r} must list at least one identifier")
            if len(set(values)) != len(values):
                problems.append(f"schema key {name!r} contains duplicates")
        if not self.hyperparameters:
            problems.append("schema must declare at least one hyperparameter")
        for hp, values in self.hyperparameters.items():
            if not values:
                problems.append(f"hyperparameter {hp!r} declares no values")
            if len(set(values)) != len(values):
                problems.append(f"hyperparameter {hp!r} declares duplicate values")
        for hp in self.defaults:
            if hp not in self.hyperparameters:
                problems.append(f"default given for undeclared hyperparameter {hp!r}")
        if problems:
            raise DatasetError(problems)

    def axis_values(self, axis: Axis) -> tuple[str, ...]:
        return {
            Axis.AGENT: self.agents,
            Axis.ENVIRONMENT: self.environments,
            Axis.DATA_REGIME: self.data_regimes,
        }[Axis(axis)]


def _freeze(leaves: dict[tuple, list[tuple[int, float]]]) -> Mapping:
    """Read-only index from ``(hyperparameter, agent, data_regime,
    environment, value) -> [(seed, score), ...]`` leaves, nested in the
    order the leaves were first seen; each leaf becomes a tuple of scores
    ordered by seed."""
    index: dict = {}
    for (hp, agent, regime, env, value), runs in leaves.items():
        runs.sort()
        index.setdefault(hp, {}).setdefault((agent, regime), {}).setdefault(env, {})[value] = \
            tuple([score for _, score in runs])
    return _read_only(index)


def _read_only(node: dict) -> Mapping:
    return MappingProxyType({key: _read_only(child) if isinstance(child, dict) else child
                             for key, child in node.items()})


class SweepDataset:
    """Validated, immutable collection of run records plus baselines.

    ``index`` maps hyperparameter -> (agent, data_regime) -> environment ->
    value -> seed-ordered scores, holding only combinations that were run.
    ``records`` holds the runs in input order and is built on first read.
    """

    __slots__ = ("_runs", "_records", "baselines", "schema", "index")

    def __init__(self, records: Iterable[RunRecord], baselines: BaselineTable, schema: SweepSchema):
        self._admit(((None, None, None, (*rec.key, rec.final_score)) for rec in records), baselines, schema)

    @classmethod
    def _parsed(cls, rows: Iterable[tuple], baselines: BaselineTable, schema: SweepSchema,
                source: str) -> SweepDataset:
        """Dataset from parsed rows, which pass through the rules only here."""
        dataset = cls.__new__(cls)
        dataset._admit(rows, baselines, schema, source)
        return dataset

    def _admit(self, rows: Iterable[tuple], baselines: BaselineTable, schema: SweepSchema,
               source: str | None = None) -> None:
        """Apply every run-record rule once per row, in diagnostic order, and
        index the rows that pass. ``rows`` yields ``(lineno, cells, found,
        fields)``: ``lineno`` and ``cells`` locate a file row and are None
        for a record given directly, ``found`` is None or the problems
        parsing found, and ``fields`` is a record's seven fields in run-log
        column order, with None for a cell that did not convert, or None
        for a row with the wrong number of cells. Each row's problems are
        appended to ``problems`` as they are found; the rows that have none
        are kept as ``(key, final_score)`` pairs."""
        agents = frozenset(schema.agents)
        environments = frozenset(schema.environments)
        regimes = frozenset(schema.data_regimes)
        declared = {hp: frozenset(values) for hp, values in schema.hyperparameters.items()}
        with_baselines = frozenset(baselines.environments)
        runs: list[tuple[tuple, float]] = []
        problems: list[str] = []
        seen: set[tuple] = set()
        leaves: dict[tuple, list[tuple[int, float]]] = {}
        for lineno, cells, found, fields in rows:
            mark = len(problems)
            if mark >= MAX_DIAGNOSTICS:
                if source is not None:
                    problems.append(f"{source}: stopping after {MAX_DIAGNOSTICS} problems")
                break
            if found:
                problems.extend(found)
            if fields is not None:
                agent, env, regime, hp, value, seed, score = fields
                seed_ok = seed is not None and seed >= 0
                if not seed_ok:
                    problems.append(f"column 'seed' must be a non-negative integer, got {_cell(cells, 5, seed)!r}")
                if score is None:
                    problems.append(f"column 'final_score' is not a number: {_cell(cells, 6, None)!r}")
                elif not math.isfinite(score):
                    problems.append(f"column 'final_score' must be finite, got {_cell(cells, 6, score)!r}")
                if agent not in agents:
                    problems.append(f"unknown agent {agent!r}")
                if env not in environments:
                    problems.append(f"unknown environment {env!r}")
                elif env not in with_baselines:
                    problems.append(f"no baseline scores for environment {env!r}")
                if regime not in regimes:
                    problems.append(f"unknown data_regime {regime!r}")
                values = declared.get(hp)
                if values is None:
                    problems.append(f"unknown hyperparameter {hp!r}")
                elif value not in values:
                    problems.append(f"value {value!r} not declared for hyperparameter {hp!r}")
                # A seed that is not valid makes no key, so it cannot collide.
                if seed_ok:
                    key = (agent, env, regime, hp, value, seed)
                    # One hash of the key: the set grows unless it held it.
                    held = len(seen)
                    seen.add(key)
                    if len(seen) == held:
                        problems.append(f"duplicate record key {key}")
            if len(problems) > mark:
                if lineno is not None:
                    prefix = f"{source}:{lineno}: "
                    problems[mark:] = [prefix + problem for problem in problems[mark:]]
                continue
            runs.append((key, score))
            cell = (hp, agent, regime, env, value)
            leaf = leaves.get(cell)
            if leaf is None:
                leaves[cell] = [(seed, score)]
            else:
                leaf.append((seed, score))
        if problems:
            raise DatasetError(problems)

        object.__setattr__(self, "_runs", tuple(runs))
        object.__setattr__(self, "_records", None)
        object.__setattr__(self, "baselines", baselines)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "index", _freeze(leaves))

    @property
    def records(self) -> tuple[RunRecord, ...]:
        """Every run in input order, built the first time it is read."""
        if self._records is None:
            object.__setattr__(self, "_records", tuple([RunRecord(*key, score) for key, score in self._runs]))
        return self._records

    def __setattr__(self, name, value):
        raise AttributeError("SweepDataset is immutable")

    def __len__(self) -> int:
        return len(self._runs)

    def __eq__(self, other: object) -> bool:
        """Equal when both hold the same runs, in any order, and the same
        baselines and schema."""
        if not isinstance(other, SweepDataset):
            return NotImplemented
        return (len(self._runs) == len(other._runs)
                and dict(self._runs) == dict(other._runs)
                and self.baselines == other.baselines
                and self.schema == other.schema)


def _cell(cells: list[str] | None, column: int, value: object) -> str:
    """The spelling a diagnostic quotes: the run-log cell, else the value."""
    return str(value) if cells is None else cells[column]


def _convert(kind: type, text: str) -> int | float | None:
    try:
        return kind(text)
    except ValueError:
        return None


def _file_rows(stream: IO[str], source: str, header: tuple[str, ...], what: str,
               make: Callable[[list[str]], tuple[list[str] | None, Any]]) -> Iterator[tuple]:
    """Rows after a checked header line, as ``SweepDataset._admit`` reads
    them; ``make(cells)`` gives a row's text problems (None for none) and
    item. See the module docstring for how a line is split into cells."""
    columns = len(header)
    limit = csv.field_size_limit()
    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        if '"' in line or "\0" in line or "\r" in line or len(line) > limit:
            try:
                cells = [cell.strip() for cell in next(csv.reader([line]))]
            except csv.Error as exc:
                raise DatasetError([f"{source}:{lineno}: malformed row: {exc}"]) from exc
        elif " " not in stripped and stripped.isprintable():
            # Every whitespace character but the space is unprintable.
            cells = stripped.split(",")
        else:
            cells = [cell.strip() for cell in stripped.split(",")]
        if header:
            if tuple(cells) != header:
                raise DatasetError([f"{source}:{lineno}: expected header {','.join(header)!r}, got {','.join(cells)!r}"])
            header = ()
        elif len(cells) != columns:
            yield lineno, cells, [f"expected {columns} columns, got {len(cells)}"], None
        else:
            yield (lineno, cells, *make(cells))
    if header:
        raise DatasetError([f"{source}: {what} is empty"])


def _run_log_entry(cells: list[str]) -> tuple[list[str] | None, tuple]:
    agent, env, regime, hp, value, seed, score = cells
    empty = None
    if not (agent and env and regime and hp and value):
        empty = [f"empty column {RUN_LOG_HEADER[i]!r}" for i in range(5) if not cells[i]]
    # Interned, all rows that name an identifier share one string object.
    intern = sys.intern
    return empty, (intern(agent), intern(env), intern(regime), intern(hp), intern(value),
                   _convert(int, seed), _convert(float, score))


def parse_dataset(run_log: IO[str], baselines: IO[str], schema: SweepSchema) -> SweepDataset:
    """Parse and validate a run log and baseline table against a schema.

    Parsing checks what needs the text: the header, the column count, empty
    identifiers, and int/float conversion. Each row then passes once through
    the rules that direct construction of :class:`BaselineTable` and
    :class:`SweepDataset` applies. Raises :class:`DatasetError` carrying one
    diagnostic per problem, prefixed ``source:lineno:``; a bad baseline table
    is reported before the run log is read.
    """
    base_source = getattr(baselines, "name", "<baselines>")
    rows = _file_rows(baselines, base_source, BASELINES_HEADER, "baseline table",
                      lambda cells: (None, (cells[0], _convert(float, cells[1]), _convert(float, cells[2]))))
    table = BaselineTable._parsed(rows, base_source)
    run_source = getattr(run_log, "name", "<run log>")
    rows = _file_rows(run_log, run_source, RUN_LOG_HEADER, "run log", _run_log_entry)
    return SweepDataset._parsed(rows, table, schema, run_source)


def load_dataset(run_log_path: str | Path, baselines_path: str | Path,
                 schema_path: str | Path | None = None) -> SweepDataset:
    """File-path convenience wrapper around :func:`parse_dataset`.

    With no schema path the bundled Atari DER/DrQ(eps) schema is used.
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

    The result is the read-only index node: only groups that were run
    appear, and within a group, scores are ordered by seed. Raises
    ``KeyError`` for an undeclared hyper-parameter and
    :class:`EmptySliceError` when the pair has no runs of it at all.
    """
    if hyperparameter not in dataset.schema.hyperparameters:
        raise KeyError(f"hyperparameter {hyperparameter!r} is not declared in the schema")
    try:
        return dataset.index[hyperparameter][agent, data_regime]
    except KeyError:
        context = {"agent": agent, "data_regime": data_regime}
        raise EmptySliceError(
            f"no records for hyperparameter {hyperparameter!r} in context {context}"
        ) from None


# -- schema and dataset serialization ---------------------------------------

_SCHEMA_LIST_KEYS = ("agents", "environments", "data_regimes")


def load_schema(source: str | Path | IO[str]) -> SweepSchema:
    """Read a schema config document (YAML mapping).

    Keys: ``agents``, ``environments``, ``data_regimes`` (lists of
    identifiers), ``hyperparameters`` (mapping of name to value list), and
    optional ``defaults`` (mapping of name to value). Quote values that must
    keep an exact spelling, e.g. ``"0.50"`` or ``"None"``.
    """
    doc, name = _load_yaml(source, "<schema>", lambda line: DatasetError([line]))
    return _schema_from_mapping(doc, name)


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


def _schema_from_mapping(doc: object, source: str) -> SweepSchema:
    if not isinstance(doc, dict):
        raise DatasetError([f"{source}: schema document must be a mapping"])
    problems = []
    lists: dict[str, tuple[str, ...]] = {}
    for key in _SCHEMA_LIST_KEYS:
        raw = doc.get(key)
        if not isinstance(raw, list):
            problems.append(f"{source}: schema key {key!r} must be a list")
            continue
        lists[key] = tuple(_stringify(v) for v in raw)
    raw_hps = doc.get("hyperparameters")
    if not isinstance(raw_hps, dict):
        problems.append(f"{source}: schema key 'hyperparameters' must be a mapping of name to value list")
        raw_hps = {}
    hps: dict[str, tuple[str, ...]] = {}
    for hp, values in raw_hps.items():
        if not isinstance(values, list):
            problems.append(f"{source}: hyperparameter {hp!r} must map to a list of values")
            continue
        hps[_stringify(hp)] = tuple(_stringify(v) for v in values)
    raw_defaults = doc.get("defaults", {})
    if not isinstance(raw_defaults, dict):
        problems.append(f"{source}: schema key 'defaults' must be a mapping")
        raw_defaults = {}
    defaults = {_stringify(k): _stringify(v) for k, v in raw_defaults.items()}
    if problems:
        raise DatasetError(problems)
    return SweepSchema(
        agents=lists["agents"],
        environments=lists["environments"],
        data_regimes=lists["data_regimes"],
        hyperparameters=hps,
        defaults=defaults,
    )


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
    doc = {
        "agents": list(schema.agents),
        "environments": list(schema.environments),
        "data_regimes": list(schema.data_regimes),
        "hyperparameters": {hp: list(values) for hp, values in schema.hyperparameters.items()},
    }
    if schema.defaults:
        doc["defaults"] = dict(schema.defaults)
    yaml.safe_dump(doc, stream, sort_keys=False, default_flow_style=False, allow_unicode=True)


def write_run_log(dataset: SweepDataset, stream: IO[str]) -> None:
    """Emit records in the run-log format; floats keep full precision so a
    round trip reproduces the dataset exactly."""
    stream.write(",".join(RUN_LOG_HEADER) + "\n")
    writer = csv.writer(stream, lineterminator="\n")
    for key, score in dataset._runs:
        writer.writerow([*key, repr(score)])


def write_baselines(dataset: SweepDataset, stream: IO[str]) -> None:
    stream.write(",".join(BASELINES_HEADER) + "\n")
    writer = csv.writer(stream, lineterminator="\n")
    for env in sorted(dataset.baselines.environments):
        writer.writerow([env,
                         repr(dataset.baselines.random_score(env)),
                         repr(dataset.baselines.human_score(env))])
