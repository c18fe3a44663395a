"""Shared fixture builders.

Most end-to-end tests need a dataset whose per-(value, context) aggregation
interval is known in advance. With two seeds placed at mu -/+ d, where
d = width / (2 * sqrt(2)), the sample mean is mu and the sample standard
deviation is width / 2, so the mean +/- sd interval source reproduces the
requested (lower, upper) interval up to float rounding. Zero-width requests
place both seeds at mu, which also makes the bootstrap interval degenerate
at mu.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path
from types import MappingProxyType
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, Sequence

import pytest
import yaml
from hypothesis import settings

from thckit import (
    BaselineTable,
    RunRecord,
    SweepDataset,
    SweepSchema,
)
from thckit.consistency import CellTable
from thckit.dataset import (
    MAX_DIAGNOSTICS,
    RUN_LOG_HEADER,
    DatasetError,
    dump_schema,
    write_baselines,
    write_run_log,
)
from thckit.ranking import RankingMode

# More examples for the ranking property suites; select with
# ``--hypothesis-profile=ci``.
settings.register_profile("ci", max_examples=2000, deadline=None)

Cells = Mapping[str, Mapping[str, Mapping[str, tuple[float, float]]]]


def seeds_for_interval(lower: float, upper: float) -> tuple[float, float]:
    """Two scores whose mean +/- sample sd is (lower, upper)."""
    mid = (lower + upper) / 2.0
    d = (upper - lower) / (2.0 * math.sqrt(2.0))
    return (mid - d, mid + d)


def dataset_from_intervals(cells: Cells, agent: str = "agent01",
                           data_regime: str = "regime01") -> SweepDataset:
    """Build a dataset realizing ``cells[hp][value][env] = (lower, upper)``.

    Environments play the context role; baselines are random=0, human=1 so
    normalization is the identity. Declared value order follows dict order.
    """
    environments: list[str] = []
    for value_map in cells.values():
        for env_map in value_map.values():
            for env in env_map:
                if env not in environments:
                    environments.append(env)

    records = []
    for hp, value_map in cells.items():
        for value, env_map in value_map.items():
            for env, (lower, upper) in env_map.items():
                for seed, score in enumerate(seeds_for_interval(lower, upper)):
                    records.append(RunRecord(agent, env, data_regime, hp, value, seed, score))

    schema = SweepSchema(
        agents=(agent,),
        environments=tuple(environments),
        data_regimes=(data_regime,),
        hyperparameters={hp: tuple(value_map) for hp, value_map in cells.items()},
    )
    baselines = BaselineTable({env: (0.0, 1.0) for env in environments})
    return SweepDataset(records, baselines, schema)


def strict_order_intervals(labels_best_first: list[str]) -> dict[str, tuple[float, float]]:
    """Disjoint descending intervals so ranks are 1..m in the given order."""
    out = {}
    top = 100.0
    for label in labels_best_first:
        out[label] = (top - 10.0, top)
        top -= 30.0
    return out


# Interval layouts realizing the two reference rank trajectories used by the
# scoring oracles: hyperparameter "ha" has per-context ranks
# [[1,1,2,1,3],[2,3,2,3,2],[3,2,2,2,1]] and "hb" has
# [[1,2,1,2,1],[2,1,2,1,2],[3,3,3,3,3]] over the same five contexts.
def reference_trajectory_cells() -> Cells:
    tie_all = {"a": (50.0, 60.0), "b": (50.0, 60.0), "c": (50.0, 60.0)}
    ha = {
        "g1": strict_order_intervals(["a", "b", "c"]),
        "g2": strict_order_intervals(["a", "c", "b"]),
        "g3": tie_all,
        "g4": strict_order_intervals(["a", "c", "b"]),
        "g5": strict_order_intervals(["c", "b", "a"]),
    }
    hb = {
        "g1": strict_order_intervals(["a", "b", "c"]),
        "g2": strict_order_intervals(["b", "a", "c"]),
        "g3": strict_order_intervals(["a", "b", "c"]),
        "g4": strict_order_intervals(["b", "a", "c"]),
        "g5": strict_order_intervals(["a", "b", "c"]),
    }
    # regroup as cells[hp][value][env]
    cells: dict[str, dict[str, dict[str, tuple[float, float]]]] = {"ha": {}, "hb": {}}
    for hp, per_env in (("ha", ha), ("hb", hb)):
        for value in ("a", "b", "c"):
            cells[hp][value] = {env: mapping[value] for env, mapping in per_env.items()}
    return cells


@pytest.fixture
def reference_dataset() -> SweepDataset:
    return dataset_from_intervals(reference_trajectory_cells())


def write_dataset_files(dataset: SweepDataset, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "runs": directory / "runs.csv",
        "baselines": directory / "baselines.csv",
        "schema": directory / "schema.yaml",
    }
    with open(paths["runs"], "w", encoding="utf-8", newline="") as fh:
        write_run_log(dataset, fh)
    with open(paths["baselines"], "w", encoding="utf-8", newline="") as fh:
        write_baselines(dataset, fh)
    with open(paths["schema"], "w", encoding="utf-8") as fh:
        dump_schema(dataset.schema, fh)
    return paths


@pytest.fixture(params=["libyaml", "pure-python"])
def yaml_loader(request, monkeypatch):
    """Run a test with PyYAML's libyaml loader, then with its pure-Python one."""
    if request.param == "libyaml":
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
    else:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    return request.param


def rankable_cells(cells: CellTable, hp: str, agent: str, data_regime: str,
                   environment: str | None = None) -> dict[str, tuple[tuple[float, float], float]]:
    """The rankable cells of one context of a ``CellTable``, value ->
    ``((lower, upper), point)`` in schema order, read from its ``context_arrays``."""
    arrays = cells.context_arrays(hp, agent, data_regime, environment).tolist()
    return {value: ((lo, up), pt) for value, lo, up, pt
            in zip(cells.dataset.schema.hyperparameters[hp], *arrays) if not math.isnan(lo)}


NON_CONTIGUOUS = ("setting %r overlaps a non-contiguous position set %s; "
                  "overlap-mode rank %.3f differs from span rank %.3f")


def reference_rankings(
    contexts: Sequence[Sequence[tuple[str, tuple[float, float]]]],
    mode: RankingMode = RankingMode.SPAN,
) -> tuple[list[list[tuple[str, int, float]]], list[str]]:
    """Oracle for the rank layer: each context's ``(label, (lower, upper))``
    settings ranked on their own, setting by setting, with linear scans.

    Returns, per context, the ``(label, initial_rank, final_rank)`` triples
    in rank order, and the INFO messages overlap mode logs for
    non-contiguous overlap sets, in logging order.
    """
    tables, messages = [], []
    for settings_list in contexts:
        ordered = sorted(settings_list, key=lambda s: (-s[1][1], -s[1][0], s[0]))
        m = len(ordered)
        uppers = [upper for _, (_, upper) in ordered]
        lowers = [lower for _, (lower, _) in ordered]
        entries = []
        for pos0, (label, (lower, upper)) in enumerate(ordered):
            l = next(p for p in range(m) if lowers[p] <= upper) + 1
            u = next(p for p in reversed(range(m)) if uppers[p] >= lower) + 1
            if RankingMode(mode) is RankingMode.SPAN:
                final = (l + u) / 2.0
            else:
                # Closed intervals overlap when they share at least one point.
                members = [p + 1 for p in range(m) if lower <= uppers[p] and lowers[p] <= upper]
                if members != list(range(members[0], members[-1] + 1)):
                    messages.append(NON_CONTIGUOUS % (
                        label, members, sum(members) / len(members), (l + u) / 2.0))
                final = sum(members) / len(members)
            entries.append((label, pos0 + 1, final))
        tables.append(entries)
    return tables, messages


# -- reference ingest ---------------------------------------------------------
# The one-row-at-a-time run-log ingest that the columnar one replaced, kept
# unchanged as the oracle for tests/test_dataset.py: the line tokeniser, the
# per-row conversions, the per-row rules in diagnostic order, and the index of
# seed-sorted leaves nested in first-seen order.


def _reference_convert(kind: type, text: str) -> int | float | None:
    if "_" in text or any(ord(ch) > 127 for ch in text):
        return None
    try:
        return kind(text)
    except ValueError:
        return None


def _reference_cell(cells: list[str] | None, column: int, value: object) -> str:
    return str(value) if cells is None else cells[column]


def _reference_file_rows(stream: IO[str], source: str, header: tuple[str, ...], what: str,
                         make: Callable[[list[str]], tuple[list[str] | None, Any]]) -> Iterator[tuple]:
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


def _reference_run_log_entry(cells: list[str]) -> tuple[list[str] | None, tuple]:
    agent, env, regime, hp, value, seed, score = cells
    intern = sys.intern
    return None, (intern(agent), intern(env), intern(regime), intern(hp), intern(value),
                  _reference_convert(int, seed), _reference_convert(float, score))


def _reference_admit(rows: Iterable[tuple], baselines: BaselineTable, schema: SweepSchema,
                     source: str | None = None) -> tuple[tuple, Mapping]:
    agents = frozenset(schema.agents)
    environments = frozenset(schema.environments)
    regimes = frozenset(schema.data_regimes)
    declared = {hp: frozenset(values) for hp, values in schema.hyperparameters.items()}
    with_baselines = frozenset(baselines.scores)
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
                problems.append(f"column 'seed' must be a non-negative integer, got {_reference_cell(cells, 5, seed)!r}")
            if score is None:
                problems.append(f"column 'final_score' is not a number: {_reference_cell(cells, 6, None)!r}")
            elif not math.isfinite(score):
                problems.append(f"column 'final_score' must be finite, got {_reference_cell(cells, 6, score)!r}")
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
            if seed_ok:
                key = (agent, env, regime, hp, value, seed)
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
    return tuple(runs), _reference_freeze(leaves)


def _reference_freeze(leaves: dict[tuple, list[tuple[int, float]]]) -> Mapping:
    index: dict = {}
    for (hp, agent, regime, env, value), runs in leaves.items():
        runs.sort()
        index.setdefault(hp, {}).setdefault((agent, regime), {}).setdefault(env, {})[value] = \
            tuple([score for _, score in runs])
    return _reference_read_only(index)


def _reference_read_only(node: dict) -> Mapping:
    return MappingProxyType({key: _reference_read_only(child) if isinstance(child, dict) else child
                             for key, child in node.items()})


def reference_parse(run_log: IO[str], baselines: BaselineTable,
                    schema: SweepSchema) -> tuple[tuple[tuple[tuple, float], ...], Mapping]:
    """Oracle for the ingest layer: a run log read one row at a time.

    Returns the runs as ``(key, final_score)`` pairs in input order and the
    index, or raises :class:`DatasetError` with the diagnostics
    :func:`thckit.dataset.parse_dataset` must give.
    """
    source = getattr(run_log, "name", "<run log>")
    rows = _reference_file_rows(run_log, source, RUN_LOG_HEADER, "run log", _reference_run_log_entry)
    return _reference_admit(rows, baselines, schema, source)
