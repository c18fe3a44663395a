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

import math
from pathlib import Path
from typing import Mapping, Sequence

import pytest
import yaml
from hypothesis import settings

from thckit import (
    BaselineTable,
    RunRecord,
    SweepDataset,
    SweepSchema,
)
from thckit.dataset import dump_schema, write_baselines, write_run_log
from thckit.ranking import RankingMode
from thckit.stats import Interval

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


NON_CONTIGUOUS = ("setting %r overlaps a non-contiguous position set %s; "
                  "overlap-mode rank %.3f differs from span rank %.3f")


def reference_rankings(
    contexts: Sequence[Sequence[tuple[str, Interval]]],
    mode: RankingMode = RankingMode.SPAN,
) -> tuple[list[list[tuple[str, int, float]]], list[str]]:
    """Oracle for the rank layer: each context ranked on its own, setting by
    setting, with linear scans.

    Returns, per context, the ``(label, initial_rank, final_rank)`` triples
    in rank order, and the INFO messages overlap mode logs for
    non-contiguous overlap sets, in logging order.
    """
    tables, messages = [], []
    for settings_list in contexts:
        ordered = sorted(settings_list, key=lambda s: (-s[1].upper, -s[1].lower, s[0]))
        m = len(ordered)
        uppers = [iv.upper for _, iv in ordered]
        lowers = [iv.lower for _, iv in ordered]
        entries = []
        for pos0, (label, interval) in enumerate(ordered):
            l = next(p for p in range(m) if lowers[p] <= interval.upper) + 1
            u = next(p for p in reversed(range(m)) if uppers[p] >= interval.lower) + 1
            if RankingMode(mode) is RankingMode.SPAN:
                final = (l + u) / 2.0
            else:
                members = [p + 1 for p in range(m) if interval.overlaps(ordered[p][1])]
                if members != list(range(members[0], members[-1] + 1)):
                    messages.append(NON_CONTIGUOUS % (
                        label, members, sum(members) / len(members), (l + u) / 2.0))
                final = sum(members) / len(members)
            entries.append((label, pos0 + 1, final))
        tables.append(entries)
    return tables, messages
