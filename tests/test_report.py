"""Report bundle tests: content tables, byte stability, manifest."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from thckit.consistency import (
    AssemblyOptions,
    IntervalSource,
    RankProfile,
    TransferSetup,
    build_consistency_report,
    rank_context,
)
from thckit.dataset import load_dataset
from thckit.ranking import RankingMode
from thckit.report import (
    _series_name,
    build_report_bundle,
    consistency_rows,
    entry_to_dict,
    file_digest,
    write_report_bundle,
)

from conftest import dataset_from_intervals, reference_trajectory_cells

MEAN_SD = AssemblyOptions(interval_source=IntervalSource.MEAN_SD)
ALL_SETUPS = (TransferSetup.ACROSS_AGENTS, TransferSetup.ACROSS_ENVIRONMENTS,
              TransferSetup.ACROSS_DATA_REGIMES)
FIXTURE = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def reference_dataset_cached():
    return dataset_from_intervals(reference_trajectory_cells())


def read_tree(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestTables:
    def test_entry_to_dict_kendall_keys(self, reference_dataset_cached):
        report, _ = build_consistency_report(
            reference_dataset_cached, TransferSetup.ACROSS_ENVIRONMENTS, MEAN_SD,
            include_kendall=True)
        with_kendall = entry_to_dict(report.entries[0], True)
        without = entry_to_dict(report.entries[0], False)
        assert "kendall_w" in with_kendall and "kendall_mean_tau" in with_kendall
        assert "kendall_w" not in without and "kendall_mean_tau" not in without
        assert without["hyperparameter"] == report.entries[0].hyperparameter

    def test_consistency_rows_undefined_marker(self, tmp_path):
        cells = {"hp": {"only": {"g1": (0.0, 1.0), "g2": (0.0, 1.0)}}}
        dataset = dataset_from_intervals(cells)
        report, _ = build_consistency_report(
            dataset, TransferSetup.ACROSS_ENVIRONMENTS, MEAN_SD, include_kendall=True)
        rows = consistency_rows(report, True)
        assert rows[0][-2:] == ["kendall_w", "kendall_mean_tau"]
        assert rows[1][-2:] == ["undefined", "undefined"]

    def test_consistency_rows_float_repr(self, reference_dataset_cached):
        report, _ = build_consistency_report(
            reference_dataset_cached, TransferSetup.ACROSS_ENVIRONMENTS, MEAN_SD)
        rows = consistency_rows(report, False)
        scores = {row[1]: row[5] for row in rows[1:]}
        assert scores["ha"] == repr(2.5 / 3)
        assert scores["hb"] == repr(1 / 3)


class TestBundle:
    def test_duplicate_setups_rejected(self, reference_dataset_cached):
        with pytest.raises(ValueError, match="duplicate"):
            build_report_bundle(reference_dataset_cached,
                                [TransferSetup.ACROSS_AGENTS, "agents"])

    def test_no_setups_rejected(self, reference_dataset_cached):
        # A bundle with no setup would write consistency.csv without its header.
        with pytest.raises(ValueError, match="no setups"):
            build_report_bundle(reference_dataset_cached, [])

    def test_provenance_flags(self, reference_dataset_cached):
        bundle = build_report_bundle(
            reference_dataset_cached, [TransferSetup.ACROSS_ENVIRONMENTS], MEAN_SD,
            inputs={"runs": "abc"})
        flags = bundle.provenance["flags"]
        assert flags["interval_source"] == "mean_sd"
        assert flags["setups"] == ["environments"]
        assert bundle.provenance["inputs"] == {"runs": "abc"}
        assert "workers" not in flags

    def test_manifest_covers_every_file(self, reference_dataset_cached, tmp_path):
        bundle = build_report_bundle(reference_dataset_cached, ALL_SETUPS, MEAN_SD)
        written = write_report_bundle(bundle, tmp_path / "out")
        tree = read_tree(tmp_path / "out")
        assert sorted(tree) == sorted(
            Path(p).relative_to(tmp_path / "out").as_posix() for p in written)
        manifest = tree.pop("MANIFEST.sha256").decode()
        listed = {}
        for line in manifest.splitlines():
            digest, name = line.split("  ", 1)
            listed[name] = digest
        assert listed == {name: hashlib.sha256(data).hexdigest()
                          for name, data in tree.items()}

    def test_two_runs_are_byte_identical(self, reference_dataset_cached, tmp_path):
        options = AssemblyOptions(resamples=120, seed=3)
        for name in ("one", "two"):
            bundle = build_report_bundle(reference_dataset_cached, ALL_SETUPS, options,
                                         include_kendall=True)
            write_report_bundle(bundle, tmp_path / name)
        assert read_tree(tmp_path / "one") == read_tree(tmp_path / "two")

    def test_report_json_shape(self, reference_dataset_cached, tmp_path):
        bundle = build_report_bundle(
            reference_dataset_cached, [TransferSetup.ACROSS_ENVIRONMENTS], MEAN_SD,
            include_kendall=True)
        write_report_bundle(bundle, tmp_path / "out")
        data = json.loads((tmp_path / "out" / "report.json").read_text())
        entries = data["setups"]["environments"]["entries"]
        by_name = {e["hyperparameter"]: e for e in entries}
        assert by_name["ha"]["thc"] == pytest.approx(2.5 / 3)
        assert by_name["ha"]["normalized_ptp"] == {"a": 1.0, "b": 0.5, "c": 1.0}
        # the all-tied context makes some pairwise taus undefined but W is fine
        assert by_name["ha"]["kendall_w"] is not None

    def test_rankings_csv_contents(self, reference_dataset_cached, tmp_path):
        bundle = build_report_bundle(
            reference_dataset_cached, [TransferSetup.ACROSS_ENVIRONMENTS], MEAN_SD)
        write_report_bundle(bundle, tmp_path / "out")
        with open(tmp_path / "out" / "rankings.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # 2 hyperparameters x 5 contexts x 3 values
        assert len(rows) == 30
        ha_g1 = {r["value"]: r["final_rank"] for r in rows
                 if r["hyperparameter"] == "ha" and r["context"] == "g1"}
        assert ha_g1 == {"a": "1.0", "b": "2.0", "c": "3.0"}

    def test_series_files_are_plot_ready(self, reference_dataset_cached, tmp_path):
        bundle = build_report_bundle(
            reference_dataset_cached, [TransferSetup.ACROSS_ENVIRONMENTS], MEAN_SD)
        write_report_bundle(bundle, tmp_path / "out")
        series = sorted((tmp_path / "out" / "series").glob("*.csv"))
        assert len(series) == 2
        with open(series[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 15  # 5 contexts x 3 values
        assert set(rows[0]) == {"context", "value", "point", "lower", "upper"}

    def test_rewrite_deletes_only_the_stale_series_files_its_manifest_lists(
            self, reference_dataset_cached, tmp_path):
        out = tmp_path / "out"
        write_report_bundle(build_report_bundle(reference_dataset_cached, ALL_SETUPS, MEAN_SD), out)
        stale = sorted(p.name for p in (out / "series").iterdir() if not p.name.startswith("agents--"))
        kept = [tmp_path / "victim.csv", out / "notes.txt", out / "series" / "notes.txt",
                out / "series" / "sub" / "x.csv", out / "series" / "unlisted.csv"]
        kept[3].parent.mkdir()
        for path in kept:
            path.write_text("not a bundle file")
        with open(out / "MANIFEST.sha256", "a", encoding="utf-8") as fh:
            for name in ("../victim.csv", "series/../../victim.csv", "notes.txt",
                         "series/notes.txt", "series/sub/x.csv", "/abs.csv"):
                fh.write(f"{'0' * 64}  {name}\n")
        write_report_bundle(
            build_report_bundle(reference_dataset_cached, [TransferSetup.ACROSS_AGENTS], MEAN_SD), out)
        assert stale and not any((out / "series" / name).exists() for name in stale)
        assert all(path.read_text() == "not a bundle file" for path in kept)

    def test_svg_is_well_formed(self, reference_dataset_cached, tmp_path):
        bundle = build_report_bundle(reference_dataset_cached, ALL_SETUPS, MEAN_SD)
        write_report_bundle(bundle, tmp_path / "out")
        root = ET.fromstring((tmp_path / "out" / "thc_scores.svg").read_text())
        assert root.tag.endswith("svg")
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert rects

    def test_no_nan_in_json(self, tmp_path):
        # a value pair with identical intervals in every context produces tied
        # ranks and undefined taus; serialization must still be strict JSON
        cells = {"hp": {
            "x": {"g1": (0.0, 1.0), "g2": (0.0, 1.0)},
            "y": {"g1": (0.0, 1.0), "g2": (0.0, 1.0)},
        }}
        dataset = dataset_from_intervals(cells)
        bundle = build_report_bundle(
            dataset, [TransferSetup.ACROSS_ENVIRONMENTS], MEAN_SD, include_kendall=True)
        files = write_report_bundle(bundle, tmp_path / "out")
        text = (tmp_path / "out" / "report.json").read_text()
        json.loads(text)  # strict parse
        assert "NaN" not in text
        assert files

    def test_a_profile_built_from_ranks_alone_is_refused_by_name(self, reference_dataset_cached, tmp_path):
        bundle = build_report_bundle(reference_dataset_cached, [TransferSetup.ACROSS_ENVIRONMENTS], MEAN_SD)
        first, *rest = bundle.profiles[0]
        bare = RankProfile(first.hyperparameter, first.values, first.contexts, first.ranks, first.fixed)
        with pytest.raises(ValueError) as excinfo:
            write_report_bundle(dataclasses.replace(bundle, profiles=((bare, *rest),)), tmp_path / "out")
        assert str(excinfo.value) == ("profile 'ha [agent=agent01;data_regime=regime01]' "
                                      "has no intervals or positions to export")

    # Only the default flags have a golden bundle. Under every pair of ranking
    # mode and interval source, each row of the fixture's bundle is rebuilt
    # here from the table and points that the rank command gives its context.
    @pytest.mark.parametrize("mode", list(RankingMode))
    @pytest.mark.parametrize("source", list(IntervalSource))
    def test_rows_equal_the_rank_context_of_their_context(self, tmp_path, source, mode):
        dataset = load_dataset(FIXTURE / "runs.csv", FIXTURE / "baselines.csv", FIXTURE / "schema.yaml")
        options = AssemblyOptions(interval_source=source, ranking_mode=mode, resamples=200)
        bundle = build_report_bundle(dataset, ALL_SETUPS, options)
        write_report_bundle(bundle, tmp_path)
        columns = ["setup", "hyperparameter", "fixed", "context", "value", "lower", "upper"]
        rankings, intervals = [[*columns, "initial_rank", "final_rank"]], [[*columns, "point"]]
        series = {}
        for setup, profiles in zip(ALL_SETUPS, bundle.profiles):
            for p in profiles:
                hp, fixed = p.hyperparameter, ";".join(f"{k}={v}" for k, v in sorted(p.fixed.items()))
                rows = series.setdefault(_series_name(setup, p), [["context", "value", "point", "lower", "upper"]])
                for context in p.contexts:
                    table, points = rank_context(dataset, hp, **p.fixed, **{setup.axis.value: context},
                                                 options=options)
                    bounds = {e.label: [repr(e.interval.lower), repr(e.interval.upper)] for e in table}
                    row = [setup.value, hp, fixed, context]
                    for e in table:
                        rankings.append([*row, e.label, *bounds[e.label], str(e.initial_rank), repr(e.final_rank)])
                        intervals.append([*row, e.label, *bounds[e.label], repr(points[e.label])])
                    rows += [[context, value, repr(points[value]), *bounds[value]]
                             for value in dataset.schema.hyperparameters[hp] if value in points]
        assert len(rankings) == len(intervals) == 1 + 192 and len(series) == 24
        assert read_rows(tmp_path / "rankings.csv") == rankings
        assert read_rows(tmp_path / "intervals.csv") == intervals
        assert {f"series/{path.name}": read_rows(path) for path in (tmp_path / "series").iterdir()} == series

    def test_file_digest_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"abc123")
        assert file_digest(path) == hashlib.sha256(b"abc123").hexdigest()
