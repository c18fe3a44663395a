"""CLI tests: exit codes, printed tables, JSON sidecars, bundles."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thckit
import thckit.cli
from thckit.cli import main
from thckit.consistency import AssemblyOptions, IntervalSource, TransferSetup
from thckit.dataset import (
    BaselineTable,
    DatasetError,
    EmptySliceError,
    RunRecord,
    SweepDataset,
    bundled_schema,
    bundled_schema_bytes,
    load_dataset,
    slice_scores,
)
from thckit.report import build_report_bundle, write_report_bundle
from thckit.synth import PlantedDesign, PlantedHyperparameter, generate

from conftest import (
    dataset_from_intervals,
    reference_trajectory_cells,
    write_dataset_files,
)

FIXTURE = Path(__file__).parent / "data"

DESIGN_YAML = """\
environments: [env01, env02, env03]
seeds_per_cell: 3
hyperparameters:
  lr:
    values: [0.1, 0.01, 0.001]
  width:
    values: [64, 256]
    pattern: reversal
"""


@pytest.fixture()
def reference_paths(tmp_path):
    dataset = dataset_from_intervals(reference_trajectory_cells())
    return write_dataset_files(dataset, tmp_path)


def read_tree(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def dataset_args(paths):
    return ["--runs", str(paths["runs"]), "--baselines", str(paths["baselines"]),
            "--schema", str(paths["schema"])]


class TestValidate:
    def test_ok(self, reference_paths, capsys):
        assert main(["validate", *dataset_args(reference_paths)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK: ")
        assert "2 hyperparameter(s)" in out
        assert "5 environment(s)" in out

    def test_duplicate_row_exits_1(self, reference_paths, capsys):
        runs = reference_paths["runs"]
        lines = runs.read_text().splitlines()
        runs.write_text("\n".join(lines + [lines[1]]) + "\n")
        assert main(["validate", *dataset_args(reference_paths)]) == 1
        err = capsys.readouterr().err
        assert "duplicate" in err
        assert "validation failed with 1 problem(s)" in err

    def test_header_only_run_log_exits_1(self, reference_paths, capsys):
        runs = reference_paths["runs"]
        runs.write_text(runs.read_text().splitlines()[0] + "\n")
        assert main(["validate", *dataset_args(reference_paths)]) == 1
        assert capsys.readouterr() == ("", f"{runs}: run log has no runs\nvalidation failed with 1 problem(s)\n")
        assert main(["thc", *dataset_args(reference_paths), "--setup", "environments"]) == 3

    def test_missing_baseline_exits_1(self, reference_paths, capsys):
        baselines = reference_paths["baselines"]
        lines = [line for line in baselines.read_text().splitlines()
                 if not line.startswith("g3,")]
        baselines.write_text("\n".join(lines) + "\n")
        assert main(["validate", *dataset_args(reference_paths)]) == 1
        assert "g3" in capsys.readouterr().err

    def test_unnormalisable_scores_exit_1_naming_the_environment(self, reference_paths, capsys):
        # human - random = 1e-320 is subnormal, so every g3 score whose
        # random-relative value is above about 1.8e-12 normalises to inf.
        baselines = reference_paths["baselines"]
        lines = baselines.read_text().splitlines()
        baselines.write_text("\n".join(line if not line.startswith("g3,") else "g3,0.0,1e-320"
                                       for line in lines) + "\n")
        expected = ("a human-normalised score of environment 'g3' is not finite "
                    "(random_score 0.0, human_score 1e-320)\n"
                    "validation failed with 1 problem(s)\n")
        assert main(["validate", *dataset_args(reference_paths)]) == 1
        assert capsys.readouterr().err == expected
        assert main(["thc", *dataset_args(reference_paths), "--setup", "environments",
                     "--interval-source", "mean_sd"]) == 1
        assert capsys.readouterr() == ("", expected)

    def test_unparseable_score_names_line(self, reference_paths, capsys):
        runs = reference_paths["runs"]
        text = runs.read_text().replace("\n", "\n", 1)
        lines = text.splitlines()
        parts = lines[3].split(",")
        parts[-1] = "not-a-number"
        lines[3] = ",".join(parts)
        runs.write_text("\n".join(lines) + "\n")
        assert main(["validate", *dataset_args(reference_paths)]) == 1
        assert ":4:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["runs", "baselines"])
    def test_byte_order_mark_is_read_past(self, reference_paths, capsys, name):
        # Excel's "CSV UTF-8" and pandas' encoding="utf-8-sig" start the file with one.
        plain = load_dataset(reference_paths["runs"], reference_paths["baselines"], reference_paths["schema"])
        assert main(["validate", *dataset_args(reference_paths)]) == 0
        without = capsys.readouterr().out
        path = reference_paths[name]
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(["validate", *dataset_args(reference_paths)]) == 0
        assert capsys.readouterr().out == without
        assert load_dataset(reference_paths["runs"], reference_paths["baselines"],
                            reference_paths["schema"]) == plain

    def test_missing_file_exits_2(self, tmp_path, reference_paths, capsys):
        args = dataset_args(reference_paths)
        args[1] = str(tmp_path / "nope.csv")
        assert main(["validate", *args]) == 2
        assert "error:" in capsys.readouterr().err


class TestRank:
    def test_prints_reference_ranks(self, reference_paths, capsys):
        code = main(["rank", *dataset_args(reference_paths),
                     "--hyperparameter", "ha", "--agent", "agent01",
                     "--data-regime", "regime01", "--environment", "g1",
                     "--interval-source", "mean_sd"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hyperparameter ha" in out
        assert "environment=g1" in out
        lines = [line.split() for line in out.splitlines()[1:] if line]
        header = lines[0]
        assert header == ["value", "lower", "upper", "point", "initial_rank", "final_rank"]
        ranks = {row[0]: row[-1] for row in lines[2:]}
        assert ranks == {"a": "1.0", "b": "2.0", "c": "3.0"}

    def test_json_sidecar_matches(self, reference_paths, tmp_path, capsys):
        sidecar = tmp_path / "rank.json"
        main(["rank", *dataset_args(reference_paths),
              "--hyperparameter", "ha", "--agent", "agent01",
              "--data-regime", "regime01", "--environment", "g3",
              "--interval-source", "mean_sd", "--json", str(sidecar)])
        capsys.readouterr()
        data = json.loads(sidecar.read_text())
        assert data["hyperparameter"] == "ha"
        assert data["context"]["environment"] == "g3"
        by_value = {e["value"]: e for e in data["entries"]}
        # all three values share one interval in g3, so they tie in the middle
        assert {e["final_rank"] for e in by_value.values()} == {2.0}
        assert sorted(e["initial_rank"] for e in by_value.values()) == [1, 2, 3]

    def test_unknown_hyperparameter_exits_2(self, reference_paths, capsys):
        code = main(["rank", *dataset_args(reference_paths),
                     "--hyperparameter", "zz", "--agent", "agent01",
                     "--data-regime", "regime01"])
        assert code == 2
        assert "zz" in capsys.readouterr().err

    def test_context_without_a_rankable_value_exits_2(self, tmp_path, capsys):
        cells = {"hp": {"x": {"g1": (0.0, 1.0), "g2": (0.0, 1.0)}, "y": {"g1": (2.0, 3.0)}}}
        dataset = dataset_from_intervals(cells)
        thin = SweepDataset([r for r in dataset.records if (r.environment, r.seed) != ("g2", 1)],
                            dataset.baselines, dataset.schema)
        paths = write_dataset_files(thin, tmp_path)
        code = main(["rank", *dataset_args(paths), "--hyperparameter", "hp", "--agent", "agent01",
                     "--data-regime", "regime01", "--environment", "g2"])
        assert code == 2
        assert capsys.readouterr().err.endswith("error: no value of 'hp' has at least 2 seeds in this context\n")

    def test_selector_matching_nothing_exits_2(self, reference_paths, capsys):
        code = main(["rank", *dataset_args(reference_paths),
                     "--hyperparameter", "ha", "--agent", "agent99",
                     "--data-regime", "regime01"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestUndeclaredPins:
    @pytest.mark.parametrize("argv, message", [
        pytest.param(["thc", "--setup", "agents", "--environment", "zz"],
                     "unknown environment 'zz'", id="thc-environment"),
        pytest.param(["thc", "--setup", "environments", "--data-regime", "zz"],
                     "unknown data_regime 'zz'", id="thc-data-regime"),
        pytest.param(["report", "--setup", "data-regimes", "--agent", "zz"],
                     "unknown agent 'zz'", id="report-agent"),
        pytest.param(["rank", "--hyperparameter", "ha", "--agent", "agent01",
                      "--data-regime", "regime01", "--environment", "zz"],
                     "unknown environment 'zz'", id="rank-environment"),
        pytest.param(["rank", "--hyperparameter", "ha", "--agent", "zz",
                      "--data-regime", "regime01"],
                     "unknown agent 'zz'", id="rank-agent"),
        pytest.param(["rank", "--hyperparameter", "ha", "--agent", "agent01",
                      "--data-regime", "zz"],
                     "unknown data_regime 'zz'", id="rank-data-regime"),
    ])
    def test_exits_2(self, reference_paths, tmp_path, capsys, argv, message):
        out = ["--out", str(tmp_path / "bundle")] if argv[0] == "report" else []
        assert main([argv[0], *dataset_args(reference_paths), *argv[1:], *out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "bundle").exists()


class TestThc:
    def test_table_and_json_agree(self, reference_paths, tmp_path, capsys):
        sidecar = tmp_path / "thc.json"
        code = main(["thc", *dataset_args(reference_paths),
                     "--setup", "environments", "--interval-source", "mean_sd",
                     "--kendall", "--json", str(sidecar)])
        assert code == 0
        out = capsys.readouterr().out
        assert "thc" in out.splitlines()[0]
        data = json.loads(sidecar.read_text())
        scores = {e["hyperparameter"]: e["thc"] for e in data["entries"]}
        assert scores["ha"] == pytest.approx(2.5 / 3)
        assert scores["hb"] == pytest.approx(1 / 3)
        for entry in data["entries"]:
            assert repr(entry["thc"]) in out
        taus = {e["hyperparameter"]: e["kendall_mean_tau"] for e in data["entries"]}
        assert taus["hb"] == pytest.approx(0.6)

    def test_degenerate_setup_exits_3(self, reference_paths, capsys):
        # only one agent exists, so nothing varies across agents
        code = main(["thc", *dataset_args(reference_paths), "--setup", "agents"])
        assert code == 3
        err = capsys.readouterr().err
        assert "nothing comparable across agents" in err

    def test_strict_flags_undefined_w(self, tmp_path, capsys):
        # single swept value: spread is trivially zero and W is undefined
        cells = {"hp": {"only": {"g1": (0.0, 1.0), "g2": (0.0, 1.0)}}}
        paths = write_dataset_files(dataset_from_intervals(cells), tmp_path)
        base = ["thc", *dataset_args(paths), "--setup", "environments",
                "--interval-source", "mean_sd", "--kendall"]
        assert main(base) == 0
        capsys.readouterr()
        assert main([*base, "--strict"]) == 3
        assert "Kendall W undefined" in capsys.readouterr().err

    def test_prints_each_skip_with_its_fixed_coordinates(self, tmp_path, capsys):
        cells = {"ok": {"x": {"g1": (0.0, 1.0), "g2": (0.0, 1.0)}, "y": {"g1": (2.0, 3.0), "g2": (2.0, 3.0)}},
                 "solo": {"x": {"g1": (0.0, 1.0)}, "y": {"g1": (2.0, 3.0)}}}
        paths = write_dataset_files(dataset_from_intervals(cells), tmp_path)
        assert main(["thc", *dataset_args(paths), "--setup", "environments",
                     "--interval-source", "mean_sd"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == \
            "skipped solo [agent=agent01; data_regime=regime01]: only 1 context(s) with data"

    def test_nothing_comparable_names_each_skip_with_its_fixed_coordinates(self, tmp_path, capsys):
        # One seed per cell leaves no value rankable anywhere, so every plan
        # is skipped, and only its fixed coordinates tell two skips apart.
        assert main(["synth", "--design", str(FIXTURE / "design.yaml"), "--seeds-per-cell", "1",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        paths = {name: tmp_path / f"{name}.{ext}" for name, ext in
                 (("runs", "csv"), ("baselines", "csv"), ("schema", "yaml"))}
        assert main(["thc", *dataset_args(paths), "--setup", "agents"]) == 3
        skips = "; ".join(f"{hp} [data_regime={regime}]: only 0 context(s) with rankable values"
                          for hp in ("lr", "width", "depth") for regime in ("low", "high"))
        assert capsys.readouterr().err.splitlines()[-1] == f"error: nothing comparable across agents ({skips})"

    def test_sum_normalization_flag(self, reference_paths, tmp_path, capsys):
        sidecar = tmp_path / "thc.json"
        main(["thc", *dataset_args(reference_paths),
              "--setup", "environments", "--interval-source", "mean_sd",
              "--ptp-normalization", "sum", "--json", str(sidecar)])
        capsys.readouterr()
        data = json.loads(sidecar.read_text())
        scores = {e["hyperparameter"]: e["thc"] for e in data["entries"]}
        assert scores["ha"] == pytest.approx(1 / 3)
        assert scores["hb"] == pytest.approx(1 / 3)


class TestReport:
    def test_bundle_is_written_and_self_consistent(self, reference_paths, tmp_path, capsys):
        out = tmp_path / "bundle"
        code = main(["report", *dataset_args(reference_paths), "--out", str(out),
                     "--interval-source", "mean_sd", "--resamples", "120"])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        names = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert {"report.json", "consistency.csv", "skipped.csv", "rankings.csv",
                "intervals.csv", "thc_scores.svg", "MANIFEST.sha256"} <= names
        report = json.loads((out / "report.json").read_text())
        assert report["provenance"]["flags"]["interval_source"] == "mean_sd"
        assert set(report["provenance"]["inputs"]) == {"runs", "baselines", "schema"}
        assert set(report["setups"]) == {"agents", "environments", "data_regimes"}

    def test_bundled_schema_digest_recorded_without_schema_flag(self, tmp_path, capsys):
        schema = bundled_schema()
        agents, env, regime = schema.agents, schema.environments[0], schema.data_regimes[0]
        hp, values = next(iter(schema.hyperparameters.items()))
        records = [RunRecord(agent, env, regime, hp, value, seed, float(i + seed))
                   for agent in agents for i, value in enumerate(values[:2]) for seed in range(2)]
        paths = write_dataset_files(SweepDataset(records, BaselineTable({env: (0.0, 1.0)}), schema), tmp_path)
        out = tmp_path / "bundle"
        assert main(["report", "--runs", str(paths["runs"]), "--baselines", str(paths["baselines"]),
                     "--setup", "agents", "--interval-source", "mean_sd", "--out", str(out)]) == 0
        capsys.readouterr()
        inputs = json.loads((out / "report.json").read_text())["provenance"]["inputs"]
        assert inputs["schema"] == hashlib.sha256(bundled_schema_bytes()).hexdigest()

    def test_single_setup_bundle(self, reference_paths, tmp_path, capsys):
        out = tmp_path / "bundle"
        main(["report", *dataset_args(reference_paths), "--out", str(out),
              "--setup", "environments", "--interval-source", "mean_sd"])
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert list(report["setups"]) == ["environments"]
        entries = {e["hyperparameter"]: e
                   for e in report["setups"]["environments"]["entries"]}
        assert entries["ha"]["thc"] == pytest.approx(2.5 / 3)

    def test_all_leaves_out_setups_that_vary_a_pin(self, tmp_path, capsys):
        # The fixture's two agents and two regimes make both setups comparable.
        out = tmp_path / "bundle"
        assert main(["report", *FIXTURE_ARGS, "--out", str(out),
                     "--environment", "env01", "--interval-source", "mean_sd"]) == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["provenance"]["flags"]["setups"] == ["agents", "data_regimes"]
        assert report["provenance"]["flags"]["environment"] == "env01"
        assert list(report["setups"]) == ["agents", "data_regimes"]

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--setup", "environments", "--environment", "g1"],
                     "cannot fix 'environment'", id="explicit-setup"),
        pytest.param(["--agent", "agent01", "--environment", "g1",
                      "--data-regime", "regime01"],
                     "every setup varies a pinned axis", id="all-pinned"),
    ])
    def test_pinned_varying_axis_exits_2(self, reference_paths, tmp_path, capsys,
                                         argv, message):
        out = tmp_path / "bundle"
        assert main(["report", *dataset_args(reference_paths), "--out", str(out), *argv]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # The manifest is written last, so a write that fails leaves none: into a
    # fresh directory whose series path is a file, and over an earlier bundle
    # one of whose series files is now a directory.
    @pytest.mark.parametrize("earlier", [False, True], ids=["series-is-a-file", "series-file-is-a-directory"])
    def test_failed_write_leaves_no_manifest(self, tmp_path, capsys, earlier):
        out = tmp_path / "bundle"
        argv = ["report", *FIXTURE_ARGS, "--interval-source", "mean_sd", "--out", str(out)]
        if earlier:
            assert main(argv) == 0
            blocked = next((out / "series").iterdir())
            blocked.unlink()
            blocked.mkdir()
        else:
            out.mkdir()
            (out / "series").write_text("not a directory")
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "MANIFEST.sha256").exists()

    @pytest.mark.parametrize("argv, setups", [
        ([], "agents, environments, data-regimes"),
        (["--setup", "agents"], "agents"),
    ], ids=["all", "agents"])
    def test_nothing_comparable_exits_3_writing_nothing(self, reference_paths, tmp_path, capsys,
                                                        argv, setups):
        runs = reference_paths["runs"]
        runs.write_text(runs.read_text().splitlines()[0] + "\n")
        out = tmp_path / "bundle"
        assert main(["report", *dataset_args(reference_paths), "--out", str(out), *argv]) == 3
        assert capsys.readouterr().err == f"error: nothing comparable across {setups}\n"
        assert not out.exists()

    def test_series_name_collision_exits_2_naming_both_profiles(self, tmp_path, capsys):
        # "lr 1" and "lr-1" spell the same series file name.
        design = PlantedDesign((PlantedHyperparameter("lr 1", ("a", "b")),
                                PlantedHyperparameter("lr-1", ("a", "b"))))
        paths = write_dataset_files(generate(design), tmp_path)
        out = tmp_path / "bundle"
        assert main(["report", *dataset_args(paths), "--setup", "environments",
                     "--interval-source", "mean_sd", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        fixed = "[agent=agent01;data_regime=regime01]"
        assert f"'lr 1 {fixed}' and 'lr-1 {fixed}'" in err
        assert "series/environments--lr-1--agent-agent01--data_regime-regime01.csv" in err
        assert not out.exists()

    # The committed fixture keeps some series files; the one-agent reference
    # sweep has none across agents, so its series directory goes too. The
    # CLI refuses a bundle without entries (exit 3), so that one is written
    # through the library.
    @pytest.mark.parametrize("committed", [True, False], ids=["fixture", "reference"])
    def test_rerun_into_one_directory_matches_a_fresh_one(self, committed, reference_paths,
                                                          tmp_path, capsys):
        paths = reference_paths
        if committed:
            paths = {"runs": FIXTURE / "runs.csv", "baselines": FIXTURE / "baselines.csv",
                     "schema": FIXTURE / "schema.yaml"}
        common = [*dataset_args(paths), "--interval-source", "mean_sd"]
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main(["report", *common, "--setup", "all", "--out", str(reused)]) == 0
        before = read_tree(reused)
        for out in (reused, fresh):
            if committed:
                assert main(["report", *common, "--setup", "agents", "--out", str(out)]) == 0
            else:
                dataset = load_dataset(paths["runs"], paths["baselines"], paths["schema"])
                bundle = build_report_bundle(dataset, [TransferSetup.ACROSS_AGENTS],
                                             AssemblyOptions(interval_source=IntervalSource.MEAN_SD))
                assert not bundle.reports[0].entries
                write_report_bundle(bundle, out)
        capsys.readouterr()
        assert read_tree(reused) == read_tree(fresh)
        assert len(read_tree(fresh)) < len(before)
        assert (reused / "series").exists() == (fresh / "series").exists() == committed

    def test_json_matches_thc_sidecar(self, reference_paths, tmp_path, capsys):
        sidecar = tmp_path / "thc.json"
        out = tmp_path / "bundle"
        common = [*dataset_args(reference_paths), "--setup", "environments",
                  "--interval-source", "mean_sd", "--kendall"]
        assert main(["thc", *common, "--json", str(sidecar)]) == 0
        assert main(["report", *common, "--out", str(out)]) == 0
        capsys.readouterr()
        thc = json.loads(sidecar.read_text())
        report = json.loads((out / "report.json").read_text())
        assert thc.pop("setup") == "environments"
        assert thc.pop("ptp_normalization") == "max"
        assert thc == report["setups"]["environments"]


class TestSynth:
    def test_round_trip_through_validate_and_thc(self, tmp_path, capsys):
        design = tmp_path / "design.yaml"
        design.write_text(DESIGN_YAML)
        out = tmp_path / "sweep"
        assert main(["synth", "--design", str(design), "--out", str(out)]) == 0
        assert "wrote 45 runs" in capsys.readouterr().out

        args = ["--runs", str(out / "runs.csv"), "--baselines", str(out / "baselines.csv"),
                "--schema", str(out / "schema.yaml")]
        assert main(["validate", *args]) == 0
        capsys.readouterr()
        code = main(["thc", *args, "--setup", "environments",
                     "--interval-source", "mean_sd"])
        assert code == 0
        out_text = capsys.readouterr().out
        assert "lr" in out_text and "width" in out_text

    def test_overrides_change_output(self, tmp_path, capsys):
        design = tmp_path / "design.yaml"
        design.write_text(DESIGN_YAML)
        main(["synth", "--design", str(design), "--out", str(tmp_path / "a"),
              "--noise-scale", "0.5", "--seed", "1"])
        main(["synth", "--design", str(design), "--out", str(tmp_path / "b"),
              "--noise-scale", "0.5", "--seed", "2"])
        main(["synth", "--design", str(design), "--out", str(tmp_path / "c"),
              "--noise-scale", "0.5", "--seed", "1"])
        capsys.readouterr()
        a = (tmp_path / "a" / "runs.csv").read_text()
        assert a != (tmp_path / "b" / "runs.csv").read_text()
        assert a == (tmp_path / "c" / "runs.csv").read_text()

    def test_seeds_per_cell_override(self, tmp_path, capsys):
        design = tmp_path / "design.yaml"
        design.write_text(DESIGN_YAML)
        main(["synth", "--design", str(design), "--out", str(tmp_path / "s"),
              "--seeds-per-cell", "2"])
        assert "wrote 30 runs" in capsys.readouterr().out

    @pytest.mark.parametrize("entry, message", [
        pytest.param("lr:\n    values: 5", "hyperparameter 'lr': 'values' must be a list, got 5", id="values"),
        pytest.param("lr:\n    values: [a, b]\n    pattern: explicit\n    means: 3",
                     "hyperparameter 'lr': 'means' must be a list of lists of numbers, got 3", id="means"),
        pytest.param("lr:\n    values: [a, b]\n    pattern: explicit\n    means: [[1, 0], [0, [1]]]",
                     "hyperparameter 'lr': 'means' must be a list of lists of numbers, got [[1, 0], [0, [1]]]",
                     id="means-entry"),
        pytest.param("environments: 3.5",
                     "'environments' must be a list of labels or a positive integer count, got 3.5",
                     id="environments-float"),
        pytest.param("environments: true",
                     "'environments' must be a list of labels or a positive integer count, got True",
                     id="environments-bool"),
        pytest.param("environments: 0",
                     "'environments' must be a list of labels or a positive integer count, got 0",
                     id="environments-zero"),
        pytest.param("agents: 7x", "'agents' must be a list of labels or a positive integer count, got '7x'",
                     id="agents-text"),
        pytest.param("noise_scale: [1]", "'noise_scale' must be a number, got [1]", id="noise-scale"),
        pytest.param("score_gap: false", "'score_gap' must be a number, got False", id="score-gap"),
        pytest.param("seeds_per_cell: 2.7", "'seeds_per_cell' must be an integer, got 2.7", id="seeds-per-cell"),
        pytest.param("seed: 1.5", "'seed' must be an integer, got 1.5", id="seed"),
        pytest.param("context_axis: agents",
                     "'context_axis' must be one of 'agent', 'environment', 'data_regime', got 'agents'",
                     id="context-axis"),
        pytest.param("lr:\n    values: [a, '']", "lr: values must not contain an empty string", id="empty-value"),
        pytest.param("environments: [e1, '']", "environments must not contain an empty label", id="empty-label"),
    ])
    def test_wrongly_typed_design_exits_2(self, tmp_path, capsys, entry, message):
        design = tmp_path / "design.yaml"
        if entry.startswith("lr:"):
            design.write_text(f"hyperparameters:\n  {entry}\n")
        else:
            design.write_text(f"{entry}\nhyperparameters:\n  lr:\n    values: [a, b]\n")
        assert main(["synth", "--design", str(design), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_design_exits_2(self, tmp_path, capsys):
        assert main(["synth", "--design", str(tmp_path / "none.yaml"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err


class TestMalformedYaml:
    def test_schema_exits_1_naming_the_line(self, reference_paths, capsys, yaml_loader):
        schema = reference_paths["schema"]
        schema.write_text("agents: [agent01\nenvironments: [g1]\n")
        assert main(["validate", *dataset_args(reference_paths)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{schema}: malformed YAML at line 2, column ")
        assert err.endswith("validation failed with 1 problem(s)\n")

    def test_design_exits_2_naming_the_line(self, tmp_path, capsys, yaml_loader):
        design = tmp_path / "design.yaml"
        design.write_text("seeds_per_cell: 3\nenvironments: [env01\n")
        assert main(["synth", "--design", str(design), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {design}: malformed YAML at line 3, column ")


def overflow_g3(paths) -> None:
    """Rewrite g3's baselines and scores so that score - random = 1e308 + 1e308
    and human - random both overflow to inf: every g3 score normalises to
    inf / inf = nan."""
    baselines = paths["baselines"]
    lines = baselines.read_text().splitlines()
    baselines.write_text("".join((line if not line.startswith("g3,") else "g3,-1e308,1e308") + "\n"
                                 for line in lines))
    runs = paths["runs"]
    rows = [row.split(",") for row in runs.read_text().splitlines()]
    runs.write_text("".join(",".join(row[:-1] + ["1e308"] if row[1] == "g3" else row) + "\n" for row in rows))


# What every command prints on stderr for the files overflow_g3 writes.
OVERFLOW_G3_STDERR = ("a human-normalised score of environment 'g3' is not finite "
                      "(random_score -1e+308, human_score 1e+308)\n"
                      "validation failed with 1 problem(s)\n")


class TestNonFiniteScores:
    @pytest.mark.parametrize("source", ["iqm_ci", "mean_sd"])
    def test_overflowing_normalisation_exits_1_naming_the_environment(self, reference_paths, capsys, source):
        overflow_g3(reference_paths)
        assert main(["thc", *dataset_args(reference_paths), "--setup", "environments",
                     "--interval-source", source, "--resamples", "100"]) == 1
        assert capsys.readouterr() == ("", OVERFLOW_G3_STDERR)

    # Normalisation is a dataset rule, so every command refuses the run log as
    # validate does, rank even on an environment whose scores normalise.
    @pytest.mark.parametrize("command", [
        ["validate"],
        ["rank", "--hyperparameter", "ha", "--agent", "agent01", "--data-regime", "regime01",
         "--environment", "g1"],
        ["thc", "--setup", "environments"],
        ["report", "--out", "{out}"],
    ], ids=["validate", "rank-healthy-environment", "thc", "report"])
    def test_every_command_refuses_overflowing_normalisation_alike(self, reference_paths, capsys, tmp_path,
                                                                  command):
        overflow_g3(reference_paths)
        argv = [arg.format(out=tmp_path / "out") for arg in command]
        assert main([argv[0], *dataset_args(reference_paths), *argv[1:]]) == 1
        assert capsys.readouterr() == ("", OVERFLOW_G3_STDERR)
        assert not (tmp_path / "out").exists()

    def test_direct_construction_raises_the_lines_validate_prints(self, reference_paths):
        dataset = load_dataset(reference_paths["runs"], reference_paths["baselines"], reference_paths["schema"])
        records = [dataclasses.replace(r, final_score=1e308) if r.environment == "g3" else r
                   for r in dataset.records]
        baselines = BaselineTable({**dataset.baselines.scores, "g3": (-1e308, 1e308)})
        with pytest.raises(DatasetError) as excinfo:
            SweepDataset(records, baselines, dataset.schema)
        assert excinfo.value.diagnostics == OVERFLOW_G3_STDERR.splitlines()[:1]


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "thckit" in capsys.readouterr().out

    def test_unknown_setup_rejected(self, reference_paths, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["thc", *dataset_args(reference_paths), "--setup", "seeds"])
        assert excinfo.value.code == 2

    def test_command_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


FIXTURE = Path(__file__).parent / "data"
FIXTURE_ARGS = ["--runs", str(FIXTURE / "runs.csv"), "--baselines", str(FIXTURE / "baselines.csv"),
                "--schema", str(FIXTURE / "schema.yaml")]


class TestResampleCount:
    def test_unallocatable_resamples_exit_2_naming_them(self, tmp_path, capsys):
        # 2**61 replicate IQMs need 2**64 bytes: numpy refuses the array
        # before allocating anything.
        out = tmp_path / "bundle"
        assert main(["report", *FIXTURE_ARGS, "--resamples", str(2**61), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: resamples={2**61} needs 18,446,744,073,709,551,616 bytes for the replicate "
            "IQMs of 1 cell(s), more than can be allocated\n")
        assert not out.exists()


FLAG_ERRORS = [
    pytest.param(["thc", "--setup", "agents"], ["--resamples", "5", "--confidence", "7"],
                 "resamples must be >= 100, got 5", id="thc resamples"),
    pytest.param(["rank", "--hyperparameter", "depth", "--agent", "agent02", "--data-regime", "high"],
                 ["--confidence", "2"], "confidence must lie in (0, 1), got 2.0", id="rank confidence"),
    pytest.param(["report"], ["--resamples", "99"], "resamples must be >= 100, got 99", id="report resamples"),
    pytest.param(["report"], ["--confidence", "1"], "confidence must lie in (0, 1), got 1.0",
                 id="report confidence"),
]


class TestBootstrapFlags:
    @staticmethod
    def exits_2_with(argv, command, message, out, capsys):
        assert main(argv + (["--out", str(out)] if command == ["report"] else [])) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["iqm_ci", "mean_sd"])
    @pytest.mark.parametrize("command, flags, message", FLAG_ERRORS)
    def test_out_of_range_flags_exit_2_whatever_the_interval_source(self, tmp_path, capsys, source,
                                                                  command, flags, message):
        argv = [*command, *FIXTURE_ARGS, "--interval-source", source, *flags]
        self.exits_2_with(argv, command, message, tmp_path / "bundle", capsys)

    # The flags, and the pins against the setups, are checked before any file
    # is read, so a missing run log does not hide their error.
    @pytest.mark.parametrize("source", ["iqm_ci", "mean_sd"])
    @pytest.mark.parametrize("command, flags, message", [
        *FLAG_ERRORS,
        pytest.param(["thc", "--setup", "agents"], ["--resamples", "5"],
                     "resamples must be >= 100, got 5", id="thc resamples alone"),
        pytest.param(["report"], ["--agent", "agent01", "--environment", "env01", "--data-regime", "low"],
                     "every setup varies a pinned axis; pin at most two of "
                     "--agent, --environment and --data-regime", id="report all pinned"),
        pytest.param(["thc"], ["--setup", "environments", "--environment", "env01"],
                     "cannot fix 'environment'; it is the varying axis of setup 'environments'",
                     id="thc setup varies a pin"),
        pytest.param(["report"], ["--setup", "environments", "--environment", "env01"],
                     "cannot fix 'environment'; it is the varying axis of setup 'environments'",
                     id="report setup varies a pin"),
        pytest.param(["thc", "--setup", "agents"], ["--strict"], "--strict needs --kendall",
                     id="thc strict without kendall"),
    ])
    def test_flags_are_checked_before_the_run_log_is_read(self, tmp_path, capsys, source,
                                                          command, flags, message):
        argv = [*command, "--runs", str(tmp_path / "missing.csv"), *FIXTURE_ARGS[2:],
                "--interval-source", source, *flags]
        self.exits_2_with(argv, command, message, tmp_path / "bundle", capsys)


# Runs ``main`` in a fresh interpreter and records which modules the import
# of thckit.cli and then ``main`` itself loaded.
MODULE_PROBE = """
import json, sys
import thckit.cli
imported = set(sys.modules)
code = thckit.cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "imported": sorted(imported),
               "after_main": sorted(set(sys.modules) - imported)}, fh)
"""


def modules_loaded(tmp_path, argv):
    record = tmp_path / "modules.json"
    src = str(Path(thckit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", MODULE_PROBE, str(record), *argv],
                   cwd=tmp_path, env=env, check=True, capture_output=True)
    result = json.loads(record.read_text())
    assert result["code"] == 0
    return set(result["imported"]), set(result["after_main"])


class TestRuntimeImports:
    @pytest.mark.parametrize("argv", [
        ["validate", *FIXTURE_ARGS],
        ["rank", *FIXTURE_ARGS, "--hyperparameter", "depth", "--agent", "agent02", "--data-regime", "high"],
        ["thc", *FIXTURE_ARGS, "--setup", "environments", "--kendall"],
        ["report", *FIXTURE_ARGS, "--resamples", "200", "--kendall", "--out", "bundle"],
    ], ids=["validate", "rank", "thc", "report"])
    def test_no_scipy_and_no_numpy_module_loaded_by_main(self, tmp_path, argv):
        imported, after_main = modules_loaded(tmp_path, argv)
        assert "scipy" not in imported | after_main
        assert sorted(m for m in after_main if m.split(".")[0] == "numpy") == []
        # numpy.ma costs about 12 ms of import; the generator is for synth only.
        assert {"numpy.ma", "thckit.synth"} & (imported | after_main) == set()


def run_cli(tmp_path, argv):
    src = str(Path(thckit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "thckit.cli", *argv], cwd=tmp_path, env=env,
                          check=True, capture_output=True, text=True)


def read_tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture()
def unrun_paths(tmp_path):
    """The committed fixture under a schema that also declares an agent, an
    environment (with no baseline scores) and a hyper-parameter without runs."""
    fixture = load_dataset(FIXTURE / "runs.csv", FIXTURE / "baselines.csv", FIXTURE / "schema.yaml")
    schema = dataclasses.replace(fixture.schema, agents=(*fixture.schema.agents, "agent99"),
                                 environments=(*fixture.schema.environments, "env99"),
                                 hyperparameters={**fixture.schema.hyperparameters, "unrun": ("a", "b")})
    return write_dataset_files(SweepDataset(fixture.records, fixture.baselines, schema), tmp_path / "inputs")


@pytest.fixture()
def loaded(monkeypatch):
    """The datasets the CLI loads, in order."""
    datasets = []

    def load(*paths):
        datasets.append(load_dataset(*paths))
        return datasets[-1]

    monkeypatch.setattr(thckit.cli, "load_dataset", load)
    return datasets


class TestIndexNotBuilt:
    # The analysis commands read the dataset's (cell, seed) sort, its one
    # store of runs; ``records`` is built only for library callers, and
    # ``slice_scores`` (which ``rank`` calls for its errors) reads its pair's
    # groups of the sort.
    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["rank", "--hyperparameter", "lr", "--agent", "agent01", "--data-regime", "low"],
        ["rank", "--hyperparameter", "lr", "--agent", "agent01", "--data-regime", "low",
         "--environment", "env02", "--interval-source", "mean_sd"],
        ["thc", "--setup", "environments", "--interval-source", "mean_sd", "--kendall"],
        ["thc", "--setup", "agents", "--resamples", "200"],
        ["report", "--resamples", "200", "--kendall", "--out", "bundle"],
    ], ids=["validate", "rank", "rank-environment", "thc-environments", "thc-agents", "report"])
    def test_analysis_commands_leave_it_unbuilt(self, unrun_paths, loaded, tmp_path, capsys, argv):
        args = [str(tmp_path / arg) if arg == "bundle" else arg for arg in argv[1:]]
        assert main([argv[0], *dataset_args(unrun_paths), *args]) == 0
        [dataset] = loaded
        assert dataset._records is None

    def test_validate_summary_counts_what_the_index_holds(self, unrun_paths, loaded, capsys):
        assert main(["validate", *dataset_args(unrun_paths)]) == 0
        out = capsys.readouterr().out
        [dataset] = loaded
        hyperparameters = {record.hyperparameter for record in dataset.records}
        environments = {record.environment for record in dataset.records}
        assert out == f"OK: {len(dataset)} runs across {len(hyperparameters)} hyperparameter(s), " \
                      f"{len(environments)} environment(s)\n"
        assert out == "OK: 384 runs across 3 hyperparameter(s), 4 environment(s)\n"

    @pytest.mark.parametrize("hp, agent", [("lr", "agent99"), ("unrun", "agent01")])
    def test_rank_of_a_slice_without_runs_exits_2_as_slice_scores_raises(self, unrun_paths, loaded, capsys,
                                                                          hp, agent):
        assert main(["rank", *dataset_args(unrun_paths), "--hyperparameter", hp, "--agent", agent,
                     "--data-regime", "low"]) == 2
        err = capsys.readouterr().err
        [dataset] = loaded
        with pytest.raises(EmptySliceError) as excinfo:
            slice_scores(dataset, hp, agent, "low")
        assert err == f"error: {excinfo.value}\n" == (
            f"error: no records for hyperparameter {hp!r} in context {{'agent': {agent!r}, 'data_regime': 'low'}}\n")


class TestVerbose:
    def test_logs_each_fill_and_leaves_the_bundle_unchanged(self, tmp_path):
        golden_flags = [*FIXTURE_ARGS, "--resamples", "200", "--seed", "0", "--kendall"]
        quiet = run_cli(tmp_path, ["report", *golden_flags, "--out", "quiet"])
        verbose = run_cli(tmp_path, ["--verbose", "report", *golden_flags, "--out", "verbose"])
        assert read_tree(tmp_path / "verbose") == read_tree(tmp_path / "quiet")
        assert "cell table" not in quiet.stderr
        fills = [line for line in verbose.stderr.splitlines() if "cell table: aggregated" in line]
        # One fill per setup; the data-regime setup reads the agent setup's
        # pooled cells.
        assert len(fills) == 3 and all(line.startswith("INFO ") for line in fills)
        assert sum(int(line.split("aggregated ")[1].split()[0]) for line in fills) == 160
        assert fills[2].startswith("INFO cell table: aggregated 0 cells")
