"""Golden-file regression tests for the committed fixture sweep.

The fixture under tests/data was produced by the synth subcommand from
design.yaml; tests/golden holds a full report bundle, a recovery-study
table, and the printed tables and JSON sidecars of ``rank`` and ``thc``
built from it. Any numeric or formatting drift shows up here as a byte
diff. Regenerate with:

    python3 -m thckit.cli synth --design tests/data/design.yaml --out tests/data
    python3 -m thckit.cli report --runs tests/data/runs.csv \
        --baselines tests/data/baselines.csv --schema tests/data/schema.yaml \
        --out tests/golden/report --resamples 200 --seed 0 --kendall
    python3 -m thckit.cli rank --runs tests/data/runs.csv \
        --baselines tests/data/baselines.csv --schema tests/data/schema.yaml \
        --hyperparameter depth --agent agent02 --data-regime high \
        --json tests/golden/cli/rank.json > tests/golden/cli/rank.txt
    python3 -m thckit.cli thc --runs tests/data/runs.csv \
        --baselines tests/data/baselines.csv --schema tests/data/schema.yaml \
        --setup agents --kendall --json tests/golden/cli/thc.json > tests/golden/cli/thc.txt
    python3 -c "import dataclasses, json; from thckit.synth import load_design, recovery_study; \
        rows = recovery_study(load_design('tests/data/design.yaml'), [0.0, 0.25, 0.5], 5); \
        print(json.dumps([dataclasses.asdict(r) for r in rows], indent=2, sort_keys=True))" \
        > tests/golden/recovery.json

tests/golden/north_star/MANIFEST.sha256 is the manifest of the north-star
bundle: ``report --setup all --kendall`` at the default 2000 resamples on the
41,600 runs that tests/data/north_star_design.yaml plants (20
hyper-parameters x 4 values x 2 agents x 26 environments x 2 regimes x 5
seeds). Only the manifest is committed, not the 3 MB bundle. Regenerate with:

    python3 -m thckit.cli synth --design tests/data/north_star_design.yaml --out north_star
    python3 -m thckit.cli report --runs north_star/runs.csv \
        --baselines north_star/baselines.csv --schema north_star/schema.yaml \
        --setup all --kendall --out north_star/report
    cp north_star/report/MANIFEST.sha256 tests/golden/north_star/MANIFEST.sha256
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from thckit.cli import main
from thckit.dataset import load_dataset
from thckit.synth import load_design, recovery_study

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

DATASET_FLAGS = ["--runs", str(DATA / "runs.csv"),
                 "--baselines", str(DATA / "baselines.csv"),
                 "--schema", str(DATA / "schema.yaml")]
REPORT_FLAGS = [*DATASET_FLAGS, "--resamples", "200", "--seed", "0", "--kendall"]
# Each command's stdout is golden/cli/<name>.txt and its --json sidecar <name>.json.
CLI_COMMANDS = {
    "rank": ["rank", *DATASET_FLAGS, "--hyperparameter", "depth", "--agent", "agent02",
             "--data-regime", "high"],
    "thc": ["thc", *DATASET_FLAGS, "--setup", "agents", "--kendall"],
}


def read_tree(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_fixture_dataset_is_valid():
    dataset = load_dataset(DATA / "runs.csv", DATA / "baselines.csv", DATA / "schema.yaml")
    assert len(dataset) == 384
    assert set(dataset.schema.hyperparameters) == {"lr", "width", "depth"}


def test_fixture_matches_design():
    from thckit.synth import generate
    design = load_design(DATA / "design.yaml")
    regenerated = generate(design)
    loaded = load_dataset(DATA / "runs.csv", DATA / "baselines.csv", DATA / "schema.yaml")
    assert regenerated == loaded


def test_report_bundle_matches_golden(tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["report", *REPORT_FLAGS, "--out", str(out)]) == 0
    capsys.readouterr()
    fresh = read_tree(out)
    golden = read_tree(GOLDEN / "report")
    assert sorted(fresh) == sorted(golden)
    mismatched = [name for name in golden if fresh[name] != golden[name]]
    assert mismatched == []


@pytest.mark.parametrize("name", sorted(CLI_COMMANDS))
def test_cli_table_and_sidecar_match_golden(name, tmp_path, capsys):
    sidecar = tmp_path / f"{name}.json"
    assert main([*CLI_COMMANDS[name], "--json", str(sidecar)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "cli" / f"{name}.txt").read_bytes()
    assert sidecar.read_bytes() == (GOLDEN / "cli" / f"{name}.json").read_bytes()


def test_recovery_study_matches_golden():
    design = load_design(DATA / "design.yaml")
    rows = recovery_study(design, noise_levels=[0.0, 0.25, 0.5], trials=5)
    fresh = [dataclasses.asdict(row) for row in rows]
    golden = json.loads((GOLDEN / "recovery.json").read_text())
    assert fresh == golden


def manifest_digests(text: str) -> dict[str, str]:
    return {name: digest for digest, name in (line.split("  ", 1) for line in text.splitlines())}


def test_north_star_manifest_matches_golden(tmp_path, capsys):
    inputs, out = tmp_path / "north_star", tmp_path / "report"
    assert main(["synth", "--design", str(DATA / "north_star_design.yaml"), "--out", str(inputs)]) == 0
    assert main(["report", "--runs", str(inputs / "runs.csv"), "--baselines", str(inputs / "baselines.csv"),
                 "--schema", str(inputs / "schema.yaml"), "--setup", "all", "--kendall", "--out", str(out)]) == 0
    capsys.readouterr()
    fresh = (out / "MANIFEST.sha256").read_bytes()
    golden = (GOLDEN / "north_star" / "MANIFEST.sha256").read_bytes()
    if fresh != golden:
        fresh_digests, golden_digests = (manifest_digests(m.decode("utf-8")) for m in (fresh, golden))
        differing = sorted(name for name in fresh_digests.keys() | golden_digests.keys()
                           if fresh_digests.get(name) != golden_digests.get(name))
        pytest.fail(f"north-star bundle differs from its golden manifest in: {', '.join(differing) or 'order'}")
