"""Synthetic-sweep tests: planted designs, generation, recovery study."""

from __future__ import annotations

import importlib
import io
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import thckit
from thckit import synth
from thckit.consistency import (
    AssemblyOptions,
    IntervalSource,
    TransferSetup,
    build_consistency_report,
)
from thckit.dataset import Axis, SweepSchema, parse_dataset, write_baselines, write_run_log
from thckit.stats import human_normalize
from thckit.synth import (
    PATTERNS,
    PlantedDesign,
    PlantedHyperparameter,
    design_from_mapping,
    generate,
    load_design,
    recovery_study,
)

MEAN_SD = AssemblyOptions(interval_source=IntervalSource.MEAN_SD)


def simple_design(**overrides) -> PlantedDesign:
    defaults = dict(
        hyperparameters=(
            PlantedHyperparameter("lr", ("0.1", "0.01", "0.001")),
            PlantedHyperparameter("width", ("64", "256"), pattern="reversal"),
        ),
        environments=("env01", "env02", "env03"),
        seeds_per_cell=3,
    )
    defaults.update(overrides)
    return PlantedDesign(**defaults)


class TestPlantedHyperparameter:
    def test_values_are_stringified(self):
        hp = PlantedHyperparameter("lr", (0.1, True, "x"))
        assert hp.values == ("0.1", "True", "x")

    def test_unknown_pattern(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            PlantedHyperparameter("lr", ("a",), pattern="zigzag")

    def test_means_required_iff_explicit(self):
        with pytest.raises(ValueError, match="means table"):
            PlantedHyperparameter("lr", ("a",), pattern="explicit")
        with pytest.raises(ValueError, match="means table"):
            PlantedHyperparameter("lr", ("a",), pattern="consistent", means=((1.0,),))

    def test_means_shape_checked(self):
        with pytest.raises(ValueError, match="one equal-length row per value"):
            PlantedHyperparameter("lr", ("a", "b"), pattern="explicit", means=((1.0, 2.0),))
        with pytest.raises(ValueError, match="finite"):
            PlantedHyperparameter("lr", ("a",), pattern="explicit",
                                  means=((float("inf"), 0.0),))

    def test_duplicate_values(self):
        with pytest.raises(ValueError, match="unique"):
            PlantedHyperparameter("lr", ("0.1", 0.1))

    @pytest.mark.parametrize("values, means", [
        (["a", "b"], [[1, 0], [0, 1]]),
        (("a", "b"), ((1.0, 0.0), (0.0, 1.0))),
        (np.array(["a", "b"]), np.array([[1.0, 0.0], [0.0, 1.0]])),
    ], ids=["lists", "tuples", "arrays"])
    def test_list_likes_are_held_as_tuples(self, values, means):
        hp = PlantedHyperparameter("lr", values, "explicit", means)
        assert hp.values == ("a", "b")
        assert hp.means == ((1.0, 0.0), (0.0, 1.0))

    @pytest.mark.parametrize("values, means, message", [
        ("abc", None, "hyperparameter 'lr': 'values' must be a list, got 'abc'"),
        (("a",), ((True,),), "hyperparameter 'lr': 'means' must be a list of lists of numbers, got ((True,),)"),
        (("a",), ("1",), "hyperparameter 'lr': 'means' must be a list of lists of numbers, got ('1',)"),
    ], ids=["values-string", "means-bool", "means-row-string"])
    def test_wrongly_typed_fields_rejected_naming_them(self, values, means, message):
        with pytest.raises(ValueError) as excinfo:
            PlantedHyperparameter("lr", values, "explicit", means)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("name, values, message", [
        ("", ("a",), "name must be non-empty"),
        ("lr", (), "at least one value required"),
        ("lr", ("a", ""), "lr: values must not contain an empty string"),
    ])
    def test_empty_name_or_values(self, name, values, message):
        with pytest.raises(ValueError, match=message):
            PlantedHyperparameter(name, values)


class TestPlantedDesign:
    def test_duplicate_axis_labels(self):
        with pytest.raises(ValueError, match="non-empty and unique"):
            simple_design(environments=("e", "e"))

    def test_no_hyperparameters(self):
        with pytest.raises(ValueError, match="at least one hyperparameter"):
            simple_design(hyperparameters=())

    def test_duplicate_hyperparameter_names(self):
        hp = PlantedHyperparameter("lr", ("a", "b"))
        with pytest.raises(ValueError, match="unique"):
            simple_design(hyperparameters=(hp, hp))

    def test_bad_scalars(self):
        with pytest.raises(ValueError):
            simple_design(seeds_per_cell=0)
        with pytest.raises(ValueError):
            simple_design(noise_scale=-1.0)
        with pytest.raises(ValueError):
            simple_design(score_gap=0.0)

    @pytest.mark.parametrize("field, value, message", [
        ("seeds_per_cell", True, "'seeds_per_cell' must be an integer, got True"),
        ("seeds_per_cell", 2.5, "'seeds_per_cell' must be an integer, got 2.5"),
        ("seed", "7", "'seed' must be an integer, got '7'"),
        ("noise_scale", None, "'noise_scale' must be a number, got None"),
        ("score_gap", False, "'score_gap' must be a number, got False"),
        ("environments", "env01", "'environments' must be a list of labels or a positive integer count, got 'env01'"),
        ("agents", 0, "'agents' must be a list of labels or a positive integer count, got 0"),
        ("context_axis", "agents",
         "'context_axis' must be one of 'agent', 'environment', 'data_regime', got 'agents'"),
        ("environments", ("e1", "", "e3"), "environments must not contain an empty label"),
    ])
    def test_wrongly_typed_fields_rejected_naming_them(self, field, value, message):
        with pytest.raises(ValueError) as excinfo:
            simple_design(**{field: value})
        assert str(excinfo.value) == message

    def test_integer_axis_count_numbers_labels(self):
        design = simple_design(environments=3, agents=np.int64(2))
        assert design.environments == ("env01", "env02", "env03")
        assert design.agents == ("agent01", "agent02")

    @pytest.mark.parametrize("labels", [["e1", "e2", 3], ("e1", "e2", 3), np.array(["e1", "e2", "3"])],
                             ids=["list", "tuple", "array"])
    def test_axis_list_likes_are_held_as_string_tuples(self, labels):
        design = simple_design(environments=labels, seeds_per_cell=np.int64(2), noise_scale=np.float32(0.5))
        assert design.environments == ("e1", "e2", "3")
        assert (design.seeds_per_cell, design.noise_scale) == (2, 0.5)
        assert type(design.seeds_per_cell) is int and type(design.noise_scale) is float

    def test_explicit_means_must_cover_contexts(self):
        hp = PlantedHyperparameter("lr", ("a", "b"), pattern="explicit",
                                   means=((3.0, 1.0), (1.0, 3.0)))
        with pytest.raises(ValueError, match="3 columns"):
            simple_design(hyperparameters=(hp,))  # design has 3 environments

    def test_true_means_consistent(self):
        design = simple_design(score_gap=2.0)
        means = design.true_means(design.hyperparameters[0])
        assert means.tolist() == [[4.0, 4.0, 4.0], [2.0, 2.0, 2.0], [0.0, 0.0, 0.0]]

    def test_true_means_reversal_flips_odd_contexts(self):
        design = simple_design()
        means = design.true_means(design.hyperparameters[1])
        assert means.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]

    def test_schema_round_trip(self):
        schema = simple_design().schema()
        assert schema.environments == ("env01", "env02", "env03")
        assert schema.hyperparameters["lr"] == ("0.1", "0.01", "0.001")


class TestGenerate:
    def test_a_design_and_its_dataset_build_one_schema(self):
        hps = [PlantedHyperparameter(f"hp{i}", ("a", "b")) for i in range(3)]
        with mock.patch.object(SweepSchema, "__post_init__", autospec=True,
                               side_effect=SweepSchema.__post_init__) as checked:
            generate(PlantedDesign(hps, agents=2, environments=3))
        assert checked.call_count == 1

    def test_noiseless_scores_equal_true_means(self):
        design = simple_design()
        dataset = generate(design)
        means = design.true_means(design.hyperparameters[0])
        for record in (r for r in dataset.records if r.hyperparameter == "lr"):
            vi = design.hyperparameters[0].values.index(record.value)
            ci = design.environments.index(record.environment)
            assert record.final_score == means[vi, ci]

    def test_full_grid_and_seed_count(self):
        design = simple_design(seeds_per_cell=4)
        dataset = generate(design)
        # 3 lr values + 2 width values = 5 cells per env, times 3 envs, 4 seeds
        assert len(dataset.records) == 5 * 3 * 4

    def test_baselines_are_identity(self):
        dataset = generate(simple_design())
        assert all(dataset.baselines.scores[e] == (0.0, 1.0)
                   for e in dataset.baselines.scores)
        record = dataset.records[0]
        rnd, hum = dataset.baselines.scores[record.environment]
        assert human_normalize(record.final_score, rnd, hum) == record.final_score

    def test_generation_is_deterministic(self):
        design = simple_design(noise_scale=0.5, seed=123)
        assert generate(design) == generate(design)

    def test_seed_changes_noise(self):
        a = generate(simple_design(noise_scale=0.5, seed=1))
        b = generate(simple_design(noise_scale=0.5, seed=2))
        assert a != b

    def test_noise_scale_zero_is_exact(self):
        a = generate(simple_design(seed=1))
        b = generate(simple_design(seed=2))
        assert a == b  # seed only feeds the noise draws

    def test_generated_dataset_survives_its_own_parser(self, tmp_path):
        design = simple_design(noise_scale=0.3)
        dataset = generate(design)
        runs = tmp_path / "runs.csv"
        baselines = tmp_path / "baselines.csv"
        with open(runs, "w") as fh:
            write_run_log(dataset, fh)
        with open(baselines, "w") as fh:
            write_baselines(dataset, fh)
        with open(runs) as rf, open(baselines) as bf:
            parsed = parse_dataset(rf, bf, design.schema())
        assert parsed == dataset

    def test_agent_context_axis(self):
        design = simple_design(
            agents=("a1", "a2"), environments=("env01",),
            context_axis=Axis.AGENT,
            hyperparameters=(PlantedHyperparameter("lr", ("hi", "lo")),),
        )
        dataset = generate(design)
        report, _ = build_consistency_report(dataset, TransferSetup.ACROSS_AGENTS, MEAN_SD)
        assert report.entries[0].thc == 0.0


class TestPlantedRecovery:
    def test_consistent_design_scores_zero(self):
        report, profiles = build_consistency_report(
            generate(simple_design()), TransferSetup.ACROSS_ENVIRONMENTS, MEAN_SD)
        by_name = {e.hyperparameter: e for e in report.entries}
        assert by_name["lr"].thc == 0.0
        planted = next(p for p in profiles if p.hyperparameter == "lr")
        # declared order is best-first, so ranks are 1, 2, 3 in every context
        expected = [[1.0 + i] * 3 for i in range(3)]
        assert planted.ranks.tolist() == expected

    # A strict reversal over two contexts gives value i ranks (i, m+1-i); only
    # the two extreme values span the full range, so the score is 1 exactly at
    # m = 2 and the mean of |m+1-2i|/(m-1) in general.
    @pytest.mark.parametrize("m,expected", [(2, 1.0), (3, 2 / 3), (4, 2 / 3)])
    def test_two_context_reversal(self, m, expected):
        hp = PlantedHyperparameter("hp", tuple(f"v{i}" for i in range(m)),
                                   pattern="reversal")
        design = simple_design(hyperparameters=(hp,), environments=("env01", "env02"))
        report, _ = build_consistency_report(
            generate(design), TransferSetup.ACROSS_ENVIRONMENTS, MEAN_SD)
        assert report.entries[0].thc == pytest.approx(expected, abs=1e-12)

    # Rotating the planted order by one position per context sends every value
    # through every rank, the worst case: each peak-to-peak equals m-1.
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_rotating_order_maximizes_thc(self, m):
        means = tuple(
            tuple(float(m - 1 - ((i + j) % m)) for j in range(m))
            for i in range(m)
        )
        hp = PlantedHyperparameter("hp", tuple(f"v{i}" for i in range(m)),
                                   pattern="explicit", means=means)
        design = simple_design(
            hyperparameters=(hp,),
            environments=tuple(f"env{j:02d}" for j in range(1, m + 1)))
        report, _ = build_consistency_report(
            generate(design), TransferSetup.ACROSS_ENVIRONMENTS, MEAN_SD)
        assert report.entries[0].thc == 1.0

    def test_explicit_means_are_recovered(self):
        hp = PlantedHyperparameter(
            "hp", ("a", "b", "c"), pattern="explicit",
            means=((2.0, 0.0, 1.0), (1.0, 2.0, 0.0), (0.0, 1.0, 2.0)))
        design = simple_design(hyperparameters=(hp,))
        _, profiles = build_consistency_report(
            generate(design), TransferSetup.ACROSS_ENVIRONMENTS, MEAN_SD)
        assert profiles[0].ranks.tolist() == [[1, 3, 2], [2, 1, 3], [3, 2, 1]]


class TestRecoveryStudy:
    def test_noiseless_rows(self):
        design = simple_design(
            hyperparameters=(PlantedHyperparameter("lr", ("a", "b", "c")),))
        rows = recovery_study(design, noise_levels=[0.0], trials=3)
        (row,) = rows
        assert row.noise_scale == 0.0
        assert row.trials == 3
        assert row.thc_mean == 0.0 and row.thc_sd == 0.0
        assert row.w_mean == 1.0 and row.w_sd == 0.0
        # One trial gives one sample per statistic, whose spread is 0.
        (single,) = recovery_study(design, noise_levels=[0.5], trials=1)
        assert single.thc_sd == 0.0 and single.w_sd == 0.0

    def test_noise_degrades_consistency(self):
        design = simple_design(
            hyperparameters=(PlantedHyperparameter("lr", ("a", "b", "c")),),
            score_gap=1.0, seeds_per_cell=3)
        rows = recovery_study(design, noise_levels=[0.0, 0.6], trials=8)
        assert rows[0].thc_mean == 0.0
        assert rows[1].thc_mean > 0.1
        assert rows[1].w_mean < 0.9

    def test_reversal_scores_high_thc_low_w(self):
        design = simple_design(
            hyperparameters=(PlantedHyperparameter("hp", ("a", "b"), pattern="reversal"),),
            environments=("env01", "env02"))
        (row,) = recovery_study(design, noise_levels=[0.0], trials=2)
        assert row.thc_mean == 1.0
        assert row.w_mean == 0.0

    def test_is_deterministic(self):
        design = simple_design(
            hyperparameters=(PlantedHyperparameter("lr", ("a", "b")),))
        first = recovery_study(design, noise_levels=[0.5], trials=4)
        second = recovery_study(design, noise_levels=[0.5], trials=4)
        assert first == second

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            recovery_study(simple_design(), noise_levels=[0.0], trials=0)


class TestDesignConfig:
    def test_integer_axis_counts(self):
        design = design_from_mapping({
            "environments": 4,
            "hyperparameters": {"lr": {"values": [0.1, 0.01]}},
        })
        assert design.environments == ("env01", "env02", "env03", "env04")
        assert design.hyperparameters[0].values == ("0.1", "0.01")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown design keys"):
            design_from_mapping({
                "hyperparameters": {"lr": {"values": ["a"]}},
                "typo_key": 1,
            })
        # Keys of mixed types, as YAML reads `1:` and `typo:`, are listed too.
        with pytest.raises(ValueError, match=r"unknown design keys: \[1, 'typo'\]"):
            design_from_mapping({"hyperparameters": {"lr": {"values": ["a"]}}, "typo": 2, 1: 2})

    def test_hyperparameters_required(self):
        with pytest.raises(ValueError, match="hyperparameters"):
            design_from_mapping({"environments": 2})
        with pytest.raises(ValueError, match="must be a mapping"):
            design_from_mapping({"hyperparameters": {"lr": ["a", "b"]}})

    def test_load_design_yaml(self):
        text = """\
environments: [e1, e2]
seeds_per_cell: 5
noise_scale: 0.25
seed: 7
hyperparameters:
  lr:
    values: [0.1, 0.01]
    pattern: reversal
  width:
    values: [64, 128]
    pattern: explicit
    means:
      - [1.0, 0.0]
      - [0.0, 1.0]
"""
        design = load_design(io.StringIO(text))
        assert design.environments == ("e1", "e2")
        assert design.seeds_per_cell == 5
        assert design.noise_scale == 0.25
        assert design.seed == 7
        assert design.hyperparameters[0].pattern == "reversal"
        assert design.hyperparameters[1].means == ((1.0, 0.0), (0.0, 1.0))

    def test_load_design_from_path(self, tmp_path):
        path = tmp_path / "design.yaml"
        path.write_text("hyperparameters:\n  lr:\n    values: [a, b]\n")
        design = load_design(path)
        assert design.hyperparameters[0].values == ("a", "b")

    def test_top_level_must_be_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            load_design(io.StringIO("- 1\n- 2\n"))


# Design documents for checking that load_design and direct construction
# agree: valid ones, and ones with a single wrongly typed or duplicated entry.
labels = st.one_of(st.sampled_from(["a", "e1", "0.50", "null", "yes", "~"]), st.integers(0, 99), st.booleans())
label_lists = st.lists(labels, min_size=1, max_size=3, unique_by=str)
AXIS_KEYS = {Axis.AGENT: "agents", Axis.ENVIRONMENT: "environments", Axis.DATA_REGIME: "data_regimes"}
# Wrong values for each kind of entry.
MISFITS = {
    "axis": st.one_of(st.floats(-2, 2), st.booleans(), st.none(), st.text("ab", max_size=2), st.integers(-2, 0),
                      st.dictionaries(st.just("a"), st.integers())),
    "integer": st.one_of(st.floats(-2, 9), st.booleans(), st.none(), st.text("12", max_size=2), st.lists(st.integers())),
    "number": st.one_of(st.booleans(), st.none(), st.text("1.", max_size=2), st.lists(st.floats(0, 1), max_size=1)),
    "context_axis": st.one_of(st.sampled_from(["agents", "Environment", "env"]), st.integers(0, 2), st.none()),
    "values": st.one_of(st.text("ab", max_size=2), st.integers(), st.none(), st.dictionaries(st.just("a"), labels)),
    "pattern": st.one_of(st.integers(0, 2), st.booleans(), st.none(), st.sampled_from(["Reversal", "x"])),
    "means": st.one_of(st.integers(), st.text("1", max_size=2), st.lists(st.floats(0, 1), min_size=1, max_size=2),
                       st.lists(st.lists(st.one_of(st.booleans(), st.text("1", min_size=1)), min_size=1, max_size=2),
                                min_size=1, max_size=2)),
}
KINDS = {"agents": "axis", "environments": "axis", "data_regimes": "axis", "context_axis": "context_axis",
         "seeds_per_cell": "integer", "seed": "integer", "noise_scale": "number", "score_gap": "number"}


@st.composite
def design_documents(draw) -> dict:
    doc = {key: draw(st.one_of(st.integers(1, 3), label_lists)) for key in AXIS_KEYS.values() if draw(st.booleans())}
    axis = draw(st.sampled_from(list(Axis)))
    doc["context_axis"] = axis.value
    doc.update(seeds_per_cell=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**40)),
               noise_scale=draw(st.floats(0, 2)), score_gap=draw(st.floats(0.1, 3)))
    contexts = doc.get(AXIS_KEYS[axis], len(getattr(PlantedDesign, AXIS_KEYS[axis])))
    contexts = contexts if isinstance(contexts, int) else len(contexts)
    doc["hyperparameters"] = {}
    for name in draw(st.lists(st.sampled_from(["lr", "width", 7]), min_size=1, max_size=2, unique=True)):
        values = draw(label_lists)
        pattern = draw(st.sampled_from(PATTERNS))
        doc["hyperparameters"][name] = {"values": values, "pattern": pattern}
        if pattern == "explicit":
            doc["hyperparameters"][name]["means"] = [[float(i + j) for j in range(contexts)] for i in range(len(values))]
    entries = [(doc, key, KINDS[key]) for key in doc if key in KINDS]
    entries += [(entry, key, key) for entry in doc["hyperparameters"].values() for key in entry]
    container, key, kind = draw(st.sampled_from(entries))
    fault = draw(st.sampled_from(["none", "wrong type", "duplicate"]))
    if fault == "wrong type":
        container[key] = draw(MISFITS[kind])
    elif fault == "duplicate" and isinstance(container[key], list):
        container[key].append(container[key][0])
    return doc


def built(build) -> tuple[object, str | None]:
    """What ``build()`` returns, or the message of the ``ValueError`` it raises."""
    try:
        return build(), None
    except ValueError as exc:
        return None, str(exc)


class TestDesignRoutes:
    @settings(deadline=None)
    @given(design_documents())
    def test_load_design_equals_direct_construction(self, doc):
        text = yaml.safe_dump(doc, sort_keys=False)
        assert repr(yaml.safe_load(text)) == repr(doc)

        def direct() -> PlantedDesign:
            planted = [PlantedHyperparameter(name, **entry) for name, entry in doc["hyperparameters"].items()]
            return PlantedDesign(**{**doc, "hyperparameters": planted})
        assert built(lambda: load_design(io.StringIO(text))) == built(direct)


class TestPackageExports:
    def test_generator_names_are_the_synth_modules(self):
        for name in ("PlantedDesign", "PlantedHyperparameter", "RecoveryRow", "generate", "load_design",
                     "recovery_study"):
            assert getattr(thckit, name) is getattr(synth, name)
        with pytest.raises(AttributeError, match="no attribute 'missing'"):
            getattr(thckit, "missing")

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from thckit import *", namespace)
        assert set(thckit.__all__) <= set(namespace)
        assert namespace["generate"] is synth.generate
        # A name deleted from a module but left in its __all__ fails here too.
        for module in ("stats", "dataset", "ranking", "consistency", "report", "synth"):
            namespace = {}
            exec(f"from thckit.{module} import *", namespace)
            assert set(importlib.import_module(f"thckit.{module}").__all__) <= set(namespace), module
