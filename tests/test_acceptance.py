"""Acceptance gate: ten criteria the package must meet, with hard tolerances.

Each test prints exactly one PASS or FAIL line straight to the terminal
(bypassing capture) so the gate's verdicts are visible in any pytest run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

from thckit.consistency import (
    AssemblyOptions,
    IntervalSource,
    PtpNormalization,
    TransferSetup,
    build_consistency_report,
    kendall_tau_matrix,
    kendall_w,
    thc,
)
from thckit.ranking import compute_rankings
from thckit.stats import (
    MIN_RESAMPLES,
    Interval,
    ScoreMatrix,
    iqm,
    stratified_bootstrap_ci,
)
from thckit.synth import PlantedDesign, PlantedHyperparameter, generate

from conftest import write_dataset_files
from test_consistency import (
    TRAJECTORY_A1,
    TRAJECTORY_A2,
    TRAJECTORY_B1,
    TRAJECTORY_B2,
    brute_force_tau_b,
    profile,
)
from test_stats import hex_bounds, reference_bootstrap

MEAN_SD = AssemblyOptions(interval_source=IntervalSource.MEAN_SD)


@contextmanager
def verdict(capsys, number: int, title: str):
    """Print one PASS/FAIL line per criterion, visible without -s."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {number:2d} FAIL  {title}", flush=True)
        raise
    with capsys.disabled():
        print(f"acceptance {number:2d} PASS  {title}", flush=True)


def test_01_ranking_oracle(capsys):
    with verdict(capsys, 1, "five-interval ranking oracle, < 1 ms"):
        settings = [
            ("1e-2", Interval(200, 300)),
            ("1e-1", Interval(250, 350)),
            ("1", Interval(400, 600)),
            ("1e1", Interval(110, 220)),
            ("1e2", Interval(30, 70)),
        ]
        assert compute_rankings(settings).final_ranks() == {
            "1": 1.0, "1e-1": 2.5, "1e-2": 3.0, "1e1": 3.5, "1e2": 5.0,
        }
        # best single-call latency over 20 repeats
        samples = []
        for _ in range(20):
            start = time.perf_counter()
            compute_rankings(settings)
            samples.append(time.perf_counter() - start)
        assert min(samples) < 1e-3, f"slowest acceptable 1 ms, best {min(samples):.2e} s"


def test_02_full_overlap_oracle(capsys):
    with verdict(capsys, 2, "fully overlapping intervals all rank 2"):
        settings = [
            ("A", Interval(200, 300)),
            ("B", Interval(250, 350)),
            ("C", Interval(180, 260)),
        ]
        assert compute_rankings(settings).final_ranks() == {"A": 2.0, "B": 2.0, "C": 2.0}


def test_03_thc_oracle_one(capsys):
    with verdict(capsys, 3, "worked THC example 1: 2.5/3 and 1/3"):
        assert abs(thc(profile(TRAJECTORY_A1)) - 2.5 / 3) < 1e-12
        assert abs(thc(profile(TRAJECTORY_B1)) - 1 / 3) < 1e-12


def test_04_thc_oracle_two(capsys):
    with verdict(capsys, 4, "worked THC example 2: both 1/3, fractional rank kept"):
        assert 2.5 in np.asarray(TRAJECTORY_B2)
        assert abs(thc(profile(TRAJECTORY_A2)) - 1 / 3) < 1e-12
        assert abs(thc(profile(TRAJECTORY_B2)) - 1 / 3) < 1e-12


def random_profile(rng):
    m = int(rng.integers(2, 7))
    c = int(rng.integers(2, 7))
    columns = [rankdata(rng.integers(0, m, size=m), method="average")
               for _ in range(c)]
    return profile(np.column_stack(columns))


def test_05_sum_normalization_degenerates(capsys):
    with verdict(capsys, 5, "sum-normalized score is 1/m whenever any rank moves"):
        rng = np.random.default_rng(2024)
        nonzero = 0
        total = 0
        while nonzero < 1000:
            p = random_profile(rng)
            total += 1
            spread = np.ptp(p.ranks, axis=1)
            score = thc(p, PtpNormalization.SUM)
            if spread.sum() > 0:
                nonzero += 1
                assert abs(score - 1 / p.ranks.shape[0]) < 1e-12
            else:
                assert score == 0.0
        assert nonzero >= 1000
        assert total < 5000  # sanity: the family isn't mostly degenerate


def test_06_ranking_property_suite(capsys):
    with verdict(capsys, 6, "ranking invariances over 12,000 random instances, < 30 s"):
        started = time.perf_counter()
        rng = np.random.default_rng(99)
        instances = 12_000
        for i in range(instances):
            m = int(rng.integers(1, 9))
            lowers = rng.integers(-100_000, 100_000, size=m).astype(float)
            widths = rng.integers(0, 500, size=m).astype(float)
            labels = [f"v{k}" for k in range(m)]
            settings = [(lab, Interval(lo, lo + w))
                        for lab, lo, w in zip(labels, lowers, widths)]

            base = compute_rankings(settings).final_ranks()

            # bounds and half-integer granularity
            for rank in base.values():
                assert 1.0 <= rank <= m
                assert float(2 * rank).is_integer()

            # permutation invariance
            order = rng.permutation(m)
            shuffled = compute_rankings([settings[k] for k in order]).final_ranks()
            assert shuffled == base

            # translation invariance (integer shift keeps gaps exact)
            shift = float(rng.integers(-10_000, 10_000))
            moved = compute_rankings(
                [(lab, Interval(iv.lower + shift, iv.upper + shift))
                 for lab, iv in settings]).final_ranks()
            assert moved == base

            # disjoint intervals agree with the strict sort by upper bound
            if i % 4 == 0:
                starts = np.sort(rng.choice(np.arange(0, 10_000), size=m, replace=False))
                gap_settings = [
                    (labels[k], Interval(float(starts[k] * 1000),
                                         float(starts[k] * 1000 + 500)))
                    for k in range(m)
                ]
                strict = compute_rankings(gap_settings).final_ranks()
                by_upper = sorted(gap_settings, key=lambda s: -s[1].upper)
                assert [strict[lab] for lab, _ in by_upper] == [float(r) for r in range(1, m + 1)]

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"property suite took {elapsed:.1f} s"


def test_07_iqm_and_bootstrap(capsys):
    with verdict(capsys, 7, "iqm trim rule, zero-width CI, reference-resampler bit match"):
        assert iqm([1, 2, 3, 4, 5, 6, 7, 8]) == 4.5

        constant = ScoreMatrix([[3.25] * 6, [3.25] * 4])
        ci = stratified_bootstrap_ci(constant, resamples=MIN_RESAMPLES, seed=1)
        assert ci.upper - ci.lower == 0.0
        assert ci.lower == 3.25

        rng = np.random.default_rng(555)
        for case in range(20):
            rows = [list(rng.normal(size=5)) for _ in range(3)]
            seed = int(rng.integers(0, 2**32))
            fast = stratified_bootstrap_ci(ScoreMatrix(rows), resamples=MIN_RESAMPLES,
                                           seed=seed)
            slow = reference_bootstrap(rows, MIN_RESAMPLES, 0.95, seed)
            assert hex_bounds(fast.lower, fast.upper) == hex_bounds(*slow), f"case {case} diverged"


def test_08_end_to_end_synthetic(capsys):
    with verdict(capsys, 8, "planted sweeps: consistent 0, full reversal 1, exact recovery, < 60 s"):
        started = time.perf_counter()

        consistent = PlantedDesign(
            hyperparameters=(
                PlantedHyperparameter("h1", ("a", "b", "c", "d")),
                PlantedHyperparameter("h2", ("x", "y")),
            ),
            environments=("e1", "e2", "e3", "e4"))
        report, _ = build_consistency_report(
            generate(consistent), TransferSetup.ACROSS_ENVIRONMENTS, MEAN_SD)
        assert report.entries and all(e.thc == 0.0 for e in report.entries)

        # worst case: every value's rank spans the full range. Two contexts
        # suffice at m = 2; beyond that a full span for every value needs each
        # value to be strictly best and strictly worst somewhere, so the
        # planted order rotates one step per context over m contexts.
        for m in range(2, 7):
            if m == 2:
                hp = PlantedHyperparameter("flip", ("u", "v"), pattern="reversal")
                design = PlantedDesign(hyperparameters=(hp,),
                                       environments=("e1", "e2"))
            else:
                means = tuple(
                    tuple(float(m - 1 - ((i + j) % m)) for j in range(m))
                    for i in range(m)
                )
                hp = PlantedHyperparameter(
                    "rotate", tuple(f"v{i}" for i in range(m)),
                    pattern="explicit", means=means)
                design = PlantedDesign(
                    hyperparameters=(hp,),
                    environments=tuple(f"e{j}" for j in range(m)))
            report, profiles = build_consistency_report(
                generate(design), TransferSetup.ACROSS_ENVIRONMENTS, MEAN_SD)
            assert report.entries[0].thc == 1.0, f"m={m}"
            assert np.all(np.ptp(profiles[0].ranks, axis=1) == m - 1)

        # noiseless recovery of planted permutations
        rng = np.random.default_rng(17)
        contexts = tuple(f"e{j}" for j in range(5))
        planted = {}
        hps = []
        for name in ("p1", "p2", "p3"):
            m = 4
            ranks = np.column_stack([rng.permutation(m) + 1 for _ in contexts])
            planted[name] = ranks
            means = tuple(tuple(float(m - r) for r in row) for row in ranks)
            hps.append(PlantedHyperparameter(
                name, tuple(f"v{i}" for i in range(m)), pattern="explicit",
                means=means))
        design = PlantedDesign(hyperparameters=tuple(hps), environments=contexts)
        _, profiles = build_consistency_report(
            generate(design), TransferSetup.ACROSS_ENVIRONMENTS, MEAN_SD)
        for p in profiles:
            assert np.array_equal(p.ranks, planted[p.hyperparameter]), p.hyperparameter

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"synthetic suite took {elapsed:.1f} s"


def test_09_kendall_baselines(capsys):
    with verdict(capsys, 9, "Kendall W/tau oracles and 1,000-profile pair-count match"):
        identical = profile([[1, 1], [2, 2], [3, 3]])
        assert kendall_w(identical) == 1.0
        assert kendall_tau_matrix(identical)[0, 1] == pytest.approx(1.0)
        reversed_ = profile([[1, 3], [2, 2], [3, 1]])
        assert kendall_tau_matrix(reversed_)[0, 1] == pytest.approx(-1.0)

        rng = np.random.default_rng(31337)
        for _ in range(1000):
            p = random_profile(rng)
            matrix = kendall_tau_matrix(p)
            c = p.ranks.shape[1]
            for i in range(c):
                for j in range(i + 1, c):
                    expected = brute_force_tau_b(p.ranks[:, i], p.ranks[:, j])
                    if np.isnan(expected):
                        assert np.isnan(matrix[i, j])
                    else:
                        assert abs(matrix[i, j] - expected) < 1e-12


def test_10_report_reproducibility(capsys, tmp_path):
    with verdict(capsys, 10, "report bundles byte-identical across runs and processes"):
        import thckit
        from thckit.cli import main

        design = PlantedDesign(
            hyperparameters=(
                PlantedHyperparameter("lr", ("0.1", "0.01", "0.001")),
                PlantedHyperparameter("width", ("64", "256"), pattern="reversal"),
            ),
            agents=("agent01", "agent02"),
            environments=("e1", "e2", "e3"),
            data_regimes=("low", "high"),
            noise_scale=0.2, seed=5)
        paths = write_dataset_files(generate(design), tmp_path)

        def run(out, fresh_process=False):
            argv = ["report",
                    "--runs", str(paths["runs"]),
                    "--baselines", str(paths["baselines"]),
                    "--schema", str(paths["schema"]),
                    "--out", str(out),
                    "--resamples", "200", "--seed", "0", "--kendall"]
            if fresh_process:
                # A new interpreter importing this same thckit, under another hash seed.
                src = str(Path(thckit.__file__).resolve().parents[1])
                path = os.environ.get("PYTHONPATH")
                env = {**os.environ,
                       "PYTHONPATH": src + os.pathsep + path if path else src,
                       "PYTHONHASHSEED": "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"}
                code = subprocess.run([sys.executable, "-m", "thckit.cli", *argv],
                                      env=env).returncode
            else:
                code = main(argv)
            assert code == 0
            return {p.relative_to(out).as_posix(): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()}

        first = run(tmp_path / "run1")
        second = run(tmp_path / "run2")
        other_process = run(tmp_path / "run3", fresh_process=True)
        assert first == second
        assert first == other_process
        assert "MANIFEST.sha256" in first and "report.json" in first
