#!/usr/bin/env python3
"""Benchmark of the thckit CLI pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to interleave every workload
in one command. Each run starts ``thckit.cli.main`` in a fresh
single-threaded process (``perfbench/child.py``) and repeats for S seconds
(at least three runs per workload). With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it interleaves untraced and traced
runs and reports the per-layer metrics of ``perfbench/tracer.py``. Every
run's output is checked after the timed runs. ``--full-size`` uses the
hyper-parameter counts of the full Atari-shaped sweep instead of the
scaled-down defaults. Details and the layer table are in
``perfbench/README.md``.

Working files and a results file per command go under ``.perfbench/`` in
the checkout. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH))

from tracer import EXACT_COUNTS, LAYER_UNITS  # noqa: E402

FIXTURE = ROOT / "tests" / "data"
GOLDEN = ROOT / "tests" / "golden" / "report"
CHILD_TIMEOUT_S = 170
MIN_RUNS = 3
MIN_SETUP_SAMPLES = 5

# Atari-shaped planted design: hyper-parameters x 4 values x 2 agents x 26
# environments x 2 regimes x 5 seeds. Odd-numbered hyper-parameters follow
# the ``reversal`` pattern, even-numbered ones ``consistent``.
VALUES = ("v1", "v2", "v3", "v4")
AGENTS = ("agent01", "agent02")
ENVIRONMENTS = tuple(f"env{i:02d}" for i in range(1, 27))
REGIMES = ("low", "high")
SEEDS_PER_CELL = 5
NOISE_SCALE = 0.1
SCORE_GAP = 1.0

# Children run single-threaded and with a fixed hash seed.
CHILD_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    # Synthetic (hyper-parameters, data regimes), by default and at the full
    # Atari shape; (0, 0) for the committed fixture.
    size: tuple[int, int] = (0, 0)
    full_size: tuple[int, int] = (0, 0)
    context_axis: str = ""

    @property
    def synthetic(self) -> bool:
        return self.size[0] > 0

    def contexts(self) -> int:
        return len(ENVIRONMENTS) if self.context_axis == "environment" else len(AGENTS)


WORKLOADS = {w.name: w for w in (
    Workload("fixture-report",
             ("report", "--setup", "all", "--kendall", "--resamples", "200", "--seed", "0")),
    Workload("atari-envs-meansd",
             ("thc", "--setup", "environments", "--interval-source", "mean_sd", "--kendall"),
             size=(4, 2), full_size=(20, 2), context_axis="environment"),
    Workload("atari-agents-iqm",
             ("thc", "--setup", "agents", "--kendall"),
             size=(1, 1), full_size=(2, 2), context_axis="agent"),
)}

END_TO_END_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def hyperparameter_names(count: int) -> list[tuple[str, str]]:
    return [(f"hp{i:02d}", "reversal" if i % 2 else "consistent") for i in range(1, count + 1)]


def planted_thc(pattern: str, contexts: int) -> float:
    """THC implied by the design's true means (no interval overlaps)."""
    m = len(VALUES)
    if pattern == "consistent" or contexts < 2:
        return 0.0
    # Forward contexts rank value i at i + 1, reversed ones at m - i.
    normalized = [abs((i + 1) - (m - i)) / (m - 1) for i in range(m)]
    return sum(normalized) / m


@dataclass
class State:
    """Runs and inputs of one workload within this command."""

    workload: Workload
    hyperparameters: int
    regimes: tuple[str, ...]
    directory: Path
    inputs: dict[str, Path] = field(default_factory=dict)
    runs: list[dict] = field(default_factory=list)
    setup_samples: list[float] = field(default_factory=list)
    last_wall_s: float = 0.0


# -- inputs -------------------------------------------------------------------


def prepare(state: State, seed: int) -> None:
    """Write the workload's inputs before any timing."""
    if not state.workload.synthetic:
        state.inputs = {"runs": FIXTURE / "runs.csv", "baselines": FIXTURE / "baselines.csv",
                        "schema": FIXTURE / "schema.yaml"}
        # Untimed import, so no timed run pays for a cold start.
        time_setup(state.directory / "warmup")
        return
    out = state.directory / "inputs"
    out.mkdir(parents=True)
    spec = {
        "out": str(out), "seed": seed, "values": VALUES,
        "hyperparameters": hyperparameter_names(state.hyperparameters),
        "agents": AGENTS, "environments": ENVIRONMENTS, "data_regimes": state.regimes,
        "context_axis": state.workload.context_axis, "seeds_per_cell": SEEDS_PER_CELL,
        "noise_scale": NOISE_SCALE, "score_gap": SCORE_GAP,
    }
    spec_path = out / "design.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    spawn([str(BENCH / "child.py"), "generate", str(spec_path)], out / "generate")
    state.inputs = {name: out / f"{name}{ext}" for name, ext in
                    (("runs", ".csv"), ("baselines", ".csv"), ("schema", ".yaml"))}


def spawn(args: list[str], log_stem: Path) -> None:
    """Run a child interpreter to completion; raise if it fails."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        proc = subprocess.run([sys.executable, *args], stdout=out, stderr=err, cwd=ROOT,
                              env=CHILD_ENV, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(Path(f"{log_stem}.err").read_text(encoding="utf-8", errors="replace"))
        raise RuntimeError(f"{' '.join(args[:2])} exited with {proc.returncode}")


def time_setup(stem: Path) -> float:
    """Seconds from spawning a child until its ``import thckit.cli`` returned."""
    spec_path = Path(f"{stem}.json")
    spec_path.write_text(json.dumps({"result": f"{stem}.result.json"}), encoding="utf-8")
    start = time.perf_counter()
    spawn([str(BENCH / "child.py"), "setup", str(spec_path)], stem)
    return json.loads(Path(f"{stem}.result.json").read_text(encoding="utf-8"))["imported_at"] - start


def input_sizes(state: State) -> dict[str, int]:
    with open(state.inputs["runs"], encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {"runs": len(rows), "cells": len({tuple(row[:5]) for row in rows})}


# -- one timed run ------------------------------------------------------------


def run_once(state: State, traced: bool) -> dict:
    index = len(state.runs)
    run_dir = state.directory / f"run{index:03d}"
    run_dir.mkdir()
    argv = [*state.workload.command, "--runs", str(state.inputs["runs"]),
            "--baselines", str(state.inputs["baselines"]), "--schema", str(state.inputs["schema"])]
    if not state.workload.synthetic:
        argv += ["--out", str(run_dir / "report")]
    spec = {"argv": argv, "trace": traced,
            "result": str(run_dir / "result.json"), "spans": str(run_dir / "spans.json")}
    (run_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")

    with open(run_dir / "stdout.txt", "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), "run", str(run_dir / "spec.json")],
                stdout=out, stderr=err, cwd=ROOT, env=CHILD_ENV, timeout=CHILD_TIMEOUT_S,
                check=False)
            exit_code = proc.returncode
        except subprocess.TimeoutExpired:
            exit_code = -1
        wall = time.perf_counter() - start
    state.last_wall_s = wall

    run = {"index": index, "traced": traced, "dir": run_dir, "exit": exit_code, "wall_s": wall}
    result_path = run_dir / "result.json"
    if exit_code == 0 and result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        run.update(result)
        run["setup_s"] = result["imported_at"] - start
        state.setup_samples.append(run["setup_s"])
    else:
        run["rc"] = exit_code if exit_code else -1
    state.runs.append(run)
    return run


def measure(states: list[State], seconds: float, trace: bool) -> None:
    """Interleave runs of every workload, one per workload per round, until
    the next round would overrun ``seconds`` per workload. In traced mode
    the rounds go untraced, traced, traced, then alternate."""
    budget = seconds * len(states)
    start = time.perf_counter()
    round_index = 0
    while True:
        if round_index >= MIN_RUNS:
            next_round = sum(s.last_wall_s for s in states)
            if time.perf_counter() - start + next_round > budget:
                break
        traced = trace and (round_index in (1, 2) or (round_index > 2 and round_index % 2 == 0))
        for state in states:
            run_once(state, traced)
        round_index += 1
    # Workloads with few long runs get extra set-up samples.
    for state in states:
        while len(state.setup_samples) < MIN_SETUP_SAMPLES:
            stem = state.directory / f"setup{len(state.setup_samples):03d}"
            state.setup_samples.append(time_setup(stem))


# -- output checks (after all timing) ---------------------------------------


def tree_bytes(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def output_digest(state: State, run: dict) -> str:
    digest = hashlib.sha256()
    if state.workload.synthetic:
        digest.update((run["dir"] / "stdout.txt").read_bytes())
    else:
        for name, data in tree_bytes(run["dir"] / "report").items():
            digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest()


def check_output(state: State, run: dict) -> list[str]:
    """Problems with one run's output; empty when it is correct."""
    if not state.workload.synthetic:
        fresh, golden = tree_bytes(run["dir"] / "report"), tree_bytes(GOLDEN)
        if sorted(fresh) != sorted(golden):
            return [f"report files {sorted(fresh)} differ from golden {sorted(golden)}"]
        return [f"{name} differs from golden" for name in golden if fresh[name] != golden[name]]
    return check_planted(state, (run["dir"] / "stdout.txt").read_text(encoding="utf-8"))


def check_planted(state: State, stdout: str) -> list[str]:
    """The printed consistency table must recover the planted truth."""
    workload = state.workload
    patterns = dict(hyperparameter_names(state.hyperparameters))
    lines = [line for line in stdout.splitlines() if line.strip()]
    problems = [f"unexpected line: {line}" for line in lines if line.startswith("skipped")]
    table = [line.split() for line in lines if not line.startswith("skipped")]
    if len(table) < 2 or table[0][:6] != ["setup", "hyperparameter", "fixed", "contexts",
                                         "values", "thc"]:
        return problems + ["no consistency table in the output"]
    rows = table[2:]
    # One profile per combination of the axes the setup neither varies nor pools.
    per_hyperparameter = len(state.regimes) * (
        len(AGENTS) if workload.context_axis == "environment" else 1)
    expected_rows = state.hyperparameters * per_hyperparameter
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} entries, expected {expected_rows}")
    seen = set()
    for row in rows:
        try:
            _, hp, fixed, contexts, values, thc_text = row[:6]
            shape = (int(contexts), int(values))
            thc = float(thc_text)
        except ValueError:
            problems.append(f"unreadable row: {' '.join(row)}")
            continue
        seen.add((hp, fixed))
        if hp not in patterns:
            problems.append(f"unknown hyperparameter {hp}")
            continue
        expected = planted_thc(patterns[hp], workload.contexts())
        if shape != (workload.contexts(), len(VALUES)):
            problems.append(f"{hp} [{fixed}]: {contexts} contexts x {values} values")
        if abs(thc - expected) > 1e-12:
            problems.append(f"{hp} [{fixed}]: THC {thc_text}, planted {expected!r}")
    if len(seen) != len(rows):
        problems.append("duplicate entries")
    return problems


def check_runs(state: State) -> list[str]:
    """Mark each run ``ok``; return problems that concern the whole set."""
    verdicts: dict[str, list[str]] = {}
    reference = None
    for run in state.runs:
        run["problems"] = []
        if run["rc"] != 0:
            run["problems"].append(f"exit code {run['rc']}")
        else:
            digest = output_digest(state, run)
            if digest not in verdicts:
                verdicts[digest] = check_output(state, run)
            reference = reference or digest
            run["problems"] += verdicts[digest]
            if digest != reference:
                run["problems"].append("output differs from the first run's")
            run["output_sha256"] = digest
        run["ok"] = not run["problems"]

    traced = [run for run in state.runs if run["traced"] and run["ok"]]
    set_problems = []
    for run in traced[1:]:
        differing = [name for name in EXACT_COUNTS
                     if run["layers"][name] != traced[0]["layers"][name]]
        if differing:
            set_problems.append(f"run {run['index']}: counts {differing} differ from run "
                                f"{traced[0]['index']}")
    return set_problems


# -- summaries ------------------------------------------------------------------


def summary(values: list[float]) -> dict[str, float]:
    """Median and quartiles with the sample count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(state: State) -> dict[str, dict[str, float]]:
    plain = [run for run in state.runs if not run["traced"] and run["ok"]]
    out = {
        "pipeline_s": summary([run["pipeline_s"] for run in plain]),
        "setup_s": summary(state.setup_samples),
        "peak_rss_mb": summary([run["peak_rss_mb"] for run in plain]),
    }
    attempted = len(state.runs)
    out["failed_ratio"] = {"value": sum(not run["ok"] for run in state.runs) / attempted,
                           "n": attempted}
    return out


def per_layer(state: State) -> dict[str, float]:
    """Median of each layer metric over the traced runs, plus the overhead."""
    traced = [run for run in state.runs if run["traced"] and run["ok"]]
    plain = [run for run in state.runs if not run["traced"] and run["ok"]]
    out = {name: statistics.median([run["layers"][name] for run in traced])
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(run["pipeline_s"] for run in traced)
                               - statistics.median(run["pipeline_s"] for run in plain))
    return out


def host_info(args: argparse.Namespace, states: list[State]) -> dict:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    try:
        # The ceiling keeps git from searching directories above the checkout.
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_seeds": {
            s.workload.name: ({"design_seed": args.seed} if s.workload.synthetic else
                              {"committed_fixture": "tests/data/design.yaml"})
            for s in states},
    }


def summarise(state: State, trace: bool, prefix: str,
              metrics: dict[str, dict[str, float | str]]) -> tuple[dict, list[str]]:
    """Check the workload's runs, print its metrics and add them to
    ``metrics``; return its results-file entry and any set-wide problems."""
    problems = check_runs(state)
    entry = {"hyperparameters": state.hyperparameters, "data_regimes": state.regimes,
             "inputs": input_sizes(state), "problems": problems,
             "runs": [{k: str(v) if isinstance(v, Path) else v for k, v in run.items()}
                      for run in state.runs]}
    shape = (f"{state.hyperparameters} hyper-parameter(s) x {len(state.regimes)} regime(s)"
             if state.workload.synthetic else "committed fixture")
    print(f"{state.workload.name}: {entry['inputs']['runs']} runs, "
          f"{entry['inputs']['cells']} cells, {shape}")
    for problem in problems + [f"run {run['index']}: {p}" for run in state.runs
                               for p in run["problems"]]:
        print(f"  PROBLEM {problem}")
    ok_runs = [run for run in state.runs if run["ok"]]
    if not any(not run["traced"] for run in ok_runs) or (
            trace and not any(run["traced"] for run in ok_runs)):
        return entry, problems + [f"{state.workload.name}: too few successful runs"]

    e2e = entry["end_to_end"] = end_to_end(state)
    for name, unit in END_TO_END_UNITS.items():
        s = e2e[name]
        print(f"  {name:<14} median {s['median']:.4f} {unit}  "
              f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}")
        if not trace:
            metrics[prefix + name] = {"value": s["median"], "unit": unit}
    print(f"  failed_ratio   {e2e['failed_ratio']['value']:.4f}  n={e2e['failed_ratio']['n']}")
    if trace:
        layers = entry["per_layer"] = per_layer(state)
        for name, value in layers.items():
            print(f"  {name:<34} {value:.6g} {LAYER_UNITS[name]}")
            metrics[prefix + name] = {"value": value, "unit": LAYER_UNITS[name]}
        missing = entry["missing_boundaries"] = sorted(
            {name for run in state.runs for name in run.get("missing", [])})
        for name in missing:
            print(f"  missing boundary {name}")
        failures = entry["counter_failures"] = sorted(
            {name for run in state.runs for name in run.get("count_errors", {})})
        for name in failures:
            print(f"  counter failed: {name}")
    return entry, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-size", action="store_true",
                        help="use the full Atari-shaped sizes instead of the scaled-down ones")
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    needed = [ROOT / "src" / "thckit" / "cli.py"]
    if "fixture-report" in names:
        needed += [FIXTURE / "runs.csv", GOLDEN / "MANIFEST.sha256"]
    absent = [str(path.relative_to(ROOT)) for path in needed if not path.is_file()]
    if absent:
        print(f"perfbench: missing {', '.join(absent)}; run from a thckit checkout",
              file=sys.stderr)
        return 2

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-full" if args.full_size else "")
    scratch = WORK / label
    shutil.rmtree(scratch, ignore_errors=True)
    states = []
    for name in names:
        workload = WORKLOADS[name]
        count, regimes = workload.full_size if args.full_size else workload.size
        state = State(workload, count, REGIMES[:regimes], scratch / name)
        state.directory.mkdir(parents=True)
        prepare(state, args.seed)
        states.append(state)

    measure(states, args.seconds, bool(args.trace))

    report = {"host": host_info(args, states), "workloads": {}}
    problems: list[str] = []
    metrics: dict[str, dict[str, float | str]] = {}
    for state in states:
        prefix = f"{state.workload.name}." if len(states) > 1 else ""
        entry, found = summarise(state, bool(args.trace), prefix, metrics)
        report["workloads"][state.workload.name] = entry
        problems += found
    attempted = sum(len(state.runs) for state in states)
    failed = sum(not run["ok"] for state in states for run in state.runs)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    results_path = results / f"{label}.json"
    results_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"results: {results_path.relative_to(ROOT)}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
