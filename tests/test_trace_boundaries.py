"""The benchmark tracer's layer boundaries still name library functions.

``perfbench/tracer.py`` wraps the functions its ``BOUNDARIES`` list names; a
name the library no longer has is reported as a ``missing boundary`` and
silently zeroes that layer's metrics, and so does a function the library
keeps but no command calls. The list is read from the file, not imported, so
the benchmark's directory is only read.
"""

from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

from thckit.cli import main

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"
FIXTURE = Path(__file__).parent / "data"

# Boundaries whose functions the pipeline no longer has or calls; a change that
# restores or retires one of them shrinks this set.
KNOWN_MISSING = {
    "thckit.consistency.kendalltau",
    "thckit.consistency.stratified_bootstrap_ci",
    "thckit.consistency.mean_and_spread",
}

# Boundaries that resolve but that no command calls: the Kendall baselines are
# scored in one pass per profile shape, so ``consistency.kendall_s`` reads 0.
KNOWN_SILENT = {
    "thckit.consistency.kendall_w",
    "thckit.consistency.mean_pairwise_tau",
}


def tracer_boundaries() -> tuple[tuple[str, str, str, str | None], ...]:
    """The value of ``BOUNDARIES`` in the tracer's source."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["BOUNDARIES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BOUNDARIES assignment in {TRACER}")


def test_no_new_missing_boundary():
    boundaries = tracer_boundaries()
    assert boundaries
    missing = {f"{module}.{attr}" for module, attr, _, _ in boundaries
               if not hasattr(importlib.import_module(module), attr)}
    assert missing <= KNOWN_MISSING


def test_every_resolving_boundary_is_called(monkeypatch, tmp_path, capsys):
    calls: Counter[str] = Counter()
    resolving = set()
    for module_name, attr, _, _ in tracer_boundaries():
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        name = f"{module_name}.{attr}"
        resolving.add(name)

        def counted(*args, fn=fn, name=name, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)
    inputs = ["--runs", str(FIXTURE / "runs.csv"), "--baselines", str(FIXTURE / "baselines.csv"),
              "--schema", str(FIXTURE / "schema.yaml")]
    for command, *args in (
        ["rank", "--hyperparameter", "depth", "--agent", "agent02", "--data-regime", "high"],
        ["thc", "--setup", "agents", "--kendall"],
        ["report", "--resamples", "200", "--kendall", "--out", str(tmp_path / "bundle")],
    ):
        assert main([command, *inputs, *args]) == 0
    assert resolving - set(calls) <= KNOWN_SILENT
