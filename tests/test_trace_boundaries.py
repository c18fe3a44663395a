"""The benchmark tracer's layer boundaries still name library functions.

``perfbench/tracer.py`` wraps the functions its ``BOUNDARIES`` list names; a
name the library no longer has is reported as a ``missing boundary`` and
silently zeroes that layer's metrics. The list is read from the file, not
imported, so the benchmark's directory is only read.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"

# Boundaries whose functions the pipeline no longer has or calls; a change that
# restores or retires one of them shrinks this set.
KNOWN_MISSING = {
    "thckit.consistency.kendalltau",
    "thckit.consistency.stratified_bootstrap_ci",
    "thckit.consistency.mean_and_spread",
    "thckit.consistency.compute_rankings",
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
