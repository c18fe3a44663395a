"""Fault injection at the CLI boundary.

Each example mutates one line or cell of the committed fixture's run log,
baseline table or schema, then runs ``validate``, ``rank``, ``thc`` and
``report`` on the files through ``main`` in process. Every run must return a
documented exit code (0 success, 1 invalid dataset, 2 usage error, 3
degenerate computation), and no exception may escape ``main``.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from thckit.cli import main

FIXTURE = Path(__file__).parent / "data"
TEXTS = {name: (FIXTURE / name).read_text(encoding="utf-8") for name in ("runs.csv", "baselines.csv", "schema.yaml")}
CSV_FILES = ("runs.csv", "baselines.csv")

# Cell spellings a run log or baseline table should reject or survive: empty,
# NaN, infinite, the largest and a subnormal double, negative, and integers
# past int64 and past Python's default int-to-str digit limit.
BAD_CELLS = ("", "nan", "NaN", "inf", "-inf", "1e308", "-1e308", "1e-320", "-1", "-1e-320",
             str(10**30), "9" * 5000)
# Values of the wrong type for a schema key.
WRONG_TYPES = (None, 5, 1.5, True, "text", "", [], {}, [[1, 2]], {"a": 1}, [None])


@st.composite
def mutations(draw) -> tuple[str, str]:
    """A fixture file's name and its text with one fault in it."""
    name = draw(st.sampled_from(sorted(TEXTS)))
    text = TEXTS[name]
    lines = text.splitlines(keepends=True)
    kinds = ["delete", "duplicate", "bom", "crlf", "cut"]
    kinds += ["cell", "column"] if name in CSV_FILES else ["misspell", "retype"]
    kind = draw(st.sampled_from(kinds))
    line = draw(st.integers(0, len(lines) - 1))
    if kind == "delete":
        del lines[line]
    elif kind == "duplicate":
        lines.insert(line, lines[line])
    elif kind == "bom":
        return name, "\ufeff" + text
    elif kind == "crlf":
        return name, text.replace("\n", "\r\n")
    elif kind == "cut":
        last = lines[-1].rstrip("\n")
        lines[-1] = last[:draw(st.integers(0, len(last) - 1))]
    elif kind == "cell":
        cells = lines[line].rstrip("\n").split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(BAD_CELLS))
        lines[line] = ",".join(cells) + "\n"
    elif kind == "column":
        lines[line] = lines[line].rstrip("\n") + ",extra\n"
    else:
        doc = yaml.safe_load(text)
        # A top-level key, or one hyper-parameter's name in its mapping.
        parent = draw(st.sampled_from([doc, doc["hyperparameters"]]))
        key = draw(st.sampled_from(sorted(parent)))
        if kind == "misspell":
            parent[draw(st.sampled_from([key[:-1], key + "s", key.upper()]))] = parent.pop(key)
        else:
            parent[key] = draw(st.sampled_from(WRONG_TYPES))
        return name, yaml.safe_dump(doc, sort_keys=False)
    return name, "".join(lines)


COMMANDS = (
    ["validate"],
    ["rank", "--resamples", "100", "--hyperparameter", "depth", "--agent", "agent02", "--data-regime", "high"],
    ["thc", "--resamples", "100", "--setup", "agents", "--kendall"],
    ["report", "--resamples", "100", "--kendall"],
)


@settings(deadline=None)
@given(mutations())
def test_one_fault_gives_a_documented_exit_code_from_every_command(mutation):
    name, text = mutation
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for file, original in TEXTS.items():
            (root / file).write_bytes((text if file == name else original).encode("utf-8"))
        inputs = ["--runs", str(root / "runs.csv"), "--baselines", str(root / "baselines.csv"),
                  "--schema", str(root / "schema.yaml")]
        for command, *flags in COMMANDS:
            out = ["--out", str(root / "bundle")] if command == "report" else []
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main([command, *inputs, *flags, *out])
            assert code in (0, 1, 2, 3), (command, code)
