"""Static report export.

A report bundle is the precomputed layer a results browser would sit on
top of: consistency tables, per-context rankings, aggregation intervals,
plot-ready series, a small vector bar chart, and a manifest of content
digests. Every byte is determined by the input files, flags, and seed;
nothing here reads clocks or hostnames.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import __version__
from .consistency import (
    AssemblyOptions,
    CellTable,
    ConsistencyReport,
    HyperparameterConsistency,
    PtpNormalization,
    RankProfile,
    SkippedHyperparameter,
    TransferSetup,
    build_consistency_report,
)
from .dataset import SweepDataset

__all__ = ["ReportBundle", "build_report_bundle", "write_report_bundle",
           "consistency_rows", "report_to_dict"]


@dataclass(frozen=True)
class ReportBundle:
    """Everything ``thckit report`` writes, before serialization."""

    reports: tuple[ConsistencyReport, ...]
    profiles: tuple[tuple[RankProfile, ...], ...]
    provenance: Mapping[str, Any]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str | Path) -> str:
    return _digest(Path(path).read_bytes())


def build_report_bundle(
    dataset: SweepDataset,
    setups: Sequence[TransferSetup],
    options: AssemblyOptions = AssemblyOptions(),
    normalization: PtpNormalization = PtpNormalization.MAX,
    include_kendall: bool = False,
    inputs: Mapping[str, str] | None = None,
) -> ReportBundle:
    """Score every requested setup and collect provenance.

    All setups read one :class:`CellTable`, so a cell that several setups
    rank is aggregated once. ``inputs`` maps input names to content digests.
    """
    setups = [TransferSetup(s) for s in setups]
    if not setups:
        raise ValueError("no setups requested")
    if len(set(setups)) != len(setups):
        raise ValueError("duplicate setups requested")
    cells = CellTable(dataset, options)
    reports = []
    profiles = []
    for setup in setups:
        report, setup_profiles = build_consistency_report(
            dataset, setup, options, normalization, include_kendall, cells=cells)
        reports.append(report)
        profiles.append(setup_profiles)

    provenance = {
        "tool": "thckit",
        "version": __version__,
        "inputs": dict(inputs or {}),
        # The options' enums are str enums, so JSON writes them as their values.
        "flags": {
            **dataclasses.asdict(options),
            "setups": [s.value for s in setups],
            "ptp_normalization": PtpNormalization(normalization).value,
            "kendall": include_kendall,
        },
    }
    return ReportBundle(tuple(reports), tuple(profiles), provenance)


def _fixed_label(fixed: Mapping[str, str], sep: str = ";") -> str:
    """Sorted ``k=v`` pairs joined by ``sep``: ``;`` in the bundle's files, ``"; "`` in CLI lines."""
    return sep.join(f"{k}={v}" for k, v in sorted(fixed.items()))


def _entry_label(item: HyperparameterConsistency | RankProfile | SkippedHyperparameter, sep: str = ";") -> str:
    """``hyperparameter [k=v;...]``: a scored, ranked or skipped
    hyper-parameter named with the coordinates it holds fixed."""
    return item.hyperparameter + (f" [{_fixed_label(item.fixed, sep)}]" if item.fixed else "")


def _kendall_keys(report: ConsistencyReport) -> list[str]:
    """The entry fields of the Kendall baselines, when the report scored them."""
    return ["kendall_w", "kendall_mean_tau"] if report.kendall else []


def report_to_dict(report: ConsistencyReport) -> dict[str, Any]:
    """Scored entries and skipped hyper-parameters of one setup, as JSON data;
    the Kendall baselines only when the report scored them."""
    return {
        "entries": [{"hyperparameter": e.hyperparameter, "fixed": dict(e.fixed), "contexts": list(e.contexts),
                     "values": list(e.values), "thc": e.thc, "normalized_ptp": dict(e.normalized_ptp),
                     **{key: getattr(e, key) for key in _kendall_keys(report)}}
                    for e in report.entries],
        "skipped": [dataclasses.asdict(s) for s in report.skipped],
    }


def consistency_rows(report: ConsistencyReport) -> list[list[str]]:
    """Rows of the consistency table, shared by the CSV and the printed view."""
    kendall = _kendall_keys(report)
    rows = [["setup", "hyperparameter", "fixed", "contexts", "values", "thc", *kendall]]
    for entry in report.entries:
        baselines = (getattr(entry, key) for key in kendall)
        rows.append([report.setup.value, entry.hyperparameter, _fixed_label(entry.fixed),
                     str(len(entry.contexts)), str(len(entry.values)), repr(entry.thc),
                     *("undefined" if value is None else repr(value) for value in baselines)])
    return rows


def _csv_bytes(rows: Sequence[Sequence[str]]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _json_bytes(data: Any) -> bytes:
    return (json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def _safe(part: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", part)


def _series_name(setup: TransferSetup, profile: RankProfile) -> str:
    parts = [setup.value, profile.hyperparameter]
    parts += [f"{k}-{v}" for k, v in sorted(profile.fixed.items())]
    return "series/" + _safe("--".join(parts)) + ".csv"


_BAR_COLORS = {
    TransferSetup.ACROSS_AGENTS: "#4c72b0",
    TransferSetup.ACROSS_ENVIRONMENTS: "#dd8452",
    TransferSetup.ACROSS_DATA_REGIMES: "#55a868",
}
_SKIP_COLOR = "#b0b0b0"


def _svg_bytes(bundle: ReportBundle) -> bytes:
    """Bar chart of THC per hyper-parameter, one color per setup; grey
    full-height bars mark hyper-parameters skipped as not comparable."""
    bars: list[tuple[str, float, str, float]] = []  # label, height, color, opacity
    for report in bundle.reports:
        color = _BAR_COLORS[report.setup]
        for item, height, fill, opacity in ([(e, e.thc, color, 1.0) for e in report.entries]
                                            + [(s, 1.0, _SKIP_COLOR, 0.45) for s in report.skipped]):
            bars.append((_entry_label(item), height, fill, opacity))

    bar_w, gap, left, top, plot_h = 26, 10, 70, 40, 260
    width = left + max(1, len(bars)) * (bar_w + gap) + 40
    height = top + plot_h + 150
    y0 = top + plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="22" font-family="sans-serif" font-size="14">'
        f'THC per hyper-parameter (grey = not comparable)</text>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y0 - tick * plot_h
        out.append(f'<line x1="{left}" y1="{y:.1f}" x2="{width - 20}" y2="{y:.1f}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{left - 8}" y="{y + 4:.1f}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="end">{tick:.2f}</text>')
    for i, (label, value, color, opacity) in enumerate(bars):
        x = left + i * (bar_w + gap)
        h = value * plot_h
        out.append(f'<rect x="{x}" y="{y0 - h:.2f}" width="{bar_w}" height="{h:.2f}" '
                   f'fill="{color}" fill-opacity="{opacity}"/>')
        out.append(f'<text x="{x + bar_w / 2:.1f}" y="{y0 + 12}" font-family="sans-serif" '
                   f'font-size="10" text-anchor="end" '
                   f'transform="rotate(-55 {x + bar_w / 2:.1f} {y0 + 12})">{_escape(label)}</text>')
    legend_x = left
    legend_y = height - 18
    for setup, color in _BAR_COLORS.items():
        if any(r.setup is setup for r in bundle.reports):
            out.append(f'<rect x="{legend_x}" y="{legend_y - 10}" width="12" height="12" fill="{color}"/>')
            out.append(f'<text x="{legend_x + 16}" y="{legend_y}" font-family="sans-serif" '
                       f'font-size="11">across {_escape(setup.value.replace("_", " "))}</text>')
            legend_x += 170
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _bundle_files(bundle: ReportBundle) -> dict[str, bytes]:
    """All report files as path -> bytes (manifest excluded). Raises
    ``ValueError`` when two profiles' series would share one file name, or
    when a profile built from ranks alone holds nothing to export."""
    consistency = []
    skipped = [["setup", "hyperparameter", "fixed", "reason"]]
    columns = ["setup", "hyperparameter", "fixed", "context", "value", "lower", "upper"]
    rankings = [[*columns, "initial_rank", "final_rank"]]
    intervals = [[*columns, "point"]]
    series_files: dict[str, bytes] = {}
    series_owners: dict[str, str] = {}
    setups_json: dict[str, Any] = {}

    for report, profiles in zip(bundle.reports, bundle.profiles):
        rows = consistency_rows(report)
        consistency.extend(rows if not consistency else rows[1:])
        for skip in report.skipped:
            skipped.append([report.setup.value, skip.hyperparameter,
                            _fixed_label(skip.fixed), skip.reason])
        setups_json[report.setup.value] = report_to_dict(report)
        for profile in profiles:
            if profile.intervals is None or profile.order is None:
                raise ValueError(f"profile {_entry_label(profile)!r} has no intervals or positions to export")
            hp, fixed, values = profile.hyperparameter, _fixed_label(profile.fixed), profile.values
            series_rows = [["context", "value", "point", "lower", "upper"]]
            # Each context's lower bounds, upper bounds and points as written, in value order.
            cells = ([list(map(repr, column)) for column in array.T.tolist()] for array in profile.intervals)
            for context, order, lower, upper, point, ranks in zip(
                    profile.contexts, profile.order.T.tolist(), *cells, profile.ranks.T.tolist()):
                row = [report.setup.value, hp, fixed, context]
                for position, i in enumerate(order, 1):
                    rankings.append([*row, values[i], lower[i], upper[i], str(position), repr(ranks[i])])
                    intervals.append([*row, values[i], lower[i], upper[i], point[i]])
                series_rows += [[context, value, point[i], lower[i], upper[i]] for i, value in enumerate(values)]
            name, owner = _series_name(report.setup, profile), _entry_label(profile)
            if name in series_owners:
                raise ValueError(f"{report.setup.value} profiles {series_owners[name]!r} and {owner!r} "
                                 f"would both be written to {name}; rename one of their labels")
            series_owners[name] = owner
            series_files[name] = _csv_bytes(series_rows)

    report_json = {"provenance": dict(bundle.provenance), "setups": setups_json}

    files = {
        "report.json": _json_bytes(report_json),
        "consistency.csv": _csv_bytes(consistency),
        "skipped.csv": _csv_bytes(skipped),
        "rankings.csv": _csv_bytes(rankings),
        "intervals.csv": _csv_bytes(intervals),
        "thc_scores.svg": _svg_bytes(bundle),
    }
    files.update(series_files)
    return files


def write_report_bundle(bundle: ReportBundle, out_dir: str | Path) -> list[str]:
    """Write all report files, then MANIFEST.sha256; returns written paths.

    The manifest lists the digest of every other file, so two report
    directories are identical exactly when their manifests are. Series
    files that an earlier bundle's manifest in ``out_dir`` lists and this
    bundle does not write are deleted first, then that manifest, so a
    write that fails leaves none; no other file is touched.
    """
    root = Path(out_dir)
    manifest = root / "MANIFEST.sha256"
    files = _bundle_files(bundle)
    stale = [root / name for name in _manifest_names(manifest)
             if name not in files and _SERIES_FILE.fullmatch(name) and ".." not in name]
    for path in stale:
        if path.is_file():
            path.unlink()
    if stale:
        with contextlib.suppress(OSError):  # kept unless empty
            (root / "series").rmdir()
    manifest.unlink(missing_ok=True)
    entries = sorted(files.items())
    entries.append((manifest.name, "".join(f"{_digest(data)}  {name}\n" for name, data in entries).encode("utf-8")))

    written = []
    for name, data in entries:
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        written.append(str(path))
    return written


_SERIES_FILE = re.compile(r"series/[^/]+\.csv")


def _manifest_names(path: Path) -> list[str]:
    """The file names a bundle's manifest lists; none when there is no manifest."""
    if not path.is_file():
        return []
    lines = path.read_bytes().decode("utf-8", errors="replace").splitlines()
    return [line.split("  ", 1)[1] for line in lines if "  " in line]
