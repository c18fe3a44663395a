"""Command-line pipeline: validate, rank, thc, report, synth.

Exit codes: 0 success, 1 dataset validation failure, 2 usage error (bad
flags, unreadable files, unknown pinned identifiers, selectors matching
nothing), 3 degenerate computation (a setup with nothing comparable, or an
undefined Kendall statistic under --strict). Flag ranges and a setup that
varies a pinned axis are checked before any file is read.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .consistency import (
    AssemblyOptions,
    ConsistencyReport,
    IntervalSource,
    PtpNormalization,
    TransferSetup,
    _check_varying,
    build_consistency_report,
    rank_context,
)
from .dataset import (
    Axis,
    DatasetError,
    EmptySliceError,
    bundled_schema_bytes,
    dump_schema,
    load_dataset,
    write_baselines,
    write_run_log,
)
from .ranking import RankingMode
from .report import (
    _digest,
    _entry_label,
    _fixed_label,
    _json_bytes,
    build_report_bundle,
    consistency_rows,
    file_digest,
    report_to_dict,
    write_report_bundle,
)
from .stats import DEFAULT_CONFIDENCE, DEFAULT_RESAMPLES

__all__ = ["main"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3

_SETUPS = {setup.value.replace("_", "-"): setup for setup in TransferSetup}


class DegenerateError(RuntimeError):
    """A requested statistic is undefined or has nothing to compare."""


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--runs", required=True, help="run log CSV")
    parser.add_argument("--baselines", required=True, help="per-environment baseline CSV")
    parser.add_argument("--schema", default=None,
                        help="schema YAML (default: bundled Atari DER/DrQ(eps) schema)")


def _add_aggregation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--interval-source", choices=[s.value for s in IntervalSource],
                        default=IntervalSource.IQM_CI.value,
                        help="interval per value: bootstrap CI of the IQM, or mean +/- sd")
    parser.add_argument("--resamples", type=int, default=DEFAULT_RESAMPLES,
                        help="bootstrap resamples (default %(default)s)")
    parser.add_argument("--confidence", type=float, default=DEFAULT_CONFIDENCE,
                        help="bootstrap confidence level (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0, help="master seed for resampling")
    parser.add_argument("--ranking-mode", choices=[m.value for m in RankingMode],
                        default=RankingMode.SPAN.value,
                        help="fractional ranking rule (default %(default)s)")


def _add_selector_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--agent", default=None, help="pin the agent coordinate")
    parser.add_argument("--environment", default=None,
                        help="pin one environment instead of pooling all of them")
    parser.add_argument("--data-regime", dest="data_regime", default=None,
                        help="pin the data regime coordinate")


def _add_scoring_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ptp-normalization", choices=[n.value for n in PtpNormalization],
                        default=PtpNormalization.MAX.value,
                        help="per-value spread normalization: by max attainable spread "
                             "(default) or by the spread total (degenerate, for audit)")
    parser.add_argument("--kendall", action="store_true",
                        help="also report Kendall's W and mean pairwise tau-b")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thckit",
        description="Quantify how consistently hyper-parameter choices transfer "
                    "across agents, environments, and data regimes.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--verbose", action="store_true", help="log INFO-level detail")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a run log and baselines against a schema")
    _add_dataset_flags(p)

    p = sub.add_parser("rank", help="rank one hyper-parameter's values in one context")
    _add_dataset_flags(p)
    _add_aggregation_flags(p)
    p.add_argument("--hyperparameter", required=True)
    p.add_argument("--agent", required=True)
    p.add_argument("--data-regime", dest="data_regime", required=True)
    p.add_argument("--environment", default=None,
                   help="pin one environment instead of pooling all of them")
    p.add_argument("--json", default=None, help="also write the table as JSON to this path")

    p = sub.add_parser("thc", help="score rank consistency across a transfer setup")
    _add_dataset_flags(p)
    _add_aggregation_flags(p)
    _add_selector_flags(p)
    _add_scoring_flags(p)
    p.add_argument("--setup", required=True, choices=sorted(_SETUPS),
                   help="which coordinate varies across contexts")
    p.add_argument("--strict", action="store_true",
                   help="fail (exit 3) when a requested Kendall statistic is undefined")
    p.add_argument("--json", default=None, help="also write the report as JSON to this path")

    p = sub.add_parser("report", help="write the full static report bundle")
    _add_dataset_flags(p)
    _add_aggregation_flags(p)
    _add_selector_flags(p)
    _add_scoring_flags(p)
    p.add_argument("--setup", choices=sorted(_SETUPS) + ["all"], default="all")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic sweep from a design file")
    p.add_argument("--design", required=True, help="planted design YAML")
    p.add_argument("--out", required=True, help="output directory for runs/baselines/schema")
    for name, kind in (("seed", int), ("noise_scale", float), ("seeds_per_cell", int)):
        p.add_argument("--" + name.replace("_", "-"), type=kind, default=None,
                       help=f"override the design's {name.replace('_', ' ')}")
    return parser


def _options(args: argparse.Namespace) -> AssemblyOptions:
    # rank's axis flags name its context, so they pin no option.
    names = {field.name for field in dataclasses.fields(AssemblyOptions)}
    if args.command == "rank":
        names -= {axis.value for axis in Axis}
    return AssemblyOptions(**{name: getattr(args, name) for name in names})


def _print_table(rows: Sequence[Sequence[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for index, row in enumerate(rows):
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if index == 0:
            print("  ".join("-" * width for width in widths))


def _cmd_validate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.runs, args.baselines, args.schema)
    # The analysis commands refuse an empty log and such scores, so they fail validation too.
    problems = dataset._normalisation_problems() if len(dataset) else [f"{args.runs}: run log has no runs"]
    if problems:
        raise DatasetError(problems)
    run = [hp for hp in dataset.schema.hyperparameters if dataset._labels_with_runs(hp, Axis.AGENT, {})]
    environments = {env for hp in run for env in dataset._labels_with_runs(hp, Axis.ENVIRONMENT, {})}
    print(f"OK: {len(dataset)} runs across {len(run)} hyperparameter(s), "
          f"{len(environments)} environment(s)")
    return EXIT_OK


def _cmd_rank(args: argparse.Namespace) -> int:
    options = _options(args)
    dataset = load_dataset(args.runs, args.baselines, args.schema)
    table, points = rank_context(
        dataset, args.hyperparameter, agent=args.agent,
        data_regime=args.data_regime, environment=args.environment, options=options)

    print(f"hyperparameter {args.hyperparameter}; {_fixed_label(table.context, '; ')}; "
          f"source={options.interval_source.value}; mode={options.ranking_mode.value}")
    entries = [{
        "value": entry.label,
        "lower": entry.interval.lower,
        "upper": entry.interval.upper,
        "point": points[entry.label],
        "initial_rank": entry.initial_rank,
        "final_rank": entry.final_rank,
    } for entry in table]
    # str gives a float's repr, so each cell reads as the JSON number does.
    _print_table([list(entries[0]), *([str(cell) for cell in entry.values()] for entry in entries)])

    if args.json:
        Path(args.json).write_bytes(_json_bytes({
            "hyperparameter": args.hyperparameter,
            "context": dict(table.context),
            "interval_source": options.interval_source.value,
            "ranking_mode": options.ranking_mode.value,
            "entries": entries,
        }))
    return EXIT_OK


def _require_comparable(reports: Sequence[ConsistencyReport]) -> None:
    """Unless some report has an entry, raise :class:`DegenerateError` naming each setup and its skips."""
    if not any(report.entries for report in reports):
        reasons = ["; ".join(f"{s.hyperparameter}: {s.reason}" for s in report.skipped) for report in reports]
        raise DegenerateError("nothing comparable across " + ", ".join(
            report.setup.value.replace("_", "-") + (f" ({why})" if why else "")
            for report, why in zip(reports, reasons)))


def _setups(args: argparse.Namespace, options: AssemblyOptions) -> list[TransferSetup]:
    """The setups ``--setup`` names, checked against the pins. A pinned axis
    cannot vary, so "all" leaves out the setups that vary one."""
    if args.setup != "all":
        _check_varying(_SETUPS[args.setup], options)
        return [_SETUPS[args.setup]]
    setups = [s for s in _SETUPS.values() if getattr(options, s.axis.value) is None]
    if not setups:
        raise ValueError("every setup varies a pinned axis; pin at most two of "
                         "--agent, --environment and --data-regime")
    return setups


def _cmd_thc(args: argparse.Namespace) -> int:
    options = _options(args)
    (setup,) = _setups(args, options)
    dataset = load_dataset(args.runs, args.baselines, args.schema)
    report, _ = build_consistency_report(
        dataset, setup, options, args.ptp_normalization, include_kendall=args.kendall)
    _require_comparable([report])

    _print_table(consistency_rows(report, args.kendall))
    for skip in report.skipped:
        print(f"skipped {_entry_label(skip, '; ')}: {skip.reason}")

    if args.json:
        Path(args.json).write_bytes(_json_bytes({"setup": setup.value,
                                                 "ptp_normalization": args.ptp_normalization,
                                                 **report_to_dict(report, args.kendall)}))

    if args.strict and args.kendall:
        undefined = [_entry_label(entry) for entry in report.entries
                     if entry.kendall is None or entry.kendall.w is None]
        if undefined:
            raise DegenerateError(f"Kendall W undefined for: {', '.join(undefined)}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    options = _options(args)
    setups = _setups(args, options)
    dataset = load_dataset(args.runs, args.baselines, args.schema)
    inputs = {"runs": file_digest(args.runs), "baselines": file_digest(args.baselines)}
    inputs["schema"] = file_digest(args.schema) if args.schema else _digest(bundled_schema_bytes())

    bundle = build_report_bundle(
        dataset, setups, options, args.ptp_normalization,
        include_kendall=args.kendall, inputs=inputs)
    _require_comparable(bundle.reports)
    written = write_report_bundle(bundle, args.out)
    print(f"wrote {len(written)} files under {args.out}")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    # Imported here so that the other subcommands do not load the generator.
    from .synth import PlantedDesign, generate, load_design

    # Each override flag's dest is the design field it replaces.
    overrides = {field.name: getattr(args, field.name) for field in dataclasses.fields(PlantedDesign)
                 if getattr(args, field.name, None) is not None}
    design = dataclasses.replace(load_design(args.design), **overrides)

    dataset = generate(design)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "runs.csv", "w", encoding="utf-8", newline="") as fh:
        write_run_log(dataset, fh)
    with open(out / "baselines.csv", "w", encoding="utf-8", newline="") as fh:
        write_baselines(dataset, fh)
    with open(out / "schema.yaml", "w", encoding="utf-8") as fh:
        dump_schema(dataset.schema, fh)
    print(f"wrote {len(dataset)} runs to {out}")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "rank": _cmd_rank,
    "thc": _cmd_thc,
    "report": _cmd_report,
    "synth": _cmd_synth,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s",
                        level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return _COMMANDS[args.command](args)
    except DatasetError as exc:
        for line in exc.diagnostics:
            print(line, file=sys.stderr)
        print(f"validation failed with {len(exc.diagnostics)} problem(s)", file=sys.stderr)
        return EXIT_INVALID
    except DegenerateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (EmptySliceError, KeyError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
