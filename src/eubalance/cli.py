"""Command-line interface: balance reports, curve fits, stability analysis.

Exit codes: 0 success, 2 usage or configuration error, 3 data validation
failure, 4 fit failure, 5 gap-analysis failure. Runs with the same inputs
produce byte-identical files.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import accounting, dataset, expfit, reports, stability

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4
EXIT_NO_INTERSECTION = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eubalance",
        description="EU balance accounting, exponential fits, and "
                    "surplus-deficit stability analysis")
    parser.add_argument("--data-dir", type=Path, default=None,
                        help="directory with gdp.csv, cab_pct.csv, ggb.csv "
                             "(default: bundled dataset)")
    parser.add_argument("--regions", type=Path, default=None,
                        help="JSON file mapping region names to country "
                             "codes (default: bundled regions)")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (default: current directory)")
    parser.add_argument("--format", choices=("csv", "text"), default="text",
                        help="rendering echoed to stdout (report files get "
                             "both forms, plot data .csv only)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="emit one of the tables 1-12")
    p_report.add_argument("--table", type=int, choices=range(1, 13),
                          required=True, metavar="N",
                          help="table number, 1-12")

    p_fit = sub.add_parser("fit", help="fit one cumulative balance series")
    p_fit.add_argument("--series", choices=sorted(reports.FIT_SERIES),
                       required=True)
    p_fit.add_argument("--level", type=float, default=0.95,
                       help="confidence level for parameter and prediction "
                            "intervals (default 0.95)")

    p_stab = sub.add_parser("stability",
                            help="gap analysis for one surplus/deficit pair")
    p_stab.add_argument("--scope", choices=sorted(reports.STABILITY_SCOPES),
                        required=True)
    p_stab.add_argument("--band-level", type=float,
                        default=stability.DEFAULT_BAND_LEVEL,
                        help="per-band confidence level (default "
                             f"{stability.DEFAULT_BAND_LEVEL})")
    return parser


def _check_config(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> None:
    if args.data_dir is not None:
        for name in dataset.INPUT_FILES:
            if not (args.data_dir / name).is_file():
                parser.error(f"missing data file {args.data_dir / name}")
    if args.regions is not None and not args.regions.is_file():
        parser.error(f"regions file {args.regions} does not exist")
    existing = next(p for p in (args.out, *args.out.parents) if p.exists())
    if not existing.is_dir():
        parser.error(f"--out {args.out}: {existing} is not a directory")
    for flag in ("level", "band_level"):
        value = getattr(args, flag, None)
        if value is not None and not 0.0 < value < 1.0:
            parser.error(f"--{flag.replace('_', '-')} must lie in (0, 1), "
                         f"got {value}")


def _load(args: argparse.Namespace):
    if args.data_dir is None:
        ds = dataset.load_bundled()
    else:
        ds = dataset.load_files(*(args.data_dir / name
                                  for name in dataset.INPUT_FILES))
    if args.regions is None:
        regions = accounting.bundled_regions()
    else:
        regions = accounting.load_regions(args.regions)
    return ds, regions


def _fit(ds, regions, series_key: str):
    """The points of one fit series and the model fitted to them."""
    points = reports.fit_series_points(ds, regions, series_key)
    try:
        return points, expfit.fit_exponential(points)
    except OverflowError:
        raise OverflowError(f"fit of series {series_key} overflows the "
                            f"float range") from None


# Each command returns its tables as (file stem, table, is_report). A
# report is written as .csv and .txt and echoed; plot data is written as
# .csv only.
def _cmd_report(args: argparse.Namespace, ds, regions):
    return [(f"table_{args.table}",
             reports.build_table(ds, regions, args.table), True)]


def _cmd_fit(args: argparse.Namespace, ds, regions):
    points, model = _fit(ds, regions, args.series)
    summary = reports.fit_summary_table(args.series, model, args.level)
    predictions = reports.prediction_table(args.series, model, points,
                                           args.level)
    return [(f"fit_{args.series}_summary", summary, True),
            (f"fit_{args.series}_predictions", predictions, True)]


def _cmd_stability(args: argparse.Namespace, ds, regions):
    surplus_key, deficit_key = reports.STABILITY_SCOPES[args.scope]
    surplus_points, surplus_model = _fit(ds, regions, surplus_key)
    _, deficit_model = _fit(ds, regions, deficit_key)
    analysis = stability.GapAnalysis(surplus_model=surplus_model,
                                     deficit_model=deficit_model)
    interval = stability.uncertainty_interval(analysis, args.band_level)
    latest_t = max(t for t, _ in surplus_points)
    table = reports.stability_table(args.scope, analysis, interval, latest_t)
    plot = reports.plot_data_table(args.scope, analysis, args.band_level)
    return [(f"stability_{args.scope}", table, True),
            (f"plot_{args.scope}", plot, False)]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check_config(parser, args)
    handlers = {"report": _cmd_report, "fit": _cmd_fit,
                "stability": _cmd_stability}
    try:
        outputs = handlers[args.command](args, *_load(args))
        args.out.mkdir(parents=True, exist_ok=True)
        forms = {"csv": reports.to_csv, "txt": reports.to_text}
        echoed = "csv" if args.format == "csv" else "txt"
        echoes = []
        for stem, table, is_report in outputs:
            for suffix in ("csv", "txt") if is_report else ("csv",):
                text = forms[suffix](table)
                with open(args.out / f"{stem}.{suffix}", "w",
                          encoding="utf-8", newline="") as fh:
                    fh.write(text)
                if is_report and suffix == echoed:
                    echoes.append(text)
        if (echoed == "txt" and sys.stdout.isatty()
                and not os.environ.get("NO_COLOR")):  # bold titles
            echoes = ["\x1b[1m" + text.replace("\n", "\x1b[0m\n", 1)
                      for text in echoes]
        sys.stdout.write("".join(echoes))
        return EXIT_OK
    except expfit.FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except stability.StabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_INTERSECTION
    except (dataset.DatasetError, accounting.AccountingError,
            ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # an input or output path that cannot be used
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
