"""Command-line frontend: sweep orchestration, CSV/metadata persistence,
single-trial inspection, and SVG plot emission.

Only the commands that run trials import the harness, and so numpy: `plot`,
`--help` and a config refused at load run on the standard library.
"""

import argparse
import csv
import math
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .config import ExperimentConfig, load_config
from .svgplot import render_line_chart

CSV_HEADER = ["sweep_var", "value", "method", "mean_sinr_db", "stderr_db",
              "trials", "fallback_rate"]


def _num(x):
    """9 significant digits; stable round-trip without bloating the files."""
    return "%.9g" % x


def write_sweep(result, out):
    """Create directory out and write a SweepResult's sweep.csv, sweep.svg
    and meta.json into it."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in result.rows:
            writer.writerow([
                result.sweep_variable, _num(row.value), row.method,
                _num(row.mean_sinr_db), _num(row.stderr_db),
                row.trials, _num(row.fallback_rate),
            ])
    points = [(r.method, r.value, r.mean_sinr_db) for r in result.rows]
    (out / "sweep.svg").write_text(_sweep_svg(points, result.sweep_variable))
    # each method's rates in point order
    rates = {m: [r.fallback_rate for r in result.rows if r.method == m]
             for m in sorted({r.method for r in result.rows})}
    meta = {
        "version": __version__,
        "seed": result.seed,
        "sweep_variable": result.sweep_variable,
        "trials": result.trials,
        "config": result.config.to_dict(),
        "fallback_rate_per_method": {m: sum(v) / len(v) for m, v in rates.items()},
    }
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sweep_svg(points, sweep_variable):
    """Chart of (method, value, mean_db) points, one series per method, in
    order of first appearance."""
    series = [(m, *zip(*[(x, y) for pm, x, y in points if pm == m]))
              for m in dict.fromkeys(p[0] for p in points)]
    x_label = "input SNR (dB)" if sweep_variable == "snr" else "number of snapshots"
    return render_line_chart(series, x_label, "mean output SINR (dB)",
                             title="Output SINR vs %s" % x_label)


def _load_cfg(args):
    """The --config file's config (or the defaults) with every flag the
    command was given applied, and checked, as the config field it names."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    given = {name: getattr(args, name, None)
             for name in ("seed", "workers", "snr_db", "n_interferers")}
    return dataclasses.replace(cfg, **{k: v for k, v in given.items() if v is not None})


def cmd_sweep(args):
    cfg = _load_cfg(args)
    from . import harness  # numpy only once the config loads
    write_sweep(harness.run_sweep(cfg, args.kind), args.out)
    return 0


def cmd_trial(args):
    cfg = _load_cfg(args)
    from .harness import run_trial
    record = run_trial(cfg, 0, cfg.seed)
    solved = record.n1 is not None  # copra solves its levels only where it splits
    # a SINR of 0 is a value too: -inf dB
    sinr_db = {m: (None if v is None else 10.0 * math.log10(v) if v > 0 else -math.inf)
               for m, v in record.sinr.items()}
    if args.json:
        json.dump({
            "seed": cfg.seed,
            "soi_doa_deg": record.soi_doa_deg,
            "soi_error_deg": record.soi_error_deg,
            "interferer_doas_deg": list(record.interferer_doas_deg),
            "n1": record.n1,
            "n2": record.n2,
            "gamma_b": record.gamma_b if solved else None,
            "gamma_z": record.gamma_z if solved else None,
            "fallback_b": record.fallback_b,
            "fallback_z": record.fallback_z,
            "sinr_db": sinr_db,
            "failures": record.failures,
        }, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0

    print("trial (seed=%d)" % cfg.seed)
    print("  SOI DOA %.3f deg, look error %.3f deg" %
          (record.soi_doa_deg, record.soi_error_deg))
    if record.interferer_doas_deg:
        print("  interferers at %s deg" %
              ", ".join("%.3f" % d for d in record.interferer_doas_deg))
    if solved:
        print("  eigenvalue split: n1=%d significant, n2=%d trivial" %
              (record.n1, record.n2))
        print("  gamma_b=%.6g%s  gamma_z=%.6g%s" %
              (record.gamma_b, " (fallback)" if record.fallback_b else "",
               record.gamma_z, " (fallback)" if record.fallback_z else ""))
    for method, value in sinr_db.items():
        if value is None:
            print("  %-16s failed: %s" % (method, record.failures[method]))
        else:
            print("  %-16s SINR = %8.3f dB" % (method, value))
    return 0


def cmd_plot(args):
    rows = []
    with open(args.csv) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise SystemExit("unexpected CSV header in %s" % args.csv)
        for lineno, raw in enumerate(reader, start=2):
            try:
                rows.append((raw[0], raw[2], float(raw[1]), float(raw[3])))
            except (IndexError, ValueError):
                raise SystemExit("malformed CSV row %d in %s" % (lineno, args.csv))
    if not rows:
        raise SystemExit("CSV %s contains no data rows" % args.csv)
    Path(args.out_svg).write_text(_sweep_svg([r[1:] for r in rows], rows[0][0]))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="copra-beam",
        description="Robust regularized MVDR beamforming simulations")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a Monte-Carlo sweep")
    p_sweep.add_argument("--kind", choices=["snr", "snapshots"], default="snr")
    p_sweep.add_argument("--config", help="JSON config file")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_trial = sub.add_parser("trial", help="run and report a single trial")
    p_trial.add_argument("--config", help="JSON config file")
    p_trial.add_argument("--seed", type=int, default=None)
    p_trial.add_argument("--json", action="store_true")
    p_trial.add_argument("--no-interferers", dest="n_interferers", action="store_const",
                         const=0)
    p_trial.add_argument("--snr-db", type=float, default=None)
    p_trial.set_defaults(func=cmd_trial)

    p_plot = sub.add_parser("plot", help="render a sweep CSV to SVG")
    p_plot.add_argument("csv")
    p_plot.add_argument("out_svg")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
