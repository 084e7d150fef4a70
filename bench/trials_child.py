"""Serial pass over a workload's trials, and optionally their replay.

    python3 bench/trials_child.py CONFIG KIND OUT [--check]
                                  [--trace FILE --seconds S --csv CSV --svg SVG]

1. Times single ``harness.run_trial`` calls over every (sweep point, trial) of
   the sweep, the path behind ``copra-beam trial``.
2. With --check or --trace, then replays each trial stage by stage and checks
   it against run_trial's record (bit for bit) and against the oracle.
3. With --trace, the replay records spans, and each replayed trial follows
   an untraced run_trial call of the same trial; the two rates give the
   tracing overhead. The replay repeats until S seconds have passed,
   ``svgplot.render_line_chart`` is timed on the sweep's own CSV, and the
   spans are written to FILE.

OUT receives the latencies and, after a replay, the records and every
problem found.
"""

import argparse
import csv
import dataclasses
import json
import time

import pipeline
from copra_beam import harness, svgplot
from copra_beam.config import load_config
from spans import NullTracer, Tracer

SVG_RENDERS = 20


def point_configs(cfg, kind):
    if kind == "snr":
        return [dataclasses.replace(cfg, snr_db=float(v)) for v in cfg.snr_db_grid]
    return [dataclasses.replace(cfg, n_snapshots=int(v)) for v in cfg.snapshot_grid]


def record_json(point, rec):
    return {
        "point": point,
        "index": rec.trial_index,
        "sinr": rec.sinr,
        "failures": rec.failures,
        "fallback_b": bool(rec.fallback_b),
        "fallback_z": bool(rec.fallback_z),
        "mvdr_loaded": bool(rec.mvdr_loaded),
        "soi_doa_deg": float(rec.soi_doa_deg),
        "interferer_doas_deg": [float(d) for d in rec.interferer_doas_deg],
    }


def render_from_csv(csv_path, tracer):
    """Re-render the sweep chart from its CSV, as the CLI draws it."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    series = {}
    for row in rows:
        xs, ys = series.setdefault(row["method"], ([], []))
        xs.append(float(row["value"]))
        ys.append(float(row["mean_sinr_db"]))
    x_label = "input SNR (dB)" if rows[0]["sweep_var"] == "snr" else "number of snapshots"
    args = ([(m, xs, ys) for m, (xs, ys) in series.items()], x_label,
            "mean output SINR (dB)")
    svg = None
    for _ in range(SVG_RENDERS):
        with tracer.span("svgplot.render_line_chart", None):
            svg = svgplot.render_line_chart(*args, title="Output SINR vs %s" % x_label)
    return svg


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("kind")
    parser.add_argument("out")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--csv")
    parser.add_argument("--svg")
    args = parser.parse_args()
    start = time.perf_counter()

    cfg = load_config(args.config)
    pcfgs = point_configs(cfg, args.kind)
    values = list(cfg.snr_db_grid if args.kind == "snr" else cfg.snapshot_grid)
    jobs = [(p, i) for p in range(len(pcfgs)) for i in range(cfg.trials)]

    records, latencies = [], []
    for p, i in jobs:
        t0 = time.perf_counter()
        rec = harness.run_trial(pcfgs[p], i, cfg.seed)
        latencies.append(time.perf_counter() - t0)
        records.append(rec)
    result = {"latencies_s": latencies}
    if not (args.check or args.trace):
        write_json(result, args.out)
        return

    tracer = Tracer() if args.trace else NullTracer()
    problems = []
    passes = 0
    seconds = {"untraced": 0.0, "traced": 0.0}

    def replay_pass():
        # with --trace each replay is paired with an untraced run_trial call
        # right before it, so a slow spell of the machine hits both alike
        nonlocal passes
        out = []
        for (p, i), rec in zip(jobs, records):
            t0 = time.perf_counter()
            if args.trace:
                harness.run_trial(pcfgs[p], i, cfg.seed)
            t1 = time.perf_counter()
            rp = pipeline.replay_trial(pcfgs[p], i, cfg.seed, tracer, [passes, p, i])
            seconds["untraced"] += t1 - t0
            seconds["traced"] += time.perf_counter() - t1
            problems.extend(pipeline.drift_problems(
                pcfgs[p], rec, rp, "point %g trial %d" % (values[p], i)))
            out.append(rp)
        passes += 1
        return out

    for (p, i), rp in zip(jobs, replay_pass()):
        problems.extend(pipeline.oracle_problems(
            pcfgs[p], rp, "point %g trial %d" % (values[p], i)))

    result["records"] = [record_json(values[p], rec) for (p, _), rec in zip(jobs, records)]
    result["problems"] = problems
    if args.trace:
        while passes < 2 or time.perf_counter() - start < args.seconds:
            replay_pass()
        svg = render_from_csv(args.csv, tracer)
        with open(args.svg) as fh:
            if svg != fh.read():
                problems.append("svgplot: chart re-rendered from sweep.csv differs from sweep.svg")
        rates = {"%s_trials_per_s" % k: len(jobs) * passes / v for k, v in seconds.items()}
        result.update(rates)
        tracer.dump(args.trace, rates)
    write_json(result, args.out)


def write_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
