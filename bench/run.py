"""Sweep benchmark for copra-beam.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0, rounds of a set-up probe, one ``copra-beam sweep`` in a fresh
process, another probe and one serial pass of single ``harness.run_trial``
calls repeat for S seconds. With --trace 1 a stage-by-stage replay of the
same trials records spans instead. Every run checks its outputs
against the oracle and prints the metrics named in BENCHMARK.json, then one
JSON line: {"correct", "attempted", "failed", "metrics"}.

Workloads, metrics and reference figures: bench/README.md.
"""

import os

# pinned before numpy loads here, and inherited by every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import program  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = program.ROOT
OUT_ROOT = ROOT / ".bench_out"
OUTPUTS = ("sweep.csv", "sweep.svg", "meta.json")
RUN_LIMIT_S = 170.0     # a run must end within 180 s
MIN_ROUNDS = 3          # sweeps per run, so the determinism gate always compares


class BenchError(RuntimeError):
    """The program could not be run to the end; no result is printed."""


def run_child(script, args, deadline):
    """Run a benchmark script in a fresh interpreter; returns its wall time.

    The child gets its own process group, which is killed once the child has
    ended, so no pool worker outlives it.
    """
    env = dict(os.environ, PYTHONPATH=str(program.SRC))
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("run time limit reached before %s" % script)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / script), *map(str, args)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        err = "timed out"
    finally:
        _kill_group(proc)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError("%s %s failed (%s): %s"
                         % (script, " ".join(map(str, args)), proc.returncode, err[-3000:]))
    return wall


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Sweep:
    def __init__(self, workers, wall_s, stats, files):
        self.workers = workers
        self.wall_s = wall_s
        self.run_sweep_s = stats["run_sweep_s"]
        self.peak_rss_kb = stats["peak_rss_kb"]
        self.files = files


def run_sweep(kind, cfg, cfg_path, out, deadline):
    stats = out.parent / (out.name + ".stats.json")
    wall = run_child("sweep_child.py", [stats, "--", "sweep", "--kind", kind,
                                        "--config", cfg_path, "--out", out], deadline)
    return Sweep(cfg["workers"], wall, json.loads(stats.read_text()),
                 {f: (out / f).read_bytes() for f in OUTPUTS})


def write_config(cfg, path):
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


# ---- checks ---------------------------------------------------------------

def determinism_problems(sweeps, other, workers):
    """Outputs equal across the sweeps of a run, and equal to those of the
    sweep on another worker count (``other``) but for meta.json's echo of it."""
    problems = []
    first = sweeps[0].files
    for k, s in enumerate(sweeps[1:], start=1):
        for f in OUTPUTS:
            if s.files[f] != first[f]:
                problems.append("determinism: %s of repeat %d differs from repeat 0" % (f, k))
    for f in ("sweep.csv", "sweep.svg"):
        if other.files[f] != first[f]:
            problems.append("determinism: %s differs on %d workers" % (f, other.workers))
    meta = json.loads(other.files["meta.json"])
    meta["config"]["workers"] = workers
    if meta != json.loads(first["meta.json"]):
        problems.append("determinism: meta.json differs on %d workers beyond "
                        "config.workers" % other.workers)
    return problems


def point_snr(kind, cfg, point):
    return float(point) if kind == "snr" else float(cfg["snr_db"])


def record_problems(kind, cfg, records):
    """Every SINR at or below the clairvoyant bound; optimal on it."""
    problems = []
    for r in records:
        bound = oracle.clairvoyant_sinr(
            cfg["n_elements"], cfg["spacing_wavelengths"], r["soi_doa_deg"],
            r["interferer_doas_deg"], point_snr(kind, cfg, r["point"]), cfg["inr_db"])
        for method, sinr in r["sinr"].items():
            where = "point %g trial %d %s" % (r["point"], r["index"], method)
            if sinr is None:
                continue
            if sinr > bound * (1.0 + 1e-9):
                problems.append("%s: SINR %r above the clairvoyant bound %r"
                                % (where, sinr, bound))
            if method == "optimal" and not oracle.close(sinr, bound, rel=1e-9):
                problems.append("%s: optimal SINR %r is not the bound %r"
                                % (where, sinr, bound))
    return problems


def fallback_rate(method, recs):
    if method == "copra":
        return sum(r["fallback_b"] or r["fallback_z"] for r in recs) / len(recs)
    if method == "sample-mvdr":
        return sum(r["mvdr_loaded"] for r in recs) / len(recs)
    return 0.0


def csv_problems(kind, cfg, csv_bytes, records):
    """sweep.csv against the oracle's aggregation of run_trial records."""
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    by_point = defaultdict(list)
    for r in records:
        by_point[r["point"]].append(r)
    expected = [(p, m) for p in workloads.points(kind, cfg) for m in cfg["methods"]]
    if len(rows) != len(expected):
        return ["sweep.csv: %d rows, expected %d" % (len(rows), len(expected))]
    problems = []
    for row, (point, method) in zip(rows, expected):
        where = "sweep.csv %s=%g %s" % (kind, point, method)
        if (row["sweep_var"], float(row["value"]), row["method"]) != (kind, float(point), method):
            problems.append("%s: row out of place: %r" % (where, row))
            continue
        recs = by_point[point]
        vals = [r["sinr"][method] for r in recs if r["sinr"].get(method) is not None]
        mean_db, stderr_db, n = oracle.aggregate_linear(vals)
        if int(row["trials"]) != n:
            problems.append("%s: trials %s, oracle %d" % (where, row["trials"], n))
        for key, want in (("mean_sinr_db", mean_db), ("stderr_db", stderr_db),
                          ("fallback_rate", fallback_rate(method, recs))):
            if not oracle.close(float(row[key]), want):
                problems.append("%s: %s %s, oracle %r" % (where, key, row[key], want))
    return problems


# ---- metrics --------------------------------------------------------------

def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spec_names, trace, latencies, sweeps, parallel):
    durations = defaultdict(list)
    for name, start, end, _parent, _trial in trace["spans"]:
        durations[name].append(end - start)
    counts = defaultdict(list)
    for name, value, trial in trace["counts"]:
        if trial[0] == 0:   # one pass over the workload's trials
            counts[name].append(value)

    def ratio(name):
        v = counts[name]
        return sum(v) / len(v) if v else 0.0

    metrics = {}
    for name in spec_names:
        if name.endswith(".ms"):
            d = durations[name[:-3]]
            metrics[name] = 1e3 * statistics.median(d) if d else 0.0
    it = counts["secular.iterations_b"]
    metrics.update({
        "secular.iterations_b.mean": statistics.mean(it) if it else 0.0,
        "secular.iterations_b.max": max(it) if it else 0,
        "secular.root_found_b.ratio": ratio("secular.root_found_b"),
        "secular.root_found_z.ratio": ratio("secular.root_found_z"),
        "secular.solves": sum(counts["secular.solves"]),
        "harness.mvdr_loaded.ratio": ratio("harness.mvdr_loaded"),
        "harness.parallel_efficiency": math.fsum(latencies) / (
            parallel.workers * parallel.run_sweep_s),
        "cli.output_bytes": sum(len(b) for b in sweeps[0].files.values()),
    })
    return metrics


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


# ---- runs -----------------------------------------------------------------

def trials_pass(cfg_path, kind, out, deadline, *extra):
    path = out / "trials.json"
    run_child("trials_child.py", [cfg_path, kind, path, *extra], deadline)
    return json.loads(path.read_text())


def bench_run(name, seed, seconds, trace, out, deadline, layer_names):
    kind, cfg = workloads.make(name, seed)
    cfg_path = write_config(cfg, out / "config.json")
    n_trials = len(workloads.points(kind, cfg)) * cfg["trials"]

    def sweep():
        return run_sweep(kind, cfg, cfg_path, out / ("sweep%d" % len(sweeps)), deadline)

    sweeps, setup, passes_s = [], [], []
    if trace:
        for _ in range(2):
            sweeps.append(sweep())
        checked = trials_pass(cfg_path, kind, out, deadline,
                              "--trace", out / "trace.json", "--seconds", seconds,
                              "--csv", out / "sweep0" / "sweep.csv",
                              "--svg", out / "sweep0" / "sweep.svg")
        passes_s.append(checked["latencies_s"])
        passes = 1
    else:
        # rounds of setup probe, sweep, setup probe, serial trial pass, so
        # that a slow spell of the machine lands on every metric alike
        run_child("setup_probe.py", [cfg_path], deadline)   # writes bytecode
        t0 = time.perf_counter()
        checked = None
        while len(sweeps) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
            setup.append(run_child("setup_probe.py", [cfg_path], deadline))
            sweeps.append(sweep())
            setup.append(run_child("setup_probe.py", [cfg_path], deadline))
            res = trials_pass(cfg_path, kind, out, deadline,
                              *([] if checked else ["--check"]))
            checked = checked or res
            passes_s.append(res["latencies_s"])
        passes = len(sweeps)

    # untimed: the same config on another worker count
    par_cfg = dict(cfg, workers=workloads.CHECK_WORKERS)
    parallel = run_sweep(kind, par_cfg, write_config(par_cfg, out / "config-parallel.json"),
                         out / "sweep-parallel", deadline)
    runs = len(sweeps) + passes + 1

    records = checked["records"]
    problems = list(checked["problems"])
    problems += determinism_problems(sweeps, parallel, cfg["workers"])
    problems += record_problems(kind, cfg, records)
    problems += csv_problems(kind, cfg, sweeps[0].files["sweep.csv"], records)

    if trace:
        trace_doc = json.loads((out / "trace.json").read_text())
        metrics = layer_metrics(layer_names, trace_doc, passes_s[0], sweeps, parallel)
        overhead = checked["untraced_trials_per_s"] / checked["traced_trials_per_s"] - 1.0
        print("tracing overhead: %.1f traced vs %.1f untraced trials/s (%+.2f%%)"
              % (checked["traced_trials_per_s"], checked["untraced_trials_per_s"],
                 100.0 * overhead))
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "sweep_s": statistics.median(s.wall_s for s in sweeps),
            "trials_per_s": statistics.median(n_trials / s.run_sweep_s for s in sweeps),
            # a percentile per pass, then the median over passes: a slow
            # spell of the machine during a few passes does not set the tail
            "trial_ms.p50": 1e3 * statistics.median(map(statistics.median, passes_s)),
            "trial_ms.p90": 1e3 * statistics.median(percentile(p, 90) for p in passes_s),
            "peak_rss_mb": statistics.median(s.peak_rss_kb for s in sweeps) / 1024.0,
        }

    failed_trials = sum(1 for r in records if r["failures"])
    return {
        "correct": not problems,
        "attempted": runs * n_trials,
        "failed": runs * failed_trials,
        "metrics": metrics,
        "problems": problems,
        "sweeps": len(sweeps),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not (program.SRC / "copra_beam" / "__init__.py").is_file():
        raise SystemExit("bench: no program source under %s" % program.SRC)

    out = OUT_ROOT / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        res = bench_run(args.workload, args.seed, args.seconds, args.trace, out, deadline,
                        [m["name"] for m in spec["per_layer"]])
    except BenchError as exc:
        raise SystemExit("bench: %s" % exc)
    if set(res["metrics"]) != {m["name"] for m in wanted}:
        raise SystemExit("bench: metrics %s do not match BENCHMARK.json"
                         % sorted(set(res["metrics"]) ^ {m["name"] for m in wanted}))

    env = machine()
    for key, value in env.items():
        print("%s: %s" % (key, value))
    print("workload %s seed %d: %d sweeps, %d trials attempted, %d failed"
          % (args.workload, args.seed, res["sweeps"], res["attempted"], res["failed"]))
    for m in wanted:
        print("%-42s %14.6g %s" % (m["name"], res["metrics"][m["name"]], m["unit"]))
    for p in res["problems"][:20]:
        print("CHECK FAILED: %s" % p, file=sys.stderr)
    if len(res["problems"]) > 20:
        print("... %d more check failures" % (len(res["problems"]) - 20), file=sys.stderr)

    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (out / "result.json").write_text(json.dumps(dict(result, machine=env,
                                                     problems=res["problems"]), indent=2))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
