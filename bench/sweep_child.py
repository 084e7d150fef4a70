"""Run one ``copra-beam sweep`` in this process and report what it cost.

    python3 bench/sweep_child.py STATS -- <copra-beam sweep arguments>

Calls ``copra_beam.cli.main`` with the given arguments, timing the call into
``harness.run_sweep`` from outside. STATS receives the time spent in
run_sweep and the peak resident set of this process and of its reaped
workers. Exits with the CLI's code.
"""

import json
import resource
import sys
import time

import program

program.load()
from copra_beam import cli, harness  # noqa: E402


def main():
    stats_path = sys.argv[1]
    if sys.argv[2:3] != ["--"]:
        raise SystemExit("usage: sweep_child.py STATS -- ARGS...")
    spent = []
    run_sweep = harness.run_sweep

    def timed_run_sweep(*args, **kwargs):
        t0 = time.perf_counter()
        result = run_sweep(*args, **kwargs)
        spent.append(time.perf_counter() - t0)
        return result

    # the CLI binds run_sweep at import; wrap both names it may call through
    harness.run_sweep = timed_run_sweep
    cli.run_sweep = timed_run_sweep
    code = cli.main(sys.argv[3:])
    if len(spent) != 1:
        raise SystemExit("sweep_child: run_sweep ran %d times, expected once" % len(spent))
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    with open(stats_path, "w") as fh:
        json.dump({"run_sweep_s": spent[0], "peak_rss_kb": peak_kb}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
