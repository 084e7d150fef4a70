"""The benchmark's workloads: each turns a seed into a copra-beam config.

The program sees only the generated config file; the seed becomes the
config's master seed, so the same seed gives the same trials.
"""

ALL_METHODS = ["sample-mvdr", "diagonal-loading", "copra", "quasi-rls", "optimal"]

# the array and source model, spelled out because the oracle rebuilds the
# clairvoyant bound from these values rather than from the program's defaults
ARRAY = {
    "n_elements": 10,
    "spacing_wavelengths": 0.5,
    "n_interferers": 2,
    "inr_db": 30.0,
    "rho": 0.1,
}

# every workload sweeps on 1 worker; one extra, untimed sweep of the same
# config on this many workers checks that the outputs do not depend on the
# worker count, and times the process pool for harness.parallel_efficiency
CHECK_WORKERS = 2

WORKLOADS = {
    # reference SNR protocol at reduced trial count; the secular solver
    # dominates, so a solver change shows here first
    "snr-ref": ("snr", {
        "trials": 6,
        "n_snapshots": 30,
        "snr_db_grid": [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
        "methods": ALL_METHODS,
        "workers": 1,
    }),
    # reference snapshot grid without copra: the solver is never called, so a
    # solver change must not move it; the snapshot-scaled quasi selector does
    "snapshots-baselines": ("snapshots", {
        "trials": 30,
        "snr_db": 20.0,
        "snapshot_grid": [10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
        "methods": ["sample-mvdr", "diagonal-loading", "quasi-rls", "optimal"],
        "workers": 1,
    }),
}


def make(name, seed):
    """(sweep kind, config dict) of a workload for one seed."""
    kind, base = WORKLOADS[name]
    cfg = dict(ARRAY, **base)
    cfg["seed"] = int(seed)
    return kind, cfg


def points(kind, cfg):
    grid = cfg["snr_db_grid"] if kind == "snr" else cfg["snapshot_grid"]
    return list(grid)
