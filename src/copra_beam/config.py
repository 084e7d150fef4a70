"""Experiment configuration: defaults, validation, JSON round-trip.

The package's leaf: it imports only the standard library, so a config loads
without numpy. It owns the array geometry and the run's sizing constants.
"""

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

__all__ = ["ExperimentConfig", "QuasiGridOptions", "load_config", "config_from_dict"]

METHODS = ("sample-mvdr", "diagonal-loading", "copra", "quasi-rls", "optimal")


def _check_types(obj, prefix=""):
    """Refuse a field declared int or float whose value is not such a number.

    bool is an int to Python but never a count or a level here, and a string
    or None would otherwise surface as a TypeError deep in the checks.
    """
    for f in dataclasses.fields(obj):
        kind = {int: numbers.Integral, float: numbers.Real}.get(f.type)
        value = getattr(obj, f.name)
        if kind and (isinstance(value, bool) or not isinstance(value, kind)):
            raise ValueError("%s%s must be %s, got %r"
                             % (prefix, f.name,
                                "an integer" if f.type is int else "a number", value))


# the largest |level| in dB an snr_db, inr_db or snr_db_grid entry may set.
# Beyond it covariances reach the eigenvalue ratio 1e-12 at which MVDR calls
# them singular, and a method fails on every trial: the clairvoyant one from
# about 110 dB of INR (it decomposes only the interference-plus-noise
# covariance, so no SNR fails it), diagonal loading from about 120 dB of
# either level; far beyond, the covariances overflow or the SINR underflows
LEVEL_DB_BOUND = 100.0

# the most float64 values one array of a run may hold (1 GiB): a config whose
# largest array would exceed it is refused at load, not by the allocator
ARRAY_BUDGET = 2**27

# trials per block of a run: enough to spread numpy's per-call cost; a
# sweep's stack holds points x BLOCK lanes, whose snapshots exist one point
# at a time and whose grid-shaped work runs in chunks of LANE_CHUNK lanes,
# so the peak memory stays flat
BLOCK = 10

# lanes per chunk of the grid-shaped work (the secular sign scan, the quasi
# filter grid): enough to spread numpy's per-call cost, few enough that a
# stacked sweep point's (lanes, points, n) arrays keep the peak memory flat
LANE_CHUNK = 12

# points of the secular solver's logarithmic sign scan, per lane and side
SCAN_POINTS = 200


def _largest_arrays(cfg):
    """(float64 values, array, the fields that size it) of the largest arrays
    a trial or a sweep of cfg allocates; a complex value counts twice."""
    n, points = cfg.n_elements, max(len(cfg.snr_db_grid), len(cfg.snapshot_grid))
    grid = "snr_db_grid, snapshot_grid"
    # the per-snapshot-median policy solves each snapshot as a lane of its own
    solves = points + (max(len(cfg.snr_db_grid) * cfg.n_snapshots, sum(cfg.snapshot_grid))
                       if cfg.gamma_z_policy == "per-snapshot-median" else points)
    return [
        (BLOCK * 2 * (1 + cfg.n_interferers + n) * max(cfg.n_snapshots, *cfg.snapshot_grid),
         "one block's Gaussian draws", "n_elements, n_interferers, n_snapshots, snapshot_grid"),
        # synthesize_block concatenates the SOI's to the interferers' (lanes, K, n)
        (BLOCK * 2 * (1 + cfg.n_interferers) * n, "one block's steering vectors",
         "n_elements, n_interferers"),
        (BLOCK * points * 2 * n * n, "one block's covariances", "n_elements, " + grid),
        (LANE_CHUNK * n * cfg.quasi_grid.points, "one quasi chunk's filter grid",
         "n_elements, quasi_grid.points"),
        (BLOCK * max(points * cfg.quasi_grid.points, solves * SCAN_POINTS),
         "one block's regularization grids",
         "quasi_grid.points, n_snapshots, gamma_z_policy, " + grid),
        # a run draws every trial even for no method
        (cfg.trials * points * max(1, len(cfg.methods)), "the sweep's SINR columns",
         "trials, methods, " + grid),
    ]


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count and inter-element spacing in wavelengths."""

    n_elements: int = 10
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if self.n_elements < 2:
            raise ValueError("n_elements must be >= 2")
        if not 0 < self.spacing_wavelengths < math.inf:
            raise ValueError("spacing_wavelengths must be positive and finite")


@dataclass(frozen=True)
class QuasiGridOptions:
    """Geometric grid for the quasi-optimality selector."""

    points: int = 200
    lo_factor: float = 1e-8
    hi_factor: float = 10.0

    def __post_init__(self):
        _check_types(self, "quasi_grid.")
        if self.points < 2:
            raise ValueError("quasi_grid.points must be >= 2")
        if not 0.0 < self.lo_factor < self.hi_factor < math.inf:
            raise ValueError("quasi_grid factors must satisfy "
                             "0 < lo_factor < hi_factor < inf")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation campaign.

    Defaults reproduce the reference setup: a 10-element half-wavelength
    array, two 30 dB interferers, a +-5 degree look-direction error, 30
    snapshots, 1000 trials per sweep point.
    """

    n_elements: int = 10
    spacing_wavelengths: float = 0.5
    n_interferers: int = 2
    inr_db: float = 30.0
    snr_db: float = 20.0
    soi_error_bound_deg: float = 5.0
    doa_guard_deg: float = 2.0
    trials: int = 1000
    n_snapshots: int = 30
    snr_db_grid: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    snapshot_grid: tuple = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
    rho: float = 0.1
    methods: tuple = METHODS
    seed: int = 0
    workers: int = 1
    diagonal_loading: float = 10.0
    quasi_grid: QuasiGridOptions = field(default_factory=QuasiGridOptions)
    gamma_z_policy: str = "averaged"

    def __post_init__(self):
        _check_types(self)
        for name, kind in (("snr_db_grid", numbers.Real), ("snapshot_grid", numbers.Integral)):
            grid = getattr(self, name)
            if not grid or not all(isinstance(v, kind) and not isinstance(v, bool) for v in grid):
                raise ValueError("%s must hold one or more %s" % (
                    name, "numbers" if kind is numbers.Real else "integers"))
        if not isinstance(self.quasi_grid, QuasiGridOptions):
            raise ValueError("quasi_grid must be an object of grid options")
        for name in ("trials", "n_snapshots", "workers"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be positive" % name)
        if any(v < 1 for v in self.snapshot_grid):
            raise ValueError("snapshot_grid entries must be >= 1")
        ArrayGeometry(self.n_elements, self.spacing_wavelengths)  # checks both
        if self.n_interferers < 0:
            raise ValueError("n_interferers must be >= 0")
        for name, levels in (("snr_db", [self.snr_db]), ("inr_db", [self.inr_db]),
                             ("snr_db_grid entries", self.snr_db_grid)):
            # written so that NaN fails too
            if not all(abs(v) <= LEVEL_DB_BOUND for v in levels):
                raise ValueError("%s must lie in [-%g, %g] dB"
                                 % (name, LEVEL_DB_BOUND, LEVEL_DB_BOUND))
        if self.seed < 0:
            raise ValueError("seed must be >= 0, got %d" % self.seed)
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1), got %g" % self.rho)
        # the look direction is clipped to +-90 deg: no look error exceeds 180
        if not 0.0 <= self.soi_error_bound_deg <= 180.0:
            raise ValueError("soi_error_bound_deg must lie in [0, 180], got %g"
                             % self.soi_error_bound_deg)
        if not 0.0 <= self.doa_guard_deg < 90.0:
            raise ValueError("doa_guard_deg must lie in [0, 90), got %g"
                             % self.doa_guard_deg)
        if not 0.0 <= self.diagonal_loading < math.inf:
            raise ValueError("diagonal_loading must be finite and >= 0")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError("unknown methods: %r" % unknown)
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ValueError("repeated methods: %r" % repeated)
        if self.gamma_z_policy not in ("averaged", "per-snapshot-median"):
            raise ValueError("gamma_z_policy must be 'averaged' or 'per-snapshot-median'")
        size, array, fields = max(_largest_arrays(self))
        if size > ARRAY_BUDGET:
            raise ValueError("config too large: %s would hold %.3g float64 values, over "
                             "the budget of 2**27; reduce %s" % (array, size, fields))

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["snr_db_grid"] = list(self.snr_db_grid)
        d["snapshot_grid"] = list(self.snapshot_grid)
        d["methods"] = list(self.methods)
        return d


def config_from_dict(data):
    """Build a validated config from a plain dict; unknown keys are an error."""
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError("unknown config keys: %s" % sorted(unknown))
    kwargs = dict(data)
    if "quasi_grid" in kwargs and isinstance(kwargs["quasi_grid"], dict):
        qknown = {f.name for f in dataclasses.fields(QuasiGridOptions)}
        qunknown = set(kwargs["quasi_grid"]) - qknown
        if qunknown:
            raise ValueError("unknown quasi_grid keys: %s" % sorted(qunknown))
        kwargs["quasi_grid"] = QuasiGridOptions(**kwargs["quasi_grid"])
    for key in ("snr_db_grid", "snapshot_grid", "methods"):
        if key in kwargs:
            if not isinstance(kwargs[key], (list, tuple)):
                raise ValueError("%s must be a list" % key)
            kwargs[key] = tuple(kwargs[key])
    return ExperimentConfig(**kwargs)


def load_config(path):
    """Load a JSON config document; unset keys take the defaults."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("config parse failure at line %d: %s"
                             % (exc.lineno, exc.msg)) from exc
        except RecursionError:
            # json's decoder recurses once per nested array or object
            raise ValueError("config nests too deeply to parse") from None
    if not isinstance(data, dict):
        raise ValueError("config document must be a JSON object")
    return config_from_dict(data)
