"""Uniform linear array signal model: steering vectors, random scenarios,
snapshot synthesis, and covariance construction.

Angles are degrees at the API boundary and radians internally. All randomness
flows through an explicit numpy Generator so trials are reproducible and may
be generated concurrently. The covariance functions also take a stack of
trials along a leading lane axis; each lane gets the bits of a single call.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ArrayGeometry",
    "Scenario",
    "SnapshotSet",
    "steering_vector",
    "draw_scenario",
    "synthesize_snapshots",
    "sample_covariance",
    "interference_noise_covariance",
    "true_covariance",
    "interference_noise_lanes",
    "true_covariance_lanes",
]


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count and inter-element spacing in wavelengths."""

    n_elements: int = 10
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if self.n_elements < 2:
            raise ValueError("n_elements must be >= 2")
        if not 0 < self.spacing_wavelengths < np.inf:
            raise ValueError("spacing_wavelengths must be positive and finite")


@dataclass(frozen=True)
class Scenario:
    """One realization of sources, powers, and the (mismatched) look direction.

    a_presumed is the steering vector the beamformer is given; it differs from
    a_true by the realized look-direction error.
    """

    geometry: ArrayGeometry
    soi_doa_deg: float
    soi_error_deg: float
    interferer_doas_deg: tuple
    soi_power: float
    interferer_powers: tuple
    noise_power: float
    a_true: np.ndarray = field(repr=False)
    a_presumed: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SnapshotSet:
    """n_elements x n_snapshots matrix of array observations; column t is y[t].

    A (lanes, n_elements, n_snapshots) array holds one set per lane.
    """

    snapshots: np.ndarray

    @property
    def n_snapshots(self):
        return self.snapshots.shape[-1]


def steering_vector(geometry, doa_deg):
    """Narrowband plane-wave array response for a given direction of arrival.

    Element p has phase 2*pi*spacing*p*sin(doa); element 0 is exactly 1 and
    every entry has unit modulus, so ||a||^2 = n_elements.
    """
    if not -90.0 <= doa_deg <= 90.0:
        raise ValueError("DOA %g deg outside [-90, 90]" % doa_deg)
    return _steering(geometry, doa_deg)


def _steering(geometry, doas_deg):
    """Steering vectors along a new last axis, one per DOA of an array."""
    p = np.arange(geometry.n_elements)
    phase = (2.0 * np.pi * geometry.spacing_wavelengths * p
             * np.sin(np.deg2rad(doas_deg))[..., None])
    return np.exp(1j * phase)


def _draw_doa(rng):
    return rng.uniform(-90.0, 90.0)


def draw_scenario(
    rng,
    geometry=ArrayGeometry(),
    n_interferers=2,
    snr_db=20.0,
    inr_db=30.0,
    soi_error_bound_deg=5.0,
    doa_guard_deg=2.0,
):
    """Draw a random scenario: uniform DOAs, uniform look-direction error.

    SOI and interferer DOAs are i.i.d. uniform on [-90, 90] degrees; interferer
    DOAs closer than doa_guard_deg to the SOI DOA are redrawn so the
    interference never coincides with the look direction; a guard must lie
    in [0, 90) so that every SOI direction leaves the interferers an arc of
    at least 90 - guard degrees. Noise power is fixed at 1, so snr_db and
    inr_db directly set the source powers.
    """
    if n_interferers < 0:
        raise ValueError("n_interferers must be >= 0")
    if soi_error_bound_deg < 0:
        raise ValueError("soi_error_bound_deg must be >= 0")
    if not 0.0 <= doa_guard_deg < 90.0:
        raise ValueError("doa_guard_deg must lie in [0, 90), got %g" % doa_guard_deg)
    for name, val in (("snr_db", snr_db), ("inr_db", inr_db)):
        if not np.isfinite(val):
            raise ValueError("%s must be finite" % name)

    soi_doa = _draw_doa(rng)
    interferer_doas = []
    for _ in range(n_interferers):
        doa = _draw_doa(rng)
        while abs(doa - soi_doa) < doa_guard_deg:
            doa = _draw_doa(rng)
        interferer_doas.append(doa)

    if soi_error_bound_deg > 0:
        error = rng.uniform(-soi_error_bound_deg, soi_error_bound_deg)
    else:
        error = 0.0
    # the look error actually applied, after clipping the look direction
    presumed_doa = float(np.clip(soi_doa + error, -90.0, 90.0))

    soi_power = 10.0 ** (snr_db / 10.0)
    interferer_powers = tuple(10.0 ** (inr_db / 10.0) for _ in range(n_interferers))

    return Scenario(
        geometry=geometry,
        soi_doa_deg=soi_doa,
        soi_error_deg=presumed_doa - soi_doa,
        interferer_doas_deg=tuple(interferer_doas),
        soi_power=soi_power,
        interferer_powers=interferer_powers,
        noise_power=1.0,
        a_true=steering_vector(geometry, soi_doa),
        a_presumed=steering_vector(geometry, presumed_doa),
    )


def _circular_gaussian(rng, shape, power=1.0):
    scale = np.sqrt(power / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def synthesize_snapshots(scenario, n_s, rng):
    """Generate n_s snapshots: SOI + interferers + white noise.

    Source waveforms are i.i.d. circular complex Gaussian CN(0, 1) scaled by
    the square root of each source power; noise is CN(0, noise_power I).
    """
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    n_e = scenario.geometry.n_elements
    y = np.zeros((n_e, n_s), dtype=complex)

    s = _circular_gaussian(rng, n_s)
    y += np.sqrt(scenario.soi_power) * np.outer(scenario.a_true, s)
    for doa, power in zip(scenario.interferer_doas_deg, scenario.interferer_powers):
        a_k = steering_vector(scenario.geometry, doa)
        y += np.sqrt(power) * np.outer(a_k, _circular_gaussian(rng, n_s))
    y += _circular_gaussian(rng, (n_e, n_s), power=scenario.noise_power)
    return SnapshotSet(snapshots=y)


def sample_covariance(snapshot_set):
    """Empirical covariance (1/n_s) sum_t y[t] y[t]^H; Hermitian PSD.

    A set of stacked lanes gives the stack of their covariances.
    """
    y = snapshot_set.snapshots
    if y.shape[-1] < 1:
        raise ValueError("snapshot set is empty")
    c = (y @ y.conj().swapaxes(-1, -2)) / y.shape[-1]
    # symmetrize away the last bits of round-off
    return 0.5 * (c + c.conj().swapaxes(-1, -2))


def _outer(powers, a):
    """powers * a a^H for every lane of a (lanes, n) stack."""
    return powers[:, None, None] * (a[:, :, None] * a.conj()[:, None, :])


def interference_noise_lanes(scenarios):
    """(lanes, n, n) interference-plus-noise covariances, one per scenario.

    Every scenario has the same geometry and number of interferers.
    """
    geometry = scenarios[0].geometry
    noise = np.array([sc.noise_power for sc in scenarios])
    doas = np.array([sc.interferer_doas_deg for sc in scenarios], dtype=float)
    powers = np.array([sc.interferer_powers for sc in scenarios], dtype=float)
    a = _steering(geometry, doas)
    c = noise[:, None, None] * np.eye(geometry.n_elements, dtype=complex)
    for k in range(doas.shape[1]):
        c += _outer(powers[:, k], a[:, k])
    return c


def true_covariance_lanes(scenarios, c_in):
    """Ensemble covariances: the lanes' interference + noise c_in plus the SOI term."""
    a = np.array([sc.a_true for sc in scenarios])
    return c_in + _outer(np.array([sc.soi_power for sc in scenarios]), a)


def interference_noise_covariance(scenario):
    """Covariance of interference plus noise, built from true interferer directions."""
    return interference_noise_lanes([scenario])[0]


def true_covariance(scenario):
    """Ensemble covariance of the snapshots: interference + noise + SOI term."""
    return true_covariance_lanes([scenario], interference_noise_lanes([scenario]))[0]
