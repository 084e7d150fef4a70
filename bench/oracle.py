"""Independent reference computations for the benchmark's output checks.

Nothing here imports copra_beam: every quantity is rebuilt from its
definition with plain numpy so that a fault shared by the program and its own
helpers cannot hide.

- ``clairvoyant_sinr``: the SINR bound p_s * a^H R_in^{-1} a of a trial,
  from its recorded directions and the configured powers;
- ``dense_secular``: G(gamma) with the observation terms evaluated as dense
  matrix traces, used to check that a converged gamma is a root;
- ``aggregate_linear``: the linear-mean / standard-error row of ``sweep.csv``
  recomputed from per-trial SINRs.
"""

import math

import numpy as np


def steering(n_elements, spacing_wavelengths, doa_deg):
    """Plane-wave response of a uniform linear array; element 0 is 1."""
    p = np.arange(n_elements)
    return np.exp(2j * math.pi * spacing_wavelengths * p
                  * math.sin(math.radians(doa_deg)))


def clairvoyant_sinr(n_elements, spacing_wavelengths, soi_doa_deg,
                     interferer_doas_deg, snr_db, inr_db, noise_power=1.0):
    """p_s * a^H R_in^{-1} a: the highest output SINR any weight vector reaches."""
    a = steering(n_elements, spacing_wavelengths, soi_doa_deg)
    r_in = noise_power * np.eye(n_elements, dtype=complex)
    p_i = 10.0 ** (inr_db / 10.0)
    for doa in interferer_doas_deg:
        a_k = steering(n_elements, spacing_wavelengths, doa)
        r_in += p_i * np.outer(a_k, a_k.conj())
    p_s = 10.0 ** (snr_db / 10.0)
    return p_s * float(np.real(a.conj() @ np.linalg.solve(r_in, a)))


def eigen_split(cov, rho):
    """Descending eigenvalues of cov and the significant count n1.

    A singular value sqrt(lambda) is significant when it exceeds rho times the
    mean singular value.
    """
    lam = np.maximum(np.linalg.eigvalsh(cov)[::-1], 0.0)
    sigma = np.sqrt(lam)
    n1 = int(np.count_nonzero(sigma > rho * sigma.mean()))
    return lam, n1


def dense_secular(gamma, cov, obs, rho):
    """G(gamma) and the size of the terms whose difference it is.

    obs is the observation r (steering side) or the snapshot matrix Y whose
    columns are averaged (snapshot side). The observation traces
    r^H C (C + gamma I)^-2 r and r^H (C + gamma I)^-2 r are formed from a dense
    solve; the two pure-spectrum traces over the significant block are sums
    over the eigenvalues.
    """
    cov = np.asarray(cov, dtype=complex)
    n = cov.shape[0]
    lam, n1 = eigen_split(cov, rho)
    beta = n / n1
    n2 = n - n1
    obs = np.asarray(obs, dtype=complex)
    if obs.ndim == 1:
        obs = obs[:, None]
    x = np.linalg.solve(cov + gamma * np.eye(n), obs)
    m = obs.shape[1]
    t_a = float(np.real(np.einsum("it,ij,jt->", x.conj(), cov, x))) / m
    t_d = float(np.sum(np.abs(x) ** 2)) / m
    lam1 = lam[:n1]
    t_b = float(np.sum((beta * lam1 + gamma) / (lam1 + gamma) ** 2))
    t_e = float(np.sum(lam1 * (beta * lam1 + gamma) / (lam1 + gamma) ** 2))
    g = t_a * t_b + (n2 / gamma) * t_a - t_d * t_e
    scale = abs(t_a * t_b) + (n2 / gamma) * abs(t_a) + abs(t_d * t_e)
    return g, scale


def is_secular_root(gamma, cov, obs, rho, rel_step=1e-6, rel_zero=1e-9):
    """True when G vanishes at gamma or changes sign within gamma*(1 +- rel_step)."""
    if not gamma > 0:
        return False
    g, scale = dense_secular(gamma, cov, obs, rho)
    if abs(g) <= rel_zero * scale:
        return True
    g_lo, _ = dense_secular(gamma * (1.0 - rel_step), cov, obs, rho)
    g_hi, _ = dense_secular(gamma * (1.0 + rel_step), cov, obs, rho)
    return (g_lo < 0) != (g_hi < 0)


def fallback_gamma(cov, rho):
    """The solver's no-root level: rho times the mean eigenvalue."""
    lam, _ = eigen_split(cov, rho)
    return rho * float(lam.mean())


def aggregate_linear(values):
    """(mean_sinr_db, stderr_db, n) of linear SINRs, averaged in linear scale.

    The standard error of the linear mean is carried to dB to first order:
    10 / ln(10) * se / mean.
    """
    n = len(values)
    if n == 0:
        return float("nan"), float("nan"), 0
    mean = math.fsum(values) / n
    if n > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        se = math.sqrt(var / n)
    else:
        se = 0.0
    return 10.0 * math.log10(mean), 10.0 / math.log(10.0) * se / mean, n


def close(a, b, rel=2e-8, abs_tol=1e-12):
    """Agreement to what a 9-significant-digit CSV field can hold."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol
