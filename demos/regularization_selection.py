"""Show the data-driven regularization selection at work: the eigenvalue
split, the shape of the secular function G(gamma), and the solved root for
both the steering-vector side and the snapshot side.

Run:  python3 demos/regularization_selection.py
"""

import numpy as np

from copra_beam.arraysim import draw_scenario, sample_covariance, synthesize_snapshots
from copra_beam.linalg import hermitian_evd
from copra_beam.secular import (
    copra_gammas, lambda_o_sq, secular_function_weighted, split_eigenvalues,
)


def main():
    rng = np.random.default_rng(3)
    sc = draw_scenario(rng, snr_db=20.0)
    snaps = synthesize_snapshots(sc, 30, rng)
    es = hermitian_evd(sample_covariance(snaps))
    split = split_eigenvalues(es, rho=0.1)

    print("covariance eigenvalues (descending):")
    print("  " + "  ".join("%.3g" % v for v in es.eigenvalues))
    print("split at 0.1 * mean singular value: n1=%d significant, n2=%d trivial"
          % (split.n1, split.n2))

    w = np.abs(es.u.conj().T @ sc.a_presumed) ** 2
    print("\nG(gamma) along a log grid (steering-vector side):")
    prev = None
    for gamma in np.geomspace(1e-3, 1e4, 15):
        val = secular_function_weighted(gamma, split, w)
        marker = "<-- sign change" if prev is not None and np.sign(val) != np.sign(prev) else ""
        print("  gamma=%9.3g   G=%+.3e  %s" % (gamma, val, marker))
        prev = val

    report_b, report_z = copra_gammas(split, sc.a_presumed, snaps)
    print("\nsolved regularization levels:")
    print("  gamma_b = %.6g  (converged=%s, %d iterations, fallback=%s)"
          % (report_b.gamma, report_b.converged,
             report_b.iterations, report_b.fallback_used))
    print("  gamma_z = %.6g  (converged=%s, fallback=%s)"
          % (report_z.gamma, report_z.converged, report_z.fallback_used))
    print("  implied squared perturbation bound: %.6g"
          % lambda_o_sq(report_b.gamma, es, sc.a_presumed))
    print("\nwhen no positive root exists the solver falls back to "
          "rho * mean(eigenvalues) and flags it, so sweeps never abort.")


if __name__ == "__main__":
    main()
