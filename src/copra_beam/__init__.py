"""Robust regularized least-squares MVDR beamforming.

Library core (eigendecomposition kernel, array signal model, secular-equation
regularization selection, beamformer weights) plus a seeded Monte-Carlo SINR
harness and a small CLI for sweeps and plots.
"""

__version__ = "0.1.0"
