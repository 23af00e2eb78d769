"""fracwave: stochastic space-time fractional wave equation toolkit.

A 1-D solver suite for the Caputo-in-time, spectral-fractional-Laplacian-in-
space wave equation driven by additive space-time white noise on (0, 1),
built from Mittag-Leffler propagator kernels.  It provides

* `mittag_leffler` -- E_{alpha,beta} evaluation (fast path + slow oracle),
* `spectral` -- exact eigenbasis solutions and noise convolutions,
* `noise` -- reproducible mode-wise Brownian increments with coarsening,
* `fem` -- piecewise-linear Galerkin discretization of the fractional
  Laplacian, its discrete eigenpairs, projections and the FEM solution,
* `experiments` -- Monte Carlo mean-squared-error and convergence-rate
  harnesses with CSV output,
* `cli` -- the `fracwave` command-line front end.
"""

from .errors import ConvergenceError, DomainError, ResourceLimitError

# The numerical names load their modules, and numpy, on first use, so that
# `fracwave.cli` can pin BLAS to one thread before numpy is imported.
# __version__ loads importlib.metadata, which costs ~50 ms, on first use too.
_LAZY = {"ml": "mittag_leffler", "ml_series_hp": "mittag_leffler",
         "ml_time_kernel": "mittag_leffler", "ml_values": "mittag_leffler",
         "NoisePaths": "noise", "NoiseSpec": "noise", "FracOrders": "spectral"}


def __getattr__(name):
    if name == "__version__":
        from importlib.metadata import PackageNotFoundError, version

        try:
            return version("fracwave")
        except PackageNotFoundError:  # running from a source tree
            return "0.0.0-dev"
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)

__all__ = [
    "__version__",
    "ConvergenceError",
    "DomainError",
    "ResourceLimitError",
    "FracOrders",
    "NoisePaths",
    "NoiseSpec",
    "ml",
    "ml_series_hp",
    "ml_time_kernel",
    "ml_values",
]
