"""fracwave: stochastic space-time fractional wave equation toolkit.

A 1-D solver suite for the Caputo-in-time, spectral-fractional-Laplacian-in-
space wave equation driven by additive space-time white noise on (0, 1),
built from Mittag-Leffler propagator kernels.  Its modules are

* `mittag_leffler` -- E_{alpha,beta} evaluation (fast path + slow oracle),
* `spectral` -- exact eigenbasis solutions and noise convolutions,
* `noise` -- reproducible mode-wise Brownian increments with coarsening,
* `fem` -- piecewise-linear Galerkin discretization of the fractional
  Laplacian, its discrete eigenpairs, projections and the FEM solution,
* `experiments` -- Monte Carlo mean-squared-error and convergence-rate
  harnesses with CSV output,
* `cli` -- the `fracwave` command-line front end.

Import the names from their modules, such as
`from fracwave.mittag_leffler import ml`.  `import fracwave` loads no
numpy, so that `fracwave.cli` can pin BLAS to one thread before numpy is
imported.
"""

from .errors import ConvergenceError, DomainError


def __getattr__(name):
    # importlib.metadata costs ~50 ms to load, so __version__ loads it on first use.
    if name != "__version__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("fracwave")
    except PackageNotFoundError:  # running from a source tree
        return "0.0.0-dev"


__all__ = ["__version__", "ConvergenceError", "DomainError"]
