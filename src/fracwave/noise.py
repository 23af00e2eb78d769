"""Mode-wise Brownian increments for the discretized space-time white noise.

The noise is a sine-series expansion with per-mode amplitudes sigma_k(t) and
independent Wiener processes xi_k(t); its time discretization keeps only the
increments xi_k(t_{i+1}) - xi_k(t_i) on a uniform fine grid.  Everything
downstream (coarser grids, the reference solution, the FEM forcing) is
derived from one fine-grid increment matrix, so all resolutions of an
experiment are coupled to the same underlying Brownian paths.

Mode k draws from its own counter-based stream keyed by (seed, k), so
enlarging the mode count never changes previously generated rows, and
generation parallelizes safely.  Increments live in memory only: a
trajectory's matrix is drawn again from its seed, so there is no file
format for them.

Two rules that every module applies are stated here once: a step divides
its span (the horizon T, or a time t on a noise grid) into n >= 1 equal
steps (`_step_count`), and no array holds more than `_DEFAULT_ENTRY_CAP`
entries (`_check_entries`).
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "NoiseSpec",
    "NoisePaths",
    "inverse_cubic_sigma",
    "generate",
    "coarsen",
    "normalized_increment",
    "trajectory_seed",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
#: Most entries of any array the package builds, read at each check, so one
#: patch of it governs every cap.
_DEFAULT_ENTRY_CAP = 1 << 27


def _step_count(what: str, step: float, span: float = 1.0) -> int:
    """The integer n >= 1 with n * step = span to 1e-9 relative.

    Any other step, such as NaN, an infinity, zero, a negative step or one
    that leaves a remainder, is a DomainError that names what.  A step so
    small that span / step overflows has no count either.
    """
    n = round(span / step) if step > 0.0 and math.isfinite(span / step) else 0
    if n < 1 or abs(n * step - span) > 1e-9 * span:
        raise DomainError(f"{what}: {step} does not divide {span} into n >= 1 equal steps")
    return n


def _check_entries(what: str, *dims: int) -> None:
    """A DomainError that names what when an array of shape dims would hold
    more than `_DEFAULT_ENTRY_CAP` entries, raised before it exists.  The
    error echoes each dimension shortened by `reprlib`, so a long integer
    does not flood it."""
    if math.prod(dims) > _DEFAULT_ENTRY_CAP:
        raise DomainError(f"{what}: {' x '.join(map(reprlib.repr, dims))} entries exceed the "
                          f"cap of {_DEFAULT_ENTRY_CAP}")


def inverse_cubic_sigma(k: np.ndarray, t) -> np.ndarray:
    """sigma_k(t) = 1/k^3, the amplitude family used by the experiments."""
    return 1.0 / np.asarray(k, dtype=float) ** 3


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def trajectory_seed(base_seed: int, index: int) -> int:
    """Splittable per-trajectory seed: hash of (base_seed, index)."""
    return _splitmix64(_splitmix64(base_seed & _MASK64) ^ ((index + 1) * _GOLDEN & _MASK64))


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of the discretized noise.

    sigma maps (mode numbers, times) -> amplitudes and must broadcast: given
    a mode column of shape (K, 1) and a time row of shape (1, n) it returns
    an array that broadcasts to (K, n).  Modes above n_cutoff are dropped
    from the truncated amplitude sigma^n used by the regularized problem,
    while the reference construction keeps all K_modes.  The K_modes x
    N_fine increment matrix must fit the entry cap (`_check_entries`), so
    a spec that `generate` could not draw is rejected when it is built.
    """

    sigma: Callable[[np.ndarray, np.ndarray], np.ndarray]
    n_cutoff: int
    K_modes: int
    T: float
    N_fine: int

    def __post_init__(self):
        if not (1 <= self.n_cutoff <= self.K_modes):
            raise DomainError(
                "NoiseSpec: need 1 <= n_cutoff <= K_modes "
                f"(got {reprlib.repr(self.n_cutoff)}, {reprlib.repr(self.K_modes)})"
            )
        if not self.T > 0.0:
            raise DomainError("NoiseSpec: horizon T must be positive")
        if self.N_fine < 1:
            raise DomainError("NoiseSpec: N_fine must be >= 1")
        _check_entries("NoiseSpec: noise matrix", self.K_modes, self.N_fine)

    @property
    def dt_fine(self) -> float:
        return self.T / self.N_fine

    def sigma_matrix(self, times: np.ndarray, truncated: bool) -> np.ndarray:
        """sigma_k(t_i) on modes 1..K_modes x times; zero rows past n_cutoff.

        One sigma call on the mode column and the time row.  The result keeps
        sigma's own shape, which broadcasts to (K_modes, times.size): (K, 1)
        for a sigma that does not depend on time, such as
        `inverse_cubic_sigma`.
        """
        modes = np.arange(1, self.K_modes + 1)[:, None]
        times = np.asarray(times, dtype=float)
        vals = np.asarray(self.sigma(modes, times[None, :]), dtype=float)
        if truncated:
            vals = np.where(modes > self.n_cutoff, 0.0, vals)
        return vals


@dataclass(frozen=True)
class NoisePaths:
    """Increment matrix: entry (k-1, i) = xi_k(t_{i+1}) - xi_k(t_i)."""

    increments: np.ndarray
    dt: float

    @property
    def n_modes(self) -> int:
        return self.increments.shape[0]

    @property
    def n_steps(self) -> int:
        return self.increments.shape[1]


class _ModeStreams:
    """Per-mode normal streams of one trajectory: mode k is keyed (seed, k).

    One Philox serves every mode; before each row its state is reset to key
    (seed, k), a zero counter and an empty buffer.  This is bitwise equal to
    drawing from a freshly constructed generator per mode, without paying
    for a construction per mode.  The reset state holds plain ints and
    lists, which the state setter reads faster than numpy arrays.
    """

    def __init__(self, seed: int):
        self._bitgen = np.random.Philox(key=np.array([seed, 1], dtype=np.uint64))
        self._gen = np.random.Generator(self._bitgen)
        state = self._bitgen.state
        self._fresh = {**state, "state": {k: v.tolist() for k, v in state["state"].items()},
                       "buffer": state["buffer"].tolist()}  # the setter copies it
        self._key = self._fresh["state"]["key"]

    def draw(self, first_mode: int, out: np.ndarray, scale: float) -> None:
        """Fill row i of `out` with mode first_mode + i, times scale.

        Each row must be contiguous; the rows may be strided.  Each entry is
        one draw times one multiply, so a block of rows holds exactly the
        bits of the same rows of a whole-matrix draw.
        """
        for i, row in enumerate(out):
            self._key[1] = first_mode + i
            self._bitgen.state = self._fresh
            self._gen.standard_normal(out=row)
        out *= scale


def generate(spec: NoiseSpec, seed: int) -> NoisePaths:
    """Draw the fine-grid increment matrix for one trajectory.

    Entry (k-1, i) ~ N(0, dt_fine), independent across modes and steps.
    Mode k uses a Philox stream keyed by (seed, k); rows are therefore
    reproducible and unchanged when K_modes grows (see `_ModeStreams`).
    The spec has bounded the matrix by the entry cap.
    """
    seed = int(seed) & _MASK64
    out = np.empty((spec.K_modes, spec.N_fine))
    _ModeStreams(seed).draw(1, out, np.sqrt(spec.dt_fine))
    out.flags.writeable = False
    return NoisePaths(increments=out, dt=spec.dt_fine)


def coarsen(paths: NoisePaths, factor: int) -> NoisePaths:
    """Aggregate groups of `factor` consecutive increments.

    The same Brownian path is represented on the coarser grid; summation
    within each group runs in ascending step order so results are
    bit-reproducible.
    """
    if factor < 1 or paths.n_steps % factor != 0:
        raise DomainError(
            f"coarsen: factor {factor} must divide the {paths.n_steps} fine steps"
        )
    if factor == 1:
        return paths
    grouped = paths.increments.reshape(paths.n_modes, paths.n_steps // factor, factor)
    acc = grouped[:, :, 0].copy()
    for j in range(1, factor):
        acc += grouped[:, :, j]
    acc.flags.writeable = False
    return NoisePaths(increments=acc, dt=paths.dt * factor)


def normalized_increment(paths: NoisePaths, k: int, i: int) -> float:
    """Unit-variance increment: entry (k, i) divided by sqrt(dt).

    Indices are 0-based positions into the increment matrix.
    """
    if not (0 <= k < paths.n_modes and 0 <= i < paths.n_steps):
        raise IndexError(f"normalized_increment: ({k}, {i}) out of range")
    return float(paths.increments[k, i] / np.sqrt(paths.dt))
