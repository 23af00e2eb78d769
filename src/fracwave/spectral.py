"""Exact solutions in the Dirichlet sine eigenbasis on (0, 1).

A field is represented by its coefficient vector against the orthonormal
eigenfunctions sqrt(2) sin(k pi x) of the Dirichlet Laplacian (entry j of a
vector belongs to mode k = j + 1).  The fractional Laplacian acts mode-wise
by (k pi)^(2 beta), so the homogeneous evolution, the noise convolution and
fractional Sobolev norms all reduce to vector operations against
Mittag-Leffler kernel factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .mittag_leffler import kernel_weights
from .noise import NoisePaths, NoiseSpec, _step_count

__all__ = [
    "FracOrders",
    "laplacian_eigenvalues",
    "fractional_eigenvalues",
    "sine_mode",
    "parabola_coeffs",
    "ramp_coeffs",
    "sobolev_norm",
    "homogeneous_solution",
    "convolution_weights",
    "stochastic_convolution",
    "reference_solution",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class FracOrders:
    """Fractional orders of the equation: alpha in time, beta in space."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (1.0 < self.alpha <= 2.0):
            raise DomainError(f"FracOrders: need 1 < alpha <= 2 (got {self.alpha})")
        if not (0.5 < self.beta <= 1.0):
            raise DomainError(f"FracOrders: need 1/2 < beta <= 1 (got {self.beta})")


def laplacian_eigenvalues(k_max: int) -> np.ndarray:
    """(k pi)^2 for modes k = 1..k_max."""
    k = np.arange(1, k_max + 1, dtype=float)
    return (k * math.pi) ** 2


def fractional_eigenvalues(beta: float, k_max: int) -> np.ndarray:
    """((k pi)^2)^beta for modes k = 1..k_max."""
    return laplacian_eigenvalues(k_max) ** beta


def sine_mode(k: int, x) -> np.ndarray | float:
    """Orthonormal eigenfunction sqrt(2) sin(k pi x), k >= 1, x in [0, 1]."""
    if k < 1:
        raise DomainError(f"sine_mode: k must be >= 1 (got {k})")
    return SQRT2 * np.sin(k * math.pi * np.asarray(x, dtype=float))


def parabola_coeffs(k_max: int) -> np.ndarray:
    """Sine coefficients of the parabolic bump 4x(1-x).

    Odd modes carry 16*sqrt(2)/(k pi)^3; even modes vanish by the symmetry
    about x = 1/2.
    """
    k = np.arange(1, k_max + 1, dtype=float)
    out = 16.0 * SQRT2 / (k * math.pi) ** 3
    out[1::2] = 0.0
    return out


def ramp_coeffs(k_max: int) -> np.ndarray:
    """Sine coefficients of the ramp x: sqrt(2) (-1)^(k+1) / (k pi)."""
    k = np.arange(1, k_max + 1, dtype=float)
    signs = np.where(np.arange(k_max) % 2 == 0, 1.0, -1.0)
    return SQRT2 * signs / (k * math.pi)


def sobolev_norm(coeffs: np.ndarray, q: float) -> float:
    """Fractional Sobolev norm sqrt(sum_k lam_k^q c_k^2), lam_k = (k pi)^2."""
    coeffs = np.asarray(coeffs, dtype=float)
    lam = laplacian_eigenvalues(coeffs.size)
    return float(np.sqrt(np.sum(lam**q * coeffs**2)))


def homogeneous_solution(orders: FracOrders, v1: np.ndarray, v2: np.ndarray,
                         t: float) -> np.ndarray:
    """Noise-free solution coefficients at time t >= 0.

    Mode k evolves independently: the initial displacement coefficient is
    damped by E_{a,1}(-lam_k^b t^a) and the initial velocity contributes
    t E_{a,2}(-lam_k^b t^a).
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if v1.shape != v2.shape:
        raise DomainError("homogeneous_solution: v1 and v2 truncations differ")
    if t < 0.0:
        raise DomainError("homogeneous_solution: t must be >= 0")
    lam = fractional_eigenvalues(orders.beta, v1.size)
    return _homogeneous(orders.alpha, lam, t, v1, v2)


def _homogeneous(alpha: float, lam: np.ndarray, t: float, c1: np.ndarray,
                 c2: np.ndarray) -> np.ndarray:
    """E_{a,1}(-lam t^a) c1 + t E_{a,2}(-lam t^a) c2: the noise-free
    propagation of sine modes (lam = (k pi)^(2 b)) or FEM modes (lam_j^h)."""
    tgrid = np.asarray([t])
    disp = kernel_weights(alpha, "init_value", lam, tgrid)[:, 0]
    velo = kernel_weights(alpha, "init_velocity", lam, tgrid)[:, 0]
    return disp * c1 + velo * c2


def convolution_weights(orders: FracOrders, spec: NoiseSpec, dt: float,
                        t_index: int, rule: str = "exact",
                        truncated: bool = True, rows=None) -> np.ndarray:
    """Weights applied to raw increments in the stochastic convolution.

    Returns W of shape (K_modes, t_index) such that the convolution
    coefficients at t = t_index*dt are sum_i W[k, i] * increment[k, i], or
    only its rows `rows`, the same bits (`kernel_weights`).

    rule = "exact": the impulse kernel is integrated exactly over each
    subinterval through its antiderivative, so W[k, i] =
    sigma_k(t_i) * (G_k(t - t_i) - G_k(t - t_{i+1})) / dt with
    G_k(tau) = tau^a E_{a,a+1}(-lam_k^b tau^a).

    rule = "left": the left-point Ito sum, W[k, i] = sigma_k(t_i) *
    (t - t_i)^(a-1) E_{a,a}(-lam_k^b (t - t_i)^a).
    """
    if t_index < 1:
        raise DomainError("convolution_weights: t_index must be >= 1")
    lam = fractional_eigenvalues(orders.beta, spec.K_modes)
    sig = spec.sigma_matrix(dt * np.arange(t_index), truncated=truncated)
    if rows is not None:  # a sigma that does not vary by mode has one row
        sig = np.broadcast_to(sig, np.broadcast_shapes(sig.shape, (spec.K_modes, 1)))[rows]
    return _time_weights(orders.alpha, lam, sig, t_index * dt, dt, t_index, rule, rows)


def _time_weights(alpha: float, lam: np.ndarray, amp, t: float, dt: float,
                  n_steps: int, rule: str, rows=None) -> np.ndarray:
    """The weights of `convolution_weights` with amplitudes amp, for any lam,
    or only their rows `rows` (amp then holds those rows alone).

    The exact rule rounds (amp * (G(t - t_i) - G(t - t_{i+1}))) / dt in that
    order, so amp = 1.0 gives the bits of the plain kernel differences / dt.
    """
    if rule == "left":
        tau = t - dt * np.arange(n_steps)
        w = kernel_weights(alpha, "impulse", lam, tau, rows)
        w *= amp
        return w
    if rule == "exact":
        tau_all = t - dt * np.arange(n_steps + 1)
        tau_all[-1] = 0.0  # guard rounding at the evaluation node
        prim = kernel_weights(alpha, "impulse_primitive", lam, tau_all, rows)
        w = prim[:, :-1] - prim[:, 1:]
        w *= amp
        w /= dt
        return w
    raise DomainError(f"unknown time-weight rule {rule!r}")


def stochastic_convolution(orders: FracOrders, spec: NoiseSpec, paths: NoisePaths,
                           t_index: int, rule: str = "exact",
                           truncated: bool = True) -> np.ndarray:
    """Coefficients of the noise convolution at grid node t = t_index * dt."""
    if paths.n_modes != spec.K_modes:
        raise DomainError("stochastic_convolution: paths/spec mode counts differ")
    if not (1 <= t_index <= paths.n_steps):
        raise DomainError(f"stochastic_convolution: t_index {t_index} not on the grid")
    w = convolution_weights(orders, spec, paths.dt, t_index, rule=rule,
                            truncated=truncated)
    return (w * paths.increments[:, :t_index]).sum(axis=1)


def _grid_index(t: float, paths: NoisePaths) -> int:
    """Index n >= 1 of the node t = n dt of the grid of paths: dt divides t
    to 1e-9 relative (`noise._step_count`), and t is within the paths."""
    idx = _step_count(f"grid step at t = {t}", paths.dt, t)
    if idx > paths.n_steps:
        raise DomainError(f"t = {t} is beyond the path horizon")
    return idx


def reference_solution(orders: FracOrders, v1: np.ndarray, v2: np.ndarray,
                       spec: NoiseSpec, paths: NoisePaths, t: float) -> np.ndarray:
    """Fine-grid reference solution at time t (a fine-grid node).

    Homogeneous evolution of (v1, v2) plus the left-point Ito sum of the
    impulse kernel against the full (untruncated) noise amplitudes.
    """
    idx = _grid_index(t, paths)
    hom = homogeneous_solution(orders, v1, v2, t)
    conv = stochastic_convolution(orders, spec, paths, idx, rule="left",
                                  truncated=False)
    return hom + conv
