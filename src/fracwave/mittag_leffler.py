"""Two-parameter Mittag-Leffler function E_{alpha,beta}(z) on the real axis.

The fast path combines three strategies:

* power series in double precision for |z| <= 1,
* exact elementary forms where they exist (alpha = 1 with beta in {1, 2},
  alpha = 2 with integer beta),
* trapezoidal quadrature of the inverse-Laplace (Bromwich) integral on a
  left-opening parabola, with the poles of s^(alpha-beta)/(s^alpha - z)
  either passed on the right of the contour and picked up as residues or
  left inside the contour mouth, depending on their location.

A slow arbitrary-precision series (`ml_series_hp`, backed by mpmath) serves
as the independent test oracle.

Scalar time-kernel factors built from E_{alpha,beta} (the building blocks of
the fractional wave propagators) live here as well, in scalar
(`ml_time_kernel`) and vectorized (`kernel_weights`) form.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import rgamma

from .errors import ConvergenceError, DomainError

__all__ = [
    "ml",
    "ml_values",
    "ml_series_hp",
    "ml_time_kernel",
    "kernel_weights",
    "KERNEL_KINDS",
]

_SERIES_RADIUS = 1.0
_MAX_SERIES_TERMS = 10_000
_MAX_CONTOUR_NODES = 2_000
# -ln of the quadrature error target, relative to the contour peak e^mu,
# plus a fixed allowance for integrand growth near singularity preimages.
_LOG_TARGET = 39.14 + 3.91
# Arguments per block of the contour sum; the (block x nodes) scratch stays in
# cache.  Each argument's node sum is one row reduction, whatever the block.
_CHUNK = 1_024


def _validate_params(alpha: float, beta: float, where: str = "ml") -> None:
    if not (alpha > 0.0):
        raise DomainError(f"{where}: alpha must satisfy alpha > 0 (got {alpha})")
    if alpha > 2.0:
        raise DomainError(f"{where}: alpha must satisfy alpha <= 2 (got {alpha})")
    if not math.isfinite(beta):
        raise DomainError(f"{where}: beta must be finite (got {beta})")


# ---------------------------------------------------------------------------
# power series, double precision, |z| <= 1
# ---------------------------------------------------------------------------

def _series_coefficients(alpha: float, beta: float) -> np.ndarray:
    """1/Gamma(alpha*k + beta) until the tail is negligible on |z| <= 1."""
    coeffs = []
    k = 0
    while k < _MAX_SERIES_TERMS:
        c = float(rgamma(alpha * k + beta))
        coeffs.append(c)
        if alpha * k + beta > 2.0 and abs(c) < 1e-22:
            break
        k += 1
    else:
        raise ConvergenceError("series coefficients did not decay within term cap")
    return np.asarray(coeffs)


def _series_values(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    c = _series_coefficients(alpha, beta)
    acc = np.full(z.shape, c[-1])
    for ck in c[-2::-1]:
        acc = acc * z + ck
    return acc


# ---------------------------------------------------------------------------
# elementary special cases
# ---------------------------------------------------------------------------

def _alpha2_integer_beta(beta_int: int, z: np.ndarray) -> np.ndarray:
    """E_{2,m}(z) for integer m >= 1 via trigonometric/hyperbolic forms."""
    out = np.empty_like(z)
    neg = z < 0
    pos = ~neg
    y = np.sqrt(np.abs(z))
    if beta_int == 1:
        out[neg] = np.cos(y[neg])
        out[pos] = np.cosh(y[pos])
        return out
    if beta_int == 2:
        with np.errstate(invalid="ignore"):
            out[neg] = np.sin(y[neg]) / y[neg]
            out[pos] = np.sinh(y[pos]) / y[pos]
        out[y == 0.0] = 1.0
        return out
    if beta_int == 3:
        # (1 - cos y)/y^2 without cancellation
        with np.errstate(invalid="ignore"):
            half = 0.5 * y
            out[neg] = 2.0 * np.sin(half[neg]) ** 2 / (y[neg] ** 2)
            out[pos] = (np.cosh(y[pos]) - 1.0) / (y[pos] ** 2)
        out[y == 0.0] = 0.5
        return out
    # recurrence E_{2,m}(z) = (E_{2,m-2}(z) - 1/Gamma(m-2)) / z, only |z| > 1 here
    prior = _alpha2_integer_beta(beta_int - 2, z)
    return (prior - float(rgamma(beta_int - 2))) / z


# ---------------------------------------------------------------------------
# parabolic contour quadrature
# ---------------------------------------------------------------------------

def _contour_params(alpha: float, r_lo: float, r_hi: float, positive: bool):
    """Contour (mu, h, n_side, take_residues) for pole radii in [r_lo, r_hi].

    The parabola is s(u) = mu*(1+iu)^2.  A pole at radius r and angle theta
    crosses the contour when mu = r*cos^2(theta/2); parameters are chosen so
    every pole in the bucket stays clear of the contour on a fixed side.
    """
    if positive:
        cos2_half = 1.0
    elif alpha > 1.0:
        cos2_half = math.cos(0.5 * math.pi / alpha) ** 2
    else:
        cos2_half = 0.0  # no principal-sheet poles for z < 0

    residues = False
    if cos2_half > 0.0 and r_lo * cos2_half >= 0.5:
        # poles pass to the right of the contour; add their residues
        residues = True
        mu = min(max(r_lo * cos2_half / 2.5, 0.2), 6.0)
        a_min = math.sqrt(r_lo * cos2_half / mu)
        d = min(0.85, 0.9 * (a_min - 1.0))
    else:
        # poles (if any) stay inside the contour mouth, near the branch cut
        mu = 1.5
        a_max = math.sqrt(r_hi * cos2_half / mu) if cos2_half > 0.0 else 0.0
        d = min(0.85, 0.9 * (1.0 - a_max))

    h = 2.0 * math.pi * d / (_LOG_TARGET + mu * d * (2.0 + d))
    u_max = math.sqrt(1.0 + _LOG_TARGET / mu)
    n_side = int(math.ceil(u_max / h))
    if 2 * n_side + 1 > _MAX_CONTOUR_NODES:
        raise ConvergenceError(
            f"contour quadrature would need {2 * n_side + 1} nodes (cap {_MAX_CONTOUR_NODES})"
        )
    return mu, h, n_side, residues


def _contour_values(alpha: float, beta: float, z: np.ndarray, positive: bool) -> np.ndarray:
    """Quadrature + residues for a bucket of z with |z| > 1 and one sign."""
    r = np.abs(z) ** (1.0 / alpha)
    mu, h, n_side, residues = _contour_params(alpha, float(r.min()), float(r.max()), positive)

    u = h * np.arange(n_side + 1)
    s = mu * (1.0 + 1j * u) ** 2
    w = np.exp(s) * s ** (alpha - beta) * (2.0 * mu * 1j * (1.0 + 1j * u))
    w[0] *= 0.5  # u = 0 node counted once in the symmetrized sum
    sa = s**alpha
    wr, wi = w.real.copy(), w.imag.copy()
    ar, ai = sa.real.copy(), sa.imag.copy()
    ai2 = ai * ai
    wr_ai = wr * ai

    out = np.empty_like(z)
    # Im( w / (sa - z) ) = (wi*dr - wr*ai) / (dr^2 + ai^2), dr = ar - z, summed
    # over nodes; z is real.  Computed in place in two preallocated buffers.
    # The residue term is elementwise, so adding it chunk by chunk gives the
    # bits of adding it to the whole bucket, without bucket-sized temporaries.
    num = np.empty((min(_CHUNK, z.size), ar.size))
    den = np.empty_like(num)
    for lo in range(0, z.size, _CHUNK):
        zc = z[lo : lo + _CHUNK, None]
        dr, sq = num[: zc.shape[0]], den[: zc.shape[0]]
        np.subtract(ar, zc, out=dr)
        np.multiply(dr, dr, out=sq)
        sq += ai2
        dr *= wi
        dr -= wr_ai
        dr /= sq
        oc = out[lo : lo + _CHUNK]
        oc[:] = (h / math.pi) * dr.sum(axis=1)
        if residues:
            rc = r[lo : lo + _CHUNK]
            if positive:
                oc += (1.0 / alpha) * rc ** (1.0 - beta) * np.exp(rc)
            else:
                pole = rc * np.exp(1j * math.pi / alpha)
                oc += (2.0 / alpha) * (pole ** (1.0 - beta) * np.exp(pole)).real
    return out


# ---------------------------------------------------------------------------
# public evaluation
# ---------------------------------------------------------------------------

def ml_values(alpha: float, beta: float, z) -> np.ndarray:
    """Evaluate E_{alpha,beta} on an array of finite real arguments.

    Accurate to ~1e-13 relative error for z in [-30, 1] and to ~1e-12
    absolute error on the rest of the negative axis; for z > 1 the value is
    dominated by the exponential residue term and keeps relative accuracy.
    """
    _validate_params(alpha, beta)
    z = np.ascontiguousarray(z, dtype=float)
    if z.ndim == 0:
        z = z[None]
    if not np.isfinite(z).all():
        raise DomainError("ml: argument z must be finite")
    out = np.empty_like(z)

    if alpha == 1.0 and beta == 1.0:
        np.exp(z, out=out)
        return out
    if alpha == 1.0 and beta == 2.0:
        nz = z != 0.0
        out[nz] = np.expm1(z[nz]) / z[nz]
        out[~nz] = 1.0
        return out
    if alpha == 2.0 and beta == round(beta) and 1 <= beta <= 6:
        small = np.abs(z) <= _SERIES_RADIUS
        bi = int(round(beta))
        if bi <= 3:
            return _alpha2_integer_beta(bi, z)
        # upward recurrence is unstable near 0; keep the series there
        out[small] = _series_values(alpha, beta, z[small])
        out[~small] = _alpha2_integer_beta(bi, z[~small])
        return out

    small = np.abs(z) <= _SERIES_RADIUS
    if small.any():
        out[small] = _series_values(alpha, beta, z[small])

    for positive in (False, True):
        side = (z < -_SERIES_RADIUS) if not positive else (z > _SERIES_RADIUS)
        if not side.any():
            continue
        idx = np.nonzero(side)[0]
        zs = z[idx]
        r = np.abs(zs) ** (1.0 / alpha)
        buckets = np.floor(np.log2(r)).astype(int)
        for b in np.unique(buckets):
            sel = idx[buckets == b]
            out[sel] = _contour_values(alpha, beta, z[sel], positive)
    return out


def ml(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for scalar real z; see `ml_values`."""
    return float(ml_values(alpha, beta, np.asarray([z], dtype=float))[0])


def _ml_series_mpf(alpha, beta, z, tol, digits):
    with mp.workdps(digits):
        zz = mp.mpf(z)
        total = mp.mpf(0)
        tol_mp = mp.mpf(tol)
        for k in range(_MAX_SERIES_TERMS):
            term = zz**k / mp.gamma(mp.mpf(alpha) * k + mp.mpf(beta))
            total += term
            if abs(term) < tol_mp * (abs(total) + 1):
                return total
        raise ConvergenceError(
            f"ml_series_hp: {_MAX_SERIES_TERMS} terms exhausted for z={z}"
        )


def ml_series_hp(alpha: float, beta: float, z: float, tol: float = 1e-30,
                 digits: int | None = None) -> float:
    """Arbitrary-precision partial sum of the defining series (test oracle).

    Sums z^k/Gamma(alpha*k + beta) with mpmath, truncating when the current
    term drops below tol*(|partial sum| + 1).  Restricted to |z| <= 50.  The
    working precision defaults to 50 digits plus an allowance for the
    cancellation of the alternating tail, which grows like exp(|z|^(1/alpha));
    pass `digits` to override.
    """
    _validate_params(alpha, beta, where="ml_series_hp")
    if not math.isfinite(z) or abs(z) > 50.0:
        raise DomainError(f"ml_series_hp: |z| <= 50 required (got {z})")
    if not tol > 0.0:
        raise DomainError("ml_series_hp: tol must be positive")
    if digits is None:
        cancel = abs(z) ** (1.0 / alpha) * 0.4343 if z < 0.0 else 0.0
        digits = 50 + int(math.ceil(cancel))
    return float(_ml_series_mpf(alpha, beta, z, tol, digits))


# ---------------------------------------------------------------------------
# time-kernel factors
# ---------------------------------------------------------------------------

#: Scalar kernel factors of the fractional-wave propagators, as functions of
#: time t and a spatial eigenvalue lam (already raised to its fractional
#: power):
#:   init_value         E_{a,1}(-lam t^a)        (initial displacement)
#:   init_velocity      t E_{a,2}(-lam t^a)      (initial velocity)
#:   impulse            t^(a-1) E_{a,a}(-lam t^a)
#:   impulse_primitive  t^a E_{a,a+1}(-lam t^a)  (antiderivative of impulse)
KERNEL_KINDS = ("init_value", "init_velocity", "impulse", "impulse_primitive")

_KERNEL_SECOND_PARAM = {
    "init_value": lambda a: 1.0,
    "init_velocity": lambda a: 2.0,
    "impulse": lambda a: a,
    "impulse_primitive": lambda a: a + 1.0,
}

_KERNEL_TIME_POWER = {
    "init_value": lambda a: 0.0,
    "init_velocity": lambda a: 1.0,
    "impulse": lambda a: a - 1.0,
    "impulse_primitive": lambda a: a,
}


def kernel_weights(alpha: float, kind: str, lam: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Kernel factor on the grid lam x tau, shape (len(lam), len(tau)).

    lam holds nonnegative spatial eigenvalues already raised to the fractional
    Laplacian power; tau holds nonnegative times.  tau = 0 follows the
    continuous limit (1, 0, 0, 0 for the four kinds, alpha > 1).
    """
    if kind not in KERNEL_KINDS:
        raise DomainError(f"unknown kernel kind {kind!r}")
    lam = np.ascontiguousarray(lam, dtype=float)
    tau = np.ascontiguousarray(tau, dtype=float)
    if (lam < 0).any():
        raise DomainError("kernel_weights: eigenvalues must be >= 0")
    if (tau < 0).any():
        raise DomainError("kernel_weights: times must be >= 0")

    beta = _KERNEL_SECOND_PARAM[kind](alpha)
    power = _KERNEL_TIME_POWER[kind](alpha)
    targ = tau**alpha
    zgrid = -np.outer(lam, targ)
    evals = ml_values(alpha, beta, zgrid.ravel()).reshape(zgrid.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        tfac = np.where(tau > 0.0, tau**power, 1.0 if power == 0.0 else 0.0)
    return evals * tfac[None, :]


def ml_time_kernel(alpha: float, lam: float, t: float, kind: str) -> float:
    """Scalar version of `kernel_weights` at a single (lam, t)."""
    if t < 0.0:
        raise DomainError("ml_time_kernel: t must be >= 0")
    return float(
        kernel_weights(alpha, kind, np.asarray([lam]), np.asarray([t]))[0, 0]
    )
