"""Two-parameter Mittag-Leffler function E_{alpha,beta}(z) on the real axis.

The fast path combines four strategies:

* power series in double precision for |z| <= 1,
* exact elementary forms where they exist (alpha = 1 with beta in {1, 2},
  alpha = 2 with integer beta),
* for z < 0 with pole radius |z|^(1/alpha) >= 64 and 1 < alpha < 2, the
  inverse-power asymptotic series plus the residues of the conjugate poles,
* elsewhere, trapezoidal quadrature of the inverse-Laplace (Bromwich)
  integral on a left-opening parabola, with the poles of
  s^(alpha-beta)/(s^alpha - z) either passed on the right of the contour
  and picked up as residues or left inside the contour mouth, depending on
  their location.

A slow arbitrary-precision series (`ml_series_hp`, backed by mpmath) serves
as the independent test oracle.

Scalar time-kernel factors built from E_{alpha,beta} (the building blocks of
the fractional wave propagators) live here as well, in scalar
(`ml_time_kernel`) and vectorized (`kernel_weights`) form.
"""

from __future__ import annotations

import math

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
# Arguments per block of the contour sum: each group of eight nodes is a few
# vector operations over the block, whose (8 x block) scratch stays in cache.
_BLOCK = 8_192
# numpy's pairwise_sum adds rows of up to this many terms in 8 accumulators.
_PW_LEAF = 128
# Negative-axis buckets from floor(log2 r) = 6 on (pole radius r >= 64) take
# the asymptotic series when 1 < alpha < 2; it needs 12-20 terms there.
_ASYMPTOTIC_BUCKET = 6


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


def _node_coefficients(alpha: float, beta: float, mu: float, h: float, n_side: int):
    """Per-node (ar, ai^2, wi, wr*ai) of the symmetrized trapezoid sum, as columns.

    Node u_k = k*h on s(u) = mu*(1+iu)^2 has weight w = e^s s^(alpha-beta) s'(u)
    (halved at u = 0) and pole factor s^alpha = ar + i*ai; each array has shape
    (n_side + 1, 1), so a slice of nodes broadcasts against a block of z.
    """
    u = h * np.arange(n_side + 1)
    s = mu * (1.0 + 1j * u) ** 2
    w = np.exp(s) * s ** (alpha - beta) * (2.0 * mu * 1j * (1.0 + 1j * u))
    w[0] *= 0.5  # u = 0 node counted once in the symmetrized sum
    sa = s**alpha
    ai = sa.imag
    return tuple(c[:, None].copy() for c in (sa.real, ai * ai, w.imag, w.real * ai))


def _node_terms(coef, lo: int, hi: int, z: np.ndarray, d: np.ndarray, q: np.ndarray):
    """Im( w / (sa - z) ) for nodes lo..hi-1 and a block of real z, into d[:hi-lo].

    With dr = ar - z the term is (dr*wi - wr*ai) / (dr^2 + ai^2); each step is
    one rounding, the same sequence a (z x nodes) array expression makes.
    """
    ar, ai2, wi, wr_ai = coef
    d, q = d[: hi - lo], q[: hi - lo]
    np.subtract(ar[lo:hi], z, out=d)
    np.square(d, out=q)  # d*d, correctly rounded; twice as fast as multiply(d, d)
    q += ai2[lo:hi]
    d *= wi[lo:hi]
    d -= wr_ai[lo:hi]
    d /= q
    return d


def _pairwise_node_sum(coef, lo: int, n: int, z: np.ndarray, d, q, acc) -> np.ndarray:
    """Sum of the terms of nodes lo..lo+n-1, per z, in numpy's pairwise order.

    numpy sums a contiguous row of n doubles with `pairwise_sum`: below 8
    terms one by one from 0.0; up to 128 terms in 8 strided accumulators,
    folded as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the n % 8 rest one by
    one; above 128 it splits at n/2 rounded down to a multiple of 8 and adds
    the two halves.  Here a row of acc is one accumulator for a whole block
    of z, so every z gets the same additions in the same order as
    `terms.sum(axis=1)`.  d, q and acc are (8, len(z)) scratch arrays.
    """
    if n < 8:
        res = np.zeros(z.size)
        for row in _node_terms(coef, lo, lo + n, z, d, q):
            res += row
        return res
    if n > _PW_LEAF:
        n2 = n // 2
        n2 -= n2 % 8
        res = _pairwise_node_sum(coef, lo, n2, z, d, q, acc)
        res += _pairwise_node_sum(coef, lo + n2, n - n2, z, d, q, acc)
        return res
    stop = lo + n - n % 8
    _node_terms(coef, lo, lo + 8, z, acc, q)
    for k in range(lo + 8, stop, 8):
        acc += _node_terms(coef, k, k + 8, z, d, q)
    acc[0::2] += acc[1::2]
    acc[0::4] += acc[2::4]
    res = acc[0] + acc[4]
    for row in _node_terms(coef, stop, lo + n, z, d, q):
        res += row
    return res


def _residue_ln_bound(alpha: float, beta: float, r: np.ndarray) -> float:
    """ln(2 * (2/alpha) * r^(1-beta) * 2^55), r^(1-beta) at its largest over r."""
    r_top = float(r.min() if beta > 1.0 else r.max())
    return math.log(4.0 / alpha) + (1.0 - beta) * math.log(r_top) + 55.0 * math.log(2.0)


def _add_negative_residues(alpha: float, beta: float, r: np.ndarray, out: np.ndarray,
                           ln_bound: float) -> None:
    """Add the residues of the poles p = r e^(+-i pi/alpha) of z < 0 to out.

    The residue pair is (2/alpha) Re(p^(1-beta) e^p), of modulus at most
    B = (2/alpha) r^(1-beta) e^(r cos(pi/alpha)).  Where 2B < |out| 2^-55,
    which is below spacing(|out|)/4, the computed residue (within a factor 2
    of B after rounding) is less than half the gap below or above out, so
    round-to-nearest leaves out unchanged and the residue is not computed.
    The test is made argument by argument in logarithms, with ln_bound from
    `_residue_ln_bound` of r, so an underflowed exponential cannot fake a
    small bound; out == 0 always takes the residue (ln 0 = -inf).
    """
    pole_dir = np.exp(1j * math.pi / alpha)
    with np.errstate(divide="ignore"):
        keep = r * pole_dir.real + ln_bound >= np.log(np.abs(out))
    sel = np.flatnonzero(keep)
    if sel.size:
        pole = r[sel] * pole_dir
        out[sel] += (2.0 / alpha) * (pole ** (1.0 - beta) * np.exp(pole)).real


def _contour_values(alpha: float, beta: float, z: np.ndarray, r: np.ndarray,
                    positive: bool, r_lo: float, r_hi: float) -> np.ndarray:
    """Quadrature + residues for (part of) a bucket of z with |z| > 1 and one sign.

    r = |z|^(1/alpha) is the pole radius of each z, and the contour is the
    one of the bucket's pole radii [r_lo, r_hi].  `_bucket_values` passes at
    most _BLOCK arguments, so the (8 x arguments) scratch stays in cache.
    The loop runs over the contour nodes, eight at a time, and
    `_pairwise_node_sum` adds each argument's node terms in the order of
    numpy's pairwise `sum(axis=1)` over a row of them.  So the result has
    the bits of the (arguments x nodes) array expression, kept in
    `tests/oracles.py`, for as long as numpy's pairwise leaf stays at 128
    terms in 8 accumulators; `tests/test_bit_identity.py` checks both.
    Negative-axis residues go through `_add_negative_residues`.
    """
    mu, h, n_side, residues = _contour_params(alpha, r_lo, r_hi, positive)
    coef = _node_coefficients(alpha, beta, mu, h, n_side)
    d, q, acc = (np.empty((8, z.size)) for _ in range(3))
    node_sum = _pairwise_node_sum(coef, 0, n_side + 1, z, d, q, acc)
    node_sum += 0.0  # numpy's reduction starts from 0.0: a -0.0 sum becomes +0.0
    out = (h / math.pi) * node_sum
    if residues and positive:
        with np.errstate(over="ignore"):  # E above the largest double is inf
            out += (1.0 / alpha) * r ** (1.0 - beta) * np.exp(r)
    elif residues:
        _add_negative_residues(alpha, beta, r, out, _residue_ln_bound(alpha, beta, r))
    return out


# ---------------------------------------------------------------------------
# inverse-power asymptotic series, z < 0 with pole radius >= 2^_ASYMPTOTIC_BUCKET
# ---------------------------------------------------------------------------

def _asymptotic_coefficients(alpha: float, beta: float, bucket: int) -> np.ndarray:
    """-1/Gamma(beta - alpha k), k = 1..n, for pole radii in [2^bucket, 2^(bucket+1)).

    n is the least count whose first omitted term is below 2^-53 |z|^-2 at
    the bucket's upper edge, where the term is bounded at its lower edge by
    the envelope |1/Gamma(beta - alpha k)| <= Gamma(1 + alpha k - beta)/pi
    (reflection formula, for 1 + alpha k - beta > 0; no term before that
    ends the sum).  The envelope, not the coefficient, decides: a
    coefficient that vanishes (beta - alpha k a non-positive integer) or
    nearly does must not stop the sum before the terms after it are small.
    """
    ln_r_lo = bucket * math.log(2.0)
    ln_target = -53.0 * math.log(2.0) - 2.0 * alpha * (ln_r_lo + math.log(2.0))
    n = 1
    while (1.0 + alpha * (n + 1) - beta <= 0.0
           or math.lgamma(1.0 + alpha * (n + 1) - beta) - math.log(math.pi)
           - alpha * (n + 1) * ln_r_lo > ln_target):
        n += 1
    return -rgamma(beta - alpha * np.arange(1, n + 1))


def _asymptotic_values(alpha: float, beta: float, z: np.ndarray, r: np.ndarray,
                       coef: np.ndarray) -> np.ndarray:
    """Asymptotic series + residues for a bucket of z < 0, 1 < alpha < 2.

    E_{alpha,beta}(z) = residues - sum_k z^(-k)/Gamma(beta - alpha k) on the
    negative axis (Gorenflo, Loutchko and Luchko, Fract. Calc. Appl. Anal.
    5(4), 2002), the sum by Horner's rule in 1/z with the term count of the
    bucket, coef from `_asymptotic_coefficients`.  The divergent series'
    smallest term is about e^-r, so from r = 64 on the truncation stays far
    below double precision.  A value depends on (alpha, beta, z) alone, not
    on the other arguments.
    """
    w = 1.0 / z
    out = np.full_like(z, coef[-1])
    for c in coef[-2::-1]:
        out *= w
        out += c
    out *= w
    _add_negative_residues(alpha, beta, r, out, _residue_ln_bound(alpha, beta, r))
    return out


# ---------------------------------------------------------------------------
# public evaluation
# ---------------------------------------------------------------------------

# Routing keys of `ml_values`, one int16 per argument: 0 for |z| <= 1, then
# 1 + floor(log2 r) for z < -1 and _POSITIVE_KEY + floor(log2 r) for z > 1,
# where floor(log2 r) is 0..1024 for finite r = |z|^(1/alpha) and 1025 for
# r = inf.
_POSITIVE_KEY = 1027
_N_KEYS = _POSITIVE_KEY + 1026


def _pole_radius(alpha: float, z: np.ndarray) -> np.ndarray:
    """r = |z|^(1/alpha), by the one expression every route uses."""
    return np.abs(z) ** (1.0 / alpha)


def _routing_keys(alpha: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(key, counts): the routing key of each argument and the arguments per key."""
    key = np.empty(z.shape, dtype=np.int16)
    counts = np.zeros(_N_KEYS, dtype=np.int64)
    for lo in range(0, z.size, _BLOCK):
        zc = z[lo : lo + _BLOCK]
        with np.errstate(divide="ignore"):
            ids = np.log2(_pole_radius(alpha, zc))
        np.floor(ids, out=ids)
        np.minimum(ids, 1025.0, out=ids)
        ids += np.where(zc > 0.0, float(_POSITIVE_KEY), 1.0)
        ids[np.abs(zc) <= _SERIES_RADIUS] = 0.0
        kc = key[lo : lo + _BLOCK]
        kc[...] = ids
        counts += np.bincount(kc, minlength=_N_KEYS)
    return key, counts


def _bucket_values(alpha: float, beta: float, z: np.ndarray, idx: np.ndarray, k: int,
                   out: np.ndarray) -> None:
    """out[idx] for the arguments z[idx] of routing key k, in _BLOCK chunks."""
    chunks = [idx[lo : lo + _BLOCK] for lo in range(0, idx.size, _BLOCK)]
    if k == 0:
        for s in chunks:
            out[s] = _series_values(alpha, beta, z[s])
        return
    positive = k >= _POSITIVE_KEY
    bucket = k - (_POSITIVE_KEY if positive else 1)
    if not positive and 1.0 < alpha < 2.0 and bucket >= _ASYMPTOTIC_BUCKET:
        coef = _asymptotic_coefficients(alpha, beta, bucket)
        for s in chunks:
            zc = z[s]
            out[s] = _asymptotic_values(alpha, beta, zc, _pole_radius(alpha, zc), coef)
        return
    r_lo, r_hi = math.inf, -math.inf
    for s in chunks:
        r = _pole_radius(alpha, z[s])
        r_lo, r_hi = min(r_lo, float(r.min())), max(r_hi, float(r.max()))
    for s in chunks:
        zc = z[s]
        out[s] = _contour_values(alpha, beta, zc, _pole_radius(alpha, zc), positive, r_lo, r_hi)


def _elementary_values(alpha: float, beta_int: int, z: np.ndarray) -> np.ndarray:
    """E_{1,1}, E_{1,2} and E_{2,m} (m = 1..6) by their closed forms."""
    if alpha == 1.0:
        if beta_int == 1:
            return np.exp(z)
        with np.errstate(invalid="ignore"):
            out = np.expm1(z) / z
        out[z == 0.0] = 1.0
        return out
    if beta_int <= 3:
        return _alpha2_integer_beta(beta_int, z)
    # upward recurrence is unstable near 0; keep the series there
    small = np.abs(z) <= _SERIES_RADIUS
    out = np.empty_like(z)
    out[small] = _series_values(alpha, float(beta_int), z[small])
    out[~small] = _alpha2_integer_beta(beta_int, z[~small])
    return out


def ml_values(alpha: float, beta: float, z) -> np.ndarray:
    """Evaluate E_{alpha,beta} on an array of finite real arguments.

    The result has the shape of z, except that a scalar z gives shape (1,).

    Accurate to ~1e-13 relative error for z in [-30, 1] and to ~1e-12
    absolute error on the rest of the negative axis that the contour serves;
    for z > 1 the value is dominated by the exponential residue term and
    keeps relative accuracy.  Where the asymptotic series serves (z < 0,
    |z|^(1/alpha) >= 64, 1 < alpha < 2) the error is a few ulps of the
    value, plus the double rounding of the residues' phase r sin(pi/alpha),
    about r ulps of the residue; near alpha = 2, where the residues decay
    slowly, that rounding dominates (1e-15 absolute at alpha = 1.95, r = 64).

    Arguments with |z| > 1 are grouped by sign and by
    floor(log2 |z|^(1/alpha)), through one int16 routing key per argument.
    Each negative group from 6 on (1 < alpha < 2) takes the asymptotic
    series, whose value depends on (alpha, beta, z) alone; every other
    group shares one contour, set by the group's least and largest pole
    radius.  The contour kernel runs node-major, summing in numpy's
    pairwise order; both strategies skip the negative-axis residues too
    small to change a bit of the value (see `_add_negative_residues`), and
    the contour values are those of the straightforward (arguments x nodes)
    evaluation, bit for bit.

    The routing pass works in chunks of _BLOCK arguments, and
    `_bucket_values` hands each strategy at most _BLOCK arguments per call,
    so besides the result the scratch is about 11 bytes per argument (the
    2-byte key, and the 1-byte mask and 8-byte index of the group in hand)
    plus a few arrays of _BLOCK.
    """
    _validate_params(alpha, beta)
    z = np.ascontiguousarray(z, dtype=float)
    shape = z.shape or (1,)
    z = z.ravel()
    if not np.isfinite(z).all():
        raise DomainError("ml: argument z must be finite")
    out = np.empty_like(z)

    if (alpha == 1.0 and beta in (1.0, 2.0)
            or alpha == 2.0 and beta == round(beta) and 1 <= beta <= 6):
        for lo in range(0, z.size, _BLOCK):
            out[lo : lo + _BLOCK] = _elementary_values(alpha, int(beta), z[lo : lo + _BLOCK])
        return out.reshape(shape)

    key, counts = _routing_keys(alpha, z)
    for k in np.flatnonzero(counts).tolist():
        _bucket_values(alpha, beta, z, np.flatnonzero(key == k), k, out)
    return out.reshape(shape)


def ml(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for scalar real z; see `ml_values`."""
    return float(ml_values(alpha, beta, np.asarray([z], dtype=float))[0])


def _ml_series_mpf(alpha, beta, z, tol, digits):
    import mpmath as mp  # only the oracle needs it; importing costs every process ~30 ms

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
#: Each kind maps alpha to (second ML parameter, power of t).
_KERNEL_PARAMS = {
    "init_value": lambda a: (1.0, 0.0),
    "init_velocity": lambda a: (2.0, 1.0),
    "impulse": lambda a: (a, a - 1.0),
    "impulse_primitive": lambda a: (a + 1.0, a),
}
KERNEL_KINDS = tuple(_KERNEL_PARAMS)


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

    beta, power = _KERNEL_PARAMS[kind](alpha)
    targ = tau**alpha
    evals = ml_values(alpha, beta, -np.outer(lam, targ))
    with np.errstate(divide="ignore", invalid="ignore"):
        tfac = np.where(tau > 0.0, tau**power, 1.0 if power == 0.0 else 0.0)
    evals *= tfac
    return evals


def ml_time_kernel(alpha: float, lam: float, t: float, kind: str) -> float:
    """Scalar version of `kernel_weights` at a single (lam, t)."""
    if t < 0.0:
        raise DomainError("ml_time_kernel: t must be >= 0")
    return float(
        kernel_weights(alpha, kind, np.asarray([lam]), np.asarray([t]))[0, 0]
    )
