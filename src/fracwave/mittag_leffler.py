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

import functools
import itertools
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
# Arguments per chunk of a strategy's call, so that its scratch stays in cache.
_BLOCK = 8_192
# Negative-axis buckets from floor(log2 r) = 6 on (pole radius r >= 64) take
# the asymptotic series when 1 < alpha < 2; it needs 12-20 terms there.
_ASYMPTOTIC_BUCKET = 6
# The betas `ml_values` accepts.  Beyond them its error against the series
# oracle grows about tenfold per half unit of beta (2.7e-11 at beta = 7,
# 1.7e-12 at beta = -5), while the value falls like 1/Gamma(beta).
_BETA_RANGE = (-4.0, 6.0)


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

def _frozen(table: np.ndarray) -> np.ndarray:
    """table, made read-only, so that a cached table cannot be changed."""
    table.flags.writeable = False
    return table


@functools.cache
def _series_coefficients(alpha: float, beta: float) -> np.ndarray:
    """1/Gamma(alpha*k + beta) until the tail is negligible on |z| <= 1;
    cached and read-only, like the other coefficient tables."""
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
    return _frozen(np.asarray(coeffs))


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
    # cosh and sinh are inf past the largest double; 0/0 at y = 0 is set after
    with np.errstate(over="ignore", invalid="ignore"):
        if beta_int == 1:
            out[neg] = np.cos(y[neg])
            out[pos] = np.cosh(y[pos])
            return out
        if beta_int == 2:
            out[neg] = np.sin(y[neg]) / y[neg]
            out[pos] = np.sinh(y[pos]) / y[pos]
            out[y == 0.0] = 1.0
            return out
        if beta_int == 3:
            # (1 - cos y)/y^2 without cancellation
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


# The contours of one alpha's table-1 grids need 27 node tables, reused by each
# row block; table 2 reuses almost none, and kept them all (270 at the paper's
# shapes, 0.9 MB) through its trajectories when unbounded.
@functools.lru_cache(maxsize=32)
def _node_coefficients(alpha: float, beta: float, mu: float, h: float, n_side: int):
    """Per-node rows (ar, ai^2, wi, wr*ai) of the symmetrized trapezoid sum.

    Node u_k = k*h on s(u) = mu*(1+iu)^2 has weight w = e^s s^(alpha-beta) s'(u)
    (halved at u = 0) and pole factor s^alpha = ar + i*ai.  Each row is a
    contiguous array of the n_side + 1 nodes, so it broadcasts against a
    column of z.  Cached and read-only.
    """
    u = h * np.arange(n_side + 1)
    s = mu * (1.0 + 1j * u) ** 2
    w = np.exp(s) * s ** (alpha - beta) * (2.0 * mu * 1j * (1.0 + 1j * u))
    w[0] *= 0.5  # u = 0 node counted once in the symmetrized sum
    sa = s**alpha
    ai = sa.imag
    return tuple(map(_frozen, (sa.real.copy(), ai * ai, w.imag.copy(), w.real * ai)))


def _add_negative_residues(alpha: float, beta: float, r: np.ndarray, out: np.ndarray) -> None:
    """Add the residues of the poles p = r e^(+-i pi/alpha) of z < 0 to out.

    The residue pair is (2/alpha) Re(p^(1-beta) e^p), of modulus at most
    B = (2/alpha) r^(1-beta) e^(r cos(pi/alpha)).  Where 2B < |out| 2^-55,
    which is below spacing(|out|)/4, the computed residue (within a factor 2
    of B after rounding) is less than half the gap below or above out, so
    round-to-nearest leaves out unchanged and the residue is not computed.
    The test is made argument by argument in logarithms, with
    ln(2 * (2/alpha) * r^(1-beta) * 2^55) taken at the largest r^(1-beta)
    over r, so an underflowed exponential cannot fake a small bound; out == 0
    takes the residue unless 2B 2^55 is below the least subnormal, so that
    an overflowed p^(1-beta) never meets an underflowed e^p.  At alpha = 2
    the poles are +-ir exactly (cos(pi/2) rounds to 6e-17, which would
    scale the residues by e^(6e-17 r)).  There |p^(1-beta)| = r^(1-beta)
    overflows for beta < -1 and z < -1e123, where |E| can exceed the
    largest double; that value is +inf.
    """
    r_top = float(r.min() if beta > 1.0 else r.max())
    ln_bound = math.log(4.0 / alpha) + (1.0 - beta) * math.log(r_top) + 55.0 * math.log(2.0)
    pole_dir = np.exp(1j * math.pi / alpha) if alpha < 2.0 else 1j
    keep = r * pole_dir.real + ln_bound >= np.log(np.maximum(np.abs(out), 5e-324))
    sel = np.flatnonzero(keep)
    if sel.size:
        pole = r[sel] * pole_dir
        with np.errstate(over="ignore", invalid="ignore"):
            out[sel] += (2.0 / alpha) * (pole ** (1.0 - beta) * np.exp(pole)).real
        out[sel[np.isnan(out[sel])]] = np.inf


def _contour_values(alpha: float, beta: float, z: np.ndarray, r: np.ndarray,
                    positive: bool, r_lo: float, r_hi: float) -> np.ndarray:
    """Quadrature + residues for (part of) a bucket of z with |z| > 1 and one sign.

    r = |z|^(1/alpha) is the pole radius of each z, and the contour is the
    one of the bucket's pole radii [r_lo, r_hi].  The loop runs over blocks
    of whole arguments, about 4 * _BLOCK terms each, so that the two
    (arguments x nodes) scratch arrays stay in cache.  Each term
    Im(w / (s^alpha - z)) = (dr*wi - wr*ai) / (dr^2 + ai^2), dr = ar - z, is
    formed in the rounding steps of that expression, and `np.add.reduce`
    adds each argument's row of terms.  So the result has the bits of the
    (arguments x nodes) array expression kept in `tests/oracles.py`;
    `tests/test_bit_identity.py` checks it.  Negative-axis residues go
    through `_add_negative_residues`.

    A NaN comes from inf/inf, where dr^2 and dr*wi overflow (|z| above about
    1e290), or for z > 0 from r^(1-beta) e^r = 0 * inf (r > 1e61).  So for
    z > 0 E is far above the largest double and the value is +inf, and for
    z < 0 the quadrature's share of E, about 1/|z|, is below 1e-270 and the
    share is 0.
    """
    mu, h, n_side, residues = _contour_params(alpha, r_lo, r_hi, positive)
    ar, ai2, wi, wr_ai = _node_coefficients(alpha, beta, mu, h, n_side)
    rows = max(1, 4 * _BLOCK // ar.size)
    d, q = (np.empty((min(rows, z.size), ar.size)) for _ in range(2))
    node_sum = np.empty(z.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, z.size, rows):
            zb = z[lo : lo + rows, None]
            db, qb = d[: zb.shape[0]], q[: zb.shape[0]]
            np.subtract(ar, zb, out=db)
            np.square(db, out=qb)  # d*d, correctly rounded; twice as fast as multiply(d, d)
            qb += ai2
            db *= wi
            db -= wr_ai
            db /= qb
            np.add.reduce(db, axis=1, out=node_sum[lo : lo + rows])
        out = (h / math.pi) * node_sum
        if residues and positive:
            out += (1.0 / alpha) * r ** (1.0 - beta) * np.exp(r)
    out[np.isnan(out)] = np.inf if positive else 0.0
    if residues and not positive:
        _add_negative_residues(alpha, beta, r, out)
    return out


# ---------------------------------------------------------------------------
# inverse-power asymptotic series, z < 0 with pole radius >= 2^_ASYMPTOTIC_BUCKET
# ---------------------------------------------------------------------------

@functools.cache
def _asymptotic_coefficients(alpha: float, beta: float, bucket: int) -> np.ndarray:
    """-1/Gamma(beta - alpha k), k = 1..n, for pole radii in [2^bucket, 2^(bucket+1)).

    n is the least count whose first omitted term is below 2^-53 |z|^-2 at
    the bucket's upper edge, where the term is bounded at its lower edge by
    the envelope |1/Gamma(beta - alpha k)| <= Gamma(1 + alpha k - beta)/pi
    (reflection formula, for 1 + alpha k - beta > 0; no term before that
    ends the sum).  The envelope, not the coefficient, decides: a
    coefficient that vanishes (beta - alpha k a non-positive integer) or
    nearly does must not stop the sum before the terms after it are small.
    The envelope falls until alpha k is near the pole radius and rises
    after.  Where it stops falling above that bound (beta below about -1.47
    at radii 64-128 with some alpha, never a kernel's beta in {1, 2, alpha,
    alpha + 1}), the sum ends at its smallest term, the optimal truncation
    of the divergent series, whose error is about that term.
    """
    ln_r_lo = bucket * math.log(2.0)
    ln_target = -53.0 * math.log(2.0) - 2.0 * alpha * (ln_r_lo + math.log(2.0))
    last = math.inf  # the envelope of term n, the last one kept
    for n in itertools.count(1):
        x = 1.0 + alpha * (n + 1) - beta
        envelope = (math.lgamma(x) - math.log(math.pi) - alpha * (n + 1) * ln_r_lo
                    if x > 0.0 else math.inf)
        if envelope <= ln_target or last <= envelope < math.inf:
            return _frozen(-rgamma(beta - alpha * np.arange(1, n + 1)))
        last = envelope


def _asymptotic_values(alpha: float, beta: float, z: np.ndarray, r: np.ndarray,
                       coef: np.ndarray) -> np.ndarray:
    """Asymptotic series + residues for a bucket of z < 0, 1 < alpha < 2.

    E_{alpha,beta}(z) = residues - sum_k z^(-k)/Gamma(beta - alpha k) on the
    negative axis (Gorenflo, Loutchko and Luchko, Fract. Calc. Appl. Anal.
    5(4), 2002), the sum by Horner's rule in 1/z with the term count of the
    bucket, coef from `_asymptotic_coefficients`.  The divergent series'
    smallest term is about r^(1/2-beta) e^-r, so from r = 64 on the
    truncation stays far below double precision, except for beta below
    about -1.47 at r < 128 (`_asymptotic_coefficients`).  A value depends on
    (alpha, beta, z) alone, not on the other arguments.
    """
    w = 1.0 / z
    out = np.full_like(z, coef[-1])
    for c in coef[-2::-1]:
        out *= w
        out += c
    out *= w
    _add_negative_residues(alpha, beta, r, out)
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


def _routing_keys(alpha: float, z: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(key, counts): the routing key of each argument and the arguments per key.

    Writes each argument's pole radius |z|^(1/alpha) to r on the way.
    """
    key = np.empty(z.shape, dtype=np.int16)
    counts = np.zeros(_N_KEYS, dtype=np.int64)
    for lo in range(0, z.size, _BLOCK):
        zc, rc = z[lo : lo + _BLOCK], r[lo : lo + _BLOCK]
        with np.errstate(over="ignore", divide="ignore"):  # r = inf past the largest double
            rc[...] = np.abs(zc) ** (1.0 / alpha)
            ids = np.log2(rc)
        np.floor(ids, out=ids)
        np.minimum(ids, 1025.0, out=ids)
        ids += np.where(zc > 0.0, float(_POSITIVE_KEY), 1.0)
        ids[np.abs(zc) <= _SERIES_RADIUS] = 0.0
        key[lo : lo + _BLOCK] = ids
        counts += np.bincount(key[lo : lo + _BLOCK], minlength=_N_KEYS)
    return key, counts


def _asymptotic(alpha: float, k: int) -> bool:
    """Whether routing key k takes the asymptotic series: z < 0, pole radius
    >= 2^_ASYMPTOTIC_BUCKET and 1 < alpha < 2."""
    return 1.0 < alpha < 2.0 and 1 + _ASYMPTOTIC_BUCKET <= k < _POSITIVE_KEY


def _bucket_values(alpha: float, beta: float, z: np.ndarray, idx: np.ndarray, k: int,
                   out: np.ndarray, extents: dict | None) -> None:
    """out[idx] for the arguments z[idx] of routing key k, in _BLOCK chunks.

    On entry out[idx] holds the pole radii from `_routing_keys`; each chunk's
    values overwrite its radii.  A contour bucket takes (r_lo, r_hi) from
    extents[k] when extents is given, else from its own radii.
    """
    chunks = [idx[lo : lo + _BLOCK] for lo in range(0, idx.size, _BLOCK)]
    if k == 0:
        for s in chunks:
            out[s] = _series_values(alpha, beta, z[s])
        return
    positive = k >= _POSITIVE_KEY
    if _asymptotic(alpha, k):
        coef = _asymptotic_coefficients(alpha, beta, k - 1)
        for s in chunks:
            out[s] = _asymptotic_values(alpha, beta, z[s], out[s], coef)
        return
    r_lo, r_hi = extents[k] if extents is not None else (
        min(float(out[s].min()) for s in chunks), max(float(out[s].max()) for s in chunks))
    for s in chunks:
        out[s] = _contour_values(alpha, beta, z[s], out[s], positive, r_lo, r_hi)


def _elementary_values(alpha: float, beta_int: int, z: np.ndarray) -> np.ndarray:
    """E_{1,1}, E_{1,2} and E_{2,m} (m = 1..6) by their closed forms."""
    if alpha == 1.0:
        with np.errstate(over="ignore", invalid="ignore"):  # inf past the largest double
            if beta_int == 1:
                return np.exp(z)
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


def _elementary(alpha: float, beta: float) -> bool:
    """Whether `ml_values` takes the closed forms of `_elementary_values`."""
    return alpha == 1.0 and beta in (1, 2) or alpha == 2.0 and beta in range(1, 7)


def ml_values(alpha: float, beta: float, z, extents: dict | None = None) -> np.ndarray:
    """Evaluate E_{alpha,beta} on an array of finite real arguments.

    The result has the shape of z, except that a scalar z gives shape (1,).
    When z holds some rows of a kernel grid, extents, the `_grid_extents`
    of the whole grid, gives each contour bucket the grid's least and
    largest pole radius there, so every value equals the whole grid's call
    bit for bit.

    beta must lie in [-4, 6] (`_BETA_RANGE`); any other beta is a
    DomainError, raised before any evaluation.  Accurate to ~1e-13 relative
    error for z in [-30, 1] and beta in [-4, 5]; for beta in (5, 6] the
    error grows to 9e-13 relative at beta = 6 (alpha = 1.9, z = -1.25).
    Near a zero of the function the error is relative to the largest
    |value| within 1 of z.  Accurate to ~1e-12 absolute error on the rest
    of the negative axis that the contour serves; for z > 1 the value is
    dominated by the exponential residue term and keeps relative accuracy.
    Where the asymptotic series serves (z < 0, |z|^(1/alpha) >= 64,
    1 < alpha < 2) the error is a few ulps of the value, plus the double
    rounding of the residues' phase r sin(pi/alpha), about r ulps of the
    residue; near alpha = 2, where the residues decay slowly, that rounding
    dominates (1e-15 absolute at alpha = 1.95, r = 64).  Where the series
    cannot reach that (beta below about -1.47 at r in [64, 128)), it ends
    at its smallest term, within about 1e-13 of the largest |value| over
    the bucket (tests gate it at 1e-10).

    A finite z never gives NaN.  A value above the largest double is +inf:
    for z > 0, and at alpha = 2, beta < -1 and z < -1e123, where the
    residues' modulus r^(1-beta) overflows.  At alpha = 2 the residues'
    phase is r itself, with the rounding of r, so far out on the negative
    axis only their modulus is right.

    Arguments with |z| > 1 are grouped by sign and by
    floor(log2 |z|^(1/alpha)), through one int16 routing key per argument.
    Each negative group from 6 on (1 < alpha < 2) takes the asymptotic
    series, whose value depends on (alpha, beta, z) alone; every other
    group shares one contour, set by the group's least and largest pole
    radius, or by the extents given.  The contour kernel forms a block of
    arguments' node terms at a time and adds each argument's row with
    numpy's own row sum, so its
    values are those of the straightforward (arguments x nodes) evaluation,
    bit for bit.  Both strategies skip the negative-axis residues too small
    to change a bit of the value (see `_add_negative_residues`).

    The routing pass works in chunks of _BLOCK arguments and computes each
    pole radius |z|^(1/alpha) once, into the still unfilled result, where
    `_bucket_values` reads it back a _BLOCK chunk at a time and overwrites
    it with the values; each strategy gets at most _BLOCK arguments per
    call.  So besides the result the scratch is about 2 + 1 + 8 = 11 bytes
    per argument (the key, and the mask and index of the group in hand)
    plus a few arrays of at most 4 * _BLOCK.
    """
    _validate_params(alpha, beta)
    if not _BETA_RANGE[0] <= beta <= _BETA_RANGE[1]:
        raise DomainError(f"ml: beta must lie in {list(_BETA_RANGE)} (got {beta})")
    z = np.ascontiguousarray(z, dtype=float)
    shape = z.shape or (1,)
    z = z.ravel()
    if not np.isfinite(z).all():
        raise DomainError("ml: argument z must be finite")
    out = np.empty_like(z)

    if _elementary(alpha, beta):
        for lo in range(0, z.size, _BLOCK):
            out[lo : lo + _BLOCK] = _elementary_values(alpha, int(beta), z[lo : lo + _BLOCK])
        return out.reshape(shape)

    key, counts = _routing_keys(alpha, z, out)
    for k in np.flatnonzero(counts).tolist():
        _bucket_values(alpha, beta, z, np.flatnonzero(key == k), k, out, extents)
    return out.reshape(shape)


@functools.lru_cache(maxsize=8)
def _grid_extents(alpha: float, lam: bytes, targ: bytes) -> dict:
    """{routing key: (r_lo, r_hi)}: the least and largest pole radius that
    `ml_values` finds in each contour bucket of the grid z = -outer(lam,
    targ), for the float64 buffers lam and targ.

    A routing-only pass over blocks of rows, so no full-size array is made.
    Only 1 < |z| reaches a contour, and for 1 < alpha < 2 only pole radii
    below 2^_ASYMPTOTIC_BUCKET, so |z| < 128^alpha, a loose bound; the
    exact `_routing_keys` of the arguments that pass computes their radii
    and keys as the full call does.  Cached, so that the row sets of one
    grid, and the kinds of `kernel_weights` that share its tau^alpha, make
    the pass once; the 8 entries hold one alpha's six table-1 grids, and
    each keeps its 16 kB of key bytes.
    """
    lam, targ = np.frombuffer(lam), np.frombuffer(targ)
    top = 2.0 ** ((_ASYMPTOTIC_BUCKET + 1) * alpha) if 1.0 < alpha < 2.0 else math.inf
    step, out = max(1, 4 * _BLOCK // max(1, targ.size)), {}
    for lo in range(0, lam.size, step):
        az = np.outer(lam[lo : lo + step], targ)
        z = -az[(_SERIES_RADIUS < az) & (az < top)]
        r = np.empty_like(z)
        key, counts = _routing_keys(alpha, z, r)
        for k in np.flatnonzero(counts).tolist():
            if not _asymptotic(alpha, k):
                rk, (r_lo, r_hi) = r[key == k], out.get(k, (math.inf, -math.inf))
                out[k] = (min(r_lo, float(rk.min())), max(r_hi, float(rk.max())))
    return out


def ml(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for scalar real z; see `ml_values`."""
    return float(ml_values(alpha, beta, np.asarray([z], dtype=float))[0])


def _ml_series_mpf(alpha, beta, z, tol, digits):
    import mpmath as mp  # only the oracle needs it; importing costs every process ~30 ms

    with mp.workdps(digits):
        zz, a, b = mp.mpf(z), mp.mpf(alpha), mp.mpf(beta)
        total = mp.mpf(0)
        tol_mp = mp.mpf(tol)
        for k in range(_MAX_SERIES_TERMS):
            term = zz**k * mp.rgamma(a * k + b)  # 0 at the poles of Gamma
            total += term
            if a * k + b > 0 and abs(term) < tol_mp * (abs(total) + 1):
                return total
        raise ConvergenceError(
            f"ml_series_hp: {_MAX_SERIES_TERMS} terms exhausted for z={z}"
        )


def ml_series_hp(alpha: float, beta: float, z: float, tol: float = 1e-30,
                 digits: int | None = None) -> float:
    """Arbitrary-precision partial sum of the defining series (test oracle).

    Sums z^k/Gamma(alpha*k + beta) with mpmath, through 1/Gamma, which is 0
    at the poles of Gamma (alpha*k + beta a non-positive integer).  Once
    alpha*k + beta > 0, the sum stops when the current term drops below
    tol*(|partial sum| + 1); before, a term may be 0 with more to come.
    Restricted to |z| <= 50.  The working precision defaults to 50 digits
    plus an allowance for the cancellation of the alternating tail, which
    grows like exp(|z|^(1/alpha)); pass `digits` to override.
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


def kernel_weights(alpha: float, kind: str, lam: np.ndarray, tau: np.ndarray,
                   rows=None) -> np.ndarray:
    """Kernel factor on the grid lam x tau, shape (len(lam), len(tau)), or
    only its rows `rows` (a slice or index array of lam), which equal the
    full grid's rows bit for bit: the contour buckets take the full grid's
    extents (`_grid_extents`), and every other value depends on its own
    argument alone.

    lam holds finite nonnegative spatial eigenvalues already raised to the
    fractional Laplacian power; tau holds finite nonnegative times, and the
    largest lam * tau^alpha must be finite too, checked on the largest lam
    and tau alone.  tau = 0 follows the continuous limit (1, 0, 0, 0 for
    the four kinds, alpha > 1).

    The arguments z = -lam tau^alpha are one array, outer(-lam, tau^alpha):
    negation commutes with rounding, so it holds the bits of
    -outer(lam, tau^alpha), signed zeros included, without a second
    full-size copy.  So a call holds its arguments, its values and the
    `ml_values` scratch.
    """
    if kind not in KERNEL_KINDS:
        raise DomainError(f"unknown kernel kind {kind!r}")
    lam = np.ascontiguousarray(lam, dtype=float)
    tau = np.ascontiguousarray(tau, dtype=float)
    if not ((0.0 <= lam) & (lam < np.inf)).all():
        raise DomainError("kernel_weights: eigenvalues lam must be finite and >= 0")
    if not ((0.0 <= tau) & (tau < np.inf)).all():
        raise DomainError("kernel_weights: times tau must be finite and >= 0")

    beta, power = _KERNEL_PARAMS[kind](alpha)
    with np.errstate(over="ignore"):
        targ = tau**alpha
    if not float(lam.max(initial=0.0)) * float(targ.max(initial=0.0)) < math.inf:
        raise DomainError(f"kernel_weights: lam * tau^alpha overflows (lam up to "
                          f"{float(lam.max())!r}, tau up to {float(tau.max())!r})")
    z = np.outer(-(lam if rows is None else lam[rows]), targ)
    if rows is None or _elementary(alpha, beta):
        evals = ml_values(alpha, beta, z)
    else:
        _validate_params(alpha, beta)  # before the extents pass divides by alpha
        evals = ml_values(alpha, beta, z, _grid_extents(alpha, lam.tobytes(), targ.tobytes()))
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
