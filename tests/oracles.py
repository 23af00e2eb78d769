"""Independent test oracles that share no numerical code with the package.

The package evaluates the Mittag-Leffler function by four strategies: the
power series for |z| <= 1, elementary forms, the contour quadrature and, on
the negative axis from pole radius |z|^(1/alpha) = 64 on (1 < alpha < 2),
the inverse-power asymptotic series.  The oracles here check them by other
routes.

The Mittag-Leffler series is re-summed here in `decimal.Decimal` arithmetic
with a Spouge approximation of the Gamma function, giving a second
extended-precision route (different arithmetic backend, different Gamma
algorithm) against which the mpmath-based oracle is cross-checked.

For |z| >= 1e3 or pole radius >= 64 on the negative axis,
`ml_asymptotic_mp` is a third, mpmath route: the residues of the conjugate
pole pair plus the optimally truncated inverse-power series.

The straightforward first implementations of the hot kernels are kept
here as bit-identity oracles for their faster rewrites: the scatter-add
alias-class sums, noise generation with a fresh Philox per mode, the
unchunked contour quadrature sum, and the argument-major chunked contour
kernel with its per-bucket masks.  `ml_values_bucketed` takes the
package's own asymptotic series and closed forms where the package does,
but on whole buckets and whole arrays, so it pins the bucketing, the
chunking and the contour, not the series; `_contour_values` is pinned
against the contour oracles directly on every bucket.

`modeling_traj_longdouble` is an accuracy oracle: table 1's per-trajectory
squared errors in extended precision, from the package's weights, its
choice of kept modes and the draws of `philox_increments`.
"""

import math
from decimal import Decimal, getcontext

import mpmath as mp
import numpy as np

from fracwave import experiments, mittag_leffler, noise

# 70-digit constants
_PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944592307816")
_SPOUGE_A = 30


def _dec_exp(x: Decimal) -> Decimal:
    return x.exp()


def _dec_pow(base: Decimal, expo: Decimal) -> Decimal:
    return (expo * base.ln()).exp()


def _spouge_coeffs(prec: int = 60):
    getcontext().prec = prec + 20
    a = _SPOUGE_A
    coeffs = [(2 * _PI).sqrt()]
    fact = Decimal(1)
    for k in range(1, a):
        if k > 1:
            fact *= Decimal(k - 1)
        ak = Decimal(a - k)
        ck = (_dec_pow(ak, Decimal(k) - Decimal("0.5")) * _dec_exp(ak)) / fact
        if (k - 1) % 2 == 1:
            ck = -ck
        coeffs.append(ck)
    return coeffs


_COEFFS = None


def decimal_gamma(x: Decimal, prec: int = 60) -> Decimal:
    """Spouge approximation of Gamma(x) for x > 0 in Decimal arithmetic."""
    global _COEFFS
    getcontext().prec = prec + 20
    if _COEFFS is None:
        _COEFFS = _spouge_coeffs(prec)
    if x <= 0:
        raise ValueError("decimal_gamma: positive arguments only")
    a = Decimal(_SPOUGE_A)
    z = x - 1
    acc = _COEFFS[0]
    for k in range(1, _SPOUGE_A):
        acc += _COEFFS[k] / (z + k)
    return _dec_pow(z + a, x - Decimal("0.5")) * _dec_exp(-(z + a)) * acc


def decimal_ml_series(alpha: float, beta: float, z: float, n_terms: int = 400,
                      prec: int = 60) -> Decimal:
    """Partial Mittag-Leffler sum in Decimal; requires alpha*k + beta > 0.

    The float arguments are converted binary-exactly so the sum targets the
    same parameter values as a float-seeded mpmath evaluation.
    """
    getcontext().prec = prec + 20
    alpha_d, beta_d, z_d = Decimal(alpha), Decimal(beta), Decimal(z)
    total = Decimal(0)
    power = Decimal(1)
    for k in range(n_terms):
        total += power / decimal_gamma(alpha_d * k + beta_d, prec)
        power *= z_d
    return total


def alias_class_sums_scatter(n: int, beta: float, k_series: int) -> np.ndarray:
    """sum of k^(2 beta - 4) over k <= k_series in each alias class 1..n.

    Scatter-adds the terms of 2^20-mode blocks into a long-double
    accumulator with `np.add.at`, which adds them one at a time in order.
    """
    p = n + 1
    expo = 2.0 * beta - 4.0
    sums = np.zeros(n, dtype=np.longdouble)
    block = 1 << 20
    for lo in range(1, k_series + 1, block):
        k = np.arange(lo, min(lo + block, k_series + 1))
        mm = k % (2 * p)
        m = np.where(mm <= p, mm, 2 * p - mm)
        keep = (m >= 1) & (m <= n)
        np.add.at(sums, m[keep] - 1, k[keep].astype(float) ** expo)
    return sums


def philox_increments(k_modes: int, n_steps: int, dt: float, seed: int) -> np.ndarray:
    """Increment matrix from a freshly constructed Philox per mode k, key (seed, k)."""
    out = np.empty((k_modes, n_steps))
    for k in range(1, k_modes + 1):
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
        out[k - 1] = gen.standard_normal(n_steps)
    out *= np.sqrt(dt)
    return out


def contour_sum_unchunked(alpha: float, beta: float, z: np.ndarray, positive: bool,
                          params) -> np.ndarray:
    """Parabolic-contour quadrature plus residues, all arguments at once.

    params = (mu, h, n_side, take_residues) as the package chooses them for
    the bucket of z; the node sum for each z is one row reduction.
    """
    mu, h, n_side, residues = params
    r = np.abs(z) ** (1.0 / alpha)
    u = h * np.arange(n_side + 1)
    s = mu * (1.0 + 1j * u) ** 2
    w = np.exp(s) * s ** (alpha - beta) * (2.0 * mu * 1j * (1.0 + 1j * u))
    w[0] *= 0.5
    sa = s**alpha
    wr, wi = w.real.copy(), w.imag.copy()
    ar, ai = sa.real.copy(), sa.imag.copy()
    dr = ar[None, :] - z[:, None]
    out = (h / math.pi) * ((wi * dr - wr * ai) / (dr * dr + ai * ai)).sum(axis=1)
    if residues:
        if positive:
            out += (1.0 / alpha) * r ** (1.0 - beta) * np.exp(r)
        else:
            pole = r * np.exp(1j * math.pi / alpha)
            out += (2.0 / alpha) * (pole ** (1.0 - beta) * np.exp(pole)).real
    return out


def contour_values_chunked(alpha: float, beta: float, z: np.ndarray, positive: bool) -> np.ndarray:
    """Quadrature + residues for a bucket of z, argument-major in 1024-row chunks.

    Each chunk's (arguments x nodes) terms are one array, summed with
    sum(axis=1), and every argument of a residue bucket gets its residue.
    """
    chunk = 1_024
    r = np.abs(z) ** (1.0 / alpha)
    mu, h, n_side, residues = mittag_leffler._contour_params(
        alpha, float(r.min()), float(r.max()), positive)

    u = h * np.arange(n_side + 1)
    s = mu * (1.0 + 1j * u) ** 2
    w = np.exp(s) * s ** (alpha - beta) * (2.0 * mu * 1j * (1.0 + 1j * u))
    w[0] *= 0.5
    sa = s**alpha
    wr, wi = w.real.copy(), w.imag.copy()
    ar, ai = sa.real.copy(), sa.imag.copy()
    ai2 = ai * ai
    wr_ai = wr * ai

    out = np.empty_like(z)
    num = np.empty((min(chunk, z.size), ar.size))
    den = np.empty_like(num)
    for lo in range(0, z.size, chunk):
        zc = z[lo : lo + chunk, None]
        dr, sq = num[: zc.shape[0]], den[: zc.shape[0]]
        np.subtract(ar, zc, out=dr)
        np.multiply(dr, dr, out=sq)
        sq += ai2
        dr *= wi
        dr -= wr_ai
        dr /= sq
        oc = out[lo : lo + chunk]
        oc[:] = (h / math.pi) * dr.sum(axis=1)
        if residues:
            rc = r[lo : lo + chunk]
            if positive:
                oc += (1.0 / alpha) * rc ** (1.0 - beta) * np.exp(rc)
            else:
                pole = rc * np.exp(1j * math.pi / alpha)
                oc += (2.0 / alpha) * (pole ** (1.0 - beta) * np.exp(pole)).real
    return out


def ml_values_bucketed(alpha: float, beta: float, z, contour=contour_values_chunked) -> np.ndarray:
    """E_{alpha,beta}(z) with the contour part bucketed by np.unique and masks.

    Elementary (alpha, beta) pairs take the package's closed forms on the
    whole array at once; otherwise |z| <= 1 takes the package's series and
    each bucket of equal floor(log2 |z|^(1/alpha)) and sign goes through
    `contour`, except that negative buckets from 6 on (pole radius >= 64)
    take the package's asymptotic series when 1 < alpha < 2.  z is flat.
    """
    z = np.ascontiguousarray(z, dtype=float)
    out = np.empty_like(z)
    if alpha == 1.0 and beta == 1.0:
        return np.exp(z)
    if alpha == 1.0 and beta == 2.0:
        nz = z != 0.0
        out[nz] = np.expm1(z[nz]) / z[nz]
        out[~nz] = 1.0
        return out
    if alpha == 2.0 and beta == round(beta) and 1 <= beta <= 6:
        if beta <= 3:
            return mittag_leffler._alpha2_integer_beta(int(beta), z)
        small = np.abs(z) <= 1.0
        out[small] = mittag_leffler._series_values(alpha, beta, z[small])
        out[~small] = mittag_leffler._alpha2_integer_beta(int(beta), z[~small])
        return out
    small = np.abs(z) <= 1.0
    if small.any():
        out[small] = mittag_leffler._series_values(alpha, beta, z[small])
    for positive in (False, True):
        side = (z < -1.0) if not positive else (z > 1.0)
        if not side.any():
            continue
        idx = np.nonzero(side)[0]
        zs = z[idx]
        r = np.abs(zs) ** (1.0 / alpha)
        buckets = np.floor(np.log2(r)).astype(int)
        for b in np.unique(buckets):
            sel = idx[buckets == b]
            if not positive and 1.0 < alpha < 2.0 and b >= mittag_leffler._ASYMPTOTIC_BUCKET:
                coef = mittag_leffler._asymptotic_coefficients(alpha, beta, int(b))
                out[sel] = mittag_leffler._asymptotic_values(alpha, beta, z[sel],
                                                             r[buckets == b], coef)
            else:
                out[sel] = contour(alpha, beta, z[sel], positive)
    return out


#: np.longdouble is wider than float64 only where it is the x87 80-bit or a
#: 128-bit type; where it is float64 (Windows, aarch64 macOS), the long-double
#: oracle is no more accurate than the kernel it gates.
LONGDOUBLE_EXTENDED = bool(np.finfo(np.longdouble).eps < np.finfo(np.float64).eps)


def modeling_traj_longdouble(spec, factors, w_ref, w_coarse, kept, seed: int):
    """Squared errors of one modeling-error trajectory in long double, and their spreads.

    Mode k's error in column (a, j) is the dot product of its fine
    increments with row k of D = w_ref[a] - repeat(w_coarse[a][j], factors[j]).
    Column (a, j) adds the squared errors of modes 1..kept[a] and the exact
    mean of the rest, dt_fine ||D_k||^2 summed over k > kept[a].  D, the
    products and every sum are formed in np.longdouble from the given
    weights and the increments of `philox_increments`.  Returns (errors,
    spreads), both (n_alpha, n_dt): spreads[a, j] is the 2-norm over the
    kept modes of sum_i |D_ki x_ki|, the scale of each dot product's
    rounding in the standard bound (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, section 3.1).
    """
    inc = philox_increments(spec.K_modes, spec.N_fine, spec.dt_fine, seed).astype(np.longdouble)
    errors = np.empty((len(w_ref), len(factors)), dtype=np.longdouble)
    spreads = np.empty_like(errors)
    for a, (wr, k) in enumerate(zip(w_ref, kept)):
        wr = wr.astype(np.longdouble)
        for j, f in enumerate(factors):
            d = wr - np.repeat(w_coarse[a][j].astype(np.longdouble), f, axis=1)
            terms = d[:k] * inc[:k]
            err, spread = terms.sum(axis=1), np.abs(terms).sum(axis=1)
            errors[a, j] = (err * err).sum() + np.longdouble(spec.dt_fine) * (d[k:] * d[k:]).sum()
            spreads[a, j] = np.sqrt((spread * spread).sum())
    return errors, spreads


def full_grids_and_means(cfg, orders, rule: str = "exact"):
    """(factors, w_ref, w_coarse, means): the coarsening factors of cfg, the
    package's full weight grids of each entry of orders (`_alpha_grids`)
    and the exact means of all their modes, (K, len(orders), n_dt), from
    `_mode_means`."""
    factors = [cfg.coarse_steps(dt)[1] for dt in cfg.dt_list]
    grids = [experiments._alpha_grids(cfg, o, rule) for o in orders]
    means = np.stack([experiments._mode_means(cfg.dt_fine, g) for g in grids], axis=1)
    return factors, [g[0] for g in grids], [g[1:] for g in grids], means


def kept_modes_per_alpha(means):
    """(kept, tails): `_kept_modes` of each alpha's means, from means of shape
    (K, n_alpha, n_dt), as a tuple of drawn-mode counts and an (n_alpha,
    n_dt) array of tails."""
    cuts = [experiments._kept_modes(means[:, a]) for a in range(means.shape[1])]
    return tuple(k for k, _ in cuts), np.array([t for _, t in cuts])


def modeling_oracle(cfg, orders, rule: str):
    """`modeling_traj_longdouble` of every trajectory of cfg, from the package's
    full weight grids and its choice of kept modes (`_kept_modes`, per
    alpha): (errors, spreads), each (m_traj, len(orders), n_dt)."""
    factors, w_ref, w_coarse, means = full_grids_and_means(cfg, orders, rule)
    kept, _ = kept_modes_per_alpha(means)
    pairs = [modeling_traj_longdouble(cfg.noise_spec(), factors, w_ref, w_coarse, kept,
                                      noise.trajectory_seed(cfg.base_seed, l))
             for l in range(cfg.m_traj)]
    return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])


def ml_asymptotic_mp(alpha: float, beta: float, z: float, digits: int = 40) -> float:
    """E_{alpha,beta}(z) for 1 < alpha < 2 and z <= -1e3 or pole radius
    |z|^(1/alpha) >= 64, in mpmath.

    The residues of the two poles s = |z|^(1/alpha) e^(+-i pi/alpha) plus
    the inverse-power series -sum_k z^(-k)/Gamma(beta - alpha k), truncated
    where the term envelope |z|^(-k) Gamma(1 + alpha k - beta)/pi is
    smallest or once it falls below 1e-40 (Gorenflo, Kilbas, Mainardi and
    Rogosin, Mittag-Leffler Functions, Springer 2014).  The envelope, not the
    term, decides: at alpha = beta = 1.1 the k = 11 coefficient nearly
    vanishes, and stopping at the smallest term there was off by 4e-15
    relative at r = 128.  The truncation error is about the smallest term,
    of order e^-r at pole radius r: near 1e-16 at |z| = 1e3 for
    alpha = 1.95 (r = 35), and far too large at |z| ~ 100 there.
    """
    if not (1.0 < alpha < 2.0 and z < 0.0 and (z <= -1e3 or (-z) ** (1.0 / alpha) >= 64.0)):
        raise ValueError("ml_asymptotic_mp: needs 1 < alpha < 2 and z <= -1e3 or "
                         "|z|^(1/alpha) >= 64")
    with mp.workdps(digits):
        a, b, x = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        pole = (-x) ** (1 / a) * mp.expj(mp.pi / a)
        total = 2 / a * mp.re(pole ** (1 - b) * mp.exp(pole))
        smallest = mp.inf
        for k in range(1, 10_000):
            if 1 + a * k - b > 0:  # the envelope bounds the coefficient from here on
                envelope = abs(x) ** (-k) * mp.gamma(1 + a * k - b) / mp.pi
                if envelope > smallest:
                    break
                smallest = envelope
            total -= x ** (-k) * mp.rgamma(b - a * k)
            if smallest < mp.mpf("1e-40"):
                break
        return float(total)
