"""Piecewise-linear Galerkin discretization of the fractional Laplacian.

The mesh is uniform on (0, 1) with N interior nodes and h = 1/(N+1).  The
fractional stiffness matrix is the Gram matrix of the hat basis in the
fractional energy inner product,

    A_ij = sum_k lam_k^beta (phi_i, e_k)(phi_j, e_k),

where (phi_i, e_k) has a closed form.  Because sin(k pi x_i) on the mesh
aliases to one of the N interior sine vectors (with a sign) whenever
k != 0, P mod 2P (P = N+1), the series collapses into N alias-class sums:
the truncated part of every class is accumulated directly and the infinite
tail is a pair of Hurwitz zeta values, so the assembled matrix carries no
series-truncation error beyond roundoff.  The class sums depend on the mesh
only through the class of each mode, so `discrete_spectra` sums the classes
of a whole family of meshes in one pass over the series, each class adding
the same terms in the same order as a pass for its mesh alone.

The discrete solution itself is spectral in the eigenpairs of the pencil
(A, M): the generalized eigenvectors diagonalize the evolution exactly as
the sine modes do on the continuous side.  So a member of the FEM space is
an array of its eigen coefficients c, with nodal values V c for the
M-orthonormal eigenvectors V, and both projections are diagonal in them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

from .errors import DomainError
from .noise import NoisePaths, NoiseSpec, _check_entries
from .spectral import (SQRT2, FracOrders, _grid_index, _homogeneous, _time_weights,
                       fractional_eigenvalues)

__all__ = [
    "FemMesh",
    "DiscreteSpectrum",
    "hat_sine_product",
    "hat_sine_matrix",
    "mass_matrix",
    "fractional_stiffness",
    "discrete_spectrum",
    "discrete_spectra",
    "eigenvalues_from_series",
    "sine_products",
    "project_l2",
    "project_ritz",
    "fem_solution",
    "discrete_norm",
    "l2_error_cross",
]

DEFAULT_K_SERIES = 10**6
#: Modes per block of `_alias_class_sums`: its int, float and long-double
#: temporaries stay near 2 MiB.
_ALIAS_BLOCK = 1 << 16


@dataclass(frozen=True)
class FemMesh:
    """Uniform mesh with interior nodes x_i = i*h, i = 1..N, h = 1/(N+1).

    N is bounded so that its dense N x N matrices fit the entry cap
    (`noise._check_entries`).
    """

    n_interior: int

    def __post_init__(self):
        if self.n_interior < 1:
            raise DomainError("FemMesh: need at least one interior node")
        _check_entries("FemMesh: dense matrices", self.n_interior, self.n_interior)

    @property
    def h(self) -> float:
        return 1.0 / (self.n_interior + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.n_interior + 1)


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Eigenpairs of the discrete fractional Laplacian on a mesh.

    eigenvectors[:, j] holds the nodal values of the j-th eigenfunction,
    normalized against the mass matrix; eigenvalues are ascending.
    """

    mesh: FemMesh
    beta: float
    k_series: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    mass: np.ndarray
    stiffness: np.ndarray


def hat_sine_product(mesh: FemMesh, i: int, k: int) -> float:
    """Inner product of hat function phi_i with sqrt(2) sin(k pi x).

    Closed form sqrt(2) * 2(1 - cos(k pi h)) sin(k pi x_i) / (h k^2 pi^2);
    i is the 1-based interior node index, k >= 1 the sine mode.
    """
    if not (1 <= i <= mesh.n_interior):
        raise IndexError(f"hat_sine_product: node index {i} out of range")
    if k < 1:
        raise IndexError(f"hat_sine_product: mode {k} out of range")
    return float(_hat_sine_block(mesh, k, k)[0, i - 1])


def hat_sine_matrix(mesh: FemMesh, k_max: int) -> np.ndarray:
    """(phi_i, e_k) for k = 1..k_max (rows) and i = 1..N (columns)."""
    return _hat_sine_block(mesh, 1, k_max)


def _hat_sine_block(mesh: FemMesh, k_lo: int, k_hi: int) -> np.ndarray:
    """(phi_i, e_k) for modes k_lo..k_hi inclusive (rows) and all nodes."""
    h = mesh.h
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    amp = SQRT2 * 2.0 * (1.0 - np.cos(k * math.pi * h)) / (h * (k * math.pi) ** 2)
    phases = np.sin(np.outer(k * math.pi * h, np.arange(1, mesh.n_interior + 1)))
    return amp[:, None] * phases


def _weighted_hat_sine_sum(mesh: FemMesh, weights: np.ndarray) -> np.ndarray:
    """b_i = sum_k weights_k (phi_i, e_k), accumulated in mode blocks."""
    b = np.zeros(mesh.n_interior)
    block = 1 << 17
    for lo in range(0, weights.size, block):
        hi = min(lo + block, weights.size)
        b += _hat_sine_block(mesh, lo + 1, hi).T @ weights[lo:hi]
    return b


def mass_matrix(mesh: FemMesh) -> np.ndarray:
    """Tridiagonal (h/6) [1, 4, 1] Gram matrix of the hat basis."""
    n = mesh.n_interior
    m = np.zeros((n, n))
    np.fill_diagonal(m, 4.0)
    idx = np.arange(n - 1)
    m[idx, idx + 1] = 1.0
    m[idx + 1, idx] = 1.0
    return (mesh.h / 6.0) * m


def _alias_setup(mesh: FemMesh, beta: float) -> np.ndarray:
    """Per-class prefactor shared by assembly paths."""
    h = mesh.h
    m = np.arange(1, mesh.n_interior + 1, dtype=float)
    return 8.0 * math.pi ** (2.0 * beta - 4.0) * (1.0 - np.cos(m * math.pi * h)) ** 2 / h**2


def _dst_matrix(mesh: FemMesh) -> np.ndarray:
    """DST-I matrix sin(pi h m i) for m, i = 1..N."""
    m = np.arange(1, mesh.n_interior + 1)
    return np.sin(math.pi * mesh.h * np.outer(m, m))


def _alias_class_sums(meshes, beta: float, k_series: int) -> list[np.ndarray]:
    """Per mesh, the sum of k^(2 beta - 4) over k <= k_series in each alias
    class 1..N, from one pass over the series for all meshes.

    Class m holds the modes k = +-m mod 2P, that is k = 2Pj + m and
    2P(j + 1) - m for j = 0, 1, ...; mode k falls in class min(r, 2P - r),
    r = k mod 2P, and the modes k = 0 mod P in the spare classes 0 and P,
    which are dropped.  The modes are walked in blocks of `_ALIAS_BLOCK`:
    each block's terms are computed in float64 and widened to long double
    once, then scattered once per mesh through its class table, the period
    tiled and sliced at lo mod 2P.  The tables hold default integers: a
    narrower type is no faster, and its integer loops are library code that
    nothing else in a table-2 run touches.  Each class is summed
    sequentially in long double, starting from zero and adding one float64
    term at a time in ascending k: `np.add.at` is unbuffered and visits the
    modes of a block in order, so the result depends neither on the
    blocking nor on the other meshes.  The long-double terms keep
    `np.add.at` on its fast indexed loop (numpy >= 1.25).
    """
    classes = []  # (period, class of modes 1, 2, ..., class sums)
    for mesh in meshes:
        period = 2 * (mesh.n_interior + 1)
        r = np.arange(1, period + 1) % period
        classes.append((period, np.tile(np.minimum(r, period - r), _ALIAS_BLOCK // period + 2),
                        np.zeros(period // 2 + 1, dtype=np.longdouble)))
    for lo in range(0, k_series, _ALIAS_BLOCK):
        k = np.arange(lo + 1, min(lo + _ALIAS_BLOCK, k_series) + 1)
        terms = (k ** (2.0 * beta - 4.0)).astype(np.longdouble)
        for period, cls, sums in classes:
            np.add.at(sums, cls[lo % period :][: k.size], terms)
    return [sums[1:-1] for _, _, sums in classes]


def _alias_tail_sums(mesh: FemMesh, beta: float, k_series: int) -> np.ndarray:
    """Exact tails sum_{k > k_series, class m} k^(2 beta - 4) via Hurwitz zeta."""
    n = mesh.n_interior
    p = n + 1
    s = 4.0 - 2.0 * beta
    m = np.arange(1, n + 1)
    j_plus = (k_series - m) // (2 * p) + 1
    j_minus = (k_series + m) // (2 * p) + 1
    frac = m / (2.0 * p)
    return (2.0 * p) ** (-s) * (zeta(s, j_plus + frac) + zeta(s, j_minus - frac))


def fractional_stiffness(mesh: FemMesh, beta: float, k_series: int = DEFAULT_K_SERIES,
                         tail: bool = True) -> np.ndarray:
    """Gram matrix of the hat basis in the fractional form of order beta.

    Sums the spectral series over modes k <= k_series, reorganized into the
    N alias classes of the mesh; with tail=True (default) the k > k_series
    remainder of every class is added in closed form, making the matrix
    exact up to roundoff.  k_series is at least 1 and at most the entry cap
    (`noise._check_entries`).  The one-mesh case of `_stiffnesses`.
    """
    return next(_stiffnesses([mesh], beta, k_series, tail))


def _stiffnesses(meshes, beta: float, k_series: int, tail: bool) -> Iterator[np.ndarray]:
    """`fractional_stiffness` of each mesh of the sequence meshes, in turn.

    The arguments are checked, and the one `_alias_class_sums` pass over
    the series is made for every mesh, when this is called; each matrix is
    assembled only when it is asked for.
    """
    if not (0.0 < beta <= 1.0):
        raise DomainError(f"fractional_stiffness: need 0 < beta <= 1 (got {beta})")
    if k_series < 1:
        raise DomainError(f"fractional_stiffness: k_series must be >= 1 (got {k_series})")
    _check_entries("fractional_stiffness: k_series", k_series)
    sums = _alias_class_sums(meshes, beta, k_series)
    return (_assemble(mesh, beta, k_series, tail, s) for mesh, s in zip(meshes, sums))


def _assemble(mesh: FemMesh, beta: float, k_series: int, tail: bool,
              sums: np.ndarray) -> np.ndarray:
    """Stiffness matrix of mesh from its alias-class sums (`_alias_class_sums`)."""
    sums = sums.astype(float)
    if tail:
        sums = sums + _alias_tail_sums(mesh, beta, k_series)
    w = _alias_setup(mesh, beta) * sums
    smat = _dst_matrix(mesh)
    a = (smat * w) @ smat.T
    return 0.5 * (a + a.T)


def discrete_spectra(meshes, beta: float, k_series: int = DEFAULT_K_SERIES,
                     tail: bool = True) -> Iterator[DiscreteSpectrum]:
    """`discrete_spectrum` of each mesh of the sequence meshes, in turn, bit
    for bit, with one pass over the series for them all (`_stiffnesses`).

    The arguments are checked, and the pass is made, when this is called;
    each mesh's stiffness is assembled and its pencil solved only when its
    spectrum is asked for.  So a caller that uses each spectrum and drops it
    holds one mesh's matrices at a time, as with one `discrete_spectrum`
    call per mesh.
    """
    stiffnesses = _stiffnesses(meshes, beta, k_series, tail)
    return (_solve(mesh, beta, k_series, a) for mesh, a in zip(meshes, stiffnesses))


def _solve(mesh: FemMesh, beta: float, k_series: int, a: np.ndarray) -> DiscreteSpectrum:
    """Eigenpairs of the pencil (a, M) on mesh, M-orthonormal (`discrete_spectrum`)."""
    from scipy.linalg import eigh  # LAPACK loads only where used; table 1 never needs it

    m = mass_matrix(mesh)
    lam, vec = eigh(a, m)
    if not (lam > 0.0).all():
        raise DomainError("discrete_spectrum: nonpositive eigenvalue (assembly failed)")
    # fix signs so the largest-magnitude nodal entry is positive
    flip = vec[np.abs(vec).argmax(axis=0), np.arange(vec.shape[1])] < 0.0
    vec[:, flip] *= -1.0
    return DiscreteSpectrum(mesh=mesh, beta=beta, k_series=k_series,
                            eigenvalues=lam, eigenvectors=vec, mass=m, stiffness=a)


def discrete_spectrum(mesh: FemMesh, beta: float, k_series: int = DEFAULT_K_SERIES,
                      tail: bool = True) -> DiscreteSpectrum:
    """Eigenpairs of the generalized problem A c = lam M c, M-orthonormal.

    The pencil is reduced by the Cholesky factor of the tridiagonal mass
    matrix and solved densely; eigenvalues come out ascending and simple.
    The one-mesh case of `discrete_spectra`.
    """
    return next(discrete_spectra([mesh], beta, k_series, tail))


def eigenvalues_from_series(spectrum: DiscreteSpectrum) -> np.ndarray:
    """Recompute each eigenvalue as sum_k lam_k^beta (e_j^h, e_k)^2.

    Independent of the aliased assembly: the truncated part sums mode by
    mode through (phi_i, e_k) and the eigenvector nodal values, the
    k > k_series remainder reuses the closed-form class tails.  Agreement
    with `spectrum.eigenvalues` validates assembly and eigensolve together.
    """
    mesh, beta = spectrum.mesh, spectrum.beta
    n = mesh.n_interior
    c = spectrum.eigenvectors
    acc = np.zeros(n)
    block = 1 << 17
    for lo in range(1, spectrum.k_series + 1, block):
        hi = min(lo + block - 1, spectrum.k_series)
        k = np.arange(lo, hi + 1, dtype=float)
        inner = _hat_sine_block(mesh, lo, hi) @ c
        acc += np.einsum("k,kj->j", (k * math.pi) ** (2.0 * beta), inner**2)
    wtail = _alias_setup(mesh, beta) * _alias_tail_sums(mesh, beta, spectrum.k_series)
    proj = _dst_matrix(mesh).T @ c
    acc += np.einsum("m,mj->j", wtail, proj**2)
    return acc


def sine_products(spectrum: DiscreteSpectrum, k_max: int) -> np.ndarray:
    """(e_k, e_j^h) for sine modes k = 1..k_max (rows) and FEM modes j (cols)."""
    return hat_sine_matrix(spectrum.mesh, k_max) @ spectrum.eigenvectors


def project_l2(spectrum: DiscreteSpectrum, coeffs: np.ndarray) -> np.ndarray:
    """L2-orthogonal projection of a sine expansion onto the FEM space, in
    eigen coefficients: V^T b with b_i = sum_k coeffs_k (phi_i, e_k).

    That is V^T M (M^-1 b) for M-orthonormal V; the residual against each
    discrete eigenfunction vanishes up to the truncation of the expansion.
    """
    b = _weighted_hat_sine_sum(spectrum.mesh, np.asarray(coeffs, dtype=float))
    return spectrum.eigenvectors.T @ b


def project_ritz(spectrum: DiscreteSpectrum, coeffs: np.ndarray) -> np.ndarray:
    """Projection in the fractional energy inner product, in eigen
    coefficients: (V^T b) / lam_h with b_i = sum_k lam_k^beta coeffs_k (phi_i, e_k).

    That is V^T M (A^-1 b), since A^-1 = V diag(1/lam_h) V^T: the discrete
    fractional Laplacian of the result matches the projected fractional
    Laplacian of the datum.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    lam = fractional_eigenvalues(spectrum.beta, coeffs.size)
    b = _weighted_hat_sine_sum(spectrum.mesh, lam * coeffs)
    return (spectrum.eigenvectors.T @ b) / spectrum.eigenvalues


def discrete_norm(spectrum: DiscreteSpectrum, c: np.ndarray, p: float) -> float:
    """Weighted eigen-coefficient norm sqrt(sum (lam_j^h)^(p/beta) c_j^2).

    Coincides with the L2 norm at p = 0 and the fractional energy seminorm
    at p = beta.
    """
    return float(np.sqrt(np.sum(spectrum.eigenvalues ** (p / spectrum.beta) * c**2)))


def l2_error_cross(u_coeffs: np.ndarray, c: np.ndarray, spectrum: DiscreteSpectrum) -> float:
    """L2 distance between a sine expansion and a FEM field of eigen coefficients c.

    Expands ||u - v||^2 with the analytic cross inner products (e_k, e_j^h),
    truncated at the length of u_coeffs.  Tiny negative values from rounding
    clamp to zero; anything below -1e-14 signals inconsistent truncations.
    """
    u_coeffs = np.asarray(u_coeffs, dtype=float)
    return math.sqrt(_cross_error_sq(u_coeffs, c, sine_products(spectrum, u_coeffs.size)))


def _cross_error_sq(u: np.ndarray, c: np.ndarray, products: np.ndarray) -> float:
    """||u - v||^2 = ||u||^2 - 2 c.w + ||c||^2, w_j = sum_k u_k (e_k, e_j^h),
    for sine coefficients u and eigen coefficients c of v."""
    w = np.einsum("k,kj->j", u, products)
    err2 = (float(np.einsum("k,k->", u, u)) - 2.0 * float(np.einsum("j,j->", c, w))
            + float(np.einsum("j,j->", c, c)))
    if err2 < -1e-14:
        raise DomainError(f"squared L2 error {err2} below rounding floor")
    return max(err2, 0.0)


def fem_solution(orders: FracOrders, spectrum: DiscreteSpectrum, v1h: np.ndarray,
                 v2h: np.ndarray, spec: NoiseSpec, paths: NoisePaths, t: float) -> np.ndarray:
    """Galerkin solution at a noise-grid node t, in eigen coefficients, from
    the eigen coefficients v1h and v2h of the initial data.

    Each discrete mode evolves by the same Mittag-Leffler factors as a
    continuous mode with eigenvalue lam_j^h; the forcing enters through the
    L2 projections (e_k, e_j^h) of the driven sine modes, integrated exactly
    over each noise subinterval.
    """
    if spec.K_modes != paths.n_modes:
        raise DomainError("fem_solution: paths/spec mode counts differ")
    idx = _grid_index(t, paths)
    lamh = spectrum.eigenvalues
    hom = _homogeneous(orders.alpha, lamh, t, v1h, v2h)
    wt = _time_weights(orders.alpha, lamh, 1.0, t, paths.dt, idx, "exact")
    products = sine_products(spectrum, spec.K_modes)
    sig = spec.sigma_matrix(paths.dt * np.arange(idx), truncated=True)
    return _fem_apply(products, hom, wt, sig * paths.increments[:, :idx])


def _fem_apply(products: np.ndarray, hom: np.ndarray, wt: np.ndarray,
               forced: np.ndarray) -> np.ndarray:
    """Apply step of `fem_solution`: hom_j + sum_i wt[j, i] sum_k (e_k, e_j^h)
    forced[k, i], with forced = sigma_k(t_i) times the increments."""
    return hom + (wt * np.einsum("kj,ki->ji", products, forced)).sum(axis=1)
