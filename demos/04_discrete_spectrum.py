"""The discrete fractional Laplacian and its eigenpairs.

On a uniform hat-function mesh the fractional stiffness matrix is the Gram
matrix sum_k lam_k^beta (phi_i, e_k)(phi_j, e_k).  The mesh aliases the sine
modes into N classes, so the infinite series collapses into N class sums
whose tails are Hurwitz zeta values -- the assembled matrix is exact up to
roundoff.  Its generalized eigenvalues against the mass matrix dominate the
continuous ones and converge to them as the mesh refines.
"""

import numpy as np

from fracwave.fem import FemMesh, discrete_spectrum, project_l2, l2_error_cross
from fracwave.spectral import fractional_eigenvalues, parabola_coeffs

beta = 0.75
print(f"fractional order beta = {beta}\n")
print("discrete vs continuous eigenvalues (first four) as the mesh refines:")
for n in (9, 19, 39, 79):
    spec = discrete_spectrum(FemMesh(n), beta, k_series=100_000)
    cont = fractional_eigenvalues(beta, 4)
    line = "  ".join(f"{d:9.4f}/{c:9.4f}" for d, c in zip(spec.eigenvalues[:4], cont))
    print(f"  N = {n:3d}:  {line}")

print("\nall discrete eigenvalues dominate the continuous ones (conforming space)")

# ---------------------------------------------------------------------------
# the classical limit beta = 1 has a closed form
n = 9
spec1 = discrete_spectrum(FemMesh(n), 1.0, k_series=100_000)
h = spec1.mesh.h
j = np.arange(1, n + 1)
closed = (6.0 / h**2) * (1 - np.cos(j * np.pi * h)) / (2 + np.cos(j * np.pi * h))
print(f"\nbeta = 1, N = {n}: max |eig - closed form| / closed form "
      f"= {np.max(np.abs(spec1.eigenvalues - closed)/closed):.2e}")

# ---------------------------------------------------------------------------
# L2 projection of a smooth datum converges at second order.  A FEM field is
# its vector of eigen coefficients: project_l2 returns them, and the nodal
# values are spec.eigenvectors @ them.
coeffs = parabola_coeffs(4000)
print("\nprojection error for the parabolic bump 4x(1-x):")
prev = None
for n in (9, 19, 39, 79):
    spec = discrete_spectrum(FemMesh(n), beta, k_series=100_000)
    err = l2_error_cross(coeffs, project_l2(spec, coeffs), spec)
    rate = "" if prev is None else f"   rate {np.log2(prev/err):.3f}"
    print(f"  N = {n:3d}: error {err:.3e}{rate}")
    prev = err
