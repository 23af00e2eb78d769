import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracwave import fem, noise
from fracwave.errors import DomainError
from fracwave.fem import (
    DiscreteSpectrum,
    FemMesh,
    discrete_norm,
    discrete_spectrum,
    eigenvalues_from_series,
    fem_solution,
    fractional_stiffness,
    hat_sine_matrix,
    hat_sine_product,
    l2_error_cross,
    mass_matrix,
    project_l2,
    project_ritz,
    sine_products,
)
from fracwave.mittag_leffler import ml_time_kernel
from fracwave.noise import NoisePaths, NoiseSpec, generate, inverse_cubic_sigma
from fracwave.spectral import (
    FracOrders,
    fractional_eigenvalues,
    homogeneous_solution,
    parabola_coeffs,
    stochastic_convolution,
)

K_FAST = 20_000  # series cutoff for tests; the zeta tail keeps assembly exact


def _unit_sigma(k, t):
    return np.ones(np.asarray(k).shape, dtype=float)


def closed_form_fem_eigenvalues(n: int) -> np.ndarray:
    """Classical linear-FEM eigenvalues for the Laplacian on a uniform mesh."""
    h = 1.0 / (n + 1)
    j = np.arange(1, n + 1)
    return (6.0 / h**2) * (1.0 - np.cos(j * math.pi * h)) / (2.0 + np.cos(j * math.pi * h))


def test_mesh_geometry():
    mesh = FemMesh(9)
    assert mesh.h == pytest.approx(0.1)
    np.testing.assert_allclose(mesh.nodes, 0.1 * np.arange(1, 10))
    with pytest.raises(DomainError):
        FemMesh(0)


def test_hat_sine_product_zeros():
    mesh = FemMesh(9)
    assert hat_sine_product(mesh, 3, 2 * 10) == pytest.approx(0.0, abs=1e-14)
    # k*i a multiple of N+1 kills the sine factor
    assert hat_sine_product(mesh, 5, 4) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(IndexError):
        hat_sine_product(mesh, 0, 1)
    with pytest.raises(IndexError):
        hat_sine_product(mesh, 1, 0)


def test_hat_sine_product_vs_quadrature():
    mesh = FemMesh(9)
    for i, k in [(5, 1), (1, 7), (9, 13), (4, 30)]:
        xi = i * mesh.h

        def hat(x):
            return max(0.0, 1.0 - abs(x - xi) / mesh.h)

        ref, _ = quad(lambda x: hat(x) * math.sqrt(2) * math.sin(k * math.pi * x),
                      max(0.0, xi - mesh.h), min(1.0, xi + mesh.h), epsabs=1e-13)
        assert abs(hat_sine_product(mesh, i, k) - ref) < 1e-12


def test_mass_matrix_stencil():
    mesh = FemMesh(4)
    m = mass_matrix(mesh)
    h = mesh.h
    assert m[0, 0] == pytest.approx(4 * h / 6)
    assert m[0, 1] == pytest.approx(h / 6)
    assert m[0, 2] == 0.0
    np.testing.assert_allclose(m, m.T)


def test_stiffness_single_hat():
    mesh = FemMesh(1)
    a = fractional_stiffness(mesh, 1.0, K_FAST)
    assert a[0, 0] == pytest.approx(2.0 / mesh.h, rel=1e-12)


def test_stiffness_beta1_matches_classical():
    mesh = FemMesh(9)
    h = mesh.h
    a = fractional_stiffness(mesh, 1.0, K_FAST)
    classical = (np.diag(2.0 * np.ones(9)) - np.diag(np.ones(8), 1)
                 - np.diag(np.ones(8), -1)) / h
    np.testing.assert_allclose(a, classical, rtol=0, atol=1e-11)
    np.testing.assert_array_equal(a, a.T)  # symmetrized exactly


def test_stiffness_series_bounded_by_entry_cap(monkeypatch):
    """A series longer than the entry cap is rejected before any term is summed."""
    monkeypatch.setattr(noise, "_DEFAULT_ENTRY_CAP", 1000)
    mesh = FemMesh(3)
    assert fractional_stiffness(mesh, 0.8, 1000).shape == (3, 3)
    monkeypatch.setattr(fem, "_alias_class_sums", None)  # any use would raise TypeError
    for k_series in (0, 1001):
        with pytest.raises(DomainError):
            fractional_stiffness(mesh, 0.8, k_series)
        with pytest.raises(DomainError):
            discrete_spectrum(mesh, 0.8, k_series)


def test_discrete_spectra_pass_at_call_and_solve_when_asked(monkeypatch):
    """`discrete_spectra` checks its arguments and makes its one series pass
    when called, and assembles and solves each mesh only when its spectrum
    is asked for, so a caller that drops each spectrum holds one mesh's
    matrices at a time."""
    events = []
    for name in ("_alias_class_sums", "_assemble", "_solve"):
        monkeypatch.setattr(fem, name, lambda *a, f=getattr(fem, name), name=name:
                            events.append(name) or f(*a))
    meshes = [FemMesh(3), FemMesh(5)]
    with pytest.raises(DomainError):
        fem.discrete_spectra(meshes, 1.5)
    assert events == []
    spectra = fem.discrete_spectra(meshes, 0.8, 100)
    assert events == ["_alias_class_sums"]
    for mesh in meshes:
        assert next(spectra).mesh == mesh
        assert events[-2:] == ["_assemble", "_solve"]
    assert len(events) == 5 and next(spectra, None) is None


def test_stiffness_truncation_decays_without_tail():
    mesh = FemMesh(5)
    exact = fractional_stiffness(mesh, 1.0, 1000, tail=True)
    errs = []
    for k in (1000, 2000, 4000, 8000):
        approx = fractional_stiffness(mesh, 1.0, k, tail=False)
        errs.append(np.abs(approx - exact).max())
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert (np.array(errs) > 0).all()
    assert rates.mean() > 0.8  # entrywise error O(1/K) at beta = 1


@pytest.mark.parametrize("n", (1, 9, 49, 99))
@pytest.mark.parametrize("beta", (0.6, 0.8, 1.0))
def test_stiffness_split_point_changes_only_rounding(n, beta):
    """With the closed-form tail the matrix is the full series wherever the
    summed part stops: the split changes only rounding (4.3e-16 of max|A|
    measured), so the experiments need no split of their own."""
    mesh = FemMesh(n)
    full = fractional_stiffness(mesh, beta, fem.DEFAULT_K_SERIES)
    assert fem.DEFAULT_K_SERIES == 10**6
    for k_series in (1, 10**3):
        split = fractional_stiffness(mesh, beta, k_series)
        assert np.abs(split - full).max() <= 1e-14 * np.abs(full).max()


def test_spectrum_beta1_closed_form():
    for n in (1, 9, 24, 49):
        spec = discrete_spectrum(FemMesh(n), 1.0, K_FAST)
        np.testing.assert_allclose(spec.eigenvalues, closed_form_fem_eigenvalues(n),
                                   rtol=1e-12)
        j = np.arange(1, n + 1)
        assert (spec.eigenvalues >= (j * math.pi) ** 2 - 1e-9).all()  # min-max


def test_spectrum_invariants():
    for beta in (0.6, 0.75, 0.8, 1.0):
        spec = discrete_spectrum(FemMesh(9), beta, K_FAST)
        lam = spec.eigenvalues
        assert (np.diff(lam) > 0).all()
        # conforming subspace: discrete eigenvalues dominate continuous ones
        assert (lam >= fractional_eigenvalues(beta, 9) - 1e-9).all()
        gram = spec.eigenvectors.T @ spec.mass @ spec.eigenvectors
        assert np.abs(gram - np.eye(9)).max() < 1e-10
        resid = spec.stiffness @ spec.eigenvectors - spec.mass @ spec.eigenvectors * lam
        assert np.abs(resid).max() <= 1e-8 * np.abs(spec.stiffness).max()


def test_spectral_definition_consistency_small():
    for beta in (0.6, 1.0):
        spec = discrete_spectrum(FemMesh(9), beta, K_FAST)
        recomputed = eigenvalues_from_series(spec)
        rel = np.abs(recomputed - spec.eigenvalues) / spec.eigenvalues
        assert rel.max() < 1e-10


@pytest.mark.parametrize("n", (3, 9, 99, 400))
@pytest.mark.parametrize("beta", (0.6, 0.75, 1.0))
def test_projections_match_cholesky_route(n, beta):
    """The eigen-coordinate projections against the nodal solves they replace:
    V^T M M^-1 b for L2 and V^T M A^-1 b_lam for Ritz, by Cholesky.  The
    solve on A loses about cond(A) eps, hence the wider Ritz gate."""
    from scipy.linalg import cho_factor, cho_solve

    spec = discrete_spectrum(FemMesh(n), beta, K_FAST)
    coeffs = parabola_coeffs(2000) + np.random.default_rng(n).standard_normal(2000) / (
        np.arange(1, 2001) ** 2)
    phi = hat_sine_matrix(spec.mesh, coeffs.size)
    v, m = spec.eigenvectors, spec.mass
    old_l2 = v.T @ (m @ cho_solve(cho_factor(m), phi.T @ coeffs))
    lam = fractional_eigenvalues(beta, coeffs.size)
    old_ritz = v.T @ (m @ cho_solve(cho_factor(spec.stiffness), phi.T @ (lam * coeffs)))
    new_l2, new_ritz = project_l2(spec, coeffs), project_ritz(spec, coeffs)
    assert np.abs(new_l2 - old_l2).max() <= 1e-13 * np.abs(old_l2).max()
    assert np.abs(new_ritz - old_ritz).max() <= 1e-10 * np.abs(old_ritz).max()


def test_projection_reproduces_fem_functions():
    # a member of the FEM space, expanded in sines, projects back onto itself
    mesh = FemMesh(3)
    spec = discrete_spectrum(mesh, 0.75, K_FAST)
    rng = np.random.default_rng(1)
    nod = rng.standard_normal(3)
    coeffs = hat_sine_matrix(mesh, 100_000) @ nod
    proj = project_l2(spec, coeffs)
    assert np.abs(spec.eigenvectors @ proj - nod).max() < 1e-10


def test_projection_contractive():
    spec = discrete_spectrum(FemMesh(9), 0.75, K_FAST)
    e_high = np.zeros(500)
    e_high[499] = 1.0  # mode far beyond the mesh resolution
    proj = project_l2(spec, e_high)
    assert discrete_norm(spec, proj, 0.0) <= 1.0 + 1e-12


def test_projection_rate_order_two():
    # ||P_h v - v|| ~ h^2 for the smooth parabolic-bump datum
    coeffs = parabola_coeffs(4000)
    errs = []
    for n in (9, 19, 39, 79):
        spec = discrete_spectrum(FemMesh(n), 0.75, K_FAST)
        errs.append(l2_error_cross(coeffs, project_l2(spec, coeffs), spec))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert rates.min() > 1.9 and rates.max() < 2.2


def _projection_error_sq_brute_force(n: int, u: np.ndarray, k_max: int = 2 * 10**6) -> float:
    """||u - P_h u||^2 for sine coefficients u, summed mode by mode.

    (phi_i, e_k) takes the amplitude sqrt(2) 4 sin^2(k pi h/2) / (h k^2 pi^2),
    which does not cancel as 1 - cos(k pi h) does; the nodal values of the
    projection solve the tridiagonal mass system, and its sine coefficient
    v_k reads the nodal sine sum of k's residue mod 2P (its alias class,
    with the sign).  Parseval over k <= k_max gives the squared error.
    """
    from scipy.linalg import solve_banded

    h, period = 1.0 / (n + 1), 2 * (n + 1)
    i = np.arange(1, n + 1)

    def amp(k):
        return math.sqrt(2.0) * 4.0 * np.sin(0.5 * math.pi * h * k) ** 2 / (h * (math.pi * k) ** 2)

    ku = np.arange(1, u.size + 1)
    load = (amp(ku) * u) @ np.sin(math.pi * h * np.outer(ku, i))
    band = np.array([np.full(n, h / 6.0), np.full(n, 4.0 * h / 6.0), np.full(n, h / 6.0)])
    nodal_sines = np.sin(math.pi * h * np.outer(np.arange(period), i)) @ solve_banded(
        (1, 1), band, load)
    total = 0.0
    for lo in range(1, k_max + 1, 1 << 18):
        k = np.arange(lo, min(lo + (1 << 18), k_max + 1))
        uk = np.where(k <= u.size, u[np.minimum(k, u.size) - 1], 0.0)
        total += float(np.sum((uk - amp(k) * nodal_sines[k % period]) ** 2))
    return total


# The package misses the brute-force value by 9.98e-5 relative at 1/h = 100
# (9.1464269492e-10 against 9.1455140969e-10) and by 48.2% at 1/h = 400
# (1.8131052215e-12 against 3.4972972679e-12): its hat-sine amplitude
# 1 - cos(k pi h) cancels, and the cross formula ||u||^2 - 2 c.w + ||c||^2
# magnifies what is left.  The fix moves table 2, so it waits for a re-pin.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="cancelling hat-sine amplitude and cross formula")
@pytest.mark.parametrize("inv_h", (100, 400))
def test_projection_error_matches_brute_force(inv_h):
    u = parabola_coeffs(1000)
    spec = discrete_spectrum(FemMesh(inv_h - 1), 1.0)
    got = l2_error_cross(u, project_l2(spec, u), spec) ** 2
    want = _projection_error_sq_brute_force(inv_h - 1, u)
    assert abs(got - want) <= 1e-10 * want


def test_ritz_projection_identity_and_rate():
    # identity on the FEM space when the load vector is assembled exactly
    mesh = FemMesh(5)
    spec = discrete_spectrum(mesh, 0.75, K_FAST)
    rng = np.random.default_rng(2)
    nod = rng.standard_normal(5)
    from scipy.linalg import cho_factor, cho_solve

    sol = cho_solve(cho_factor(spec.stiffness), spec.stiffness @ nod)
    assert np.abs(sol - nod).max() < 1e-10

    # classical Ritz projection at beta = 1: energy error order ~ 1
    coeffs = parabola_coeffs(200_000)
    errs = []
    for n in (9, 19, 39):
        sp = discrete_spectrum(FemMesh(n), 1.0, K_FAST)
        field = project_ritz(sp, coeffs)
        # Galerkin orthogonality: energy error^2 = |v|_b^2 - |R_h v|_b^2
        energy_v = np.sum(fractional_eigenvalues(1.0, coeffs.size) * coeffs**2)
        energy_h = discrete_norm(sp, field, 1.0) ** 2
        errs.append(math.sqrt(max(energy_v - energy_h, 0.0)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert rates.min() > 0.85 and rates.max() < 1.2


def test_ritz_commutes_with_fractional_laplacian():
    # (-Delta_h)^beta R_h u = P_h (-Delta)^beta u, both sides in eigen coords
    beta = 0.75
    spec = discrete_spectrum(FemMesh(9), beta, K_FAST)
    coeffs = parabola_coeffs(50_000)
    lhs = spec.eigenvalues * project_ritz(spec, coeffs)
    powered = fractional_eigenvalues(beta, coeffs.size) * coeffs
    rhs = project_l2(spec, powered)
    assert np.abs(lhs - rhs).max() < 1e-6 * max(1.0, np.abs(rhs).max())


def test_discrete_norm_examples():
    spec = discrete_spectrum(FemMesh(9), 0.75, K_FAST)
    e1 = np.zeros(9)
    e1[0] = 1.0
    assert discrete_norm(spec, e1, 0.0) == pytest.approx(1.0)
    assert discrete_norm(spec, e1, 0.75) == pytest.approx(math.sqrt(spec.eigenvalues[0]))


def test_inverse_inequality():
    # |chi|_beta <= C h^(-beta) |chi|_0 with one constant across meshes
    beta = 0.75
    rng = np.random.default_rng(3)
    cs = []
    for n in (9, 19, 39):
        spec = discrete_spectrum(FemMesh(n), beta, K_FAST)
        h = spec.mesh.h
        for _ in range(20):
            chi = rng.standard_normal(n)
            ratio = discrete_norm(spec, chi, beta) / discrete_norm(spec, chi, 0.0)
            cs.append(ratio * h**beta)
    assert max(cs) < 3.0  # frozen empirical constant for this mesh family


def test_l2_error_cross_trivial_cases():
    spec = discrete_spectrum(FemMesh(9), 0.75, K_FAST)
    rng = np.random.default_rng(4)
    nod = rng.standard_normal(9)
    c = spec.eigenvectors.T @ (spec.mass @ nod)  # eigen coefficients of the nodal field
    coeffs = hat_sine_matrix(spec.mesh, 50_000) @ nod
    # the cross formula reduces to the sine-tail mass of the FEM function
    err = l2_error_cross(coeffs, c, spec)
    tail_sq = float(c @ c) - float(coeffs @ coeffs)
    assert abs(err**2 - tail_sq) < 1e-10
    # u_fem = 0 gives back the spectral norm
    assert l2_error_cross(coeffs, np.zeros(9), spec) == pytest.approx(
        float(np.sqrt(coeffs @ coeffs)))


def test_l2_error_cross_vs_direct_quadrature():
    # ||(I - P_h) e_1|| computed by the cross formula vs dense sampling
    mesh = FemMesh(9)
    spec = discrete_spectrum(mesh, 0.75, K_FAST)
    e1 = np.zeros(2000)
    e1[0] = 1.0
    proj = project_l2(spec, e1)
    err = l2_error_cross(e1, proj, spec)
    xs = np.linspace(0.0, 1.0, 200_001)
    nodal = np.concatenate([[0.0], spec.eigenvectors @ proj, [0.0]])
    grid = np.linspace(0.0, 1.0, mesh.n_interior + 2)
    fem_vals = np.interp(xs, grid, nodal)
    diff = math.sqrt(2.0) * np.sin(math.pi * xs) - fem_vals
    ref = math.sqrt(np.trapezoid(diff**2, xs))
    assert abs(err - ref) < 1e-6


def test_fem_solution_single_mode_no_noise():
    orders = FracOrders(1.5, 0.75)
    spec = discrete_spectrum(FemMesh(9), 0.75, K_FAST)
    nspec = NoiseSpec(sigma=_unit_sigma, n_cutoff=4, K_modes=4, T=1.0, N_fine=4)
    inc = np.zeros((4, 4))
    inc.flags.writeable = False
    paths = NoisePaths(increments=inc, dt=0.25)
    e1 = np.zeros(9)
    e1[0] = 1.0
    out = fem_solution(orders, spec, e1, np.zeros(9), nspec, paths, 1.0)
    expected = ml_time_kernel(1.5, float(spec.eigenvalues[0]), 1.0, "init_value")
    assert out[0] == pytest.approx(expected, rel=1e-13)
    assert np.abs(out[1:]).max() == 0.0


def test_fem_solution_energy_conservation_classical_wave():
    # alpha = 2, beta = 1: discrete wave equation conserves
    # sum_j lam_j c_j(t)^2 + cdot_j(t)^2 for noise-free data
    orders = FracOrders(2.0, 1.0)
    spec = discrete_spectrum(FemMesh(9), 1.0, K_FAST)
    nspec = NoiseSpec(sigma=_unit_sigma, n_cutoff=2, K_modes=2, T=2.0, N_fine=8)
    inc = np.zeros((2, 8))
    inc.flags.writeable = False
    paths = NoisePaths(increments=inc, dt=0.25)
    rng = np.random.default_rng(8)
    v1 = rng.standard_normal(9)
    v2 = rng.standard_normal(9)
    lam = spec.eigenvalues

    energies = []
    for t in (0.25, 0.75, 1.5, 2.0):
        c = fem_solution(orders, spec, v1, v2, nspec, paths, t)
        # cdot from the derivative identities of the two kernels
        sq = np.sqrt(lam)
        cdot = (-sq * np.sin(sq * t) * v1 + np.cos(sq * t) * v2)
        energies.append(float(np.sum(lam * c**2 + cdot**2)))
    energies = np.array(energies)
    assert np.abs(energies - energies[0]).max() < 1e-8 * energies[0]


def test_fem_matches_spectral_convolution_under_refinement():
    orders = FracOrders(1.5, 0.75)
    nspec = NoiseSpec(sigma=inverse_cubic_sigma, n_cutoff=4, K_modes=4, T=1.0, N_fine=10)
    paths = generate(nspec, 99)
    target = stochastic_convolution(orders, nspec, paths, 10, rule="exact")
    errs = []
    for n in (9, 19, 39):
        spec = discrete_spectrum(FemMesh(n), 0.75, K_FAST)
        zero = np.zeros(n)
        uh = fem_solution(orders, spec, zero, zero, nspec, paths, 1.0)
        errs.append(l2_error_cross(target, uh, spec))
    assert errs[0] > errs[1] > errs[2]
    assert np.log2(errs[1] / errs[2]) > 1.2  # >= 2*beta - 0.3 and then some


def test_homogeneous_fem_error_rate():
    # deterministic h^(2 beta) decay (up to the log factor) for the
    # displacement datum at t = 1
    beta = 0.75
    orders = FracOrders(1.5, beta)
    coeffs = parabola_coeffs(4000)
    u_exact = homogeneous_solution(orders, coeffs, np.zeros(4000), 1.0)
    errs = []
    hs = []
    for n in (9, 24, 49, 74, 99):
        spec = discrete_spectrum(FemMesh(n), beta, K_FAST)
        prods = sine_products(spec, 4000)
        v1h = np.einsum("k,kj->j", coeffs, prods)
        disp = ml_time_kernel
        lam = spec.eigenvalues
        vals = np.array([disp(orders.alpha, float(l), 1.0, "init_value") for l in lam])
        uh = vals * v1h
        errs.append(l2_error_cross(u_exact, uh, spec))
        hs.append(spec.mesh.h)
    rates = np.log(np.array(errs[:-1]) / np.array(errs[1:])) / np.log(
        np.array(hs[:-1]) / np.array(hs[1:]))
    assert rates.min() >= 2 * beta - 0.3


def test_grid_mismatch_raises():
    orders = FracOrders(1.5, 0.75)
    spec = discrete_spectrum(FemMesh(3), 0.75, K_FAST)
    nspec = NoiseSpec(sigma=_unit_sigma, n_cutoff=2, K_modes=2, T=1.0, N_fine=4)
    paths = generate(nspec, 1)
    zero = np.zeros(3)
    with pytest.raises(DomainError):
        fem_solution(orders, spec, zero, zero, nspec, paths, 0.3)


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -0.25, 0.3, 1.25])
def test_fem_solution_off_grid_time_is_domain_error(t):
    """A time that is NaN, infinite, zero, negative, off the noise grid or
    past its horizon is a DomainError (`spectral._grid_index`)."""
    orders = FracOrders(1.5, 0.75)
    spec = discrete_spectrum(FemMesh(3), 0.75, K_FAST)
    nspec = NoiseSpec(sigma=_unit_sigma, n_cutoff=2, K_modes=2, T=1.0, N_fine=4)
    zero = np.zeros(3)
    with pytest.raises(DomainError, match=f"t = {t}"):
        fem_solution(orders, spec, zero, zero, nspec, generate(nspec, 1), t)
