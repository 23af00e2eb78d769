import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import rgamma

from fracwave.errors import DomainError
from fracwave.mittag_leffler import ml_series_hp
from fracwave.noise import NoisePaths, NoiseSpec, generate, inverse_cubic_sigma
from fracwave.spectral import (
    FracOrders,
    convolution_weights,
    fractional_eigenvalues,
    homogeneous_solution,
    laplacian_eigenvalues,
    parabola_coeffs,
    ramp_coeffs,
    reference_solution,
    sine_mode,
    sobolev_norm,
    stochastic_convolution,
)

# frozen regression vector: reference solution at T=1 with alpha=1.5,
# beta=0.75, K = N' = 1000, sigma_k = 1/k^3, seed 2024
REF_REGRESSION_HEAD = np.array([
    -2.0935125754665224e-01, -9.9579075370973963e-03, -6.1191486381979108e-03,
    -5.1215269054754990e-04, 8.6380029062102081e-04, -1.9942600116955864e-04,
])
REF_REGRESSION_NORM = 0.20968027946897239


def _unit_sigma(k, t):
    return np.ones(np.asarray(k).shape, dtype=float)


def test_orders_validation():
    FracOrders(2.0, 1.0)
    FracOrders(1.01, 0.51)
    for alpha, beta in [(1.0, 0.75), (2.1, 0.75), (1.5, 0.5), (1.5, 1.1)]:
        with pytest.raises(DomainError):
            FracOrders(alpha, beta)


def test_eigenvalues():
    lam = laplacian_eigenvalues(3)
    np.testing.assert_allclose(lam, [math.pi**2, 4 * math.pi**2, 9 * math.pi**2])
    assert abs(lam[0] - 9.869604401) < 1e-6
    np.testing.assert_allclose(fractional_eigenvalues(0.75, 3), lam**0.75)


def test_sine_mode_values():
    assert math.isclose(sine_mode(1, 0.5), math.sqrt(2.0), rel_tol=1e-15)
    assert abs(sine_mode(2, 0.5)) < 1e-15
    assert math.isclose(sine_mode(3, 0.25), 1.0, rel_tol=1e-14)
    assert sine_mode(1, 0.0) == 0.0
    with pytest.raises(DomainError):
        sine_mode(0, 0.5)


def test_parabola_coeffs_closed_form():
    c = parabola_coeffs(8)
    assert c[1] == 0.0 and c[3] == 0.0  # even modes vanish
    assert math.isclose(c[0], 16.0 * math.sqrt(2.0) / math.pi**3, rel_tol=1e-15)
    assert math.isclose(c[2], 16.0 * math.sqrt(2.0) / (27.0 * math.pi**3), rel_tol=1e-15)
    for k in (1, 3, 5):
        ref, _ = quad(lambda x: (-4 * x**2 + 4 * x) * math.sqrt(2) * math.sin(k * math.pi * x),
                      0.0, 1.0, epsabs=1e-13)
        assert abs(c[k - 1] - ref) < 1e-12


def test_ramp_coeffs_closed_form():
    c = ramp_coeffs(6)
    assert math.isclose(c[0], math.sqrt(2.0) / math.pi, rel_tol=1e-15)
    assert math.isclose(c[1], -math.sqrt(2.0) / (2.0 * math.pi), rel_tol=1e-15)
    for k in (1, 2, 4):
        ref, _ = quad(lambda x: x * math.sqrt(2) * math.sin(k * math.pi * x),
                      0.0, 1.0, epsabs=1e-13)
        assert abs(c[k - 1] - ref) < 1e-12
    # Parseval limit: sum of squares -> ||x||^2 = 1/3
    assert abs(np.sum(ramp_coeffs(200_000) ** 2) - 1.0 / 3.0) < 1e-5


def test_sobolev_norm_examples():
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert sobolev_norm(e1, 0.0) == 1.0
    assert math.isclose(sobolev_norm(e1, 2.0), math.pi**2, rel_tol=1e-15)
    v1 = parabola_coeffs(10_000)
    assert abs(sobolev_norm(v1, 0.0) - math.sqrt(8.0 / 15.0)) < 1e-6


def test_parseval_for_data():
    # L2 norms of the two closed-form data and a pure mode, K = 1e4
    assert abs(sobolev_norm(parabola_coeffs(10_000), 0.0) - math.sqrt(8 / 15)) < 1e-6
    assert abs(sobolev_norm(ramp_coeffs(10_000), 0.0) - math.sqrt(1 / 3)) < 1e-4
    mode = np.zeros(10)
    mode[4] = 1.0
    assert sobolev_norm(mode, 0.0) == 1.0


def test_homogeneous_at_zero_returns_initial_value():
    orders = FracOrders(1.5, 0.75)
    v1 = parabola_coeffs(50)
    v2 = ramp_coeffs(50)
    np.testing.assert_array_equal(homogeneous_solution(orders, v1, v2, 0.0), v1)


def test_homogeneous_classical_wave_single_mode():
    orders = FracOrders(2.0, 1.0)
    v1 = np.zeros(3)
    v1[0] = 1.0
    zeros = np.zeros(3)
    for t in (0.1, 0.5, 1.3):
        u = homogeneous_solution(orders, v1, zeros, t)
        assert math.isclose(u[0], math.cos(math.pi * t), rel_tol=0, abs_tol=1e-13)
        assert u[1] == 0.0 and u[2] == 0.0
        v = homogeneous_solution(orders, zeros, v1, t)
        assert math.isclose(v[0], math.sin(math.pi * t) / math.pi, rel_tol=0, abs_tol=1e-13)


def test_homogeneous_velocity_mode_vs_oracle():
    orders = FracOrders(1.7, 0.9)
    v2 = np.zeros(1)
    v2[0] = 1.0
    lam = float(fractional_eigenvalues(0.9, 1)[0])
    for t in (0.3, 1.0):
        u = homogeneous_solution(orders, np.zeros(1), v2, t)
        ref = t * ml_series_hp(1.7, 2.0, -lam * t**1.7, 1e-30)
        assert abs(u[0] - ref) <= 1e-13 * (1 + abs(ref))


def test_single_mode_exactness():
    # mode j of the homogeneous solution is exactly the init_value kernel
    orders = FracOrders(1.5, 0.75)
    v1 = np.zeros(7)
    v1[4] = 1.0
    lam = fractional_eigenvalues(0.75, 7)[4]
    u = homogeneous_solution(orders, v1, np.zeros(7), 0.8)
    ref = ml_series_hp(1.5, 1.0, -lam * 0.8**1.5, 1e-30)
    assert abs(u[4] - ref) <= 1e-13 * (1 + abs(ref))
    assert np.all(u[np.arange(7) != 4] == 0.0)


def test_homogeneous_stability_bounds():
    # |E_{a,1}| <= 1 on the negative axis keeps |u(t)|_p <= |v1|_p for
    # single-mode data, and t^a |u(t)| stays bounded for large t
    orders = FracOrders(1.5, 0.75)
    v1 = np.zeros(12)
    v1[11] = 1.0
    lam = float(fractional_eigenvalues(0.75, 12)[11])
    ts = np.geomspace(1e-3, 1e3, 41)
    vals = np.array([abs(homogeneous_solution(orders, v1, np.zeros(12), float(t))[11])
                     for t in ts])
    assert (vals <= 1.0 + 1e-12).all()
    big = ts ** orders.alpha * vals
    assert big[ts > 10.0].max() <= 2.0 / lam  # ~ 1/(lam |Gamma(1-a)|) asymptote


def _manual_paths(increments, dt):
    inc = np.asarray(increments, dtype=float)
    inc.flags.writeable = False
    return NoisePaths(increments=inc, dt=dt)


def test_convolution_zero_noise():
    orders = FracOrders(1.5, 0.75)
    spec = NoiseSpec(sigma=_unit_sigma, n_cutoff=3, K_modes=3, T=1.0, N_fine=4)
    paths = _manual_paths(np.zeros((3, 4)), 0.25)
    out = stochastic_convolution(orders, spec, paths, 4)
    np.testing.assert_array_equal(out, np.zeros(3))


def test_convolution_single_increment_gives_primitive_kernel():
    # raw increment dt over [0, dt] with sigma = 1: coefficient is G(dt)
    from fracwave.mittag_leffler import ml_time_kernel

    orders = FracOrders(1.5, 0.75)
    dt = 0.25
    spec = NoiseSpec(sigma=_unit_sigma, n_cutoff=1, K_modes=1, T=1.0, N_fine=4)
    inc = np.zeros((1, 4))
    inc[0, 0] = dt
    paths = _manual_paths(inc, dt)
    out = stochastic_convolution(orders, spec, paths, 1)
    lam = float(fractional_eigenvalues(0.75, 1)[0])
    ref = ml_time_kernel(1.5, lam, dt, "impulse_primitive")
    assert math.isclose(out[0], ref, rel_tol=1e-14)


def test_convolution_weights_against_quadrature():
    # exact-rule weights equal the integral of the impulse kernel over each
    # subinterval (scaled by 1/dt); checked by adaptive quadrature
    from fracwave.mittag_leffler import ml_time_kernel

    orders = FracOrders(1.3, 0.6)
    spec = NoiseSpec(sigma=_unit_sigma, n_cutoff=2, K_modes=2, T=1.0, N_fine=5)
    dt = 0.2
    w = convolution_weights(orders, spec, dt, 5, rule="exact")
    lam = fractional_eigenvalues(0.6, 2)
    for k in range(2):
        for i in range(5):
            ref, _ = quad(lambda s: ml_time_kernel(1.3, float(lam[k]), 1.0 - s, "impulse"),
                          i * dt, (i + 1) * dt, epsabs=1e-12, epsrel=1e-12, limit=200)
            assert abs(w[k, i] - ref / dt) <= 1e-9 * (1 + abs(ref / dt))


def test_convolution_weights_zero_eigenvalue_limit():
    # with the eigenvalue sent to 0 the primitive is tau^a/Gamma(a+1); the
    # weights reduce to differences of that power
    alpha = 1.5
    t, dt, steps = 1.0, 0.25, 4
    taus = t - dt * np.arange(steps + 1)
    expected = (taus[:-1] ** alpha - taus[1:] ** alpha) * float(rgamma(alpha + 1.0)) / dt
    from fracwave.mittag_leffler import kernel_weights

    prim = kernel_weights(alpha, "impulse_primitive", np.array([0.0]), taus)
    got = (prim[:, :-1] - prim[:, 1:]) / dt
    np.testing.assert_allclose(got[0], expected, rtol=1e-13)


def test_convolution_truncation_tail_is_negligible():
    # with sigma_k = 1/k^3 the L2 norm moves by < 1e-8 when the mode count
    # doubles past 1000 (same seed couples the shared modes)
    orders = FracOrders(1.5, 0.75)
    norms = {}
    for k_modes in (1000, 2000):
        spec = NoiseSpec(sigma=inverse_cubic_sigma, n_cutoff=k_modes,
                         K_modes=k_modes, T=1.0, N_fine=20)
        paths = generate(spec, 77)
        out = stochastic_convolution(orders, spec, paths, 20)
        norms[k_modes] = float(np.sqrt(np.sum(out**2)))
    assert abs(norms[2000] - norms[1000]) < 1e-8


def test_reference_solution_trivial_cases():
    orders = FracOrders(1.5, 0.75)
    spec = NoiseSpec(sigma=inverse_cubic_sigma, n_cutoff=6, K_modes=6, T=1.0, N_fine=8)
    zero_paths = _manual_paths(np.zeros((6, 8)), 0.125)
    v1, v2 = parabola_coeffs(6), ramp_coeffs(6)
    u = reference_solution(orders, v1, v2, spec, zero_paths, 1.0)
    np.testing.assert_array_equal(u, homogeneous_solution(orders, v1, v2, 1.0))
    u0 = reference_solution(orders, np.zeros(6), np.zeros(6), spec, zero_paths, 0.5)
    np.testing.assert_array_equal(u0, np.zeros(6))
    with pytest.raises(DomainError):
        reference_solution(orders, v1, v2, spec, zero_paths, 0.33)


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -0.125, 0.33, 1.125])
def test_reference_solution_off_grid_time_is_domain_error(t):
    """A time that is NaN, infinite, zero, negative, off the dt = 1/8 grid or
    past its horizon is a DomainError that names t (`_grid_index`)."""
    orders = FracOrders(1.5, 0.75)
    spec = NoiseSpec(sigma=inverse_cubic_sigma, n_cutoff=6, K_modes=6, T=1.0, N_fine=8)
    paths = _manual_paths(np.zeros((6, 8)), 0.125)
    with pytest.raises(DomainError, match=f"t = {t}"):
        reference_solution(orders, parabola_coeffs(6), ramp_coeffs(6), spec, paths, t)


def test_regularized_solution_regularity_bounded_across_seeds():
    # E|u_n(t)|_{2 beta}^2 stays bounded at fixed dt: the convolution decays
    # fast enough in the mode index that the weighted norm is finite
    orders = FracOrders(1.5, 0.75)
    spec = NoiseSpec(sigma=inverse_cubic_sigma, n_cutoff=256, K_modes=256,
                     T=1.0, N_fine=40)
    norms = []
    for seed in range(12):
        paths = generate(spec, seed)
        conv = stochastic_convolution(orders, spec, paths, 40)
        hom = homogeneous_solution(orders, parabola_coeffs(256), ramp_coeffs(256), 1.0)
        norms.append(sobolev_norm(hom + conv, 2.0 * orders.beta) ** 2)
    norms = np.asarray(norms)
    assert np.isfinite(norms).all()
    assert norms.max() < 50.0 * np.median(norms)


def test_reference_solution_regression():
    orders = FracOrders(1.5, 0.75)
    spec = NoiseSpec(sigma=inverse_cubic_sigma, n_cutoff=1000, K_modes=1000,
                     T=1.0, N_fine=1000)
    paths = generate(spec, 2024)
    u = reference_solution(orders, parabola_coeffs(1000), ramp_coeffs(1000),
                           spec, paths, 1.0)
    np.testing.assert_allclose(u[:6], REF_REGRESSION_HEAD, rtol=1e-12)
    assert math.isclose(float(np.sqrt((u**2).sum())), REF_REGRESSION_NORM, rel_tol=1e-12)
