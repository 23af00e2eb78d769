import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracwave import noise
from fracwave.errors import DomainError
from fracwave.noise import (
    NoiseSpec,
    coarsen,
    generate,
    inverse_cubic_sigma,
    normalized_increment,
    trajectory_seed,
)


def _spec(k=16, n=64, cutoff=None, T=1.0):
    return NoiseSpec(sigma=inverse_cubic_sigma, n_cutoff=cutoff or k, K_modes=k,
                     T=T, N_fine=n)


def test_determinism():
    a = generate(_spec(), 42)
    b = generate(_spec(), 42)
    np.testing.assert_array_equal(a.increments, b.increments)
    c = generate(_spec(), 43)
    assert not np.array_equal(a.increments, c.increments)


def test_mode_extension_keeps_rows():
    small = generate(_spec(k=100, n=50), 7)
    big = generate(_spec(k=250, n=50), 7)
    np.testing.assert_array_equal(big.increments[:100], small.increments)


def test_increment_statistics():
    # >= 1e5 pooled entries: mean within 4 sigma, variance within 5%
    spec = _spec(k=200, n=1000)
    paths = generate(spec, 123)
    pooled = paths.increments.ravel()
    dt = spec.dt_fine
    assert pooled.size >= 100_000
    assert abs(pooled.mean()) < 4.0 * np.sqrt(dt / pooled.size)
    assert abs(pooled.var() / dt - 1.0) < 0.05


def test_increment_independence():
    # sample correlations between neighbouring entries (along time, along
    # modes) vanish at the 4/sqrt(n) level
    paths = generate(_spec(k=200, n=1000), 17)
    x = paths.increments
    n = x[:, :-1].size
    lag_t = np.mean(x[:, :-1] * x[:, 1:]) / x.var()
    lag_k = np.mean(x[:-1, :] * x[1:, :]) / x.var()
    assert abs(lag_t) < 4.0 / np.sqrt(n)
    assert abs(lag_k) < 4.0 / np.sqrt(n)


def test_normalized_increment():
    spec = _spec(k=4, n=8)
    paths = generate(spec, 5)
    v = normalized_increment(paths, 2, 3)
    assert np.isclose(v, paths.increments[2, 3] / np.sqrt(paths.dt))
    with pytest.raises(IndexError):
        normalized_increment(paths, 4, 0)
    with pytest.raises(IndexError):
        normalized_increment(paths, 0, 8)
    # pooled variance of the normalized entries is ~1
    big = generate(_spec(k=200, n=1000), 9)
    xi = big.increments / np.sqrt(big.dt)
    assert abs(xi.var() - 1.0) < 0.05


def test_coarsen_identity_and_totals():
    paths = generate(_spec(k=3, n=12), 1)
    same = coarsen(paths, 1)
    assert same.increments is paths.increments  # factor 1 is the identity
    total = coarsen(paths, 12)
    assert total.n_steps == 1
    np.testing.assert_allclose(total.increments[:, 0], paths.increments.sum(axis=1),
                               rtol=1e-15)


def test_coarsen_matches_ascending_partial_sums_exactly():
    paths = generate(_spec(k=5, n=24), 11)
    out = coarsen(paths, 6)
    for k in range(5):
        for j in range(4):
            acc = paths.increments[k, 6 * j]
            for i in range(1, 6):
                acc = acc + paths.increments[k, 6 * j + i]
            assert out.increments[k, j] == acc  # same addends, same order


def test_coarsen_composition():
    paths = generate(_spec(k=4, n=40), 3)
    two_step = coarsen(coarsen(paths, 2), 5)
    direct = coarsen(paths, 10)
    assert two_step.dt == direct.dt
    np.testing.assert_allclose(two_step.increments, direct.increments,
                               rtol=1e-14, atol=0.0)


def test_bridge_coupling_at_shared_nodes():
    # cumulative sums at coarse nodes agree between resolutions
    paths = generate(_spec(k=6, n=60), 21)
    coarse = coarsen(paths, 10)
    fine_cum = np.cumsum(paths.increments, axis=1)[:, 9::10]
    coarse_cum = np.cumsum(coarse.increments, axis=1)
    np.testing.assert_allclose(fine_cum, coarse_cum, rtol=1e-13, atol=1e-16)


@settings(max_examples=30, deadline=None)
@given(factor=st.sampled_from([1, 2, 3, 4, 6, 12]), seed=st.integers(0, 2**32))
def test_coarsen_variance_scaling(factor, seed):
    paths = generate(_spec(k=2, n=12), seed)
    coarse = coarsen(paths, factor)
    assert coarse.dt == pytest.approx(paths.dt * factor)
    assert coarse.n_steps == 12 // factor


def test_coarsen_divisibility_error():
    paths = generate(_spec(k=2, n=10), 0)
    with pytest.raises(DomainError):
        coarsen(paths, 3)


def test_spec_validation():
    with pytest.raises(DomainError):
        NoiseSpec(sigma=inverse_cubic_sigma, n_cutoff=5, K_modes=4, T=1.0, N_fine=10)
    with pytest.raises(DomainError):
        NoiseSpec(sigma=inverse_cubic_sigma, n_cutoff=1, K_modes=4, T=0.0, N_fine=10)
    with pytest.raises(DomainError):
        NoiseSpec(sigma=inverse_cubic_sigma, n_cutoff=1, K_modes=4, T=1.0, N_fine=0)


def test_resource_cap(monkeypatch):
    """A noise matrix above the entry cap is rejected when its spec is built,
    before `generate` could draw it."""
    monkeypatch.setattr(noise, "_DEFAULT_ENTRY_CAP", 10_000)
    with pytest.raises(DomainError, match="cap"):
        generate(_spec(k=1000, n=1000), 0)


def test_one_patch_of_the_cap_governs_every_cap(monkeypatch):
    """noise._DEFAULT_ENTRY_CAP bounds the noise matrix, the mode products,
    the dense mesh, the sample array and the stiffness series: at the cap
    each passes, one entry above it each is a DomainError naming the cap."""
    from fracwave import experiments, fem
    from fracwave.spectral import FracOrders

    monkeypatch.setattr(noise, "_DEFAULT_ENTRY_CAP", 100)

    def config(k_modes, h):
        return experiments.ExperimentConfig(m_traj=1, base_seed=0, n_fine=5, k_modes=k_modes,
                                            n_cutoff=k_modes, h_list=(h,))

    orders = [FracOrders(1.5, 0.75)] * 2
    at_cap = [lambda: _spec(k=10, n=10),
              lambda: config(10, 1 / 11).meshes(),
              lambda: fem.FemMesh(10),
              lambda: experiments._require_sweep("sweep", 50, orders, "grid", [1.0]),
              lambda: fem.fractional_stiffness(fem.FemMesh(3), 0.8, 100)]
    above = [lambda: _spec(k=10, n=11),
             lambda: config(11, 1 / 11).meshes(),
             lambda: fem.FemMesh(11),
             lambda: experiments._require_sweep("sweep", 51, orders, "grid", [1.0]),
             lambda: fem.fractional_stiffness(fem.FemMesh(3), 0.8, 101)]
    for ok, bad in zip(at_cap, above):
        ok()
        with pytest.raises(DomainError, match="cap of 100"):
            bad()


@pytest.mark.parametrize("step, span, n", [(0.1, 1.0, 10), (1 / 3, 1.0, 3), (0.25, 0.75, 3),
                                           (1.0, 1.0, 1), (0.01 * (1 + 5e-10), 1.0, 100)])
def test_step_count(step, span, n):
    assert noise._step_count("step", step, span) == n


@pytest.mark.parametrize("step, span", [(math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0),
                                        (-0.1, 1.0), (0.3, 1.0), (2.0, 1.0), (1e-320, 1.0),
                                        (0.01 * (1 + 2e-9), 1.0), (0.1, math.nan),
                                        (0.1, -1.0), (0.1, 0.0)])
def test_step_count_rejects(step, span):
    with pytest.raises(DomainError, match="^what: "):
        noise._step_count("what", step, span)


def test_sigma_matrix_truncation():
    spec = _spec(k=6, cutoff=3)
    mat = spec.sigma_matrix(np.array([0.0, 0.5]), truncated=True)
    assert mat.shape == (6, 1)  # time-independent: one column, not K x n
    np.testing.assert_allclose(mat[:3, 0], [1.0, 1 / 8, 1 / 27])
    assert (mat[3:] == 0.0).all()
    full = spec.sigma_matrix(np.array([0.0]), truncated=False)
    assert (full[3:, 0] > 0.0).all()


def _growing_sigma(k, t):
    return (1.0 + np.asarray(t, dtype=float)) / np.asarray(k, dtype=float) ** 2


@pytest.mark.parametrize("sigma", (inverse_cubic_sigma, _growing_sigma))
@pytest.mark.parametrize("cutoff", (40, 100))
@pytest.mark.parametrize("truncated", (True, False))
def test_sigma_matrix_equals_per_column_calls(sigma, cutoff, truncated):
    spec = NoiseSpec(sigma=sigma, n_cutoff=cutoff, K_modes=100, T=1.0, N_fine=50)
    times = 0.02 * np.arange(50)
    modes = np.arange(1, 101)
    want = np.stack([np.asarray(sigma(modes, float(t)), dtype=float) for t in times], axis=1)
    if truncated:
        want[cutoff:, :] = 0.0
    got = spec.sigma_matrix(times, truncated=truncated)
    if sigma is inverse_cubic_sigma:  # time-independent: one column, not K x n
        assert got.shape == (100, 1)
    assert np.array_equal(np.broadcast_to(got, want.shape), want)


def test_trajectory_seed_spread():
    seeds = {trajectory_seed(99, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert trajectory_seed(99, 0) != trajectory_seed(100, 0)
