"""The fast kernels reproduce their straightforward versions bit for bit."""

import numpy as np
import pytest

from fracwave import experiments, mittag_leffler
from fracwave.experiments import (
    ExperimentConfig,
    _modeling_samples_multi,
    _modeling_weights,
    modeling_error_samples,
)
from fracwave.fem import FemMesh, _alias_class_sums
from fracwave.mittag_leffler import _CHUNK, _contour_params, ml_values
from fracwave.noise import NoiseSpec, generate, inverse_cubic_sigma, trajectory_seed
from fracwave.spectral import FracOrders

from oracles import (
    alias_class_sums_scatter,
    contour_sum_unchunked,
    modeling_traj_unblocked,
    philox_increments,
)

MESH_SIZES = (1, 2, 9, 99, 400)
BETAS = (0.55, 0.75, 1.0)
BLOCK = 1 << 20


@pytest.mark.parametrize("n", MESH_SIZES)
@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("k_series", (1, 7))
def test_alias_class_sums_short_series(n, beta, k_series):
    got = _alias_class_sums(FemMesh(n), beta, k_series)
    want = alias_class_sums_scatter(n, beta, k_series)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


# Long series: every mesh size with every cutoff, cycling beta so that each
# (cutoff, beta) pair occurs too.  The cutoffs end inside the first, second
# and fourth 2^20-mode block; N = 1 is where a pairwise fold would differ.
@pytest.mark.parametrize("i, n", list(enumerate(MESH_SIZES)))
@pytest.mark.parametrize("j, k_series", list(enumerate((10**6, BLOCK + 12345, 3 * BLOCK + 1))))
def test_alias_class_sums_long_series(i, n, j, k_series):
    beta = BETAS[(i + j) % len(BETAS)]
    got = _alias_class_sums(FemMesh(n), beta, k_series)
    assert np.array_equal(got, alias_class_sums_scatter(n, beta, k_series))


@pytest.mark.parametrize("k_modes", (1, 1000))
@pytest.mark.parametrize("seed", (0, 12345, (1 << 64) - 1))
def test_generate_matches_fresh_philox_per_mode(k_modes, seed):
    spec = NoiseSpec(sigma=inverse_cubic_sigma, n_cutoff=k_modes, K_modes=k_modes,
                     T=1.0, N_fine=100)
    paths = generate(spec, seed)
    want = philox_increments(k_modes, spec.N_fine, spec.dt_fine, seed)
    assert np.array_equal(paths.increments, want)
    assert not paths.increments.flags.writeable


def _unchunked(alpha, beta, z, positive):
    r = np.abs(z) ** (1.0 / alpha)
    params = _contour_params(alpha, float(r.min()), float(r.max()), positive)
    return contour_sum_unchunked(alpha, beta, z, positive, params)


def _mixed_sign_arguments(alpha, rng):
    """Shuffled z of both signs: two contour buckets of 3 chunks and a partial
    one each, plus a spread over the other buckets (positive z kept where
    e^r is finite)."""
    n_big = 3 * _CHUNK + 17
    neg_r = np.concatenate([rng.uniform(8.0, 16.0, n_big), np.geomspace(1.01, 3.0e3, 250)])
    pos_r = np.concatenate([rng.uniform(2.0, 4.0, n_big), np.geomspace(1.01, 300.0, 250)])
    return rng.permutation(np.concatenate([-neg_r**alpha, pos_r**alpha]))


@pytest.mark.parametrize("alpha", (1.1, 1.5, 1.75))
def test_contour_sum_matches_unchunked(alpha, monkeypatch):
    rng = np.random.default_rng(7)
    z = _mixed_sign_arguments(alpha, rng)
    assert (z < -1).sum() > 3 * _CHUNK and (z > 1).sum() > 3 * _CHUNK
    for beta in (1.0, 2.0, alpha, alpha + 1.0):
        fast = ml_values(alpha, beta, z)
        monkeypatch.setattr(mittag_leffler, "_contour_values", _unchunked)
        slow = ml_values(alpha, beta, z)
        monkeypatch.undo()
        assert np.isfinite(fast).all()
        assert np.array_equal(fast, slow)



# Modeling-error trajectories.  K = 37 is below one 64-mode block, 64 is
# exactly one block and 100 ends in a partial block; n_fine = 200 makes the
# fine row sums longer than numpy's 128-term pairwise leaf, and the coarse
# factors 40, 20, 8, 5, 1 include the uncoarsened grid.
ALPHAS = (1.25, 1.5, 1.95)


def _modeling_cfg(k_modes, n_cutoff, seed):
    return ExperimentConfig(orders=FracOrders(1.5, 0.75), m_traj=3, base_seed=seed,
                            n_fine=200, k_modes=k_modes, n_cutoff=n_cutoff,
                            dt_list=(1 / 5, 1 / 10, 1 / 25, 1 / 40, 1 / 200), h_list=())


def _unblocked(l):
    ctx = experiments._CTX
    return modeling_traj_unblocked(ctx, trajectory_seed(ctx["base_seed"], l))


@pytest.mark.parametrize("k_modes, n_cutoff", [(37, 37), (64, 64), (100, 100), (100, 57)])
@pytest.mark.parametrize("rule", ("exact", "left"))
@pytest.mark.parametrize("seed", (1, (1 << 64) - 1))
def test_modeling_traj_matches_unblocked(k_modes, n_cutoff, rule, seed, monkeypatch):
    cfg = _modeling_cfg(k_modes, n_cutoff, seed)
    single = modeling_error_samples(cfg, rule=rule)
    multi = _modeling_samples_multi(cfg, ALPHAS, rule, 1)
    monkeypatch.setattr(experiments, "_modeling_traj", _unblocked)
    assert np.array_equal(single, modeling_error_samples(cfg, rule=rule))
    assert np.array_equal(multi, _modeling_samples_multi(cfg, ALPHAS, rule, 1))
    assert (multi[:, :, 0] > 0.0).all()  # not trivially equal


def test_modeling_weights_independent_of_workers():
    cfg = _modeling_cfg(100, 57, 1)
    serial = _modeling_weights(cfg, ALPHAS, "exact", 1)
    pooled = _modeling_weights(cfg, ALPHAS, "exact", 2)
    for w1, w2 in zip(serial[0], pooled[0]):
        assert np.array_equal(w1, w2)
    for per_dt1, per_dt2 in zip(serial[1], pooled[1]):
        assert len(per_dt1) == len(per_dt2) == len(cfg.dt_list)
        for w1, w2 in zip(per_dt1, per_dt2):
            assert np.array_equal(w1, w2)
