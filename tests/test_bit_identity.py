"""The fast kernels reproduce their straightforward versions bit for bit.

Table 1's batched kernel is the exception: it forms the errors in a
different, more accurate order, so it is gated against a long-double oracle
and, to a stated tolerance, against the library solvers.
"""

import numpy as np
import pytest

from fracwave import mittag_leffler
from fracwave.experiments import (ExperimentConfig, _modeling_weights, fem_error_samples,
                                  modeling_error_samples)
from fracwave.fem import (_ALIAS_BLOCK, FemMesh, _alias_class_sums, discrete_spectrum,
                          fem_solution, l2_error_cross, sine_products)
from fracwave.mittag_leffler import (
    _BLOCK,
    _PW_LEAF,
    _contour_params,
    _contour_values,
    _pairwise_node_sum,
    kernel_weights,
    ml_values,
)
from fracwave.noise import NoiseSpec, coarsen, generate, inverse_cubic_sigma, trajectory_seed
from fracwave.spectral import (FracOrders, convolution_weights, fractional_eigenvalues,
                               homogeneous_solution, parabola_coeffs, ramp_coeffs,
                               reference_solution, stochastic_convolution)

from oracles import (
    LONGDOUBLE_EXTENDED,
    alias_class_sums_scatter,
    contour_sum_unchunked,
    contour_values_chunked,
    ml_values_bucketed,
    modeling_oracle,
    philox_increments,
)

MESH_SIZES = (1, 2, 9, 99, 400)
BETAS = (0.55, 0.75, 1.0)


@pytest.mark.parametrize("n", MESH_SIZES)
@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("k_series", (1, 7, "2P-1", "2P", "2P+1"))
def test_alias_class_sums_short_series(n, beta, k_series):
    """Cutoffs 2P - 1, 2P and 2P + 1 end on either side of the first period,
    k = 2P, of the P = N + 1 classes."""
    period = 2 * (n + 1)
    k_series = {"2P-1": period - 1, "2P": period, "2P+1": period + 1}.get(k_series, k_series)
    got = _alias_class_sums(FemMesh(n), beta, k_series)
    want = alias_class_sums_scatter(n, beta, k_series)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


# Long series: every mesh size with every cutoff, cycling beta so that each
# (cutoff, beta) pair occurs too.  The cutoffs end inside the first, second
# and fourth 2^20 modes, which `_alias_class_sums` sums in 16, 17 and 49
# blocks of periods at every mesh size; N = 1 is where a pairwise fold would
# differ.
LONG_CUTOFFS = (10**6, (1 << 20) + 12345, 3 * (1 << 20) + 1)


@pytest.mark.parametrize("i, n", list(enumerate(MESH_SIZES)))
@pytest.mark.parametrize("j, k_series", list(enumerate(LONG_CUTOFFS)))
def test_alias_class_sums_long_series(i, n, j, k_series):
    assert max(LONG_CUTOFFS) > 16 * _ALIAS_BLOCK
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


def _random_coefficients(rng, n):
    """Node columns (ar, ai^2, wi, wr*ai) of both signs over six decades, so
    that the order of the additions shows in the last bits."""
    def col(lo, hi, signed=True):
        mag = 10.0 ** rng.uniform(lo, hi, (n, 1))
        return mag * rng.choice((-1.0, 1.0), (n, 1)) if signed else mag
    return col(-3, 3), col(-2, 2, signed=False), col(-3, 3), col(-3, 3)


def test_pairwise_node_sum_matches_row_sum():
    rng = np.random.default_rng(11)
    z = -np.geomspace(1.5, 1e4, 37)
    d, q, acc = (np.empty((8, z.size)) for _ in range(3))
    order_sensitive = 0
    for n in [*range(1, 301), 4 * _PW_LEAF + 265]:
        coef = _random_coefficients(rng, n)
        ar, ai2, wi, wr_ai = (c[:, 0] for c in coef)
        dr = ar - z[:, None]
        terms = (dr * wi - wr_ai) / (dr * dr + ai2)
        want = terms.sum(axis=1)
        got = _pairwise_node_sum(coef, 0, n, z, d, q, acc)
        assert np.array_equal(got, want), n
        order_sensitive += not np.array_equal(np.cumsum(terms, axis=1)[:, -1], want)
    assert order_sensitive > 100  # a left-to-right sum would fail most counts


def _mixed_sign_arguments(alpha, rng):
    """Shuffled z of both signs: one contour bucket per side of 3 blocks and
    a partial one, a dense spread over the other buckets (positive z kept
    where e^r is finite), and r within a few ulps of the bucket edges 2^k."""
    n_big = 3 * _BLOCK + 17
    edges = (np.ldexp(1.0, np.arange(1, 9))[:, None] * (1.0 + 2.0**-52 * np.arange(-4, 5))).ravel()
    neg_r = np.concatenate([rng.uniform(8.0, 16.0, n_big), np.geomspace(1.01, 3.0e3, 2000), edges])
    pos_r = np.concatenate([rng.uniform(2.0, 4.0, n_big), np.geomspace(1.01, 300.0, 250), edges])
    return rng.permutation(np.concatenate([-neg_r**alpha, pos_r**alpha]))


def _negative_residue_sides(alpha, beta, z, values):
    """(skippable, needed): counts of residue-bucket z < 0 whose residue is
    below |E| 2^-56 and whose residue is above spacing(|E|)."""
    r = np.abs(z) ** (1.0 / alpha)
    neg = z < -1.0
    skippable = needed = 0
    for b in np.unique(np.floor(np.log2(r[neg]))):
        sel = neg & (np.floor(np.log2(r)) == b)
        if not _contour_params(alpha, r[sel].min(), r[sel].max(), False)[3]:
            continue
        pole = r[sel] * np.exp(1j * np.pi / alpha)
        res = np.abs((2.0 / alpha) * (pole ** (1.0 - beta) * np.exp(pole)).real)
        skippable += (res < np.abs(values[sel]) * 2.0**-56).sum()
        needed += (res > np.spacing(np.abs(values[sel]))).sum()
    return skippable, needed


@pytest.mark.parametrize("alpha", (1.1, 1.5, 1.75, 1.95))
def test_contour_sum_matches_unchunked(alpha):
    """`_contour_values` on every bucket, those ml_values now sends to the
    asymptotic series included, against both contour oracles; and ml_values
    against the bucketed oracle."""
    rng = np.random.default_rng(7)
    z = _mixed_sign_arguments(alpha, rng)
    assert (z < -1).sum() > 3 * _BLOCK and (z > 1).sum() > 3 * _BLOCK
    r = np.abs(z) ** (1.0 / alpha)
    buckets = [(positive, sel) for positive, side in ((False, z < -1), (True, z > 1))
               for b in np.unique(np.floor(np.log2(r[side])))
               for sel in [side & (np.floor(np.log2(r)) == b)]]
    assert r[z < -1].max() > 2**11  # reaches the asymptotic buckets
    nodes = {_contour_params(alpha, r[sel].min(), r[sel].max(), positive)[2] + 1
             for positive, sel in buckets}
    assert min(nodes) <= _PW_LEAF < max(nodes)  # pairwise leaf and split both run
    for beta in (1.0, 2.0, alpha, alpha + 1.0):
        fast = ml_values(alpha, beta, z)
        assert np.isfinite(fast).all()
        assert np.array_equal(fast, ml_values_bucketed(alpha, beta, z))
        assert np.array_equal(fast, ml_values_bucketed(alpha, beta, z, contour=_unchunked))
        contour = np.full_like(z, np.nan)
        for positive, sel in buckets:
            contour[sel] = _contour_values(alpha, beta, z[sel], r[sel], positive,
                                           r[sel].min(), r[sel].max())
            assert np.array_equal(contour[sel], contour_values_chunked(alpha, beta, z[sel], positive))
            assert np.array_equal(contour[sel], _unchunked(alpha, beta, z[sel], positive))
        assert np.isfinite(contour[np.abs(z) > 1]).all()
        skippable, needed = _negative_residue_sides(alpha, beta, z, contour)
        assert skippable > 0 and needed > 0


# Routing by key, in chunks of _BLOCK.  Every value must keep the bits it
# had when each bucket was gathered whole; the oracle gathers it whole.
ROUTING_SIZES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5)
ROUTING_ORDERS = ((0.9, 1.0), (1.5, 1.5), (1.75, 2.75), (1.1, 2.1))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _routing_arguments(alpha, n, rng):
    """n shuffled z from every route: |z| <= 1, both signs over many buckets,
    r up to 2^11 on the negative side."""
    r = 2.0 ** rng.uniform(-3.0, 11.0 if alpha > 1.0 else 6.0, n)
    sign = np.where(rng.random(n) < 0.8, -1.0, 1.0)
    r[sign > 0] = np.minimum(r[sign > 0], 300.0)  # e^r stays finite
    return sign * r**alpha


@pytest.mark.parametrize("n", ROUTING_SIZES)
@pytest.mark.parametrize("alpha, beta", ROUTING_ORDERS)
def test_routing_matches_bucketed_oracle(alpha, beta, n):
    z = _routing_arguments(alpha, n, np.random.default_rng(n))
    assert _same_bits(ml_values(alpha, beta, z), ml_values_bucketed(alpha, beta, z))


def test_routing_keeps_a_grid_shape():
    lam = fractional_eigenvalues(0.75, 300)
    tau = np.linspace(1.0, 0.0, 200)
    for alpha, beta in ROUTING_ORDERS:
        z = -np.outer(lam, tau**alpha)
        got = ml_values(alpha, beta, z)
        assert _same_bits(got, ml_values_bucketed(alpha, beta, z.ravel()).reshape(z.shape))


@pytest.mark.parametrize("alpha, beta, positive, r_lo, r_hi",
                         [(1.5, 1.0, False, 4.0, 8.0), (1.5, 1.5, False, 1.0, 2.0),
                          (1.75, 2.75, True, 2.0, 4.0)])
def test_contour_bucket_across_chunks_keeps_its_contour(alpha, beta, positive, r_lo, r_hi):
    """A contour bucket of 2.5 chunks, in increasing r and interleaved with
    other arguments: each of its chunks takes the contour of the whole
    bucket, which the chunk's own (r_lo, r_hi) would not give."""
    n = 5 * _BLOCK // 2
    r = np.linspace(r_lo, r_hi, n, endpoint=False)
    bucket = (1.0 if positive else -1.0) * r**alpha
    others = _routing_arguments(alpha, n, np.random.default_rng(5))
    z = np.empty(2 * n)
    z[0::2], z[1::2] = bucket, others
    r = np.abs(bucket) ** (1.0 / alpha)
    whole = _contour_params(alpha, r.min(), r.max(), positive)
    chunk_params = [_contour_params(alpha, c.min(), c.max(), positive)
                    for c in (r[lo : lo + _BLOCK] for lo in range(0, n, _BLOCK))]
    assert any(p != whole for p in chunk_params)
    assert _same_bits(ml_values(alpha, beta, z), ml_values_bucketed(alpha, beta, z))


@pytest.mark.parametrize("alpha, beta", ((1.5, 1.5), (0.9, 1.0), (2.0, 1.5), (1.0, 1.0),
                                         (1.0, 2.0), (2.0, 1.0), (2.0, 4.0)))
def test_routing_edges_of_the_series_disc(alpha, beta):
    """|z| = 1 takes the series, -1 - ulp and 1 + ulp do not; +0 and -0 keep
    their sign bit's value."""
    one_ulp = np.nextafter(1.0, 2.0)
    z = np.array([1.0, -1.0, 0.0, -0.0, -one_ulp, one_ulp, np.nextafter(-1.0, 0.0)])
    assert _same_bits(ml_values(alpha, beta, z), ml_values_bucketed(alpha, beta, z))
    for x in z:
        assert _same_bits(ml_values(alpha, beta, x), ml_values_bucketed(alpha, beta, [x]))


@pytest.mark.parametrize("beta", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
@pytest.mark.parametrize("n", (_BLOCK + 1, 3 * _BLOCK + 5))
def test_chunked_elementary_paths(beta, n):
    """alpha = 2 with integer beta, and alpha = 1 with beta 1 and 2, run in
    chunks; the oracle takes each closed form on the whole array."""
    rng = np.random.default_rng(n)
    z = rng.uniform(-1.0, 1.0, n)
    big = np.arange(n) % 3 != 0
    z[big] = rng.uniform(-900.0, 400.0, big.sum())
    z[::101] = 0.0
    assert _same_bits(ml_values(2.0, beta, z), ml_values_bucketed(2.0, beta, z))
    if beta <= 2.0:
        assert _same_bits(ml_values(1.0, beta, z), ml_values_bucketed(1.0, beta, z))


@pytest.mark.parametrize("alpha, beta, r_lo, r_hi, r_low", [(1.5, 1.0, 256.0, 512.0, 4.0),
                                                            (1.1, 1.1, 56.0, 64.0, 32.0)])
def test_high_radius_bucket_skips_its_residue_chunks(alpha, beta, r_lo, r_hi, r_low):
    """A high-radius bucket, whose residues are all below 2^-56 of its values
    and are skipped, on the asymptotic series (alpha = 1.5, r >= 256) and on
    the contour (alpha = 1.1, r in [56, 64)), has the values of the bucketed
    oracle, whose contour adds every residue.  So has a low-radius bucket,
    whose residues count."""
    n = 3 * _BLOCK + 5
    z = -np.random.default_rng(2).uniform(r_lo, r_hi, n) ** alpha
    assert _same_bits(ml_values(alpha, beta, z), ml_values_bucketed(alpha, beta, z))
    low = -np.random.default_rng(3).uniform(r_low, 1.25 * r_low, n) ** alpha
    assert _same_bits(ml_values(alpha, beta, low), ml_values_bucketed(alpha, beta, low))


@pytest.mark.parametrize("alpha, beta, k", [(1.1, 1.1, 9), (1.5, 0.5, 10), (1.95, 1.0, 14)])
def test_zero_quadrature_keeps_negligible_residue(alpha, beta, k, monkeypatch):
    """Where the quadrature sum is 0 the residue is added however small: the
    bucket [2^k, 2^(k+1)) takes residues from far below |E| 2^-56 down to
    subnormals and 0."""
    r = np.linspace(2.0**k, 2.0 ** (k + 1), 4097)[:-1]
    z = -(r**alpha)
    pole = r * np.exp(1j * np.pi / alpha)
    want = 0.0 + (2.0 / alpha) * (pole ** (1.0 - beta) * np.exp(pole)).real
    assert (want == 0.0).any() and (want != 0.0).any()
    assert (np.abs(want[want != 0.0]) < np.finfo(float).tiny).any()
    monkeypatch.setattr(mittag_leffler, "_pairwise_node_sum",
                        lambda coef, lo, n, zb, *scratch: np.zeros(zb.size))
    assert np.array_equal(_contour_values(alpha, beta, z, r, False, r.min(), r.max()), want)


def test_all_negative_zero_terms_sum_to_positive_zero(monkeypatch):
    """numpy's row sum starts from 0.0, so node terms that are all -0.0 give +0.0."""
    alpha, beta = 0.8, 1.0  # no residues on the negative axis
    z = -np.geomspace(1.5, 1.9, 20)
    r = np.abs(z) ** (1.0 / alpha)
    n = _contour_params(alpha, r.min(), r.max(), False)[2] + 1
    zeros = np.zeros((n, 1))
    monkeypatch.setattr(mittag_leffler, "_node_coefficients",
                        lambda *a: (np.full((n, 1), -1e6), zeros + 1.0, zeros, zeros))
    dr = -1e6 - z[:, None]
    assert np.signbit(dr * 0.0 - 0.0).all()  # every term is -0.0
    out = _contour_values(alpha, beta, z, r, False, r.min(), r.max())
    assert (out == 0.0).all() and not np.signbit(out).any()


def test_modeling_weights_match_bucketed_oracle(monkeypatch):
    cfg = _modeling_cfg(200, 200, 1)
    fast = _modeling_weights(cfg, ORDERS, "exact", 1)
    calls = []
    # kernel_weights passes its 2-D grid; the oracle takes flat arguments
    monkeypatch.setattr(mittag_leffler, "ml_values", lambda a, b, z: calls.append(a)
                        or ml_values_bucketed(a, b, z.ravel()).reshape(z.shape))
    slow = _modeling_weights(cfg, ORDERS, "exact", 1)
    assert len(calls) == len(ORDERS) * (1 + len(cfg.dt_list))
    for w1, w2 in zip(fast[0], slow[0]):
        assert np.array_equal(w1, w2)
    for per_dt1, per_dt2 in zip(fast[1], slow[1]):
        for w1, w2 in zip(per_dt1, per_dt2):
            assert np.array_equal(w1, w2)


# Modeling-error weights and trajectories.  At 3 trajectories and 5 steps,
# K = 37, 64 and 100 run in blocks of 7, 12 and 16 modes, each ending in a
# partial block, and n_cutoff = 57 zeroes the coarse weights of the top
# modes; n_fine = 200 makes the dot products longer than numpy's 128-term
# pairwise leaf, and the coarse factors 40, 20, 8, 5, 1 include the
# uncoarsened grid.
ORDERS = [FracOrders(alpha, 0.75) for alpha in (1.1, 1.25, 1.5, 1.75, 1.95, 2.0)]


def _modeling_cfg(k_modes, n_cutoff, seed, n_fine=200):
    return ExperimentConfig(m_traj=3, base_seed=seed,
                            n_fine=n_fine, k_modes=k_modes, n_cutoff=n_cutoff,
                            dt_list=(1 / 5, 1 / 10, 1 / 25, 1 / 40, 1 / 200), h_list=())


def _assert_matches_longdouble(cfg, rule):
    """Every squared error within 1e-13 relative of the long-double oracle.

    The cancelling form of the kernel this replaced, (hom + W_ref x) - (hom
    + W_coarse sum x), misses this gate: 9.6e-13 relative on squared errors
    at the paper's shapes, and up to 1.6e-12 on the cases of the two tests
    below.
    """
    samples = modeling_error_samples(cfg, ORDERS, rule, 1)
    oracle, _ = modeling_oracle(cfg, ORDERS, rule)
    assert samples.shape == oracle.shape
    gap = np.abs(samples.astype(np.longdouble) - oracle)
    assert (gap <= 1e-13 * oracle).all(), float((gap / np.where(oracle > 0, oracle, 1)).max())
    assert (samples[:, :, 0] > 0.0).all()  # not trivially equal


needs_wide_longdouble = pytest.mark.skipif(
    not LONGDOUBLE_EXTENDED, reason="np.longdouble is float64 here: the oracle gates nothing")


@needs_wide_longdouble
@pytest.mark.parametrize("k_modes, n_cutoff", [(37, 37), (64, 64), (100, 100), (100, 57)])
@pytest.mark.parametrize("rule", ("exact", "left"))
@pytest.mark.parametrize("seed", (1, 5, (1 << 64) - 1))
def test_modeling_traj_matches_unblocked(k_modes, n_cutoff, rule, seed):
    """The batched kernel against the whole-matrix sums in long double."""
    _assert_matches_longdouble(_modeling_cfg(k_modes, n_cutoff, seed), rule)


@needs_wide_longdouble
@pytest.mark.parametrize("rule", ("exact", "left"))
@pytest.mark.parametrize("seed", (1, 5, (1 << 64) - 1))
def test_modeling_traj_matches_unblocked_at_1000_steps(rule, seed):
    _assert_matches_longdouble(_modeling_cfg(128, 100, seed, n_fine=1000), rule)


def test_modeling_weights_independent_of_workers():
    cfg = _modeling_cfg(100, 57, 1)
    serial = _modeling_weights(cfg, ORDERS, "exact", 1)
    pooled = _modeling_weights(cfg, ORDERS, "exact", 2)
    for w1, w2 in zip(serial[0], pooled[0]):
        assert np.array_equal(w1, w2)
    for per_dt1, per_dt2 in zip(serial[1], pooled[1]):
        assert len(per_dt1) == len(per_dt2) == len(cfg.dt_list)
        for w1, w2 in zip(per_dt1, per_dt2):
            assert np.array_equal(w1, w2)


@pytest.mark.parametrize("rule", ("exact", "left"))
def test_convolution_weights_rounding_order(rule):
    """sigma * (kernel differences) / dt and sigma * kernel, rounded in that
    order: the FEM side shares this code with sigma = 1.0, and sigma *
    (differences / dt) would move table 1's bits."""
    spec = NoiseSpec(sigma=inverse_cubic_sigma, n_cutoff=40, K_modes=64, T=1.0, N_fine=200)
    dt, n = 1 / 40, 40
    lam = fractional_eigenvalues(0.75, 64)
    sig = spec.sigma_matrix(dt * np.arange(n), truncated=True)
    if rule == "exact":
        tau = 1.0 - dt * np.arange(n + 1)
        tau[-1] = 0.0
        prim = kernel_weights(1.5, "impulse_primitive", lam, tau)
        want = sig * (prim[:, :-1] - prim[:, 1:]) / dt
    else:
        want = sig * kernel_weights(1.5, "impulse", lam, 1.0 - dt * np.arange(n))
    got = convolution_weights(FracOrders(1.5, 0.75), spec, dt, n, rule=rule)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k_modes, n_cutoff, n_fine", [(64, 64, 200), (128, 100, 1000)])
@pytest.mark.parametrize("rule", ("exact", "left"))
def test_modeling_samples_equal_library_solvers(k_modes, n_cutoff, n_fine, rule):
    """The modeling-error sampler against `reference_solution` -
    (`homogeneous_solution` + `stochastic_convolution`) on the same noise,
    to 1e-12 relative, the benchmark's pin on table 1.

    Equality no longer holds: the library forms both solutions, homogeneous
    part included, and subtracts them, and the rounding of that cancelling
    difference reaches 1e-12 relative at the paper's shapes against the
    long-double oracle.  The sampler applies the weight difference to the
    noise and never forms the solutions.
    """
    alphas = (1.1, 1.25, 1.5, 1.75, 2.0)
    cfg = ExperimentConfig(m_traj=2, base_seed=5,
                           n_fine=n_fine, k_modes=k_modes, n_cutoff=n_cutoff,
                           dt_list=(1 / 10, 1 / 20, 1 / 40), h_list=())
    samples = modeling_error_samples(cfg, [FracOrders(alpha, 0.75) for alpha in alphas], rule, 1)
    spec = cfg.noise_spec()
    v1, v2 = parabola_coeffs(k_modes), ramp_coeffs(k_modes)
    for l in range(cfg.m_traj):
        paths = generate(spec, trajectory_seed(cfg.base_seed, l))
        for a, alpha in enumerate(alphas):
            orders = FracOrders(alpha, 0.75)
            ref = reference_solution(orders, v1, v2, spec, paths, cfg.T)
            hom = homogeneous_solution(orders, v1, v2, cfg.T)
            for j, dt in enumerate(cfg.dt_list):
                steps, factor = cfg.coarse_steps(dt)
                conv = stochastic_convolution(orders, spec, coarsen(paths, factor), steps,
                                              rule=rule, truncated=True)
                diff = ref - (hom + conv)
                assert samples[l, a, j] == pytest.approx(np.dot(diff, diff), rel=1e-12, abs=0.0)
    assert (samples > 0.0).all()


# The Galerkin sampler against the library solvers: it must give the bits of
# `homogeneous_solution`, `stochastic_convolution`, `fem_solution` and
# `l2_error_cross` applied to the same noise, trajectory by trajectory.

def test_fem_samples_equal_library_solvers():
    orders = FracOrders(1.5, 0.8)
    cfg = ExperimentConfig(m_traj=12, base_seed=11,
                           n_fine=50, k_modes=128, n_cutoff=128,
                           dt_list=(1 / 50,), h_list=(1 / 5, 1 / 10, 1 / 20))
    errors = np.sqrt(fem_error_samples(cfg, [orders])[:, 0, :])
    spec = cfg.noise_spec()
    v1, v2 = parabola_coeffs(cfg.k_modes), ramp_coeffs(cfg.k_modes)
    steps, factor = cfg.coarse_steps(cfg.dt_list[0])
    spectra = [discrete_spectrum(FemMesh(round(1.0 / h) - 1), 0.8)
               for h in cfg.h_list]
    for l in range(cfg.m_traj):
        paths = coarsen(generate(spec, trajectory_seed(cfg.base_seed, l)), factor)
        u = (homogeneous_solution(orders, v1, v2, cfg.T)
             + stochastic_convolution(orders, spec, paths, steps, truncated=True))
        for j, spectrum in enumerate(spectra):
            p = sine_products(spectrum, cfg.k_modes)
            uh = fem_solution(orders, spectrum, np.einsum("k,kj->j", v1, p),
                              np.einsum("k,kj->j", v2, p), spec, paths, cfg.T)
            assert l2_error_cross(u, uh, spectrum) == errors[l, j]
    assert (errors > 0.0).all()
