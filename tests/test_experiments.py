import functools
import math
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from fracwave import experiments, fem
from fracwave.errors import DomainError
from fracwave.experiments import (
    ExperimentConfig,
    _pool_map,
    compute_rates,
    fem_error_samples,
    fem_error_tables,
    modeling_error_samples,
    modeling_error_tables,
    stability_report,
    write_rate_table,
)
from fracwave.noise import NoiseSpec, generate, inverse_cubic_sigma, trajectory_seed
from fracwave.spectral import FracOrders, convolution_weights

from oracles import LONGDOUBLE_EXTENDED, modeling_oracle


ORDERS = FracOrders(1.5, 0.75)


def _cfg(**kw):
    base = dict(m_traj=6, base_seed=7,
                n_fine=200, k_modes=64, n_cutoff=64,
                dt_list=(1 / 10, 1 / 20, 1 / 40), h_list=())
    base.update(kw)
    return ExperimentConfig(**base)


def test_compute_rates_examples():
    np.testing.assert_allclose(compute_rates([4.0, 1.0], [2.0, 1.0]), [2.0])
    np.testing.assert_allclose(compute_rates([1.0, 1.0], [2.0, 1.0]), [0.0])
    rate = compute_rates([1.2567e-2, 7.6842e-3], [1 / 25, 1 / 50])[0]
    assert abs(rate - 0.7097) < 2e-4
    with pytest.raises(DomainError):
        compute_rates([1.0, 0.0], [2.0, 1.0])
    with pytest.raises(DomainError):
        compute_rates([1.0], [1.0])


def test_config_validation():
    with pytest.raises(DomainError):
        _cfg(m_traj=0)
    with pytest.raises(DomainError):
        _cfg(dt_list=(1 / 3,))  # does not nest in the 200-step fine grid
    with pytest.raises(DomainError):
        _cfg(n_cutoff=100, k_modes=64)
    with pytest.raises(DomainError):
        _cfg(h_list=(0.3,))


@pytest.mark.parametrize("kw", [dict(dt_list=(0.0,)), dict(dt_list=(-0.1,)),
                                dict(dt_list=(math.nan,)), dict(dt_list=(math.inf,)),
                                dict(dt_list=(1e-320,)), dict(h_list=(0.0,)),
                                dict(h_list=(math.nan,)), dict(h_list=(1e-300,)),
                                dict(k_modes=1 << 20, n_cutoff=64, n_fine=200),
                                dict(dt_list=(0.1, 0.1, 0.05)), dict(h_list=(0.25, 0.25))])
def test_config_rejects_bad_grids(kw):
    with pytest.raises(DomainError):
        _cfg(**kw)


def test_config_bounds_dense_mesh_matrices(monkeypatch):
    """A mesh whose N x N matrices exceed the entry cap is rejected by the
    config and by `FemMesh`, before any matrix exists."""
    monkeypatch.setattr(fem, "_DEFAULT_ENTRY_CAP", 400)
    assert _cfg(h_list=(1 / 21,)).meshes()[0].n_interior == 20
    with pytest.raises(DomainError):
        _cfg(h_list=(1 / 21, 1 / 22))
    with pytest.raises(DomainError):
        fem.FemMesh(21)


@pytest.mark.parametrize("samples, kw, orders", [
    (modeling_error_samples, {}, []),
    (fem_error_samples, dict(dt_list=(1 / 10,), h_list=(1 / 5, 1 / 10)), []),
    (modeling_error_samples, dict(dt_list=()), [ORDERS]),
    (fem_error_samples, dict(dt_list=(1 / 10,), h_list=()), [ORDERS]),
], ids=["modeling_error_samples-kw0", "fem_error_samples-kw1", "modeling_error_samples-kw2",
        "fem_error_samples-kw3"])
def test_empty_sweep_rejected_before_any_work(samples, kw, orders, monkeypatch):
    """An empty list of orders, or of the sampler's time steps or mesh
    widths, is a DomainError, raised before any pool, weight grid or FEM
    spectrum."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work started for an empty sweep")

    for name in ("_pool_map", "convolution_weights", "discrete_spectrum", "sine_products",
                 "homogeneous_solution", "_modeling_weights"):
        monkeypatch.setattr(experiments, name, forbidden)
    with pytest.raises(DomainError, match="empty"):
        samples(_cfg(**kw), orders)


def test_modeling_error_monotone_and_positive():
    tab = modeling_error_tables(_cfg(m_traj=16), [ORDERS])[0]
    assert (tab.errors > 0.0).all()
    assert (np.diff(tab.errors) < 0.0).all()
    assert np.isnan(tab.rates[0]) and np.isfinite(tab.rates[1:]).all()
    assert (tab.stderrs > 0.0).all()


def test_modeling_error_reproducible_and_worker_invariant():
    cfg = _cfg()
    s_a = modeling_error_samples(cfg, [ORDERS])
    s_b = modeling_error_samples(cfg, [ORDERS])
    np.testing.assert_array_equal(s_a, s_b)
    s_c = modeling_error_samples(cfg, [ORDERS], n_workers=3)
    np.testing.assert_array_equal(s_a, s_c)


class _RecordingContext:
    """Stands in for a multiprocessing context: its Pool records the worker
    count and the callable handed to the initializer when it starts, runs
    the initializer, and maps in this process, keeping each map's results."""

    def __init__(self, calls, results=None):
        self.calls = calls
        self.results = [] if results is None else results

    def Pool(self, processes, initializer, initargs):
        self.calls.append((processes, initargs[0]))
        initializer(*initargs)
        results = self.results

        class _Pool:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                results.append([fn(x) for x in items])
                return results[-1]

        return _Pool()


def test_pool_map_caps_workers_without_starting_processes(monkeypatch):
    calls, results = [], []
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: _RecordingContext(calls, results))
    monkeypatch.setattr(experiments, "_worker_fn", None)
    assert _pool_map(abs, range(3), 10**5) == [0, 1, 2]
    cap = min(3, experiments._cores())
    assert calls == ([(cap, abs)] if cap > 1 else [])

    calls.clear()
    monkeypatch.setattr(experiments, "_cores", lambda: 64)
    assert _pool_map(abs, range(-3, 0), 10**5) == [3, 2, 1]
    assert _pool_map(abs, range(5), 0) == list(range(5))
    assert _pool_map(abs, range(5), -4) == list(range(5))
    assert calls == [(3, abs)]
    monkeypatch.setattr(experiments, "_cores", lambda: 2)
    _pool_map(abs, range(5), 10**5)
    assert calls[-1] == (2, abs)

    # table 1: one pool per run, of min(n_workers, cores, largest phase)
    # workers; its grid tasks write the shared grids and return None, and
    # its batch tasks return the errors, equal to a serial run's
    monkeypatch.setattr(experiments, "_cores", lambda: 64)
    n_grids = 1 + 3  # the fine grid and the three coarse grids of _cfg
    for m_traj, n_workers, size in ((1, 10**5, n_grids), (6 * 32, 10**5, 6), (6 * 32, 3, 3)):
        calls.clear()
        results.clear()
        cfg = _cfg(m_traj=m_traj)
        samples = modeling_error_samples(cfg, [ORDERS], n_workers=n_workers)
        assert len(calls) == 1 and calls[0][0] == size
        grids, batches = results
        assert grids == [None] * n_grids
        assert [b.shape for b in batches] == [(min(32, m_traj), 1, 3)] * -(-m_traj // 32)
        calls.clear()
        np.testing.assert_array_equal(samples, modeling_error_samples(cfg, [ORDERS]))
        assert calls == []


def test_cores_counts_the_cpu_affinity(monkeypatch):
    """A process confined to one CPU of 64 runs its work in-process."""
    calls = []
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: _RecordingContext(calls))
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert experiments._cores() == 1
    assert _pool_map(abs, range(-5, 0), 10**5) == [5, 4, 3, 2, 1]
    assert calls == []
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform without affinity
    assert experiments._cores() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert experiments._cores() == 1


class _Unpicklable:
    def __init__(self, offset):
        self.offset = offset

    def __reduce__(self):
        raise TypeError("this object must not be pickled")


def _shifted(holder, x):
    return x + holder.offset, os.getpid()


def test_pool_map_fork_workers_inherit_the_callable(monkeypatch):
    """Two real fork workers run a callable bound to an object that cannot
    be pickled: the callable reaches them by inheritance, not by pickle."""
    monkeypatch.setattr(experiments, "_cores", lambda: 2)
    fn = functools.partial(_shifted, _Unpicklable(10))
    with pytest.raises(TypeError):
        pickle.dumps(fn)
    out = _pool_map(fn, range(6), 2)
    assert [v for v, _ in out] == list(range(10, 16))
    assert os.getpid() not in {pid for _, pid in out}
    assert experiments._worker_fn is None  # the parent keeps no worker context


def _fail_in_worker(real, pos, bad, *args):
    """real(*args), except that args[pos] == bad raises a DomainError naming
    the process."""
    if args[pos] == bad:
        raise DomainError(f"task {bad} failed in process {os.getpid()}")
    return real(*args)


@pytest.mark.parametrize("target, pos, bad", [
    ("convolution_weights", 3, 20),  # the grid task of the 20-step coarse grid
    ("_modeling_traj", -1, 32),  # the second batch
])
def test_pool_task_domain_error_reaches_the_caller(monkeypatch, target, pos, bad):
    """A DomainError of a grid task or of a batch, raised in a real fork
    worker, reaches the caller as a DomainError, and no worker is left."""
    monkeypatch.setattr(experiments, "_cores", lambda: 2)
    real = getattr(experiments, target)
    monkeypatch.setattr(experiments, target, functools.partial(_fail_in_worker, real, pos, bad))
    with pytest.raises(DomainError, match=f"task {bad} failed") as info:
        modeling_error_samples(_cfg(m_traj=40), [ORDERS], n_workers=2)
    assert int(str(info.value).split()[-1]) != os.getpid()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("alpha", (1.1, 1.5, 2.0))
def test_modeling_means_match_exact_means(alpha):
    """Monte Carlo means of table 1's squared errors against their exact means.

    The homogeneous parts cancel and mode k's error is sum_i D[k, i] xi[k, i]
    with D = W_ref - repeat(W_coarse, factor), xi ~ N(0, dt_fine) independent,
    so the mean is dt_fine ||D||_F^2 and the variance 2 sum_k (dt_fine ||D_k||^2)^2.
    """
    m_traj, n_fine, k_modes = 200, 200, 64
    dt_fine = 1.0 / n_fine
    spec = NoiseSpec(sigma=inverse_cubic_sigma, n_cutoff=k_modes, K_modes=k_modes,
                     T=1.0, N_fine=n_fine)
    orders = FracOrders(alpha, 0.75)
    w_ref = convolution_weights(orders, spec, dt_fine, n_fine, rule="left", truncated=False)
    for seed in (1, 2, 3):
        cfg = _cfg(m_traj=m_traj, base_seed=seed)
        means = modeling_error_samples(cfg, [orders], "exact", 1)[:, 0, :].mean(axis=0)
        for j, dt in enumerate(cfg.dt_list):
            steps, factor = cfg.coarse_steps(dt)
            w_coarse = convolution_weights(orders, spec, dt, steps, rule="exact",
                                           truncated=True)
            d = w_ref - np.repeat(w_coarse, factor, axis=1)
            per_mode = dt_fine * np.einsum("ki,ki->k", d, d)
            se = math.sqrt(2.0 * np.dot(per_mode, per_mode) / m_traj)
            assert abs(means[j] - per_mode.sum()) <= 4.0 * se, (seed, dt)


@pytest.mark.parametrize("m_traj", (1, 31, 32, 33, 65))
def test_modeling_samples_independent_of_workers(m_traj):
    """Batches are fixed by trajectory index, so the bits do not depend on
    the worker count; a full batch of 32 is the same whatever follows it."""
    cfg = _cfg(m_traj=m_traj, base_seed=3)
    orders = [FracOrders(1.25, 0.75), FracOrders(2.0, 0.75)]
    runs = [modeling_error_samples(cfg, orders, "exact", n) for n in (1, 2, 3)]
    assert runs[0].shape == (m_traj, 2, len(cfg.dt_list))
    assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])
    if m_traj > 32:
        first = modeling_error_samples(_cfg(m_traj=32, base_seed=3), orders, "exact", 1)
        assert np.array_equal(runs[0][:32], first)


@pytest.mark.parametrize("k_modes", (1, 2, 16, 1000))
def test_modeling_block_shape_bounds_scratch(k_modes):
    """A block's draws stay within one trajectory's K x n_fine noise matrix
    and its weight differences within the n_alpha fine grids of K x n_fine."""
    for batch in (1, 7, 32):
        for n_alpha in (1, 5):
            for n_dt in (1, 5, 40):
                modes, trajs, cols = experiments._block_shape(k_modes, batch, n_alpha, n_dt)
                assert 1 <= modes <= min(k_modes, experiments._MODE_BLOCK)
                assert 1 <= trajs <= batch and modes * trajs <= k_modes
                assert 1 <= cols <= n_alpha * n_dt and modes * cols <= n_alpha * k_modes
    if k_modes == 1000:  # the paper's shapes: one block spans the batch and every column
        assert experiments._block_shape(1000, 32, 5, 5) == (16, 32, 25)
    elif LONGDOUBLE_EXTENDED:  # trajectories or columns are split; the errors
        # stay within the rounding bound of the long-double oracle
        orders = [FracOrders(a, 0.75) for a in (1.1, 1.25, 1.5, 1.75, 1.95, 2.0)]
        cfg = _cfg(m_traj=33, base_seed=2, k_modes=k_modes, n_cutoff=k_modes,
                   dt_list=(1 / 5, 1 / 10, 1 / 25, 1 / 40, 1 / 200))
        samples = modeling_error_samples(cfg, orders, "exact", 1)
        oracle, spread = modeling_oracle(cfg, orders, "exact")
        # With one or two modes no sum over modes averages the rounding of a
        # single dot product, whose relative error is up to (n_fine + 1) u
        # times its condition number; so the gate is the standard bound on
        # each mode's error, gamma * sum_i |D_ki x_ki|, summed over the
        # squares, plus the rounding of the sum over modes.
        u = np.finfo(float).eps / 2
        gamma = (cfg.n_fine + 2) * u
        bound = 2 * gamma * np.sqrt(oracle) * spread + (gamma * spread) ** 2 + k_modes * u * oracle
        assert (np.abs(samples - oracle) <= bound).all()


def test_rectangle_rule_degeneration_is_exact_zero():
    # u_n configured to the reference's own rectangle rule on the fine grid
    # with full mode cutoff: per-trajectory squared error is bitwise zero
    cfg = _cfg(m_traj=5, n_fine=100, dt_list=(1 / 100,))
    samples = modeling_error_samples(cfg, [ORDERS], rule="left")
    assert samples.shape == (5, 1, 1)
    assert (samples == 0.0).all()


def test_doubling_trajectories_within_three_stderr():
    cfg_small = _cfg(m_traj=24)
    cfg_big = _cfg(m_traj=48)
    t_small = modeling_error_tables(cfg_small, [ORDERS])[0]
    t_big = modeling_error_tables(cfg_big, [ORDERS])[0]
    for j in range(len(cfg_small.dt_list)):
        gap = abs(t_small.errors[j] - t_big.errors[j])
        assert gap <= 3.0 * (t_small.stderrs[j] + t_big.stderrs[j])


def test_noise_cutoff_floor():
    # truncating sigma at n = 1 leaves an irreducible modeling-error floor
    # that dominates once the time step is fine enough
    dts = (1 / 10, 1 / 50)
    full = modeling_error_tables(_cfg(m_traj=8, dt_list=dts), [ORDERS])[0]
    cut = modeling_error_tables(_cfg(m_traj=8, n_cutoff=1, dt_list=dts), [ORDERS])[0]
    assert cut.errors[-1] > 1.7 * full.errors[-1]
    assert cut.errors[0] < 1.5 * full.errors[0]


def test_modeling_tables_share_noise_across_alphas():
    cfg = _cfg(m_traj=4)
    tables = modeling_error_tables(cfg, [FracOrders(1.25, 0.75), FracOrders(1.75, 0.75)])
    assert len(tables) == 2
    single = modeling_error_tables(_cfg(m_traj=4), [FracOrders(1.25, 0.75)])[0]
    np.testing.assert_allclose(tables[0].errors, single.errors, rtol=1e-12)
    assert tables[0].meta["alpha"] == 1.25
    assert tables[1].meta["alpha"] == 1.75


@pytest.mark.parametrize("n_workers", (1, 2))
def test_modeling_tables_equal_one_order_runs(n_workers):
    """Each column of a mixed sweep follows its own (alpha, beta): its samples,
    table and metadata are those of a run at that order alone.

    The column's bits come from a matrix product over every column of a mode
    block, so they match only where BLAS rounds a column the same whatever
    the product's width; OpenBLAS does once a block holds 8 trajectories, and
    16 is one block of 16 here.
    """
    orders = [FracOrders(1.5, 0.75), FracOrders(1.5, 0.6), FracOrders(1.25, 0.75)]
    cfg = _cfg(m_traj=16)
    samples = modeling_error_samples(cfg, orders, "exact", n_workers)
    tables = modeling_error_tables(cfg, orders, n_workers=n_workers)
    assert samples.shape == (cfg.m_traj, len(orders), len(cfg.dt_list))
    assert len(tables) == len(orders)
    for i, o in enumerate(orders):
        assert np.array_equal(samples[:, i], modeling_error_samples(cfg, [o])[:, 0])
        want = modeling_error_tables(cfg, [o])[0]
        for key in ("resolutions", "errors", "rates", "stderrs"):
            assert np.array_equal(getattr(tables[i], key), getattr(want, key), equal_nan=True)
        assert tables[i].meta == want.meta


def test_fem_experiment_smoke():
    cfg = ExperimentConfig(m_traj=4, base_seed=11,
                           n_fine=50, k_modes=128, n_cutoff=128,
                           dt_list=(1 / 50,), h_list=(1 / 5, 1 / 10, 1 / 20))
    orders = [FracOrders(1.5, 0.8)]
    tab = fem_error_tables(cfg, orders)[0]
    assert (tab.errors > 0.0).all()
    assert (np.diff(tab.errors) < 0.0).all()
    assert tab.rates[1:].min() > 2 * 0.8 - 0.3
    s1 = fem_error_samples(cfg, orders)
    s2 = fem_error_samples(cfg, orders, n_workers=2)
    np.testing.assert_array_equal(s1, s2)
    with pytest.raises(DomainError):
        fem_error_samples(_cfg(h_list=(1 / 5,)), orders)  # needs exactly one dt


def _fem_cfg(**kw):
    base = dict(m_traj=5, base_seed=11, n_fine=50, k_modes=128,
                n_cutoff=128, dt_list=(1 / 50,), h_list=(1 / 5, 1 / 10, 1 / 20))
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("n_workers", (1, 2))
def test_fem_tables_equal_one_beta_runs(n_workers, monkeypatch):
    """Each column of a sweep, table 2's betas and a second alpha, follows its
    own (alpha, beta): its samples, table and metadata are those of a run at
    that order alone.  A spectrum is a deterministic function of (mesh,
    beta), so each is assembled once, not once per run."""
    monkeypatch.setattr(experiments, "discrete_spectrum",
                        functools.cache(experiments.discrete_spectrum))
    orders = [FracOrders(1.5, 0.6), FracOrders(1.5, 0.8), FracOrders(1.5, 1.0),
              FracOrders(1.25, 0.8)]
    cfg = _fem_cfg()
    samples = fem_error_samples(cfg, orders, n_workers)
    tables = fem_error_tables(cfg, orders, n_workers=n_workers)
    assert samples.shape == (cfg.m_traj, len(orders), len(cfg.h_list))
    assert len(tables) == len(orders)
    for i, o in enumerate(orders):
        assert np.array_equal(samples[:, i, :], fem_error_samples(cfg, [o])[:, 0, :])
        want = fem_error_tables(cfg, [o])[0]
        for key in ("resolutions", "errors", "rates", "stderrs"):
            assert np.array_equal(getattr(tables[i], key), getattr(want, key), equal_nan=True)
        assert tables[i].meta == want.meta


def test_fem_tables_draw_each_trajectory_once(monkeypatch):
    calls = []

    def counting(spec, seed, *a, **k):
        calls.append(seed)
        return generate(spec, seed, *a, **k)

    monkeypatch.setattr(experiments, "generate", counting)
    cfg = _fem_cfg(h_list=(1 / 5,))
    fem_error_tables(cfg, [FracOrders(1.5, beta) for beta in (0.6, 0.8, 1.0)])
    assert calls == [trajectory_seed(cfg.base_seed, l) for l in range(cfg.m_traj)]


def test_stability_report_exponent_and_continuity():
    for alpha in (1.25, 1.5):
        rep = stability_report(FracOrders(alpha, 0.75))
        assert abs(rep["fitted_exponent"] - (-alpha)) < 0.15
        errs = rep["continuity_errors"]
        assert (np.diff(errs) < 0.0).all() and errs[-1] < 1e-4


def test_alpha_ordering_of_mean_rates():
    cfg = _cfg(m_traj=48, n_fine=400, k_modes=128, n_cutoff=128,
               dt_list=(1 / 10, 1 / 20, 1 / 40, 1 / 80))
    tables = modeling_error_tables(cfg, [FracOrders(1.1, 0.75), FracOrders(1.75, 0.75)])
    assert tables[0].mean_rate < tables[1].mean_rate


def test_write_rate_table_format(tmp_path):
    tab = modeling_error_tables(_cfg(m_traj=3), [ORDERS])[0]
    path = tmp_path / "table.csv"
    write_rate_table(tab, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# alpha = 1.5")
    assert lines[1] == "# beta = 0.75"
    assert lines[2] == "# m_traj = 3"
    assert lines[3] == "# seed = 7"
    assert lines[4].startswith("# build = ")
    assert lines[5] == "resolution,error,rate,stderr"
    first = lines[6].split(",")
    assert float(first[0]) == 0.1 and first[2] == ""
    second = lines[7].split(",")
    assert float(second[2]) == pytest.approx(tab.rates[1])
    # shortest round-trip floats re-parse exactly
    assert float(first[1]) == tab.errors[0]
