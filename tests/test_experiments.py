import collections
import dataclasses
import functools
import importlib.util
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fracwave import experiments, fem, noise
from fracwave.errors import DomainError
from fracwave.experiments import (
    ExperimentConfig,
    compute_rates,
    fem_error_samples,
    fem_error_tables,
    modeling_error_samples,
    modeling_error_tables,
    stability_report,
    write_rate_table,
)
from fracwave.noise import generate, trajectory_seed
from fracwave.spectral import FracOrders

from oracles import (LONGDOUBLE_EXTENDED, full_grids_and_means, kept_modes_per_alpha,
                     modeling_oracle)

ROOT = Path(__file__).resolve().parent.parent

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
    for errors in ([math.nan, 1.0], [1.0, math.inf], [1.0, 0.0], [-1.0, 2.0]):
        with pytest.raises(DomainError, match="compute_rates: errors") as info:
            compute_rates(errors, [2.0, 1.0])
        assert f"(got {errors})" in str(info.value)
    with pytest.raises(DomainError):
        compute_rates([1.0], [1.0])
    for resolutions in ([2.0, 2.0], [1.0, 0.0], [1.0, -0.5], [math.nan, 1.0], [math.inf, 1.0]):
        with pytest.raises(DomainError, match="compute_rates: resolutions") as info:
            compute_rates([2.0, 1.0], resolutions)
        assert f"(got {resolutions})" in str(info.value)


def _check_grids(**kw):
    """The config of kw, with each grid kw sets checked where its table
    checks it: table 1's dt_list in `_modeling_weights`, table 2's h_list in
    `ExperimentConfig.meshes`."""
    cfg = _cfg(**kw)
    if "dt_list" in kw:
        experiments._modeling_weights(cfg, [ORDERS], "exact", 1)
    if "h_list" in kw:
        cfg.meshes()
    return cfg


def test_config_validation():
    with pytest.raises(DomainError):
        _check_grids(m_traj=0)
    with pytest.raises(DomainError):
        _check_grids(dt_list=(1 / 3,))  # does not nest in the 200-step fine grid
    with pytest.raises(DomainError):
        _check_grids(n_cutoff=100, k_modes=64)
    with pytest.raises(DomainError):
        _check_grids(h_list=(0.3,))


@pytest.mark.parametrize("kw", [dict(dt_list=(0.0,)), dict(dt_list=(-0.1,)),
                                dict(dt_list=(math.nan,)), dict(dt_list=(math.inf,)),
                                dict(dt_list=(1e-320,)), dict(h_list=(0.0,)),
                                dict(h_list=(math.nan,)), dict(h_list=(1e-300,)),
                                dict(k_modes=1 << 20, n_cutoff=64, n_fine=200),
                                dict(dt_list=(0.1, 0.1, 0.05)), dict(h_list=(0.25, 0.25))])
def test_config_rejects_bad_grids(kw):
    with pytest.raises(DomainError):
        _check_grids(**kw)


def test_config_bounds_dense_mesh_matrices(monkeypatch):
    """A mesh whose N x N matrices exceed the entry cap is rejected by
    `ExperimentConfig.meshes` and by `FemMesh`, before any matrix exists.
    Two modes keep the 2 x 200 noise matrix and the 2 x N mode products
    within the lowered cap."""
    monkeypatch.setattr(noise, "_DEFAULT_ENTRY_CAP", 400)
    assert _check_grids(h_list=(1 / 21,), k_modes=2, n_cutoff=2).meshes()[0].n_interior == 20
    with pytest.raises(DomainError, match="dense"):
        _check_grids(h_list=(1 / 21, 1 / 22), k_modes=2, n_cutoff=2)
    with pytest.raises(DomainError):
        fem.FemMesh(21)


def test_each_table_reads_only_its_own_grid():
    """Table 1 runs beside an h_list that is no mesh width, and table 2
    beside a dt_list that does not nest in n_fine: table 2 runs at the noise
    step T/n_fine and never reads dt_list."""
    cfg = _cfg(m_traj=3, h_list=(0.3,))
    assert modeling_error_samples(cfg, [ORDERS]).shape == (3, 1, 3)
    samples = fem_error_samples(_fem_cfg(dt_list=(1 / 7,)), [FracOrders(1.5, 0.8)])
    assert np.array_equal(samples, fem_error_samples(_fem_cfg(dt_list=()), [FracOrders(1.5, 0.8)]))


@pytest.mark.parametrize("samples, kw, match", [
    (modeling_error_samples, dict(dt_list=(1 / 3,)), "does not nest"),
    (modeling_error_samples, dict(dt_list=(0.1, 0.1, 0.05)), "one grid"),
    (fem_error_samples, dict(h_list=(0.3,)), "h_list width: 0.3 does not divide"),
    (fem_error_samples, dict(h_list=(0.25, 0.25)), "one mesh"),
])
def test_bad_grid_rejected_before_any_work(samples, kw, match, monkeypatch):
    """A grid that its table cannot run is a DomainError, raised before any
    weight grid, FEM spectrum or fork of that table."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work started for a bad grid")

    for name in ("_fork_map", "convolution_weights", "discrete_spectra", "sine_products"):
        monkeypatch.setattr(experiments, name, forbidden)
    with pytest.raises(DomainError, match=match):
        samples(_cfg(**kw), [ORDERS])


@pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -0.1, 0.3])
@pytest.mark.parametrize("grid, call, what", [
    ("dt_list", lambda cfg, step: cfg.coarse_steps(step), "dt_list step"),
    ("h_list", lambda cfg, step: cfg.meshes(), "h_list width"),
], ids=["coarse_steps", "meshes"])
def test_step_rule_of_each_grid(grid, call, what, step):
    """A time step or mesh width that is NaN, infinite, zero, negative or not
    1/n is a DomainError that names its grid."""
    cfg = _cfg(**{grid: (step,)})
    with pytest.raises(DomainError, match=f"^ExperimentConfig: {what}: {step} does not divide"):
        call(cfg, step)


def test_mesh_width_within_relative_tolerance():
    """A mesh width is 1/(N+1) to 1e-9 relative, as a time step is T/n."""
    assert _cfg(h_list=(0.05 * (1 + 5e-10),)).meshes()[0].n_interior == 19
    with pytest.raises(DomainError, match="h_list width"):
        _cfg(h_list=(0.05 * (1 + 2e-9),)).meshes()


@pytest.mark.parametrize("samples, kw, orders", [
    (modeling_error_samples, {}, []),
    (fem_error_samples, dict(dt_list=(1 / 10,), h_list=(1 / 5, 1 / 10)), []),
    (modeling_error_samples, dict(dt_list=()), [ORDERS]),
    (fem_error_samples, dict(dt_list=(1 / 10,), h_list=()), [ORDERS]),
], ids=["modeling_error_samples-kw0", "fem_error_samples-kw1", "modeling_error_samples-kw2",
        "fem_error_samples-kw3"])
def test_empty_sweep_rejected_before_any_work(samples, kw, orders, monkeypatch):
    """An empty list of orders, or of the sampler's time steps or mesh
    widths, is a DomainError, raised before any fork, weight grid or FEM
    spectrum."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work started for an empty sweep")

    for name in ("_fork_map", "convolution_weights", "discrete_spectra", "sine_products",
                 "homogeneous_solution", "_modeling_weights"):
        monkeypatch.setattr(experiments, name, forbidden)
    with pytest.raises(DomainError, match="empty"):
        samples(_cfg(**kw), orders)


@pytest.mark.parametrize("samples, kw, n_grid", [
    (modeling_error_samples, {}, 3),
    (fem_error_samples, dict(dt_list=(1 / 10,), h_list=(1 / 5, 1 / 10)), 2),
], ids=["modeling_error_samples", "fem_error_samples"])
def test_sample_array_above_cap_rejected_before_any_work(samples, kw, n_grid, monkeypatch):
    """An (m_traj, orders, grid) sample array above the entry cap is a
    DomainError, raised before any fork, weight grid or FEM spectrum; one
    at the cap passes the check."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work started for an oversized sample array")

    for name in ("_fork_map", "convolution_weights", "discrete_spectra", "sine_products",
                 "homogeneous_solution", "_modeling_weights", "generate"):
        monkeypatch.setattr(experiments, name, forbidden)
    at_cap = noise._DEFAULT_ENTRY_CAP // (2 * n_grid)  # two orders
    with pytest.raises(AssertionError, match="work started"):
        samples(_cfg(m_traj=at_cap, **kw), [ORDERS, FracOrders(1.25, 0.75)])
    with pytest.raises(DomainError, match="cap"):
        samples(_cfg(m_traj=at_cap + 1, **kw), [ORDERS, FracOrders(1.25, 0.75)])
    with pytest.raises(DomainError, match="cap"):
        samples(_cfg(m_traj=10**10, **kw), [ORDERS])


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
    """Stands in for the fork context of one `_fork_map` phase: it appends
    the list of that phase's children to phases, and each child records its
    index and runs its target in this process when it starts, over a real
    pipe."""

    Pipe = staticmethod(multiprocessing.Pipe)

    def __init__(self, phases):
        self.children = []
        phases.append(self.children)

    def Process(self, target, args):
        children = self.children

        class _Child:
            pid = os.getpid()

            def start(self):
                children.append(args[0])
                target(*args)

            def kill(self):
                pass

            def join(self):
                pass

        return _Child()


def test_pool_map_caps_workers_without_starting_processes(monkeypatch):
    """Each `_fork_map` forks min(n_workers, items, cores) children, and
    none where that is <= 1."""
    phases, results = [], []
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: _RecordingContext(phases))
    assert experiments._fork_map(abs, range(3), 10**5) == [0, 1, 2]
    cap = min(3, experiments._cores())
    assert phases == ([list(range(cap))] if cap > 1 else [])

    phases.clear()
    monkeypatch.setattr(experiments, "_cores", lambda: 64)
    assert experiments._fork_map(abs, range(-3, 0), 10**5) == [3, 2, 1]
    assert experiments._fork_map(abs, range(5), 0) == list(range(5))
    assert experiments._fork_map(abs, range(5), -4) == list(range(5))
    assert experiments._fork_map(abs, [-7], 10**5) == [7]
    assert phases == [[0, 1, 2]]
    monkeypatch.setattr(experiments, "_cores", lambda: 2)
    assert experiments._fork_map(abs, range(-5, 0), 10**5) == [5, 4, 3, 2, 1]
    assert phases[-1] == [0, 1]

    # table 1: two phases, each of min(n_workers, cores, its items) children;
    # the set-up children write the kept rows of their shared grids and
    # return their alphas' drawn modes and tails, and the batch children
    # return the errors, equal to a serial run's
    real = experiments._fork_map
    monkeypatch.setattr(experiments, "_fork_map",
                        lambda fn, items, n: results.append(real(fn, items, n)) or results[-1])
    monkeypatch.setattr(experiments, "_cores", lambda: 64)
    orders = [ORDERS, FracOrders(2.0, 0.75)]
    for m_traj, n_workers, sizes in ((1, 10**5, [2]), (6 * 32, 10**5, [2, 6]),
                                     (6 * 32, 3, [2, 3])):
        phases.clear()
        results.clear()
        cfg = _cfg(m_traj=m_traj)
        samples = modeling_error_samples(cfg, orders, n_workers=n_workers)
        assert [len(p) for p in phases] == sizes
        cuts, batches = results
        kept, tails = kept_modes_per_alpha(full_grids_and_means(cfg, orders)[3])
        assert [k for k, _ in cuts] == list(kept)
        assert np.array_equal([t for _, t in cuts], tails)
        assert [b.shape for b in batches] == [(min(32, m_traj), 2, 3)] * -(-m_traj // 32)
        phases.clear()
        np.testing.assert_array_equal(samples, modeling_error_samples(cfg, orders))
        assert phases == []
    # a one-alpha sweep builds its grids in this process, and its batches fork
    phases.clear()
    results.clear()
    modeling_error_samples(_cfg(m_traj=2 * 32), [ORDERS], n_workers=10**5)
    assert [len(p) for p in phases] == [2] and [len(r) for r in results] == [1, 2]


def test_cores_counts_the_cpu_affinity(monkeypatch):
    """A process confined to one CPU of 64 runs its work in-process."""
    phases = []
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: _RecordingContext(phases))
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert experiments._cores() == 1
    assert experiments._fork_map(abs, range(-5, 0), 10**5) == [5, 4, 3, 2, 1]
    assert phases == []
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
    """Two real fork children run a callable bound to an object that cannot
    be pickled: the callable reaches them by inheritance, not by pickle.
    Items w, w + 2, ... run on child w, and the run leaves the module's
    names as they were: no worker context is kept."""
    monkeypatch.setattr(experiments, "_cores", lambda: 2)
    fn = functools.partial(_shifted, _Unpicklable(10))
    with pytest.raises(TypeError):
        pickle.dumps(fn)
    before = dict(vars(experiments))
    out = experiments._fork_map(fn, range(6), 2)
    assert [v for v, _ in out] == list(range(10, 16))
    pids = [pid for _, pid in out]
    assert os.getpid() not in pids and pids[0::2] == [pids[0]] * 3 and pids[1::2] == [pids[1]] * 3
    assert pids[0] != pids[1]
    assert vars(experiments) == before
    assert multiprocessing.active_children() == []


#: Runs `_fork_map` on two children: item 0 sleeps for 60 s, and item 1 kills
#: its own child.  Prints the exception, the seconds it took and the children
#: left.
_KILL_ONE_CHILD = """
import multiprocessing, os, signal, time
from fracwave import experiments

def fn(x):
    if x == 0:
        time.sleep(60)
    if x == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return x

experiments._cores = lambda: 2
start = time.perf_counter()
try:
    experiments._fork_map(fn, range(4), 2)
except ChildProcessError as exc:
    print(repr(exc), time.perf_counter() - start, multiprocessing.active_children())
"""


def test_fork_map_killed_child_raises_child_process_error():
    """A child that SIGKILL ends before it sends its results is a
    ChildProcessError that names it, raised within 5 s though the other
    child is still busy, and no child is left.  A hang would stop the
    parent, so the run is a fresh process with a time limit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", _KILL_ONE_CHILD], env=env, capture_output=True,
                          text=True, timeout=50)
    assert done.stdout.count(" ") >= 2, done.stderr
    error, seconds, children = done.stdout.rsplit(" ", 2)
    assert error.startswith("ChildProcessError('worker 1 of 2 (pid "), done.stderr
    assert float(seconds) < 5.0 and children == "[]\n"


def _fail_in_worker(real, pos, bad, *args):
    """real(*args), except that args[pos] == bad raises a DomainError naming
    the process."""
    if args[pos] == bad:
        raise DomainError(f"task {bad} failed in process {os.getpid()}")
    return real(*args)


@pytest.mark.parametrize("target, pos, bad", [
    ("convolution_weights", 3, 20),  # the set-up of the 20-step coarse grid
    ("_modeling_traj", -1, 32),  # the second batch
])
def test_pool_task_domain_error_reaches_the_caller(monkeypatch, target, pos, bad):
    """A DomainError of a set-up or of a batch, raised in a real fork child,
    reaches the caller as a DomainError, and no child is left.  The sweep
    has two alphas, so the set-up phase forks too."""
    monkeypatch.setattr(experiments, "_cores", lambda: 2)
    real = getattr(experiments, target)
    monkeypatch.setattr(experiments, target, functools.partial(_fail_in_worker, real, pos, bad))
    with pytest.raises(DomainError, match=f"task {bad} failed") as info:
        modeling_error_samples(_cfg(m_traj=40), [ORDERS, FracOrders(2.0, 0.75)], n_workers=2)
    assert int(str(info.value).split()[-1]) != os.getpid()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("alpha", (1.1, 1.5, 2.0))
def test_modeling_means_match_exact_means(alpha):
    """Monte Carlo means of table 1's squared errors against their exact
    means: sum_k m_k, with variance 2 sum_k m_k^2 (`_mode_means`)."""
    m_traj = 200
    orders = [FracOrders(alpha, 0.75)]
    per_mode = full_grids_and_means(_cfg(), orders)[3][:, 0]
    se = np.sqrt(2.0 * np.square(per_mode).sum(axis=0) / m_traj)
    for seed in (1, 2, 3):
        cfg = _cfg(m_traj=m_traj, base_seed=seed)
        means = modeling_error_samples(cfg, orders, "exact", 1)[:, 0, :].mean(axis=0)
        assert (np.abs(means - per_mode.sum(axis=0)) <= 4.0 * se).all(), seed


def _bench_exact():
    """bench/exact.py as a module, loaded from its path."""
    spec = importlib.util.spec_from_file_location("bench_exact", ROOT / "bench" / "exact.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mode_means_match_bench_exact_moments():
    """The sum over modes and 2 sum_k m_k^2 against the benchmark's own copy
    of table 1's exact mean and variance (`bench/exact.py`)."""
    knobs = {"alpha_list": [1.1, 1.5, 2.0], "beta": 0.75, "k_modes": 64, "n_fine": 200,
             "dt_list": [1 / 10, 1 / 20, 1 / 40]}
    cfg = _cfg(dt_list=tuple(knobs["dt_list"]))
    assert (cfg.k_modes, cfg.n_cutoff, cfg.n_fine) == (64, 64, 200)
    orders = [FracOrders(a, knobs["beta"]) for a in knobs["alpha_list"]]
    means = full_grids_and_means(cfg, orders)[3]
    want = _bench_exact().exact_moments(knobs)
    for a, alpha in enumerate(knobs["alpha_list"]):
        got = np.stack([means[:, a].sum(axis=0), 2.0 * np.square(means[:, a]).sum(axis=0)], axis=1)
        np.testing.assert_allclose(got, want[repr(float(alpha))], rtol=1e-12, atol=0.0)


def test_kept_modes_choose_the_least_count_within_the_tail_share():
    """Means 2^-k over 60 modes leave a tail of 2^-K* - 2^-60 after K* modes,
    within 1e-14 of the total first at K* = 47; a column of zeros does not
    count, and an alpha whose columns are all zero keeps one mode."""
    k = np.arange(1, 61, dtype=float)
    means = np.zeros((60, 2, 2))
    means[:, 0, 0] = 2.0**-k
    kept, tails = kept_modes_per_alpha(means)
    assert experiments._kept_modes(means[:, 0])[1].shape == (2,)
    assert experiments._TAIL_SHARE == 1e-14
    assert kept == (47, 1)
    assert tails[0, 0] == math.fsum(2.0**-k[47:]) and not tails[0, 1] and not tails[1].any()
    assert kept_modes_per_alpha(means[:1])[0] == (1, 1)


def test_kept_modes_are_cut_in_the_long_double_gates():
    """The long-double gates of the batched kernel (`modeling_oracle`) see
    columns with every mode kept and columns cut inside a mode block, so
    they check the products cut at K* and the added tail too."""
    dts = (1 / 5, 1 / 10, 1 / 25, 1 / 40, 1 / 200)
    orders = [FracOrders(a, 0.75) for a in (1.1, 1.25, 1.5, 1.75, 1.95, 2.0)]
    kept = []
    for k_modes, n_cutoff in ((37, 37), (64, 64), (100, 100), (100, 57)):
        for rule in ("exact", "left"):
            cfg = _cfg(m_traj=3, k_modes=k_modes, n_cutoff=n_cutoff, dt_list=dts)
            k_star, tails = kept_modes_per_alpha(full_grids_and_means(cfg, orders, rule)[3])
            mb = experiments._block_shape(k_modes, cfg.m_traj, len(dts))[0]
            kept += [(k, k_modes, mb) for k in k_star]
            assert all(1 <= k <= k_modes for k in k_star)
            assert all(tails[a].any() == (k < k_modes) for a, k in enumerate(k_star))
    assert any(k == k_modes for k, k_modes, _ in kept)
    assert any(k < k_modes and k % mb for k, k_modes, mb in kept)


def test_kept_modes_at_the_paper_shapes(monkeypatch):
    """At the paper's shapes each alpha keeps its own K* within the tail
    share, and the tables of seeds 1 and 9 at m_traj 1 and 40 lie within
    1e-13 relative of a run that draws all 1000 modes.

    A one-worker run at m_traj 1 retains rows 1..K* of each grid alone, the
    same bits as the full grid's, and its traced peak stays below 40% of the
    bytes of all 30 full grids: it measured 37.5% with cold caches, of which
    the kept rows are 29.8%, so the bound leaves a margin of 2.5 points
    (1.5 MB).  A set-up that held every full grid peaked at 103%, and one
    that built its later rows in a single call and rebuilt the sampled ones
    at 37.8%.  Its tails lie within 1% of the full grids' exact tails: the cut
    builds only the rows it needs and interpolates the means of the others
    (`_cut_grids`).  At 2 workers, K*, the tails, the retained rows and the
    errors equal the serial run's.
    """
    cfg = ExperimentConfig(m_traj=40, base_seed=1)
    orders = [FracOrders(a, 0.75) for a in (1.1, 1.25, 1.5, 1.75, 2.0)]
    one = ExperimentConfig(m_traj=1, base_seed=1)
    runs, real = [], experiments._modeling_weights
    monkeypatch.setattr(experiments, "_modeling_weights",
                        lambda *a: runs.append(real(*a)) or runs[-1])
    monkeypatch.setattr(experiments, "_cores", lambda: 2)
    tracemalloc.start()
    try:
        serial = modeling_error_samples(one, orders, "exact", 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, w_ref, w_coarse, means = full_grids_and_means(cfg, orders)
    full_bytes = sum(w.nbytes for a in range(len(orders)) for w in (w_ref[a], *w_coarse[a]))
    assert full_bytes == 8 * 1000 * (1000 + 500) * len(orders)
    assert peak < 0.4 * full_bytes, peak / full_bytes
    kept, tails = kept_modes_per_alpha(means)
    assert kept == (237, 232, 295, 257, 468)
    assert np.array_equal(serial, modeling_error_samples(one, orders, "exact", 2))
    (ref_rows, coarse_rows, cut_tails), pooled = runs
    assert tuple(map(len, ref_rows)) == tuple(map(len, pooled[0])) == kept
    np.testing.assert_allclose(cut_tails, tails, rtol=1e-2, atol=0.0)
    assert np.array_equal(pooled[2], cut_tails)
    for a, k in enumerate(kept):
        retained = [ref_rows[a], *coarse_rows[a]]
        assert len(retained) == 1 + len(cfg.dt_list)
        for got, full, shared in zip(retained, (w_ref[a], *w_coarse[a]),
                                     (pooled[0][a], *pooled[1][a])):
            assert got.shape == (k, full.shape[1])
            assert np.array_equal(got, full[:k]) and np.array_equal(shared, got)
    assert (tails <= experiments._TAIL_SHARE * means.sum(axis=0)).all() and (tails > 0).all()
    cut_grids = _kept_rows(w_ref, w_coarse, kept)
    full = (w_ref, w_coarse, np.zeros_like(tails))
    tailed, untailed = (experiments._modeling_traj(one, *cut_grids, t, 0) for t in (tails, full[2]))
    assert np.array_equal(tailed, untailed + tails)  # each column adds its exact tail
    for seed in (1, 9):
        for m_traj in (1, 40):
            run = dataclasses.replace(cfg, base_seed=seed, m_traj=m_traj)
            cut, whole = (np.concatenate([experiments._modeling_traj(run, *c, first)
                                          for first in range(0, m_traj, experiments._BATCH)])
                          for c in ((*cut_grids, tails), full))
            for t_cut, t_whole in zip(*(experiments._rate_tables(cfg, orders, x, cfg.dt_list)
                                         for x in (cut, whole))):
                np.testing.assert_allclose(t_cut.errors, t_whole.errors, rtol=1e-13, atol=0.0)
                np.testing.assert_allclose(t_cut.stderrs, t_whole.stderrs, rtol=1e-13, atol=0.0)


def test_cut_grids_keeps_only_evaluated_rows(monkeypatch):
    """`_cut_grids` keeps no row it has not evaluated.  Here the rows it
    samples after row 64 have means e^(-k/10) and every other row 0, so the
    interpolated means overstate the total about 16 times; the exact rows
    lower it, which moves K* past the rows evaluated, and a third pass
    follows.  Each piece holds the grid rows of its own row indices, and
    the pieces hold rows 1..K*, each once."""
    cfg = ExperimentConfig(m_traj=1, base_seed=1)
    k = np.arange(1, cfg.k_modes + 1)
    true = np.where((k > 64) & ((k % 16 == 0) | (k == k[-1])), np.exp(-0.1 * k), 0.0)[:, None]
    estimates, real = [], experiments._kept_modes
    monkeypatch.setattr(experiments, "_kept_modes",
                        lambda means: estimates.append(real(means)) or estimates[-1])
    monkeypatch.setattr(experiments, "_alpha_grids", lambda cfg, o, rule, rows: [k[rows] - 1])
    monkeypatch.setattr(experiments, "_mode_means", lambda dt, grids: true[grids[0]])
    kept, tails, pieces = experiments._cut_grids(cfg, ORDERS, "exact")
    assert len(estimates) == 3 and 64 < kept < cfg.k_modes and tails.shape == (1,)
    assert all(np.array_equal(p[0], rows) for rows, p in pieces)
    rows = np.concatenate([rows for rows, _ in pieces])
    assert np.unique(rows).size == rows.size and np.isin(np.arange(kept), rows).all()


def test_cut_grids_build_each_row_once_at_the_paper_shapes(monkeypatch):
    """At the paper's shapes each alpha's cut builds each row once.  The
    first pass builds 123 rows: rows 1..64, every 16th row after them and
    row 1000.  The later ones build the rows from 65 to K* + 16 that the
    first did not, at most `_CUT_BLOCK` per call: 394 of 420 at alpha = 2,
    where rebuilding the sampled rows made 420.  The pieces are the rows
    built, in build order."""
    cfg = ExperimentConfig(m_traj=1, base_seed=1)
    built, real = [], experiments._alpha_grids
    monkeypatch.setattr(experiments, "_alpha_grids",
                        lambda cfg, o, rule, rows: built.append(rows) or real(cfg, o, rule, rows))
    later = {1.1: 178, 1.25: 173, 1.5: 232, 1.75: 196, 2.0: 394}
    for (alpha, n_later), want in zip(later.items(), (237, 232, 295, 257, 468)):
        built.clear()
        kept, _, pieces = experiments._cut_grids(cfg, FracOrders(alpha, 0.75), "exact")
        assert kept == want
        assert len(pieces) == len(built) and all(r is b for (r, _), b in zip(pieces, built))
        assert len(built[0]) == 123 and built[0][-1] == cfg.k_modes - 1
        assert all(0 < len(rows) <= experiments._CUT_BLOCK for rows in built[1:])
        second, hi = np.concatenate(built[1:]), kept + experiments._KEPT_MARGIN
        assert second.size == n_later
        assert np.array_equal(second, np.setdiff1d(np.arange(64, hi), built[0]))
        everything = np.concatenate(built)
        assert np.unique(everything).size == everything.size


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
    and one alpha's weight differences within its fine grid of K x n_fine."""
    for batch in (1, 7, 32):
        for n_dt in (1, 5, 40):
            modes, trajs, cols = experiments._block_shape(k_modes, batch, n_dt)
            assert 1 <= modes <= min(k_modes, experiments._MODE_BLOCK)
            assert 1 <= trajs <= batch and modes * trajs <= k_modes
            assert 1 <= cols <= n_dt and modes * cols <= k_modes
    if k_modes == 1000:  # the paper's shapes: one block spans the batch and an alpha's steps
        assert experiments._block_shape(1000, 32, 5) == (16, 32, 5)
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


@pytest.mark.parametrize("factor", (1, 5, 40))
def test_differences_match_repeat_into_strided_out(factor):
    """`_differences` gives ref - repeat(coarse, f, axis=1) bit for bit, as a
    new array and written through a strided out: a row slice of a larger
    scratch, as `_modeling_traj` passes, or a transposed array.  The out is
    filled in place, never through a copy that leaves it unfilled."""
    rng = np.random.default_rng(factor)
    ref, coarse = rng.standard_normal((7, 200)), rng.standard_normal((7, 200 // factor))
    want = ref - np.repeat(coarse, factor, axis=1)
    assert np.array_equal(experiments._differences(ref, coarse), want)
    d = np.full((9, 3, 200), np.nan)
    assert experiments._differences(ref, coarse, d[:7, 1]).base is d
    assert np.array_equal(d[:7, 1], want)
    assert np.isnan(d[:7, [0, 2]]).all() and np.isnan(d[7:]).all()
    column_strided = np.full((200, 7), np.nan)
    experiments._differences(ref, coarse, column_strided.T)
    assert np.array_equal(column_strided.T, want)


def _kept_rows(w_ref, w_coarse, kept):
    """(w_ref, w_coarse) cut to rows 1..kept[a] of each alpha's grids."""
    return ([w[:k] for w, k in zip(w_ref, kept)],
            [[w[:k] for w in ws] for ws, k in zip(w_coarse, kept)])


def _whole_block_traj(cfg, w_ref, w_coarse, tails, first):
    """`experiments._modeling_traj` as it was before it drew half a block at
    a time: each block of `_MODE_BLOCK` modes drawn whole, one matmul per
    (block, alpha) and the block's squares summed by one `sum(axis=0)`.
    Written for shapes where a block spans the batch and an alpha's steps."""
    seeds = [trajectory_seed(cfg.base_seed, l)
             for l in range(first, min(first + experiments._BATCH, cfg.m_traj))]
    streams = [noise._ModeStreams(seed) for seed in seeds]
    kept = [len(w) for w in w_ref]
    factors = [cfg.coarse_steps(dt)[1] for dt in cfg.dt_list]
    mb, k_max = experiments._MODE_BLOCK, max(kept)
    out = np.zeros((len(seeds), len(w_ref), len(factors)))
    for lo in range(0, k_max, mb):
        x = np.empty((min(mb, k_max - lo), len(seeds), cfg.n_fine))
        for t, stream in enumerate(streams):
            stream.draw(lo + 1, x[:, t], np.sqrt(cfg.dt_fine))
        for a, k in enumerate(kept):
            n = min(lo + mb, k) - lo
            if n > 0:
                d = np.stack([(w_ref[a][lo : lo + n].reshape(n, -1, f)
                               - w_coarse[a][j][lo : lo + n, :, None]).reshape(n, -1)
                              for j, f in enumerate(factors)], axis=1)
                out[:, a] += np.square(np.matmul(x[:n], d.transpose(0, 2, 1))).sum(axis=0)
    return out + tails


def test_modeling_traj_draws_half_blocks_at_the_paper_shapes():
    """At the paper's shapes a batch draws and multiplies half a mode block
    at a time, and its errors keep the bits of whole-block draws: the kept
    counts (237, 232, 295, 257, 468) cut blocks inside either half and at
    the half, and the other cuts add one- and nine-mode blocks and a cut
    after one mode of a half.  One batch of 32 trajectories peaks below
    3 MiB of traced memory (2.45 MiB; whole-block draws took 4.71 MiB)."""
    cfg = ExperimentConfig(m_traj=33, base_seed=4)
    orders = [FracOrders(a, 0.75) for a in (1.1, 1.25, 1.5, 1.75, 2.0)]
    w_ref, w_coarse, tails = experiments._modeling_weights(cfg, orders, "exact", 1)
    kept = tuple(map(len, w_ref))
    assert kept == (237, 232, 295, 257, 468)
    assert experiments._block_shape(cfg.k_modes, experiments._BATCH, 5) == (16, 32, 5)
    tracemalloc.start()
    try:
        got = experiments._modeling_traj(cfg, w_ref, w_coarse, tails, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20, peak / 2**20
    assert got.shape == (32, 5, 5)
    assert np.array_equal(got, _whole_block_traj(cfg, w_ref, w_coarse, tails, 0))
    for cut in ((1, 9, 17, 24, 25), kept):
        grids = _kept_rows(w_ref, w_coarse, cut)
        assert np.array_equal(experiments._modeling_traj(cfg, *grids, tails, 32),
                              _whole_block_traj(cfg, *grids, tails, 32))


@pytest.mark.parametrize("k_modes, block", ((64, 2), (100, 3), (288, 9)))
def test_modeling_traj_draws_each_mode_once(monkeypatch, k_modes, block):
    """Each trajectory of a batch draws modes 1..max(kept) once each, in
    ascending order, also where a block has an odd number of modes and its
    second half is one mode short of the first."""
    cfg = _cfg(m_traj=32, base_seed=2, k_modes=k_modes, n_cutoff=k_modes)
    orders = [FracOrders(1.5, 0.75), FracOrders(2.0, 0.75)]
    w_ref, w_coarse, tails = experiments._modeling_weights(cfg, orders, "exact", 1)
    assert experiments._block_shape(k_modes, 32, len(cfg.dt_list))[0] == block
    drawn = collections.defaultdict(list)
    draw = noise._ModeStreams.draw

    def spy(self, first_mode, out, scale):
        drawn[id(self)] += range(first_mode, first_mode + len(out))
        draw(self, first_mode, out, scale)

    monkeypatch.setattr(noise._ModeStreams, "draw", spy)
    experiments._modeling_traj(cfg, w_ref, w_coarse, tails, 0)
    assert len(drawn) == 32
    assert all(modes == list(range(1, max(map(len, w_ref)) + 1)) for modes in drawn.values())


def test_rectangle_rule_degeneration_is_exact_zero():
    # u_n configured to the reference's own rectangle rule on the fine grid
    # with full mode cutoff: per-trajectory squared error is bitwise zero;
    # its exact means are zero, so it keeps one mode and adds a zero tail
    cfg = _cfg(m_traj=5, n_fine=100, dt_list=(1 / 100,))
    samples = modeling_error_samples(cfg, [ORDERS], rule="left")
    assert samples.shape == (5, 1, 1)
    assert (samples == 0.0).all() and not np.signbit(samples).any()
    kept, tails = kept_modes_per_alpha(full_grids_and_means(cfg, [ORDERS], "left")[3])
    assert kept == (1,) and not tails.any()
    # beside a coarser column the zero column does not count, and stays zero
    cfg = _cfg(m_traj=5, n_fine=100, dt_list=(1 / 50, 1 / 100))
    samples = modeling_error_samples(cfg, [ORDERS], rule="left")
    assert (samples[:, 0, 0] > 0.0).all() and (samples[:, 0, 1] == 0.0).all()


def test_zero_error_column_tabulates_with_no_rate(tmp_path):
    """A column whose errors are exactly 0 (the rectangle rule at the fine
    step) gets a rate of NaN beside it, written as an empty CSV cell."""
    cfg = ExperimentConfig(m_traj=3, base_seed=1, n_fine=200, k_modes=64, n_cutoff=64,
                           dt_list=(1 / 200, 1 / 100), h_list=())
    tab = modeling_error_tables(cfg, [ORDERS], rule="left")[0]
    assert tab.errors[0] == 0.0 and tab.errors[1] > 0.0
    assert np.isnan(tab.rates).all()
    write_rate_table(tab, tmp_path / "zero.csv")
    rows = (tmp_path / "zero.csv").read_text().splitlines()[6:]
    assert [row.split(",")[:3] for row in rows] == [["0.005", "0.0", ""],
                                                   ["0.01", repr(float(tab.errors[1])), ""]]


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

    The column's bits come from matrix products that hold its own alpha
    alone, so they match whatever the BLAS.
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


@pytest.mark.parametrize("k_modes, dt_list, m_trajs", [
    (400, (1 / 10, 1 / 20, 1 / 40), (*range(1, 8), 9, 13, 42)),  # the alphas keep 158, 350 modes
    (64, (1 / 20,), (3, 40)),  # one column per alpha
    (5, (1 / 10, 1 / 20, 1 / 40), (3, 20)),  # fewer modes than 8 trajectories
])
def test_modeling_column_bytes_independent_of_sweep(k_modes, dt_list, m_trajs):
    """Each per-mode product holds one alpha alone, so the alpha = 1.5 and
    2.0 columns are the same bytes alone and in one sweep: below 8
    trajectories, at a last batch that is no multiple of 4, at one step per
    alpha, and where the two alphas keep different numbers of modes."""
    o15, o20 = FracOrders(1.5, 0.75), FracOrders(2.0, 0.75)
    if k_modes == 400:
        cfg = _cfg(k_modes=k_modes, n_cutoff=k_modes, dt_list=dt_list)
        assert kept_modes_per_alpha(full_grids_and_means(cfg, [o15, o20])[3])[0] == (158, 350)
    for m_traj in m_trajs:
        cfg = _cfg(m_traj=m_traj, k_modes=k_modes, n_cutoff=k_modes, dt_list=dt_list)
        both = modeling_error_samples(cfg, [o15, o20])
        for i, o in enumerate((o15, o20)):
            assert np.array_equal(modeling_error_samples(cfg, [o])[:, 0], both[:, i]), (m_traj, o)


def test_modeling_products_hold_one_alpha(monkeypatch):
    """Each matrix product of a sweep is one a run at a single alpha makes,
    so no product's shape, and hence no column's rounding, depends on the
    other alphas of the sweep."""
    shapes, real = [], np.matmul

    def matmul(a, b, *args, **kw):
        shapes.append((a.shape, b.shape))
        return real(a, b, *args, **kw)

    monkeypatch.setattr(np, "matmul", matmul)
    cfg = _cfg(m_traj=5, k_modes=64, n_cutoff=64, n_fine=200)
    o15, o20 = FracOrders(1.5, 0.75), FracOrders(2.0, 0.75)
    runs = []
    for orders in ([o15, o20], [o15], [o20]):
        shapes.clear()
        modeling_error_samples(cfg, orders)
        runs.append(collections.Counter(shapes))
    assert runs[0] and runs[0] == runs[1] + runs[2]


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


def _fem_cfg(**kw):
    base = dict(m_traj=5, base_seed=11, n_fine=50, k_modes=128,
                n_cutoff=128, dt_list=(1 / 50,), h_list=(1 / 5, 1 / 10, 1 / 20))
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("n_workers", (1, 2))
def test_fem_tables_equal_one_beta_runs(n_workers, monkeypatch):
    """Each column of a sweep, table 2's betas and a second alpha, follows its
    own (alpha, beta): its samples, table and metadata are those of a run at
    that order alone.  A beta's spectra are a deterministic function of (the
    meshes, beta), so each is assembled once, not once per run."""
    monkeypatch.setattr(experiments, "discrete_spectra",
                        functools.cache(lambda *a: tuple(fem.discrete_spectra(*a))))
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


def test_fem_samples_make_one_series_pass_per_beta(monkeypatch):
    """Every mesh of a beta is assembled from one `_alias_class_sums` pass:
    one pass per beta, each over all of h_list's meshes and the full
    series."""
    calls = []
    alias_class_sums = fem._alias_class_sums

    def spy(meshes, beta, k_series):
        calls.append((tuple(meshes), beta, k_series))
        return alias_class_sums(meshes, beta, k_series)

    monkeypatch.setattr(fem, "_alias_class_sums", spy)
    cfg = _fem_cfg(m_traj=2)
    orders = [FracOrders(1.5, 0.6), FracOrders(1.5, 0.8), FracOrders(1.5, 1.0)]
    fem_error_samples(cfg, orders)
    assert calls == [(cfg.meshes(), o.beta, fem.DEFAULT_K_SERIES) for o in orders]


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
