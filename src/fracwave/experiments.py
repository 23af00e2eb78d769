"""Monte Carlo error measurement and convergence-rate tables.

Two experiments are provided.  The noise-discretization (modeling-error)
experiment compares the fine-grid reference solution with the regularized
solution built from the same Brownian paths on coarser time grids, and
tracks how the root-mean-squared L2 distance decays as the coarse step
shrinks.  The Galerkin experiment compares the spectral regularized
solution with its finite element approximation across a family of meshes
at a fixed time step.

All randomness is derived from a base seed through a splittable hash, one
stream per (trajectory, mode); trajectories are aggregated in index order,
and the modeling-error batches are fixed by trajectory index, so results
are byte-reproducible for any worker count.

Each run forks at most one pool (`_pool`).  Only indices and per-trajectory
or per-batch errors cross its pipes: the Galerkin workers inherit the FEM
products built before the fork, and the modeling-error workers write the
weight grids in place to anonymous shared mappings made before the fork,
then run the batches on them.
"""

from __future__ import annotations

import contextlib
import functools
import math
import multiprocessing
import os
import subprocess
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import DomainError
from .fem import FemMesh, _cross_error_sq, _fem_apply, discrete_spectrum, sine_products
from .mittag_leffler import ml_values
from .noise import (_DEFAULT_ENTRY_CAP, NoiseSpec, _ModeStreams, coarsen, generate,
                    inverse_cubic_sigma, trajectory_seed)
from .spectral import (
    FracOrders,
    _homogeneous,
    _time_weights,
    convolution_weights,
    fractional_eigenvalues,
    homogeneous_solution,
    parabola_coeffs,
    ramp_coeffs,
    sobolev_norm,
)

__all__ = [
    "ExperimentConfig",
    "RateTable",
    "compute_rates",
    "modeling_error_samples",
    "modeling_error_tables",
    "fem_error_samples",
    "fem_error_tables",
    "stability_report",
    "write_rate_table",
]

DEFAULT_DT_LIST = (1 / 25, 1 / 50, 1 / 100, 1 / 125, 1 / 200)
DEFAULT_H_LIST = (1 / 10, 1 / 25, 1 / 50, 1 / 75, 1 / 100)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of the Monte Carlo experiments.  The fractional orders
    are not among them: each experiment takes its sweep as a list of
    `FracOrders`, one per table column.

    Both experiments run on the horizon T = 1 of the paper's tables, a class
    constant.  dt_list holds the coarse time steps of the modeling-error
    experiment (each must be a multiple of T/n_fine that divides T); h_list
    holds the mesh widths of the Galerkin experiment, which runs at the
    single time step dt_list[0] and assembles each mesh's stiffness matrix
    from the full spectral series (`fem.DEFAULT_K_SERIES` terms summed, the
    rest in closed form).  base_seed must lie in [0, 2^64), the seeds that
    `trajectory_seed` tells apart.  n_fine and n_cutoff are checked by
    `NoiseSpec`.  Every step and width must be finite and positive, and no
    two steps may give the same number of steps, nor two widths the same
    mesh (the row would be computed twice, with no rate between); the
    k_modes x n_fine noise matrix and each mesh's k_modes x N mode products
    and N x N dense matrices must fit the noise entry cap.  A config that
    breaks any of these is rejected before any work starts.
    """

    T: ClassVar[float] = 1.0
    m_traj: int
    base_seed: int
    n_fine: int = 1000
    k_modes: int = 1000
    n_cutoff: int = 1000
    dt_list: tuple = DEFAULT_DT_LIST
    h_list: tuple = DEFAULT_H_LIST

    def __post_init__(self):
        if self.m_traj < 1:
            raise DomainError("ExperimentConfig: m_traj must be >= 1")
        if not 0 <= self.base_seed < 1 << 64:
            raise DomainError(f"ExperimentConfig: seed {self.base_seed} is not in [0, 2^64)")
        self.noise_spec()  # 1 <= n_cutoff <= k_modes, n_fine >= 1
        if self.k_modes * self.n_fine > _DEFAULT_ENTRY_CAP:
            raise DomainError(f"ExperimentConfig: {self.k_modes} modes x {self.n_fine} steps "
                              f"exceed the cap of {_DEFAULT_ENTRY_CAP} noise entries")
        for x in (*self.dt_list, *self.h_list):
            if not (x > 0.0 and math.isfinite(x) and math.isfinite(1.0 / x)):
                raise DomainError(f"ExperimentConfig: step or mesh width {x} is not "
                                  "finite and positive")
        steps = [self.coarse_steps(dt)[0] for dt in self.dt_list]  # validates divisibility
        meshes = self.meshes()
        for h, mesh in zip(self.h_list, meshes):
            if self.k_modes * mesh.n_interior > _DEFAULT_ENTRY_CAP:
                raise DomainError(f"ExperimentConfig: h = {h} gives {self.k_modes} x "
                                  f"{mesh.n_interior} mode products, above the cap of "
                                  f"{_DEFAULT_ENTRY_CAP}")
        for name, sizes in (("dt_list", steps), ("h_list", [m.n_interior for m in meshes])):
            if len(set(sizes)) < len(sizes):
                raise DomainError(f"ExperimentConfig: two {name} entries give one grid {sizes}")

    @property
    def dt_fine(self) -> float:
        return self.T / self.n_fine

    def coarse_steps(self, dt: float) -> tuple[int, int]:
        """(number of coarse steps, coarsening factor) for a coarse dt."""
        steps = round(self.T / dt)
        if steps < 1 or abs(steps * dt - self.T) > 1e-9 * self.T:
            raise DomainError(f"coarse step {dt} does not divide the horizon {self.T}")
        if self.n_fine % steps != 0:
            raise DomainError(f"coarse grid with dt = {dt} does not nest in the fine grid")
        return steps, self.n_fine // steps

    def meshes(self) -> list[FemMesh]:
        """The mesh of each width in h_list; `FemMesh` bounds its dense matrices."""
        meshes = []
        for h in self.h_list:
            n = round(1.0 / h) - 1
            if n < 1 or abs(1.0 / (n + 1) - h) > 1e-12:
                raise DomainError(f"ExperimentConfig: h = {h} is not 1/(N+1) with N >= 1")
            meshes.append(FemMesh(n))
        return meshes

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(sigma=inverse_cubic_sigma, n_cutoff=self.n_cutoff,
                         K_modes=self.k_modes, T=self.T, N_fine=self.n_fine)


@dataclass
class RateTable:
    """Rows of (resolution, error, rate, stderr) plus run metadata."""

    resolutions: np.ndarray
    errors: np.ndarray
    rates: np.ndarray  # aligned with errors; first entry is nan
    stderrs: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def mean_rate(self) -> float:
        return float(np.mean(self.rates[1:]))


def compute_rates(errors, resolutions) -> np.ndarray:
    """Successive-pair convergence rates log(e_prev/e_cur)/log(r_prev/r_cur)."""
    errors = np.asarray(errors, dtype=float)
    resolutions = np.asarray(resolutions, dtype=float)
    if errors.shape != resolutions.shape or errors.size < 2:
        raise DomainError("compute_rates: need matching vectors of length >= 2")
    if (errors <= 0.0).any():
        raise DomainError("compute_rates: errors must be strictly positive")
    return np.log(errors[:-1] / errors[1:]) / np.log(resolutions[:-1] / resolutions[1:])


@functools.cache
def _build_tag() -> str:
    """`git describe` of the source tree, computed once per process."""
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=here, capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    from . import __version__

    return f"fracwave-{__version__}"


def _table_from_samples(samples: np.ndarray, resolutions, meta: dict) -> RateTable:
    m = samples.shape[0]
    mean_sq = samples.mean(axis=0)
    errors = np.sqrt(mean_sq)
    se_mean_sq = samples.std(axis=0, ddof=1) / math.sqrt(m) if m > 1 else np.zeros_like(mean_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        stderrs = np.where(errors > 0.0, se_mean_sq / (2.0 * errors), 0.0)
    rates = np.full(errors.size, np.nan)
    if errors.size >= 2:
        rates[1:] = compute_rates(errors, resolutions)
    return RateTable(resolutions=np.asarray(resolutions, dtype=float), errors=errors,
                     rates=rates, stderrs=stderrs, meta=meta)


# ---------------------------------------------------------------------------
# modeling error: reference vs regularized solution under time coarsening
# ---------------------------------------------------------------------------

def _cores() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one (a cpuset or `taskset` narrows it), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(n_workers: int, n_tasks: int) -> int:
    """Workers for a run whose largest phase has n_tasks tasks: at most
    n_workers, one per task and one per core; <= 1 means no fork."""
    return min(n_workers, n_tasks, _cores())


@contextlib.contextmanager
def _pool(fn, n_workers: int):
    """Yields map(items) -> [fn(x) for x in items]; every call of it runs on
    one pool of n_workers fork workers, or in this process when n_workers
    is <= 1.

    Results come back in item order whatever the worker count.  fn reaches
    the workers as an initializer argument, which a forked worker inherits
    without pickling, so fn may be any callable, bound to arrays of any size
    or to shared mappings made before the fork; only the items and the
    results are pickled.  An exception of fn reaches the caller, and the
    workers are stopped when the block ends.
    """
    if n_workers <= 1:
        yield lambda items: [fn(x) for x in items]
        return
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=n_workers, initializer=_set_worker_fn, initargs=(fn,)) as pool:
        yield lambda items: pool.map(_call_worker_fn, items, chunksize=1)


def _pool_map(fn, items, n_workers: int) -> list:
    """[fn(x) for x in items] on one `_pool` of `_pool_size` workers."""
    items = list(items)
    with _pool(fn, _pool_size(n_workers, len(items))) as run:
        return run(items)


_worker_fn = None  # the callable of `_pool`, set only inside its workers


def _set_worker_fn(fn) -> None:
    """Pool initializer: keeps the callable of `_pool` in the worker."""
    global _worker_fn
    _worker_fn = fn


def _call_worker_fn(x):
    return _worker_fn(x)


def _require_sweep(where: str, orders, grid_name: str, grid) -> None:
    """A DomainError for an empty list of orders or of grids, raised before
    any grid, spectrum or pool."""
    for what, items in (("sweep of fractional orders", orders), (grid_name, grid)):
        if not len(items):
            raise DomainError(f"{where}: the {what} is empty")


def _shared_array(shape) -> np.ndarray:
    """An uninitialized float array in an anonymous shared mapping: what a
    fork worker writes to it, the parent and every other worker read.  The
    mapping has no name and goes with the last process that holds it."""
    import mmap  # loads only where a run forks; a one-worker run never needs it

    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=np.float64).reshape(shape)


def _modeling_weights(cfg: ExperimentConfig, orders, rule: str, n_workers: int, firsts=()):
    """(w_ref, w_coarse, errors): per entry of orders the fine left-rule grid
    and the coarse grids, then the `_modeling_traj` errors of the batch that
    starts at each trajectory index in firsts.

    Both phases run on one `_pool` of min(n_workers, cores, largest phase)
    workers.  Each grid is one `convolution_weights` call, the one a serial
    run makes, so the weights are the same bits at any worker count.  On
    more than one worker every grid is a `_shared_array` made before the
    fork: its grid task writes it in place and returns None, and each batch
    reads it there, so only indices and per-batch errors cross the pipes.
    On one worker the grids are the plain arrays of the calls.  The fine
    grids come first: the kernel scratch of the largest grids then meets
    the fewest finished grids.
    """
    spec = cfg.noise_spec()
    jobs = [(o, spec, cfg.dt_fine, cfg.n_fine, "left", False) for o in orders]
    jobs += [(o, spec, dt, cfg.coarse_steps(dt)[0], rule, True)
             for o in orders for dt in cfg.dt_list]
    n_workers = _pool_size(n_workers, max(len(jobs), len(firsts)))
    shared = n_workers > 1
    grids = [_shared_array((spec.K_modes, steps)) if shared else None
             for _, _, _, steps, _, _ in jobs]
    factors = [cfg.coarse_steps(dt)[1] for dt in cfg.dt_list]
    n, n_dt = len(orders), len(cfg.dt_list)

    def split():
        return grids[:n], [grids[n + a * n_dt : n + (a + 1) * n_dt] for a in range(n)]

    def task(item):
        phase, i = item
        if phase == "batch":
            return _modeling_traj(spec, cfg.base_seed, cfg.m_traj, factors, *split(), i)
        w = convolution_weights(*jobs[i])
        if shared:
            grids[i][...] = w  # seen by the parent and every worker
        else:
            grids[i] = w  # in this process: no copy

    with _pool(task, n_workers) as run:
        run([("grid", i) for i in range(len(jobs))])
        errors = run([("batch", first) for first in firsts])
    return (*split(), errors)


#: Trajectories per batch of a modeling-error run: batch q holds trajectories
#: [32 q, min(32 q + 32, m_traj)), so every result depends on the seed, the
#: trajectory index and m_traj alone, never on the worker count.
_BATCH = 32
#: Most modes in one block of a batch: at the paper's shapes a block's draws
#: (16 x 32 x 1000) and weight differences (16 x 25 x 1000) take 4 and 3 MiB.
_MODE_BLOCK = 16


def _block_shape(k_modes: int, batch: int, n_alpha: int, n_dt: int) -> tuple[int, int, int]:
    """(modes, trajectories, columns) of one block of a modeling-error batch.

    The draw buffer, modes x trajectories x n_fine, stays within one
    trajectory's K x n_fine noise matrix, and the weight differences,
    modes x columns x n_fine, within the n_alpha fine weight grids of
    K x n_fine each.  Trajectories and columns are split only when
    k_modes is below the batch size or the number of coarse steps.
    """
    modes = max(1, min(_MODE_BLOCK, k_modes // batch, k_modes // n_dt))
    return modes, min(batch, k_modes // modes), min(n_alpha * n_dt, n_alpha * k_modes // modes)


def _modeling_traj(spec: NoiseSpec, base_seed: int, m_traj: int, factors: list,
                   w_ref: list, w_coarse: list, first: int) -> np.ndarray:
    """Squared errors of the batch of trajectories [first, min(first + _BATCH,
    m_traj)), shape (B, n_alpha, n_dt) for the B trajectories of the batch.

    The homogeneous parts of the reference and the regularized solution
    cancel exactly, so in column (a, j) mode k's error is the dot product of
    its fine increments with row k of D = w_ref[a] - repeat(w_coarse[a][j],
    factors[j]), a difference of weights that does not cancel against the
    size of the solutions.  Per block of modes, D is built once for the
    batch, each trajectory's rows are drawn from its own `_ModeStreams`, one
    matmul per mode gives every (trajectory, column) error, and the squares
    are added over ascending mode blocks.
    """
    seeds = [trajectory_seed(base_seed, l) for l in range(first, min(first + _BATCH, m_traj))]
    n_dt, n_cols = len(factors), len(w_ref) * len(factors)
    k_modes, n_fine = spec.K_modes, spec.N_fine
    mb, tb, cb = _block_shape(k_modes, len(seeds), len(w_ref), n_dt)
    streams = [_ModeStreams(seed) for seed in seeds]
    root = np.sqrt(spec.dt_fine)
    x = np.empty((mb, tb, n_fine))
    d = np.empty((mb, cb, n_fine))
    out = np.zeros((len(seeds), n_cols))
    for lo in range(0, k_modes, mb):
        hi = min(lo + mb, k_modes)
        for c0 in range(0, n_cols, cb):
            db = d[: hi - lo, : min(cb, n_cols - c0)]
            for i in range(db.shape[1]):
                a, j = divmod(c0 + i, n_dt)
                np.subtract(w_ref[a][lo:hi], np.repeat(w_coarse[a][j][lo:hi], factors[j], axis=1),
                            out=db[:, i])
            for t0 in range(0, len(seeds), tb):
                xb = x[: hi - lo, : min(tb, len(seeds) - t0)]
                for t, stream in enumerate(streams[t0 : t0 + tb]):
                    stream.draw(lo + 1, xb[:, t], root)
                err = np.matmul(xb, db.transpose(0, 2, 1))
                out[t0 : t0 + xb.shape[1], c0 : c0 + db.shape[1]] += np.square(err).sum(axis=0)
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        l = first + int(bad[0])
        raise DomainError(f"non-finite error in trajectory {l} (seed {seeds[bad[0]]})")
    return out.reshape(len(seeds), len(w_ref), n_dt)


def modeling_error_samples(cfg: ExperimentConfig, orders, rule: str = "exact",
                           n_workers: int = 1) -> np.ndarray:
    """Squared L2 distance reference-vs-regularized per trajectory, shape
    (m_traj, len(orders), n_dt), column i at the fractional orders orders[i].

    One noise draw per trajectory feeds every column and every coarse grid,
    so all comparisons are coupled to the same Brownian paths.  The weight
    grids and then the batches of `_BATCH` trajectories run on one pool of
    at most n_workers workers (`_modeling_weights`).
    """
    _require_sweep("modeling_error_samples", orders, "dt_list", cfg.dt_list)
    errors = _modeling_weights(cfg, orders, rule, n_workers, range(0, cfg.m_traj, _BATCH))[2]
    return np.concatenate(errors, axis=0)


def modeling_error_tables(cfg: ExperimentConfig, orders, rule: str = "exact",
                          n_workers: int = 1) -> list[RateTable]:
    """Root-mean-squared modeling errors and rates over cfg.dt_list, one
    table per entry of orders, sharing trajectories and noise."""
    samples = modeling_error_samples(cfg, orders, rule, n_workers)
    return [_table_from_samples(samples[:, i, :], cfg.dt_list, _meta(cfg, o, rule=rule))
            for i, o in enumerate(orders)]


def _meta(cfg: ExperimentConfig, orders: FracOrders, **extra) -> dict:
    return {"alpha": orders.alpha, "beta": orders.beta, "m_traj": cfg.m_traj,
            "seed": cfg.base_seed, "build": _build_tag(), **extra}


# ---------------------------------------------------------------------------
# Galerkin error: spectral regularized solution vs FEM approximation
# ---------------------------------------------------------------------------

def _fem_traj(spec: NoiseSpec, base_seed: int, factor: int, sig: np.ndarray,
              columns: list, l: int) -> np.ndarray:
    """Squared L2 FEM errors of one trajectory, shape (n_beta, n_h).

    One noise draw feeds every beta.  Per beta, columns holds (hom, w_n,
    meshes): hom and w_n give the spectral solution, and each mesh is
    (products, hom, time weights).
    """
    seed = trajectory_seed(base_seed, l)
    paths = coarsen(generate(spec, seed), factor)
    forced = sig * paths.increments  # sigma_k(t_i) * increment
    out = []
    for hom, w_n, meshes in columns:
        un = hom + (w_n * paths.increments).sum(axis=1)
        out.append([_cross_error_sq(un, _fem_apply(products, mhom, wt, forced), products)
                    for products, mhom, wt in meshes])
    out = np.array(out)
    if not np.isfinite(out).all():
        raise DomainError(f"non-finite error in trajectory {l} (seed {seed})")
    return out


def fem_error_samples(cfg: ExperimentConfig, orders, n_workers: int = 1) -> np.ndarray:
    """Per-trajectory squared L2 FEM errors, shape (m_traj, len(orders), len(h_list)),
    column i at the fractional orders orders[i].

    Runs at the single coarse step cfg.dt_list[0].  One noise draw per
    trajectory feeds every column: the same increments drive the spectral
    solution and, through the mode projections, every mesh.  Each mesh is
    built once, before any trajectory, and applied per trajectory by the
    code of `fem_solution` and `l2_error_cross`.
    """
    _require_sweep("fem_error_samples", orders, "h_list", cfg.h_list)
    if len(cfg.dt_list) != 1:
        raise DomainError("fem_error_samples: configure exactly one dt in dt_list")
    dt = cfg.dt_list[0]
    steps, factor = cfg.coarse_steps(dt)
    spec = cfg.noise_spec()
    v1 = parabola_coeffs(cfg.k_modes)
    v2 = ramp_coeffs(cfg.k_modes)
    sig = spec.sigma_matrix(dt * np.arange(steps), truncated=True)
    columns = []
    for o in orders:
        meshes = []
        for mesh in cfg.meshes():
            spectrum = discrete_spectrum(mesh, o.beta)
            products = sine_products(spectrum, cfg.k_modes)  # (e_k, e_j^h), (K, N)
            lamh = spectrum.eigenvalues
            fem_hom = _homogeneous(o.alpha, lamh, cfg.T, np.einsum("k,kj->j", v1, products),
                                   np.einsum("k,kj->j", v2, products))
            meshes.append((products, fem_hom,
                           _time_weights(o.alpha, lamh, 1.0, cfg.T, dt, steps, "exact")))
        columns.append((homogeneous_solution(o, v1, v2, cfg.T),
                        convolution_weights(o, spec, dt, steps, rule="exact", truncated=True),
                        meshes))
    traj = functools.partial(_fem_traj, spec, cfg.base_seed, factor, sig, columns)
    return np.stack(_pool_map(traj, range(cfg.m_traj), n_workers), axis=0)


def fem_error_tables(cfg: ExperimentConfig, orders, n_workers: int = 1) -> list[RateTable]:
    """Root-mean-squared FEM errors and rates over cfg.h_list, one table per
    entry of orders, sharing trajectories and noise."""
    samples = fem_error_samples(cfg, orders, n_workers)
    return [_table_from_samples(samples[:, i, :], cfg.h_list, _meta(cfg, o, dt=cfg.dt_list[0]))
            for i, o in enumerate(orders)]


# ---------------------------------------------------------------------------
# homogeneous stability report
# ---------------------------------------------------------------------------

def stability_report(orders: FracOrders) -> dict:
    """Decay and continuity diagnostics for the noise-free evolution.

    For initial displacement in mode 50 alone the coefficient is exactly
    E_{a,1}(-lam^b t^a), which decays like t^(-a) once lam^b t^a is large;
    the report fits that exponent on a 25-point log grid placed beyond the
    point where the oscillatory transient has died out (meaningful for
    alpha away from 2).  Small-time continuity uses the parabolic-bump datum.
    """
    alpha, beta = orders.alpha, orders.beta
    mode = 50
    lam = float(fractional_eigenvalues(beta, mode)[-1])
    x_min = max(100.0, (12.0 / abs(math.cos(math.pi / alpha))) ** alpha)
    t_lo = (x_min / lam) ** (1.0 / alpha)
    t_hi = (1e6 * x_min / lam) ** (1.0 / alpha)
    t_grid = np.geomspace(t_lo, t_hi, 25)
    vals = np.abs(ml_values(alpha, 1.0, -lam * t_grid**alpha))
    slope = float(np.polyfit(np.log(t_grid), np.log(vals), 1)[0])

    k_data = 2000
    v1 = parabola_coeffs(k_data)
    t_small = np.geomspace(1e-4, 0.5, 12)[::-1]
    cont = []
    for t in t_small:
        u = homogeneous_solution(orders, v1, np.zeros(k_data), float(t))
        cont.append(sobolev_norm(u - v1, 0.0))
    return {
        "alpha": alpha,
        "beta": beta,
        "mode": mode,
        "decay_t": t_grid,
        "decay_values": vals,
        "fitted_exponent": slope,
        "expected_exponent": -alpha,
        "continuity_t": t_small,
        "continuity_errors": np.asarray(cont),
    }


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def write_rate_table(table: RateTable, filename) -> None:
    """CSV with shortest round-trip floats and '#'-prefixed metadata lines."""
    lines = []
    for key in ("alpha", "beta", "m_traj", "seed", "build"):
        lines.append(f"# {key} = {table.meta.get(key)}")
    lines.append("resolution,error,rate,stderr")
    for i in range(table.errors.size):
        rate = "" if i == 0 or not np.isfinite(table.rates[i]) else _fmt(table.rates[i])
        lines.append(",".join([_fmt(table.resolutions[i]), _fmt(table.errors[i]),
                               rate, _fmt(table.stderrs[i])]))
    _write_lines(filename, lines)


def _write_lines(filename, lines: list[str]) -> None:
    """Write newline-terminated lines through a temporary file and os.replace,
    so a reader never sees a partly written file."""
    tmp = str(filename) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, str(filename))
