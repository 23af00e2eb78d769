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

The modeling-error experiment draws, per alpha, only the noise modes that
carry more than a 1e-14 share of its mean, and adds the mean of the rest
to every sample: a control variate with a known mean, so the estimate
stays unbiased.  It builds only the weight rows that choice needs; the
means of the rows it does not build are interpolated (`_cut_grids`), so
the added tail is within about 1% of the exact one, a 1e-16 share.

Work is spread over fork children one phase at a time (`_fork_map`), each
phase with its own worker count, and a phase of at most one item runs in
this process.  Only per-trajectory or per-batch errors and the modeling
error's drawn-mode counts and tails cross the pipes.  The Galerkin
children inherit the FEM products built before the fork.  The modeling
error runs two phases: a set-up child builds the rows of its alphas'
weight grids that the cut needs and writes only the rows the batches read
to anonymous shared mappings made before the fork; the batch children,
forked after the set-up, inherit those rows.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import reprlib
import subprocess
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import DomainError
from .fem import FemMesh, _cross_error_sq, _fem_apply, discrete_spectra, sine_products
from .mittag_leffler import ml_values
from .noise import (NoiseSpec, _check_entries, _ModeStreams, _step_count, generate,
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
    constant, with noise on the fine grid of n_fine steps.  dt_list holds
    the coarse time steps of the modeling-error experiment and only it reads
    them; h_list holds the mesh widths of the Galerkin experiment, which
    runs at the noise step T/n_fine and assembles each mesh's stiffness
    matrix from the full spectral series (`fem.DEFAULT_K_SERIES` terms
    summed, the rest in closed form).  The config checks what both read:
    m_traj >= 1, base_seed in [0, 2^64), the seeds that `trajectory_seed`
    tells apart, and by `NoiseSpec` n_fine, n_cutoff and the k_modes x
    n_fine noise matrix against the entry cap.  Each grid is checked by the
    experiment that reads it, before any grid, spectrum or fork: dt_list by
    `coarse_steps` and `_modeling_weights`, h_list by `meshes`.  Both ask
    `noise._step_count` whether a step is T/n.
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
            raise DomainError(f"ExperimentConfig: seed {reprlib.repr(self.base_seed)} is not in "
                              "[0, 2^64)")
        self.noise_spec()  # 1 <= n_cutoff <= k_modes, n_fine >= 1, the noise matrix cap

    @property
    def dt_fine(self) -> float:
        return self.T / self.n_fine

    def coarse_steps(self, dt: float) -> tuple[int, int]:
        """(number of coarse steps, coarsening factor) for a coarse dt: a
        step T/n (`noise._step_count`) whose grid nests in the fine grid."""
        steps = _step_count("ExperimentConfig: dt_list step", dt, self.T)
        if self.n_fine % steps != 0:
            raise DomainError(f"coarse grid with dt = {dt} does not nest in the fine grid")
        return steps, self.n_fine // steps

    def meshes(self) -> tuple[FemMesh, ...]:
        """The mesh of each width in h_list, checked before any matrix
        exists: each width is 1/(N+1) to 1e-9 relative (`noise._step_count`)
        with N >= 1, its N x N dense matrices (`FemMesh`) and its k_modes x N
        mode products fit the entry cap, and no two widths give one mesh."""
        meshes = []
        for h in self.h_list:
            n = _step_count("ExperimentConfig: h_list width", h)
            if n < 2:
                raise DomainError(f"ExperimentConfig: h_list width {h} leaves no interior node")
            meshes.append(FemMesh(n - 1))
        first = {}
        for h, mesh in zip(self.h_list, meshes):
            _check_entries("ExperimentConfig: mode products", self.k_modes, mesh.n_interior)
            if mesh in first:
                raise DomainError(f"ExperimentConfig: h_list widths {first[mesh]} and {h} give "
                                  f"one mesh {mesh}")
            first[mesh] = h
        return tuple(meshes)

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
    if not ((0.0 < errors) & (errors < np.inf)).all():
        raise DomainError("compute_rates: errors must be finite and positive "
                          f"(got {reprlib.repr(errors.tolist())})")
    if not ((0.0 < resolutions) & (resolutions < np.inf)).all() or (
            resolutions[:-1] == resolutions[1:]).any():
        raise DomainError("compute_rates: resolutions must be finite, positive and differ from "
                          f"the next (got {reprlib.repr(resolutions.tolist())})")
    return np.log(errors[:-1] / errors[1:]) / np.log(resolutions[:-1] / resolutions[1:])


@functools.cache
def _build_tag() -> str:
    """`git describe` of the repository that tracks this package's source,
    computed once per process.  A copy that the enclosing work tree does not
    track, such as one installed in a project's virtual environment, gets
    `fracwave-<version>`, not the enclosing project's commit."""
    git = functools.partial(subprocess.run, cwd=os.path.dirname(os.path.abspath(__file__)),
                            capture_output=True, text=True, timeout=10)
    try:
        if git(["git", "ls-files", "--error-unmatch", os.path.basename(__file__)]).returncode == 0:
            out = git(["git", "describe", "--always", "--dirty"])
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    from . import __version__

    return f"fracwave-{__version__}"


def _rate_tables(cfg: ExperimentConfig, orders, samples: np.ndarray,
                 resolutions) -> list[RateTable]:
    """One `RateTable` per entry o of orders, from its column of squared-error
    samples, shape (m_traj, len(orders), len(resolutions)); its meta is o,
    cfg.m_traj, cfg.base_seed and the `_build_tag`."""
    m, tables = samples.shape[0], []
    for o, column in zip(orders, samples.transpose(1, 0, 2)):
        mean_sq = column.mean(axis=0)
        errors = np.sqrt(mean_sq)
        se_mean_sq = column.std(axis=0, ddof=1) / math.sqrt(m) if m > 1 else np.zeros_like(mean_sq)
        with np.errstate(divide="ignore", invalid="ignore"):
            stderrs = np.where(errors > 0.0, se_mean_sq / (2.0 * errors), 0.0)
        rates = np.full(errors.size, np.nan)  # no rate where either error of a pair is 0
        for j in np.flatnonzero(np.minimum(errors[:-1], errors[1:]) > 0.0):
            rates[j + 1] = compute_rates(errors[j : j + 2], resolutions[j : j + 2])[0]
        meta = {"alpha": o.alpha, "beta": o.beta, "m_traj": cfg.m_traj, "seed": cfg.base_seed,
                "build": _build_tag()}
        tables.append(RateTable(resolutions=np.asarray(resolutions, dtype=float), errors=errors,
                                rates=rates, stderrs=stderrs, meta=meta))
    return tables


# ---------------------------------------------------------------------------
# modeling error: reference vs regularized solution under time coarsening
# ---------------------------------------------------------------------------

def _cores() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one (a cpuset or `taskset` narrows it), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_count(n_workers: int, n_items: int) -> int:
    """The fork children of a phase of n_items items: min(n_workers,
    n_items, cores).  At most 1 runs the phase in this process."""
    return min(n_workers, n_items, _cores())


def _fork_map(fn, items, n_workers: int) -> list:
    """[fn(x) for x in items], for a sequence items, in this process when
    `_fork_count` is <= 1, else on that many fork children.

    Child w runs items w, w + n, ... of the n children.  Its target closes
    over fn, which the fork passes on without pickling, so fn may be bound
    to arrays of any size or to shared mappings made before the fork.  A
    child sends back its list of results, or fn's exception, through a
    one-way pipe; the results come back in item order whatever the worker
    count.  A child that ends before it sends is a ChildProcessError that
    names it.  Every child is killed and joined before this returns.
    """
    n = _fork_count(n_workers, len(items))
    if n <= 1:
        return [fn(x) for x in items]
    import multiprocessing.connection  # loads only where a run forks, like `_shared_array`'s mmap

    def child(w, send):
        try:
            send.send([fn(x) for x in items[w::n]])
        except Exception as exc:  # of fn, or a result that cannot be pickled
            send.send(exc)

    ctx, children, readers, results = multiprocessing.get_context("fork"), [], {}, [None] * n
    try:
        for w in range(n):  # each pipe made just before its child, so no other child holds it
            recv, send = ctx.Pipe(duplex=False)
            children.append(ctx.Process(target=child, args=(w, send)))
            children[-1].start()
            send.close()  # now only the child holds it, so its end is EOF here
            readers[recv] = w
        while readers:  # in the order the children finish
            w = readers.pop(recv := multiprocessing.connection.wait(list(readers))[0])
            try:
                results[w] = recv.recv()
            except EOFError:
                raise ChildProcessError(f"worker {w} of {n} (pid {children[w].pid}) ended before "
                                        "it sent its results") from None
            if isinstance(results[w], Exception):
                raise results[w]
        return [results[i % n][i // n] for i in range(len(items))]
    finally:
        for c in children:
            c.kill()
            c.join()


def _require_sweep(where: str, m_traj: int, orders, grid_name: str, grid) -> None:
    """A DomainError for an empty list of orders or of grids, or for an
    (m_traj, orders, grid) sample array above the entry cap, raised before
    any grid, spectrum or fork."""
    for what, items in (("sweep of fractional orders", orders), (grid_name, grid)):
        if not len(items):
            raise DomainError(f"{where}: the {what} is empty")
    _check_entries(f"{where}: samples", m_traj, len(orders), len(grid))


def _shared_array(shape) -> np.ndarray:
    """An uninitialized float array in an anonymous shared mapping: what a
    fork worker writes to it, the parent and every other worker read.  The
    mapping has no name and goes with the last process that holds it."""
    import mmap  # loads only where a run forks; a one-worker run never needs it

    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=np.float64).reshape(shape)


def _alpha_grids(cfg: ExperimentConfig, orders: FracOrders, rule: str, rows=None) -> list:
    """[w_ref, *w_coarse]: the full K x n_steps weight grids of one entry of
    a table-1 sweep, or only their rows `rows`, the same bits: the fine
    left-rule grid and then the rule grid of each step of cfg.dt_list, each
    one `convolution_weights` call.  The fine grid comes first, so its
    kernel scratch, the largest, meets no finished grid of its alpha."""
    spec = cfg.noise_spec()
    return [convolution_weights(orders, spec, cfg.dt_fine, cfg.n_fine, "left", False, rows),
            *(convolution_weights(orders, spec, dt, cfg.coarse_steps(dt)[0], rule, True, rows)
              for dt in cfg.dt_list)]


#: A table-1 cut (`_cut_grids`) takes the exact means of rows 1.._HEAD_ROWS,
#: samples every _SAMPLE_STRIDE-th row after them, and evaluates
#: _KEPT_MARGIN rows past each estimate of K*, at most _CUT_BLOCK rows per
#: `_alpha_grids` call.
_HEAD_ROWS, _SAMPLE_STRIDE, _KEPT_MARGIN, _CUT_BLOCK = 64, 16, 16, 128


def _cut_grids(cfg: ExperimentConfig, orders: FracOrders,
               rule: str) -> tuple[int, np.ndarray, list]:
    """(K*, tails, pieces) of one entry of a table-1 sweep, from only the
    grid rows it needs: pieces is a list of (rows, [w_ref, *w_coarse] of
    those rows), each rows an ascending index array; no row is in two
    pieces, and together they hold rows 1..K* and the other rows evaluated.

    The exact means (`_mode_means`) of rows 1.._HEAD_ROWS, of every
    _SAMPLE_STRIDE-th row after them and of the last row come first; every
    other row's mean is interpolated, log(mean) linear in log k per column
    (0 next to a zero mean).  `_kept_modes` of those means estimates K*,
    and the rows after the evaluated ones up to that estimate plus
    _KEPT_MARGIN that no earlier piece holds are evaluated, _CUT_BLOCK rows
    per piece, and their means made exact.  This repeats until K* lies
    within the evaluated rows, so every kept row is evaluated once, never
    guessed; K* and the tails count the exact means where a row was
    evaluated and the interpolated ones elsewhere.  With K <= _HEAD_ROWS
    every mean is exact.
    """
    k_all = cfg.k_modes
    head = min(_HEAD_ROWS, k_all)
    sampled = np.unique(np.r_[:head, head + _SAMPLE_STRIDE - 1 : k_all : _SAMPLE_STRIDE, k_all - 1])
    pieces = [(sampled, _alpha_grids(cfg, orders, rule, sampled))]
    exact = _mode_means(cfg.dt_fine, pieces[0][1])
    ln_k = np.log(np.arange(1.0, k_all + 1))
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) = -inf, then nan
        means = np.exp([np.interp(ln_k, ln_k[sampled], np.log(col)) for col in exact.T]).T
    means[np.isnan(means)] = 0.0
    means[sampled] = exact
    done = head
    while True:
        k, tails = _kept_modes(means)
        if k <= done:
            return k, tails, pieces
        hi = min(k_all, k + _KEPT_MARGIN)
        missing = np.setdiff1d(np.arange(done, hi), sampled)
        for lo in range(0, missing.size, _CUT_BLOCK):
            rows = missing[lo : lo + _CUT_BLOCK]
            pieces.append((rows, _alpha_grids(cfg, orders, rule, rows)))
            means[rows] = _mode_means(cfg.dt_fine, pieces[-1][1])
        done = hi


def _modeling_weights(cfg: ExperimentConfig, orders, rule: str, n_workers: int):
    """(w_ref, w_coarse, tails): per entry a of orders, rows 1..K* of its
    fine left-rule grid and of its coarse grids, and tails[a], for the
    drawn modes K* and the tails that `_cut_grids` gives.

    Before any grid or fork, each step of cfg.dt_list is checked
    (`ExperimentConfig.coarse_steps`), and no two may give the same number
    of steps: the row would be computed twice, with no rate between.

    `cut(a)` runs for each alpha in one `_fork_map`: it builds only the rows
    of that alpha's grids that `_cut_grids` needs to find its K* and tails,
    each row the same bits as the full grid's at any worker count, joins
    rows 1..K* of each grid and returns (K*, tails).  The join copies each
    piece's rows of a grid below K* to their place and drops them before the
    next piece, so it holds one grid's kept rows beside what is left of the
    pieces.  When this runs in this process, the kept rows of each grid are
    a new array of exactly K* rows.  When it forks, each grid is a full-size
    `_shared_array` made before the fork: its alpha's child writes the kept
    rows there and no other, so pages past them are never touched, and only
    the cuts cross the pipes; the parent never reads the grids.
    """
    steps = [cfg.coarse_steps(dt)[0] for dt in cfg.dt_list]
    if len(set(steps)) < len(steps):
        raise DomainError(f"ExperimentConfig: two dt_list entries give one grid {steps}")
    shared = _fork_count(n_workers, len(orders)) > 1
    grids = [[_shared_array((cfg.k_modes, n)) if shared else None for n in (cfg.n_fine, *steps)]
             for _ in orders]

    def cut(a):
        k, tails, pieces = _cut_grids(cfg, orders[a], rule)
        for g, dest in enumerate(grids[a]):  # shared rows are seen by the parent and later children
            out = np.empty((k, pieces[0][1][g].shape[1])) if dest is None else dest[:k]
            for rows, p in pieces:
                n = int(np.searchsorted(rows, k))
                out[rows[:n]] = p[g][:n]
                p[g] = None  # each piece's rows go once joined
            grids[a][g] = out
        return k, tails

    cuts = _fork_map(cut, range(len(orders)), n_workers)
    rows = [[g[:k] for g in gs] for gs, (k, _) in zip(grids, cuts)]
    return [r[0] for r in rows], [r[1:] for r in rows], np.array([t for _, t in cuts])


#: Trajectories per batch of a modeling-error run: batch q holds trajectories
#: [32 q, min(32 q + 32, m_traj)), so every result depends on the seed, the
#: trajectory index and m_traj alone, never on the worker count.
_BATCH = 32
#: Most modes in one block of a batch, the unit in which squared errors are
#: summed.  A block is drawn and multiplied half at a time: at the paper's
#: shapes a half's draws (8 x 32 x 1000) and one alpha's weight differences
#: (8 x 5 x 1000) take 2 and 0.3 MiB.
_MODE_BLOCK = 16
#: Largest share of a column's exact mean left to the modes that are not
#: drawn.  It lies below the rounding of a 1000-term sum of the means.
_TAIL_SHARE = 1e-14


def _block_shape(k_modes: int, batch: int, n_dt: int) -> tuple[int, int, int]:
    """(modes, trajectories, columns) of one block of a modeling-error batch.

    The draw buffer, modes x trajectories x n_fine, stays within one
    trajectory's K x n_fine noise matrix, and the weight differences of one
    alpha, modes x columns x n_fine, within its fine weight grid of
    K x n_fine.  Trajectories and columns are split only when k_modes is
    below the batch size or the number of coarse steps.
    """
    modes = max(1, min(_MODE_BLOCK, k_modes // batch, k_modes // n_dt))
    return modes, min(batch, k_modes // modes), min(n_dt, k_modes // modes)


def _differences(ref: np.ndarray, coarse: np.ndarray, out=None) -> np.ndarray:
    """D = ref - repeat(coarse, f, axis=1) for rows of a fine grid, shape
    (rows, n_fine), and the same rows of a coarse grid of n_fine / f steps,
    by one subtraction on (rows, coarse steps, f) views.  It is written to
    out when given, a (rows, n_fine) array of any strides: splitting its
    last axis is always a view, so out itself is filled."""
    shape = (len(ref), coarse.shape[1], ref.shape[1] // coarse.shape[1])
    out = np.empty(ref.shape) if out is None else out
    np.subtract(ref.reshape(shape), coarse[:, :, None], out=out.reshape(shape))
    return out


def _mode_means(dt_fine: float, grids: list) -> np.ndarray:
    """Exact means of the modes of one alpha's squared modeling error, shape
    (rows, n_dt), from the same rows of its grids [w_ref, *w_coarse]
    (`_alpha_grids`).

    Mode k's error in column j is sum_i D[k, i] xi[k, i], with D as in
    `_modeling_traj` and independent xi ~ N(0, dt_fine), so its mean is
    m_k = dt_fine ||D_k||^2.  The errors of different modes are independent
    centred normals, so a sample's mean is sum_k m_k and its variance
    2 sum_k m_k^2.  D is built `_MODE_BLOCK` rows at a time
    (`_differences`), so its scratch stays at one block.
    """
    out = np.empty((len(grids[0]), len(grids) - 1))
    for lo in range(0, len(out), _MODE_BLOCK):
        for j, coarse in enumerate(grids[1:]):
            d = _differences(grids[0][lo : lo + _MODE_BLOCK], coarse[lo : lo + _MODE_BLOCK])
            out[lo : lo + _MODE_BLOCK, j] = np.einsum("ki,ki->k", d, d)
    return dt_fine * out


def _kept_modes(means: np.ndarray) -> tuple[int, np.ndarray]:
    """(K*, tails) from one alpha's per-mode means, shape (K, n_dt), exact or
    in part interpolated (`_cut_grids`).

    K* is the least count >= 1 at which the means of modes K* + 1..K add up
    to at most `_TAIL_SHARE` of the total in every column; a column whose
    total is 0 does not count.  tails[j] is that sum, correctly rounded.  A
    batch multiplies modes 1..K* alone for the alpha and adds tails[j]: the
    tail is a control variate with a known mean, so each sample's mean stays
    exact (Glasserman, Monte Carlo Methods in Financial Engineering, 2003,
    section 4.1).
    """
    after = np.cumsum(means[::-1], axis=0)[::-1]  # after[k]: modes k + 1..K
    ok = ((after[1:] <= _TAIL_SHARE * after[0]) | (after[0] == 0.0)).all(axis=1)
    kept = 1 + int(np.argmax(ok)) if ok.any() else len(means)
    return kept, np.array([math.fsum(col) for col in means[kept:].T])


def _modeling_traj(cfg: ExperimentConfig, w_ref: list, w_coarse: list, tails: np.ndarray,
                   first: int) -> np.ndarray:
    """Squared errors of the batch of trajectories [first, min(first + _BATCH,
    cfg.m_traj)), shape (B, n_alpha, n_dt) for the B trajectories of the
    batch, from rows 1..K*_a of each alpha's grids (`_modeling_weights`):
    K*_a is len(w_ref[a]), and a coarse grid's factor is n_fine over its
    number of steps.

    The homogeneous parts of the reference and the regularized solution
    cancel exactly, so in column (a, j) mode k's error is the dot product of
    its fine increments with row k of D = w_ref[a] - repeat(w_coarse[a][j]),
    a difference of weights that does not cancel against the size of the
    solutions.  Column (a, j) adds the squares of modes 1..K*_a and then
    tails[a, j], the mean of the rest (`_kept_modes`).  Per block of modes
    up to the largest K*, and within it per half block, each trajectory's
    rows are drawn once from its own `_ModeStreams`; then per alpha, D is
    built from that alpha's kept rows of the half (`_differences`), and one
    matmul per mode gives every (trajectory, step) error.  A block's sums
    start at zero and add each mode's squares in ascending mode order; then
    the block sums are added over ascending blocks.  A sum of squares is
    >= +0, so its first addition to zero is exact and an alpha with no mode
    in the block adds +0: halving the buffers keeps the bits of a
    whole-block draw.  No product mixes alphas, and its shape comes from the
    batch, n_fine, n_dt and the configured K, so a column's bits depend on
    its own alpha alone, whatever the BLAS.
    """
    batch = range(first, min(first + _BATCH, cfg.m_traj))
    seeds = [trajectory_seed(cfg.base_seed, l) for l in batch]
    n_dt, k_max = len(w_coarse[0]), max(map(len, w_ref))
    mb, tb, cb = _block_shape(cfg.k_modes, len(seeds), n_dt)
    half = -(-mb // 2)
    streams = [_ModeStreams(seed) for seed in seeds]
    x = np.empty((half, tb, cfg.n_fine))
    d = np.empty((half, cb, cfg.n_fine))
    part = np.empty((tb, len(w_ref), n_dt))  # one block's sums
    out = np.zeros((len(seeds), len(w_ref), n_dt))
    for lo in range(0, k_max, mb):
        for t0 in range(0, len(seeds), tb):
            rows = min(tb, len(seeds) - t0)
            part[:rows] = 0.0
            for m0 in range(lo, min(lo + mb, k_max), half):
                m1 = min(m0 + half, lo + mb, k_max)  # the half's modes: m0 + 1..m1
                for t, stream in enumerate(streams[t0 : t0 + tb]):
                    stream.draw(m0 + 1, x[: m1 - m0, t], np.sqrt(cfg.dt_fine))
                for a, (ref, coarse) in enumerate(zip(w_ref, w_coarse)):
                    n = min(m1, len(ref)) - m0  # the half's modes of alpha a
                    for j0 in range(0, n_dt if n > 0 else 0, cb):
                        j1 = min(j0 + cb, n_dt)
                        for j in range(j0, j1):
                            _differences(ref[m0 : m0 + n], coarse[j][m0 : m0 + n], d[:n, j - j0])
                        err = np.matmul(x[:n, :rows], d[:n, : j1 - j0].transpose(0, 2, 1))
                        np.square(err, out=err)
                        for e in err:  # ascending modes
                            part[:rows, a, j0:j1] += e
            out[t0 : t0 + rows] += part[:rows]
    bad = np.flatnonzero(~np.isfinite(out).all(axis=(1, 2)))
    if bad.size:
        l = first + int(bad[0])
        raise DomainError(f"non-finite error in trajectory {l} (seed {seeds[bad[0]]})")
    return out + tails


def modeling_error_samples(cfg: ExperimentConfig, orders, rule: str = "exact",
                           n_workers: int = 1) -> np.ndarray:
    """Squared L2 distance reference-vs-regularized per trajectory, shape
    (m_traj, len(orders), n_dt), column i at the fractional orders orders[i].

    One noise draw per trajectory feeds every column and every coarse grid,
    so all comparisons are coupled to the same Brownian paths.  Two phases
    run, each one `_fork_map` on at most n_workers fork children: the
    weight grids of each alpha (`_modeling_weights`), then the batches of
    `_BATCH` trajectories (`_modeling_traj`).  The batch children are forked
    after the set-up, so they inherit every alpha's kept rows and tails,
    and only the per-batch errors cross their pipes.
    """
    _require_sweep("modeling_error_samples", cfg.m_traj, orders, "dt_list", cfg.dt_list)
    traj = functools.partial(_modeling_traj, cfg, *_modeling_weights(cfg, orders, rule, n_workers))
    return np.concatenate(_fork_map(traj, range(0, cfg.m_traj, _BATCH), n_workers), axis=0)


def modeling_error_tables(cfg: ExperimentConfig, orders, rule: str = "exact",
                          n_workers: int = 1) -> list[RateTable]:
    """Root-mean-squared modeling errors and rates over cfg.dt_list, one
    table per entry of orders, sharing trajectories and noise."""
    return _rate_tables(cfg, orders, modeling_error_samples(cfg, orders, rule, n_workers),
                        cfg.dt_list)


# ---------------------------------------------------------------------------
# Galerkin error: spectral regularized solution vs FEM approximation
# ---------------------------------------------------------------------------

def _fem_traj(spec: NoiseSpec, base_seed: int, sig: np.ndarray, columns: list,
              l: int) -> np.ndarray:
    """Squared L2 FEM errors of one trajectory, shape (n_beta, n_h).

    One noise draw on the fine grid of spec feeds every beta.  Per beta,
    columns holds (hom, w_n, meshes): hom and w_n give the spectral
    solution, and each mesh is (products, hom, time weights).
    """
    seed = trajectory_seed(base_seed, l)
    increments = generate(spec, seed).increments
    forced = sig * increments  # sigma_k(t_i) * increment
    out = []
    for hom, w_n, meshes in columns:
        un = hom + (w_n * increments).sum(axis=1)
        out.append([_cross_error_sq(un, _fem_apply(products, mhom, wt, forced), products)
                    for products, mhom, wt in meshes])
    out = np.array(out)
    if not np.isfinite(out).all():
        raise DomainError(f"non-finite error in trajectory {l} (seed {seed})")
    return out


def fem_error_samples(cfg: ExperimentConfig, orders, n_workers: int = 1) -> np.ndarray:
    """Per-trajectory squared L2 FEM errors, shape (m_traj, len(orders), len(h_list)),
    column i at the fractional orders orders[i].

    Runs at the noise step T/n_fine, with no coarsening; cfg.dt_list is
    table 1's and is not read.  The meshes of cfg.h_list are checked
    (`ExperimentConfig.meshes`) before any spectrum or fork.  One noise draw
    per trajectory feeds every column: the same increments drive the
    spectral solution and, through the mode projections, every mesh.  Each
    mesh is built once, before any trajectory, and applied per trajectory
    by the code of `fem_solution` and `l2_error_cross`.
    """
    _require_sweep("fem_error_samples", cfg.m_traj, orders, "h_list", cfg.h_list)
    meshes = cfg.meshes()
    spec = cfg.noise_spec()
    dt, steps = cfg.dt_fine, cfg.n_fine
    v1 = parabola_coeffs(cfg.k_modes)
    v2 = ramp_coeffs(cfg.k_modes)
    sig = spec.sigma_matrix(dt * np.arange(steps), truncated=True)
    columns = []
    for o in orders:
        fem_meshes = []
        for spectrum in discrete_spectra(meshes, o.beta):
            products = sine_products(spectrum, cfg.k_modes)  # (e_k, e_j^h), (K, N)
            lamh = spectrum.eigenvalues
            fem_hom = _homogeneous(o.alpha, lamh, cfg.T, np.einsum("k,kj->j", v1, products),
                                   np.einsum("k,kj->j", v2, products))
            fem_meshes.append((products, fem_hom,
                               _time_weights(o.alpha, lamh, 1.0, cfg.T, dt, steps, "exact")))
        columns.append((homogeneous_solution(o, v1, v2, cfg.T),
                        convolution_weights(o, spec, dt, steps, rule="exact", truncated=True),
                        fem_meshes))
    traj = functools.partial(_fem_traj, spec, cfg.base_seed, sig, columns)
    return np.stack(_fork_map(traj, range(cfg.m_traj), n_workers))


def fem_error_tables(cfg: ExperimentConfig, orders, n_workers: int = 1) -> list[RateTable]:
    """Root-mean-squared FEM errors and rates over cfg.h_list, one table per
    entry of orders, sharing trajectories and noise."""
    return _rate_tables(cfg, orders, fem_error_samples(cfg, orders, n_workers), cfg.h_list)


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
    """The table as a CSV (`_write_csv`): its meta as comment lines, then one
    row per resolution, floats in shortest round-trip form and no rate
    beside the first row or a rate that is not finite."""
    rows = []
    for i in range(table.errors.size):
        rate = "" if i == 0 or not np.isfinite(table.rates[i]) else _fmt(table.rates[i])
        rows.append(",".join([_fmt(table.resolutions[i]), _fmt(table.errors[i]),
                              rate, _fmt(table.stderrs[i])]))
    _write_csv(filename, [f"{key} = {table.meta.get(key)}"
                          for key in ("alpha", "beta", "m_traj", "seed", "build")],
               "resolution,error,rate,stderr", rows)


def _write_csv(path, comments: list[str], header: str, rows: list[str]) -> None:
    """Write comments (each after '# '), header and rows, one per line,
    through a temporary file of this process, `<path>.<pid>.tmp`, and
    os.replace, so a reader never sees a partly written file and two runs
    into one directory never share a temporary file.  A write or replace
    that fails removes the temporary file, if it can, before its error goes
    on; a failed removal never hides that error."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write("\n".join([*(f"# {c}" for c in comments), header, *rows]) + "\n")
        os.replace(tmp, str(path))
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
