"""Command-line front end.

Subcommands: `ml` (point evaluation of E_{alpha,beta}), `table1` (modeling
error vs time step, one CSV per alpha), `table2` (Galerkin error vs mesh
width, one CSV per beta), `spectrum` (discrete fractional Laplacian
eigenvalues), `stability` (homogeneous decay/continuity diagnostics).

Exit codes: 0 success, 1 usage error, 2 domain error, 3 I/O error.
Output directory resolution: --out flag, else $FRACWAVE_OUT, else the
working directory.  A config file (flat `key = value` TOML, read by
`tomllib`) may supply any experiment knob; flags override it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

# One BLAS thread in every process, set before numpy loads.  --threads is the
# command's parallelism, and a matrix product that BLAS splits over threads
# may round differently, so table 1's CSV bytes would otherwise depend on the
# BLAS thread count.  `import fracwave` does not load numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

from .errors import ConvergenceError, DomainError
from .experiments import (
    DEFAULT_DT_LIST,
    DEFAULT_H_LIST,
    ExperimentConfig,
    _fmt,
    _write_lines,
    fem_error_tables,
    modeling_error_tables,
    stability_report,
    write_rate_table,
)
from .fem import DEFAULT_K_SERIES, FemMesh, discrete_spectrum
from .mittag_leffler import ml
from .spectral import FracOrders, fractional_eigenvalues

DEFAULT_SEED = 12345
DEFAULT_ALPHAS = (1.1, 1.25, 1.5, 1.75, 2.0)
DEFAULT_BETAS = (0.6, 0.8, 1.0)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for domain errors
        raise _UsageError(message)


def _sci17(value: float) -> str:
    """17 significant digits, scientific, exponent without zero padding."""
    mantissa, exp = f"{value:.16e}".split("e")
    return f"{mantissa}e{int(exp)}"


def _parse_config(path: str) -> dict:
    """A flat TOML file of `key = value` lines, read by `tomllib`.

    A table (a `[section]` header, a dotted key or an inline table) is a
    domain error, so no setting in one is silently ignored.
    """
    import tomllib

    try:
        with open(path, "rb") as fh:
            out = tomllib.load(fh)
    except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
        raise DomainError(f"config {path}: {exc}; expected flat key = value lines") from None
    for key, value in out.items():
        if isinstance(value, dict):
            raise DomainError(f"config {path}: {key} is a table; expected flat key = value lines")
    return out


def _floats(value) -> list[float]:
    return [float(x) for x in value]


def _table_file(stem: str, value: float) -> str:
    """The CSV name of a sweep's table at value, such as table1_alpha1.5.csv."""
    return f"{stem}{value:g}.csv"


def _sweep(key: str, stem: str, values: list[float]) -> list[float]:
    """values, unless two of them name the same table file and so would be
    computed twice and written once."""
    names = [_table_file(stem, v) for v in values]
    if len(set(names)) < len(names):
        raise DomainError(f"config {key}: {values} gives two tables the same file name")
    return values


def _grid(value) -> tuple[float, ...]:
    """A non-empty list of steps or mesh widths; `ExperimentConfig` checks each."""
    grid = tuple(_floats(value))
    if not grid:
        raise ValueError(value)
    return grid


def _step(value) -> float:
    """A time step whose step count round(1/dt) exists: positive, 1/dt finite."""
    dt = float(value)
    if not (dt > 0.0 and math.isfinite(1.0 / dt)):
        raise ValueError(value)
    return dt


def _setting(args, cfg: dict, key: str, default, convert):
    """The flag, else the config value, else default, passed through convert.

    A value convert rejects (`m_traj = "ten"`, `seed = [1, 2]`,
    `k_modes = inf`) is a domain error that names the key, raised while the
    settings are read, before any work starts.
    """
    flag = getattr(args, key, None)
    value = flag if flag is not None else cfg.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"config {key}: invalid value {value!r}") from None


def _out_dir(args) -> str:
    out = args.out or os.environ.get("FRACWAVE_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_csv(path: str, comment_lines: list[str], header: str, rows: list[str]) -> None:
    _write_lines(path, [f"# {line}" for line in comment_lines] + [header] + rows)


def _workers(args, cfg: dict) -> int:
    """--threads, else the config's `threads`; 0 or unset means every core.

    A negative --threads is a usage error at parse time (`_nonnegative_int`); a
    negative config value is a domain error, raised before any work starts.
    """
    threads = _setting(args, cfg, "threads", 0, int)
    if threads < 0:
        raise DomainError(f"config threads must be >= 0 (got {threads})")
    return threads or (os.cpu_count() or 1)


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer (got {text!r})")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (got {value})")
    return value


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_ml(args) -> int:
    print(_sci17(ml(args.alpha, args.beta, args.z)))
    return 0


def _cmd_table1(args) -> int:
    cfg_file = _parse_config(args.config) if args.config else {}
    alphas = _sweep("alpha_list", "table1_alpha",
                    _setting(args, cfg_file, "alpha_list", DEFAULT_ALPHAS, _floats))
    beta = _setting(args, cfg_file, "beta", 0.75, float)
    m_traj = _setting(args, cfg_file, "m_traj", 1000, int)
    seed = _setting(args, cfg_file, "seed", DEFAULT_SEED, int)
    n_fine = _setting(args, cfg_file, "n_fine", 1000, int)
    k_modes = _setting(args, cfg_file, "k_modes", 1000, int)
    n_cutoff = _setting(args, cfg_file, "n_cutoff", k_modes, int)
    dt_list = _setting(args, cfg_file, "dt_list", DEFAULT_DT_LIST, _grid)
    threads = _workers(args, cfg_file)

    cfg = ExperimentConfig(m_traj=m_traj, base_seed=seed, n_fine=n_fine, k_modes=k_modes,
                           n_cutoff=n_cutoff, dt_list=dt_list, h_list=())
    orders = [FracOrders(alpha, beta) for alpha in alphas]
    tables = modeling_error_tables(cfg, orders, n_workers=threads) if orders else []
    return _write_tables(args, "table1_alpha", alphas, tables, "modeling-error")


def _cmd_table2(args) -> int:
    cfg_file = _parse_config(args.config) if args.config else {}
    alpha = _setting(args, cfg_file, "alpha", 1.5, float)
    betas = _sweep("beta_list", "table2_beta",
                   _setting(args, cfg_file, "beta_list", DEFAULT_BETAS, _floats))
    dt = _setting(args, cfg_file, "dt", 0.01, _step)
    m_traj = _setting(args, cfg_file, "m_traj", 500, int)
    seed = _setting(args, cfg_file, "seed", DEFAULT_SEED, int)
    k_modes = _setting(args, cfg_file, "k_modes", 1000, int)
    n_cutoff = _setting(args, cfg_file, "n_cutoff", k_modes, int)
    h_list = _setting(args, cfg_file, "h_list", DEFAULT_H_LIST, _grid)
    k_series = _setting(args, cfg_file, "fem_k_series", DEFAULT_K_SERIES, int)
    threads = _workers(args, cfg_file)

    cfg = ExperimentConfig(m_traj=m_traj, base_seed=seed, n_fine=round(1.0 / dt),
                           k_modes=k_modes, n_cutoff=n_cutoff, dt_list=(dt,), h_list=h_list,
                           fem_k_series=k_series)
    orders = [FracOrders(alpha, beta) for beta in betas]
    tables = fem_error_tables(cfg, orders, n_workers=threads) if orders else []
    return _write_tables(args, "table2_beta", betas, tables, "Galerkin-error")


def _write_tables(args, stem: str, values: list[float], tables: list, kind: str) -> int:
    """Write the table of each sweep value to its `_table_file`."""
    out = _out_dir(args)
    for value, table in zip(values, tables):
        write_rate_table(table, os.path.join(out, _table_file(stem, value)))
    print(f"wrote {len(tables)} {kind} tables to {out}")
    return 0


def _cmd_spectrum(args) -> int:
    spectrum = discrete_spectrum(FemMesh(args.n), args.beta, args.k_series)
    lam_frac = fractional_eigenvalues(args.beta, args.n)
    rows = [",".join([str(j + 1), _fmt(spectrum.eigenvalues[j]), _fmt(lam_frac[j])])
            for j in range(args.n)]
    out = _out_dir(args)
    path = os.path.join(out, f"spectrum_n{args.n}_beta{args.beta:g}.csv")
    _write_csv(path, [f"n_interior = {args.n}", f"beta = {args.beta}",
                      f"k_series = {args.k_series}"],
               "j,lambda_h,lambda_frac", rows)
    print(path)
    return 0


def _cmd_stability(args) -> int:
    rep = stability_report(FracOrders(args.alpha, args.beta))
    rows = [f"decay,{_fmt(t)},{_fmt(v)}"
            for t, v in zip(rep["decay_t"], rep["decay_values"])]
    rows += [f"continuity,{_fmt(t)},{_fmt(v)}"
             for t, v in zip(rep["continuity_t"], rep["continuity_errors"])]
    out = _out_dir(args)
    path = os.path.join(out, f"stability_alpha{args.alpha:g}_beta{args.beta:g}.csv")
    _write_csv(path, [f"alpha = {args.alpha}", f"beta = {args.beta}",
                      f"fitted_exponent = {rep['fitted_exponent']}",
                      f"expected_exponent = {rep['expected_exponent']}"],
               "section,t,value", rows)
    print(path)
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="fracwave",
                     description="Stochastic fractional wave equation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ml = sub.add_parser("ml", help="evaluate E_{alpha,beta}(z)")
    p_ml.add_argument("--alpha", type=float, required=True)
    p_ml.add_argument("--beta", type=float, required=True)
    p_ml.add_argument("--z", type=float, required=True)
    p_ml.set_defaults(func=_cmd_ml)

    def experiment_flags(p):
        p.add_argument("--config", help="flat key = value TOML config file")
        p.add_argument("--seed", type=int, dest="seed")
        p.add_argument("--out", help="output directory (default $FRACWAVE_OUT or .)")
        p.add_argument("--threads", type=_nonnegative_int,
                       help="workers for set-up and trajectories (default: all cores)")
        p.add_argument("--m-traj", type=int, dest="m_traj")

    p_t1 = sub.add_parser("table1", help="modeling error vs time step")
    experiment_flags(p_t1)
    p_t1.set_defaults(func=_cmd_table1)

    p_t2 = sub.add_parser("table2", help="Galerkin error vs mesh width")
    experiment_flags(p_t2)
    p_t2.set_defaults(func=_cmd_table2)

    p_sp = sub.add_parser("spectrum", help="discrete fractional Laplacian eigenvalues")
    p_sp.add_argument("--n", type=int, required=True, help="interior node count")
    p_sp.add_argument("--beta", type=float, required=True)
    p_sp.add_argument("--k-series", type=int, default=DEFAULT_K_SERIES, dest="k_series")
    p_sp.add_argument("--out")
    p_sp.set_defaults(func=_cmd_spectrum)

    p_st = sub.add_parser("stability", help="homogeneous decay diagnostics")
    p_st.add_argument("--alpha", type=float, required=True)
    p_st.add_argument("--beta", type=float, required=True)
    p_st.add_argument("--out")
    p_st.set_defaults(func=_cmd_stability)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
