"""Command-line front end.

Subcommands: `ml` (point evaluation of E_{alpha,beta}), `table1` (modeling
error vs time step, one CSV per alpha), `table2` (Galerkin error vs mesh
width, one CSV per beta), `spectrum` (discrete fractional Laplacian
eigenvalues), `stability` (homogeneous decay/continuity diagnostics).

Exit codes: 0 success, 1 usage error, 2 domain error, 3 I/O error (a
worker process that died is one).
Output directory resolution: --out flag, else $FRACWAVE_OUT, else the
working directory, checked before any work (`_out_dir`).  A config file
(flat `key = value` TOML, read by `tomllib`) may set any `table1` or
`table2` setting of `_SETTINGS`, with its default's TOML type; flags
override it.  One file can serve both subcommands; a key neither takes is
a domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import math
import os
import re
import reprlib
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
    _cores,
    _fmt,
    _write_csv,
    fem_error_tables,
    modeling_error_tables,
    stability_report,
    write_rate_table,
)
from .fem import FemMesh, discrete_spectrum
from .mittag_leffler import ml
from .noise import _step_count
from .spectral import FracOrders, fractional_eigenvalues

# Each experiment subcommand's settings and their defaults, the only place
# the command line states them.  A config value must have its default's type
# (`_typed`); a default of None (n_cutoff) means the value of k_modes.
_SHARED = {"seed": 12345, "k_modes": 1000, "n_cutoff": None, "threads": 0}
_SETTINGS = {
    "table1": {"alpha_list": (1.1, 1.25, 1.5, 1.75, 2.0), "beta": 0.75, "m_traj": 1000,
               "n_fine": 1000, "dt_list": DEFAULT_DT_LIST, **_SHARED},
    "table2": {"alpha": 1.5, "beta_list": (0.6, 0.8, 1.0), "dt": 0.01, "m_traj": 500,
               "h_list": DEFAULT_H_LIST, **_SHARED},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument as a negative number, not an option, when
        # it matches this private pattern, whose default has no exponent; the
        # kernels reach z = -1e7, so `--z -1e6` must parse as a number.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):  # argparse would exit(2); we reserve 2 for domain errors
        raise _UsageError(message)


def _sci17(value: float) -> str:
    """17 significant digits, scientific, exponent without zero padding; a
    value that is not finite as repr gives it (inf, -inf, nan)."""
    if not math.isfinite(value):
        return repr(value)
    mantissa, exp = f"{value:.16e}".split("e")
    return f"{mantissa}e{int(exp)}"


def _parse_config(path: str) -> dict:
    """A flat TOML file of `key = value` lines, read by `tomllib`.

    `_settings` checks the keys and values, so a table (a `[section]` header,
    a dotted key or an inline table) is a domain error there: its name is
    no setting and no setting takes a table.
    """
    import tomllib

    try:
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
        raise DomainError(f"config {path}: {exc}; expected flat key = value lines") from None


def _table_file(stem: str, value: float) -> str:
    """The CSV name of a sweep's table at value, such as table1_alpha1.5.csv."""
    return f"{stem}{value:g}.csv"


def _sweep(key: str, stem: str, values: tuple[float, ...]) -> tuple[float, ...]:
    """values, unless two of them name the same table file and so would be
    computed twice and written once.  The error names that file and echoes
    the values shortened by `reprlib`."""
    names = set()
    for name in (_table_file(stem, v) for v in values):
        if name in names:
            raise DomainError(f"config {key}: {reprlib.repr(values)} gives two tables the "
                              f"file name {name}")
        names.add(name)
    return values


def _toml_type(default) -> str:
    """The TOML type a setting takes, named by its default's type; a default
    of None (n_cutoff) stands for an integer."""
    return {tuple: "array of numbers", float: "float"}.get(type(default), "integer")


def _typed(key: str, value, default):
    """value, if it has default's TOML type: an integer takes an integer only,
    a float an integer or a float, an array a list of numbers.  A boolean is
    not a number, and a float setting takes no integer beyond the float
    range.  The error echoes the value shortened by `reprlib`, so a long
    integer or array does not flood the error line."""
    with contextlib.suppress(OverflowError):  # float() of such an integer
        if isinstance(default, tuple):
            if type(value) is list and all(type(x) in (int, float) for x in value):
                return tuple(map(float, value))
        elif isinstance(default, float):
            if type(value) in (int, float):
                return float(value)
        elif type(value) is int:
            return value
    raise DomainError(f"config {key}: expected {_toml_type(default)}, got {reprlib.repr(value)}")


def _settings(args) -> dict:
    """The effective settings of args.command: its `_SETTINGS` defaults,
    overridden by the config file, overridden by the flags.

    A key of the other subcommand is checked and not used, so one file can
    serve both.  These are domain errors naming the key, raised before any
    work starts: a config key that neither table1 nor table2 takes, a value
    not of its default's type and a negative worker count.  Each table
    checks its own grid, and `table2` its dt.
    """
    known = {**_SETTINGS["table1"], **_SETTINGS["table2"]}
    cfg = _parse_config(args.config) if args.config else {}
    for key, value in cfg.items():
        if key not in known:
            raise DomainError(f"config {key}: unknown key; expected a table1 or table2 setting")
        cfg[key] = _typed(key, value, known[key])
    out = {key: cfg.get(key, default) for key, default in _SETTINGS[args.command].items()}
    out.update({key: flag for key in out if (flag := getattr(args, key, None)) is not None})
    if out["n_cutoff"] is None:
        out["n_cutoff"] = out["k_modes"]
    if out["threads"] < 0:
        raise DomainError(f"config threads: must be >= 0 (got {out['threads']})")
    out["threads"] = out["threads"] or _cores()  # 0: every core
    return out


def _out_dir(args) -> str:
    """The output directory, checked before any work and not yet created:
    an existing path must be a directory, and otherwise its nearest existing
    ancestor must be, or the command would fail only when it writes."""
    out = args.out or os.environ.get("FRACWAVE_OUT") or "."
    path = out.rstrip(os.sep) or out  # "file/" names the file
    while path and not os.path.lexists(path):
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    return out


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
    out = _out_dir(args)
    s = _settings(args)
    alphas = _sweep("alpha_list", "table1_alpha", s["alpha_list"])
    cfg = ExperimentConfig(m_traj=s["m_traj"], base_seed=s["seed"], n_fine=s["n_fine"],
                           k_modes=s["k_modes"], n_cutoff=s["n_cutoff"], dt_list=s["dt_list"])
    orders = [FracOrders(alpha, s["beta"]) for alpha in alphas]
    tables = modeling_error_tables(cfg, orders, n_workers=s["threads"]) if orders else []
    return _write_tables(out, "table1_alpha", alphas, tables, "modeling-error")


def _cmd_table2(args) -> int:
    out = _out_dir(args)
    s = _settings(args)
    betas = _sweep("beta_list", "table2_beta", s["beta_list"])
    cfg = ExperimentConfig(m_traj=s["m_traj"], base_seed=s["seed"],
                           n_fine=_step_count("config dt", s["dt"], ExperimentConfig.T),
                           k_modes=s["k_modes"], n_cutoff=s["n_cutoff"], h_list=s["h_list"])
    orders = [FracOrders(s["alpha"], beta) for beta in betas]
    tables = fem_error_tables(cfg, orders, n_workers=s["threads"]) if orders else []
    return _write_tables(out, "table2_beta", betas, tables, "Galerkin-error")


def _write_tables(out: str, stem: str, values: tuple[float, ...], tables: list,
                  kind: str) -> int:
    """Write the table of each sweep value to its `_table_file` in out."""
    os.makedirs(out, exist_ok=True)
    for value, table in zip(values, tables):
        write_rate_table(table, os.path.join(out, _table_file(stem, value)))
    print(f"wrote {len(tables)} {kind} tables to {out}")
    return 0


def _cmd_spectrum(args) -> int:
    out = _out_dir(args)
    spectrum = discrete_spectrum(FemMesh(args.n), args.beta)
    lam_frac = fractional_eigenvalues(args.beta, args.n)
    rows = [",".join([str(j + 1), _fmt(spectrum.eigenvalues[j]), _fmt(lam_frac[j])])
            for j in range(args.n)]
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spectrum_n{args.n}_beta{args.beta:g}.csv")
    _write_csv(path, [f"n_interior = {args.n}", f"beta = {args.beta}"],
               "j,lambda_h,lambda_frac", rows)
    print(path)
    return 0


def _cmd_stability(args) -> int:
    out = _out_dir(args)
    rep = stability_report(FracOrders(args.alpha, args.beta))
    rows = [f"decay,{_fmt(t)},{_fmt(v)}"
            for t, v in zip(rep["decay_t"], rep["decay_values"])]
    rows += [f"continuity,{_fmt(t)},{_fmt(v)}"
             for t, v in zip(rep["continuity_t"], rep["continuity_errors"])]
    os.makedirs(out, exist_ok=True)
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
        p.add_argument("--config", help="flat key = value TOML file of table1 and table2 "
                       "settings, each of its default's type")
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


def run() -> int:
    """The `fracwave` command: `main` on the process's own arguments.

    It first freezes the heap (`gc.freeze`), so the collection at
    interpreter exit does not walk numpy, scipy and the rest of the import;
    the handlers of `atexit` and the flushes of the standard streams still
    run.  `main`, which tests call in process, leaves the caller's collector
    alone.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
