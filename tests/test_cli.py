import math
import os
import re
import shutil
import sys

import numpy as np
import pytest

from fracwave.cli import _parse_config, _sci17, main
from fracwave.fem import FemMesh, discrete_spectrum
from fracwave.mittag_leffler import ml


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ml_subcommand_output(capsys):
    code, out, _ = run(["ml", "--alpha", "1", "--beta", "1", "--z", "-1"], capsys)
    assert code == 0
    assert out.strip() == "3.6787944117144233e-1"


def test_ml_subcommand_reads_negative_scientific_notation(capsys):
    """A negative number with an exponent is a value, not an option flag."""
    code, out, _ = run(["ml", "--alpha", "1.5", "--beta", "1", "--z", "-1e6"], capsys)
    assert code == 0 and out.strip() == "-2.8209479177017563e-7"
    code, out, _ = run(["ml", "--alpha", "1.5", "--beta", "-2.5E-1", "--z", "-2.5E-3"], capsys)
    assert code == 0 and out.strip() == _sci17(ml(1.5, -0.25, -2.5e-3))
    for z in ("-x", "-1e"):
        assert run(["ml", "--alpha", "1.5", "--beta", "1", "--z", z], capsys)[0] == 1


def test_ml_subcommand_matches_oracle(capsys):
    from fracwave.mittag_leffler import ml_series_hp

    code, out, _ = run(["ml", "--alpha", "1.5", "--beta", "1.5", "--z", "-2"], capsys)
    assert code == 0
    assert math.isclose(float(out), ml_series_hp(1.5, 1.5, -2.0, 1e-30), rel_tol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha, z", [("1.5", "1e5"), ("0.5", "800"), ("1.5", "1e308")])
def test_ml_overflow_prints_inf(capsys, alpha, z):
    """E_{alpha,1}(z) above the largest double prints inf and succeeds,
    with no overflow warning."""
    code, out, err = run(["ml", "--alpha", alpha, "--beta", "1", "--z", z], capsys)
    assert code == 0 and out == "inf\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("alpha, beta, z", [("1", "1", "800"), ("0.3", "1", "1e200"),
                                           ("2", "1", "1e6"), ("2", "2", "1e6"),
                                           ("2", "3", "1e6"), ("2", "4", "1e6")])
def test_ml_closed_form_overflow_prints_inf_and_nothing_else(alpha, beta, z):
    """Where a closed form (alpha 1 or 2) or the pole radius overflows, the
    value is inf: the command prints it and writes nothing to stderr."""
    argv = ["ml", "--alpha", alpha, "--beta", beta, "--z", z]
    done = _python(f"import sys; from fracwave.cli import main; sys.exit(main({argv!r}))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "inf\n", "")


def test_ml_domain_error_exit_code(capsys):
    code, _, err = run(["ml", "--alpha", "0", "--beta", "1", "--z", "0"], capsys)
    assert code == 2
    assert "alpha" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(["ml", "--alpha", "1"], capsys)
    assert code == 1
    code, _, _ = run(["definitely-not-a-command"], capsys)
    assert code == 1


def test_sci17_format():
    assert _sci17(0.36787944117144233) == "3.6787944117144233e-1"
    assert _sci17(1.0) == "1.0000000000000000e0"
    assert _sci17(-12345.678) == "-1.2345678000000000e4"
    assert _sci17(math.inf) == "inf"


def test_config_parser(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "m_traj = 12\n"
        "beta = 0.8  # trailing comment\n"
        'label = "hello"\n'
        "flag = true\n"
        "dt_list = [0.1, 0.05]\n"
        "empty = []\n"
    )
    parsed = _parse_config(str(cfg))
    assert parsed == {"m_traj": 12, "beta": 0.8, "label": "hello", "flag": True,
                      "dt_list": [0.1, 0.05], "empty": []}


def test_config_parse_error_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("m_traj 12\n")
    code, _, err = run(["table1", "--config", str(bad)], capsys)
    assert code == 2 and "key = value" in err


@pytest.mark.parametrize("text, want", [
    ("dt_list = [\n  0.1,\n  0.05\n]\n", {"dt_list": [0.1, 0.05]}),
    ("alpha_list = [1.5, 2.0,]\n", {"alpha_list": [1.5, 2.0]}),
    ('label = "run # 3"  # comment\n', {"label": "run # 3"}),
], ids=["multi-line-array", "trailing-comma", "hash-in-string"])
def test_config_parses_as_toml(tmp_path, text, want):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert _parse_config(str(cfg)) == want


@pytest.mark.parametrize("data", [
    b"[table1]\nm_traj = 4\n",
    b"table1.m_traj = 4\n",
    b"run = {m_traj = 4}\n",
    b"m_traj = 4\nm_traj = 5\n",
    b"label = \"\xff\"\n",
], ids=["table-header", "dotted-key", "inline-table", "duplicate-key", "not-utf8"])
def test_config_table_or_bad_file_exits_2(tmp_path, capsys, monkeypatch, data):
    """A setting inside a table would be ignored, and a duplicate key is
    ambiguous: each is a domain error, raised before any work starts."""
    import fracwave.cli as cli

    calls = []
    monkeypatch.setattr(cli, "modeling_error_tables", lambda *a, **k: calls.append(a) or {})
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(data)
    out = tmp_path / "never"
    code, _, err = run(["table1", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2 and err.startswith("error: config")
    assert calls == [] and not out.exists()


def test_missing_config_is_io_error(capsys):
    code, _, _ = run(["table1", "--config", "/nonexistent/x.cfg"], capsys)
    assert code == 3


def test_invalid_config_writes_no_partial_output(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # second alpha is out of range; validation must reject the whole sweep
    # before any table is computed or written
    cfg.write_text("m_traj = 4\nn_fine = 100\nk_modes = 16\n"
                   "dt_list = [0.1]\nalpha_list = [1.5, 2.5]\n")
    out = tmp_path / "never"
    code, _, _ = run(["table1", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, target", [("table1", "modeling_error_tables"),
                                             ("table2", "fem_error_tables")])
def test_worker_count_checked_before_any_work(tmp_path, capsys, monkeypatch, command, target):
    import fracwave.cli as cli

    workers = []
    monkeypatch.setattr(cli, target, lambda *a, n_workers: workers.append(n_workers) or {})
    monkeypatch.setattr(cli, "_cores", lambda: 7)
    code, _, err = run([command, "--threads", "-1", "--out", str(tmp_path)], capsys)
    assert code == 1 and "--threads" in err
    neg = tmp_path / "neg.cfg"
    neg.write_text("threads = -2\n")
    code, _, err = run([command, "--config", str(neg), "--out", str(tmp_path)], capsys)
    assert code == 2 and "threads" in err
    assert workers == []
    zero = tmp_path / "zero.cfg"
    zero.write_text("threads = 0\nbeta_list = []\n")
    code, _, _ = run([command, "--config", str(zero), "--threads", "0", "--out", str(tmp_path)],
                     capsys)
    assert code == 0
    assert workers == ([7] if command == "table1" else [])


@pytest.mark.parametrize("command, target", [("table1", "modeling_error_tables"),
                                             ("table2", "fem_error_tables")])
def test_threads_flag_zero_overrides_config(tmp_path, capsys, monkeypatch, command, target):
    import fracwave.cli as cli

    workers = []
    monkeypatch.setattr(cli, target, lambda *a, n_workers: workers.append(n_workers) or {})
    monkeypatch.setattr(cli, "write_rate_table", lambda *a: None)
    monkeypatch.setattr(cli, "_cores", lambda: 7)
    one = tmp_path / "one.cfg"
    one.write_text("threads = 1\nbeta_list = [0.8]\nm_traj = 2\n")
    code, _, _ = run([command, "--config", str(one), "--threads", "0", "--out", str(tmp_path)],
                     capsys)
    assert code == 0
    assert workers == [7]
    code, _, _ = run([command, "--config", str(one), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert workers[1:] == [1]


@pytest.mark.parametrize("command, target", [("table1", "modeling_error_tables"),
                                             ("table2", "fem_error_tables")])
@pytest.mark.parametrize("line, key", [('m_traj = "ten"', "m_traj"), ("seed = [1, 2]", "seed"),
                                       ("n_cutoff = [1, 2]", "n_cutoff"),
                                       ("k_modes = inf", "k_modes"), ('threads = "x"', "threads"),
                                       ("m_traj = 2.7", "m_traj"), ("m_traj = true", "m_traj"),
                                       ("beta = true", "beta"), ('alpha_list = "2"', "alpha_list"),
                                       ("alpha_list = [true]", "alpha_list"),
                                       ("m_trajs = 3", "m_trajs"),
                                       ("fem_k_series = 1000000", "fem_k_series")])
def test_wrong_type_config_value_is_domain_error(tmp_path, capsys, monkeypatch, command, target,
                                                 line, key):
    """A value not of its default's TOML type, or a key neither table1 nor
    table2 takes, whichever subcommand runs."""
    import fracwave.cli as cli

    calls = []
    monkeypatch.setattr(cli, target, lambda *a, **k: calls.append(a) or {})
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "never"
    code, _, err = run([command, "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"error: config {key}:")
    assert calls == [] and not out.exists()


#: The first units of work of each table function: table 1's shared grid
#: mappings, forks and weight grids, table 2's FEM spectra, weight grids and fork.
_FIRST_WORK = {"modeling_error_tables": ("_shared_array", "_fork_map", "convolution_weights"),
               "fem_error_tables": ("discrete_spectra", "convolution_weights", "_fork_map")}


def _record_first_work(monkeypatch, target: str, calls: list) -> None:
    """Make each first unit of work of the table function target record its
    name in calls and do nothing."""
    from fracwave import experiments

    for name in _FIRST_WORK[target]:
        monkeypatch.setattr(experiments, name, lambda *a, name=name, **k: calls.append(name))


@pytest.mark.parametrize("command, target, line", [
    ("table1", "modeling_error_tables", "dt_list = [0.0]"),
    ("table1", "modeling_error_tables", "dt_list = [-0.04]"),
    ("table1", "modeling_error_tables", "dt_list = [nan]"),
    ("table1", "modeling_error_tables", "dt_list = [inf]"),
    ("table1", "modeling_error_tables", "dt_list = []"),
    ("table1", "modeling_error_tables", "n_fine = 1000000"),
    ("table1", "modeling_error_tables", "dt_list = [0.1, 0.1, 0.05]"),
    ("table2", "fem_error_tables", "dt = 0.0"),
    ("table2", "fem_error_tables", "dt = 1e-300"),
    ("table2", "fem_error_tables", "dt = 1e-320"),
    ("table2", "fem_error_tables", "dt = nan"),
    ("table2", "fem_error_tables", "dt = inf"),
    ("table2", "fem_error_tables", "dt = 0.3"),
    ("table2", "fem_error_tables", "h_list = [0.0]"),
    ("table2", "fem_error_tables", "h_list = [1e-300]"),
    ("table2", "fem_error_tables", "h_list = [nan]"),
    ("table2", "fem_error_tables", "h_list = []"),
    ("table2", "fem_error_tables", "h_list = [0.25, 0.25]"),
])
def test_bad_grid_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, target, line):
    """Each table checks its own grid inside its table function, so the
    first units of work of that function are patched, not the function."""
    calls = []
    _record_first_work(monkeypatch, target, calls)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "never"
    code, _, err = run([command, "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("command, target", [("table1", "modeling_error_tables"),
                                             ("table2", "fem_error_tables"),
                                             ("spectrum", "discrete_spectrum"),
                                             ("stability", "stability_report")])
@pytest.mark.parametrize("suffix", ("", os.sep + "sub", os.sep),
                         ids=["file", "under-file", "file-slash"])
def test_out_not_a_directory_exits_3_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                     target, suffix):
    """An --out that is a file, written with or without a trailing slash, or
    a path under a file exits 3 before any work and creates nothing: an
    existing path must be a directory, and otherwise its nearest existing
    ancestor must be."""
    import fracwave.cli as cli

    calls = []
    if target in _FIRST_WORK:
        _record_first_work(monkeypatch, target, calls)
    else:
        monkeypatch.setattr(cli, target, lambda *a: calls.append(target))
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    argv = {"table1": ["table1", "--m-traj", "64"], "table2": ["table2", "--m-traj", "2"],
            "spectrum": ["spectrum", "--n", "3", "--beta", "1.0"],
            "stability": ["stability", "--alpha", "1.5", "--beta", "0.75"]}[command]
    code, _, err = run([*argv, "--out", str(blocker) + suffix], capsys)
    assert code == 3
    assert err == f"i/o error: [Errno 20] Not a directory: {str(blocker)!r}\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept\n"


def test_dense_mesh_above_cap_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    """A mesh whose N x N matrices exceed the entry cap (here lowered to
    400, N <= 20) exits 2 before any matrix is built.  One mode and one
    trajectory keep the noise matrix, the mode products and the sample array
    within the lowered cap."""
    from fracwave import fem, noise

    calls = []
    monkeypatch.setattr(noise, "_DEFAULT_ENTRY_CAP", 400)
    monkeypatch.setattr(fem, "mass_matrix", lambda *a: calls.append("mass"))
    monkeypatch.setattr(fem, "_dst_matrix", lambda *a: calls.append("dst"))
    _record_first_work(monkeypatch, "fem_error_tables", calls)
    out = tmp_path / "never"
    code, _, err = run(["spectrum", "--n", "21", "--beta", "0.8", "--out", str(out)], capsys)
    assert code == 2 and err.startswith("error:")
    cfg = tmp_path / "mesh.cfg"
    cfg.write_text("h_list = [0.1, 0.04]\nk_modes = 1\nm_traj = 1\n")
    code, _, err = run(["table2", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2 and err.startswith("error: FemMesh: dense matrices: 24 x 24")
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("dt", ["nan", "inf", "0.0", "-0.01", "0.3", "0.0100000001"])
def test_table2_dt_not_1_over_n_names_config_dt(tmp_path, capsys, monkeypatch, dt):
    """table2 runs at its noise step dt, so a dt that is not 1/n exits 2 with
    an error naming the config key, before any work."""
    calls = []
    _record_first_work(monkeypatch, "fem_error_tables", calls)
    cfg = tmp_path / "dt.cfg"
    cfg.write_text(f"dt = {dt}\n")
    out = tmp_path / "never"
    code, _, err = run(["table2", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2 and err.startswith(f"error: config dt: {float(dt)} does not divide 1.0")
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("command", ["table1", "table2"])
@pytest.mark.parametrize("key, value", [
    ("dt", "1" + "0" * 400),
    ("alpha_list", "[1.5, 1" + "0" * 400 + "]"),
    ("alpha_list", "[" + "1.5, " * 9999 + "1" + "0" * 400 + "]"),
], ids=["scalar", "array", "long-array"])
def test_float_setting_beyond_float_range_exits_2(tmp_path, capsys, command, key, value):
    """An integer too large for a float, given to a float setting, is a
    value of the wrong type, not an OverflowError traceback.  The error is
    one line under 200 characters, whether the value is a 401-digit integer
    or an array of 10^4 entries."""
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "never"
    code, _, err = run([command, "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"error: config {key}: expected ") and "Traceback" not in err
    assert len(err.splitlines()) == 1 and len(err) < 200, err[:300]
    assert not out.exists()


def test_mesh_width_one_names_h_list_before_any_mesh(tmp_path, capsys, monkeypatch):
    """h = 1.0 is one step of [0, 1] but leaves no interior node: exit 2 with
    an error that names h_list and the width, before any `FemMesh` or other
    work."""
    from fracwave import experiments

    calls = []
    _record_first_work(monkeypatch, "fem_error_tables", calls)
    monkeypatch.setattr(experiments, "FemMesh", lambda n: calls.append(("FemMesh", n)))
    cfg = tmp_path / "one.cfg"
    cfg.write_text("h_list = [1.0]\n")
    out = tmp_path / "never"
    code, _, err = run(["table2", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ExperimentConfig: h_list width 1.0 leaves no interior node")
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("command, target, line, key", [
    ("table1", "modeling_error_tables", "alpha_list = [1.5, 2.0, 1.5]", "alpha_list"),
    ("table1", "modeling_error_tables", "alpha_list = [1.1, 1.1000001]", "alpha_list"),
    ("table2", "fem_error_tables", "beta_list = [0.8, 0.8]", "beta_list"),
    ("table2", "fem_error_tables", "beta_list = [0.6, 1.0, 0.60]", "beta_list"),
    pytest.param("table1", "modeling_error_tables", "alpha_list = [" + "1.5, " * 9999 + "1.5]",
                 "alpha_list", id="long-alpha_list"),
])
def test_repeated_sweep_value_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                      target, line, key):
    """Two values that name the same CSV (`{value:g}`) would be computed twice
    and written once.  The error is one line under 200 characters that names
    the file, whether the sweep has 2 values or 10^4."""
    import fracwave.cli as cli

    calls = []
    monkeypatch.setattr(cli, target, lambda *a, **k: calls.append(a) or {})
    cfg = tmp_path / "repeat.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "never"
    code, _, err = run([command, "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"error: config {key}:") and "Traceback" not in err
    assert re.search(rf"the file name {command}_{key[:-5]}[\d.]+\.csv$", err.rstrip())
    assert len(err.splitlines()) == 1 and len(err) < 200, err[:300]
    assert calls == [] and not out.exists()


def test_repeated_mesh_exits_2_with_short_error(tmp_path, capsys, monkeypatch):
    """10^4 widths of 0.1 give one mesh: exit 2 before any spectrum, with one
    error line under 200 characters that names the two widths and the mesh."""
    calls = []
    _record_first_work(monkeypatch, "fem_error_tables", calls)
    cfg = tmp_path / "repeat.cfg"
    cfg.write_text("h_list = [" + "0.1, " * 9999 + "0.1]\n")
    out = tmp_path / "never"
    code, _, err = run(["table2", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ExperimentConfig: h_list widths 0.1 and 0.1 give one mesh "
                          "FemMesh(n_interior=9)")
    assert len(err.splitlines()) == 1 and len(err) < 200, err[:300]
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("command, key", [(command, key) for command in ("table1", "table2")
                                          for key in ("seed", "m_traj", "k_modes", "n_cutoff")]
                         + [("table1", "n_fine")])
def test_long_integer_setting_exits_2_with_short_error(tmp_path, capsys, monkeypatch, command,
                                                       key):
    """A 401-digit integer that `_typed` accepts is rejected by a later
    check (the seed range, the entry cap, or n_cutoff <= k_modes) before any
    work, with one error line under 200 characters."""
    target = {"table1": "modeling_error_tables", "table2": "fem_error_tables"}[command]
    calls = []
    _record_first_work(monkeypatch, target, calls)
    cfg = tmp_path / "long.cfg"
    cfg.write_text(f"{key} = 1{'0' * 400}\n")
    out = tmp_path / "never"
    code, _, err = run([command, "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1 and len(err) < 200, err[:300]
    assert calls == [] and not out.exists()


def test_empty_alpha_list_runs_nothing(tmp_path, capsys, monkeypatch):
    import fracwave.cli as cli

    calls = []
    monkeypatch.setattr(cli, "modeling_error_tables", lambda *a, **k: calls.append(a) or {})
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("alpha_list = []\n")
    code, out, _ = run(["table1", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert code == 0 and out.startswith("wrote 0 ")
    assert calls == [] and not any((tmp_path / "o").iterdir())


def _python(code: str, env=None):
    """`python -c code` in a fresh process on this source tree, its output
    captured; it is stopped after 120 s."""
    import subprocess

    import fracwave

    src = os.path.dirname(os.path.dirname(fracwave.__file__))
    env = dict(os.environ, **(env or {}), PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def _run_python(code: str, env=None) -> str:
    """Standard output of `python -c code` in a fresh process on this source tree."""
    done = _python(code, env)
    done.check_returncode()
    return done.stdout.strip()


def test_main_leaves_the_callers_collector_alone(tmp_path, capsys):
    """In-process `main` freezes no object: only the `fracwave` command
    (`cli.run`) does."""
    import gc

    frozen = gc.get_freeze_count()
    for argv in (["ml", "--alpha", "1", "--beta", "1", "--z", "0"],
                 ["spectrum", "--n", "3", "--beta", "1.0", "--out", str(tmp_path)]):
        assert run(argv, capsys)[0] == 0
        assert gc.get_freeze_count() == frozen


def test_command_exits_with_a_frozen_heap(tmp_path):
    """`python -m fracwave.cli` freezes the heap before it runs, so the
    collection at exit skips it; an `atexit` handler still runs after the
    command, and the command's output is flushed before it."""
    import subprocess

    import fracwave

    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, gc\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n")
    src = os.path.dirname(os.path.dirname(fracwave.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(tmp_path)]))
    done = subprocess.run([sys.executable, "-m", "fracwave.cli", "ml", "--alpha", "1", "--beta",
                           "1", "--z", "0"], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{_sci17(1.0)}\nfrozen True\n"


def test_cli_import_leaves_out_mpmath():
    assert _run_python("import sys, fracwave.cli; print('mpmath' in sys.modules)") == "False"


def test_cli_import_leaves_out_importlib_metadata():
    """`import fracwave` leaves importlib.metadata out, and `__version__`
    loads it on first use.  `fracwave.cli` loads it anyway, through
    scipy.special (scipy._lib._array_api imports numpy.testing), so only the
    version lookup itself is deferred there: the build tag reads
    `__version__` only when `git describe` fails."""
    probe = "import sys, fracwave; print('importlib.metadata' in sys.modules)"
    assert _run_python(probe) == "False"
    probe = ("import sys, fracwave; v = fracwave.__version__; "
             "print('importlib.metadata' in sys.modules, bool(v))")
    assert _run_python(probe) == "True True"


def test_build_tag_falls_back_to_the_version(monkeypatch):
    import subprocess

    from fracwave import __version__, experiments

    def no_git(*args, **kwargs):
        raise OSError("no git")

    monkeypatch.setattr(subprocess, "run", no_git)
    experiments._build_tag.cache_clear()
    try:
        assert experiments._build_tag() == f"fracwave-{__version__}"
    finally:
        experiments._build_tag.cache_clear()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_build_tag_describes_only_a_repository_that_tracks_the_package(tmp_path):
    """A copy of the package inside another project's work tree, untracked
    there as in a virtual environment, is tagged with its version; once that
    repository tracks the copy, the tag is its `git describe`."""
    import subprocess

    import fracwave

    proj = tmp_path / "userproj"
    site = proj / ".venv" / "site"
    shutil.copytree(os.path.dirname(fracwave.__file__), site / "fracwave",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (proj / "README").write_text("a user's project\n")

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=u", "-c", "user.email=u@example.org",
                               *args], cwd=proj, capture_output=True, text=True, check=True,
                              timeout=60).stdout.strip()

    def tag():
        probe = ("import fracwave; from fracwave.experiments import _build_tag; "
                 "print(_build_tag(), fracwave.__version__)")
        env = dict(os.environ, PYTHONPATH=str(site), PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120, check=True).stdout.split()

    git("init", "-q")
    git("add", "README")
    git("commit", "-q", "-m", "first")
    got, version = tag()
    assert got == f"fracwave-{version}"
    git("add", "-f", ".venv")
    git("commit", "-q", "-m", "vendor fracwave")
    assert tag()[0] == git("describe", "--always", "--dirty") != f"fracwave-{version}"


def test_cli_import_leaves_out_scipy_linalg():
    """LAPACK loads only where a pencil is solved (`fem._solve`)."""
    assert _run_python("import sys, fracwave.cli; print('scipy.linalg' in sys.modules)") == "False"
    probe = ("import sys; from fracwave.fem import FemMesh, discrete_spectrum; "
             "discrete_spectrum(FemMesh(3), 0.8, 100); print('scipy.linalg' in sys.modules)")
    assert _run_python(probe) == "True"


def test_one_worker_table1_leaves_out_mmap(tmp_path):
    """Only a forking run maps shared weight grids."""
    argv = ["table1", "--config", _tiny_cfg(tmp_path), "--out", str(tmp_path), "--threads", "1"]
    probe = (f"import sys; from fracwave.cli import main; main({argv!r}); "
             "print('mmap' in sys.modules)")
    assert _run_python(probe).splitlines()[-1] == "False"


def test_cli_import_pins_blas_to_one_thread():
    """`import fracwave` leaves numpy out, so `fracwave.cli` sets the BLAS
    thread variables before numpy loads, whatever the environment said."""
    assert _run_python("import sys, fracwave; print('numpy' in sys.modules)") == "False"
    probe = ("import os, fracwave.cli; print(os.environ['OPENBLAS_NUM_THREADS'], "
             "os.environ['OMP_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])")
    env = {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}
    assert _run_python(probe, env=env) == "1 1 1"


@pytest.mark.parametrize("sweep, n_tables", [
    ("n_fine = 1000\n", 5),  # the paper's 5 alphas and 5 steps: 25 columns
    # one alpha with 12 steps: without the pin, OpenBLAS splits the
    # (32 x 5040).(5040 x 12) products over two threads in blocks that
    # change their rounding
    ("n_fine = 5040\nalpha_list = [1.5]\ndt_list = [%s]\n"
     % ", ".join(repr(1 / s) for s in (5040, 2520, 1680, 1260, 1008, 840, 720, 630, 560, 504,
                                        420, 360)), 1),
], ids=["25-columns", "12-columns"])
def test_table1_csvs_independent_of_blas_threads(tmp_path, sweep, n_tables):
    """Byte-identical table-1 CSVs with OPENBLAS_NUM_THREADS 1 and 2."""
    cfg = tmp_path / "blas.cfg"
    cfg.write_text("m_traj = 33\nk_modes = 64\n" + sweep)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        argv = ["table1", "--config", str(cfg), "--out", str(out), "--threads", "1"]
        _run_python(f"import sys; from fracwave.cli import main; sys.exit(main({argv!r}))",
                    env={"OPENBLAS_NUM_THREADS": threads})
        outs.append(sorted(out.iterdir()))
    assert len(outs[0]) == n_tables and [p.name for p in outs[0]] == [p.name for p in outs[1]]
    assert [p.read_bytes() for p in outs[0]] == [p.read_bytes() for p in outs[1]]


def _tiny_cfg(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "m_traj = 5\n"
        "n_fine = 100\n"
        "k_modes = 32\n"
        "n_cutoff = 32\n"
        "dt_list = [0.1, 0.05]\n"
        "alpha_list = [1.5, 2.0]\n"
        "beta = 0.75\n"
    )
    return str(cfg)


def test_table1_outputs_and_determinism(tmp_path, capsys):
    cfg = _tiny_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code, _, _ = run(["table1", "--config", cfg, "--seed", "7",
                      "--out", str(out_a), "--threads", "1"], capsys)
    assert code == 0
    code, _, _ = run(["table1", "--config", cfg, "--seed", "7",
                      "--out", str(out_b), "--threads", "2"], capsys)
    assert code == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == ["table1_alpha1.5.csv", "table1_alpha2.csv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    rows = (out_a / "table1_alpha1.5.csv").read_text().splitlines()
    assert rows[5] == "resolution,error,rate,stderr"
    assert len(rows) == 6 + 2  # one data row per dt


def test_table1_two_batches_same_bytes_on_two_workers(tmp_path, capsys, monkeypatch):
    """m_traj 40 is two batches: on two fork workers, the weight grids of
    the two alphas and then the two batches each fork two children, and the
    run writes the bytes of one worker."""
    import multiprocessing

    from fracwave import experiments

    monkeypatch.setattr(experiments, "_cores", lambda: 2)
    cfg = _tiny_cfg(tmp_path)
    outs = []
    for threads in ("1", "2"):
        outs.append(tmp_path / f"threads{threads}")
        code, _, _ = run(["table1", "--config", cfg, "--m-traj", "40", "--seed", "5",
                          "--out", str(outs[-1]), "--threads", threads], capsys)
        assert code == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == ["table1_alpha1.5.csv", "table1_alpha2.csv"]
    assert "# m_traj = 40" in (outs[0] / names[0]).read_text()
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert multiprocessing.active_children() == []


def test_table1_killed_worker_exits_3(tmp_path):
    """A batch child killed by SIGKILL ends the run: exit 3 with an i/o error
    that names the worker, and no child left.  A hang would stop the parent,
    so the run is a fresh process with a time limit."""
    argv = ["table1", "--config", _tiny_cfg(tmp_path), "--m-traj", "40",
            "--out", str(tmp_path / "out"), "--threads", "2"]
    done = _python("import multiprocessing, os, signal, sys\n"
                   "from fracwave import cli, experiments\n"
                   "experiments._cores = lambda: 2\n"
                   "experiments._modeling_traj = lambda *a: os.kill(os.getpid(), signal.SIGKILL)\n"
                   f"code = cli.main({argv!r})\n"
                   "print(code, multiprocessing.active_children())\n")
    assert done.stdout == "3 []\n", done.stderr
    assert done.stderr.startswith("i/o error: worker ")
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_one_worker_runs_leave_out_multiprocessing(tmp_path):
    """One-worker table1 and table2 runs never fork, so they never load
    multiprocessing: `_fork_map` imports it only in the branch that forks."""
    table2 = tmp_path / "table2.cfg"
    table2.write_text("m_traj = 2\nk_modes = 32\nh_list = [0.5, 0.25]\n")
    code = "import sys\nfrom fracwave import cli\n"
    for argv in (["table1", "--config", _tiny_cfg(tmp_path)], ["table2", "--config", str(table2)]):
        argv += ["--out", str(tmp_path / "out"), "--threads", "1"]
        code += f"assert cli.main({argv!r}) == 0\n"
    code += "print('multiprocessing.connection' in sys.modules)\n"
    assert _run_python(code).splitlines()[-1] == "False"


@pytest.mark.parametrize("command, target", [("table1", "modeling_error_tables"),
                                             ("table2", "fem_error_tables")])
@pytest.mark.parametrize("flag, line", [(["--seed", "18446744073709551617"], ""),
                                        ([], "seed = -1\n")], ids=["flag", "config"])
def test_seed_outside_64_bits_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                      target, flag, line):
    """A seed outside [0, 2^64) would alias one inside it: 2^64 + 1 draws
    the noise of 1, and -1 that of 2^64 - 1.  2^64 - 1 itself runs."""
    import fracwave.cli as cli

    calls = []
    monkeypatch.setattr(cli, target, lambda *a, **k: calls.append(a) or {})
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(line)
    out = tmp_path / "never"
    code, _, err = run([command, "--config", str(cfg), *flag, "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:") and "seed" in err and "Traceback" not in err
    assert calls == [] and not out.exists()
    code, _, _ = run([command, "--seed", str((1 << 64) - 1), "--out", str(out)], capsys)
    assert code == 0 and calls[0][0].base_seed == (1 << 64) - 1


@pytest.mark.parametrize("command", ["table1", "table2"])
def test_sample_array_above_cap_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    """--m-traj 10^10 gives a sample array far above the entry cap: exit 2,
    not a MemoryError traceback, before any grid, spectrum or fork."""
    from fracwave import experiments

    def forbidden(*args, **kwargs):
        raise AssertionError("work started for an oversized sample array")

    for name in ("_fork_map", "_modeling_weights", "discrete_spectra", "convolution_weights"):
        monkeypatch.setattr(experiments, name, forbidden)
    out = tmp_path / "never"
    code, _, err = run([command, "--m-traj", str(10**10), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error:") and "cap" in err and "Traceback" not in err
    assert not out.exists()


def test_table1_flag_overrides_config(tmp_path, capsys):
    cfg = _tiny_cfg(tmp_path)
    out = tmp_path / "c"
    code, _, _ = run(["table1", "--config", cfg, "--seed", "1", "--m-traj", "2",
                      "--out", str(out), "--threads", "1"], capsys)
    assert code == 0
    text = (out / "table1_alpha1.5.csv").read_text()
    assert "# m_traj = 2" in text


def test_out_dir_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FRACWAVE_OUT", str(tmp_path / "envout"))
    code, out, _ = run(["spectrum", "--n", "3", "--beta", "1.0"], capsys)
    assert code == 0
    assert (tmp_path / "envout" / "spectrum_n3_beta1.csv").exists()


def test_table2_tiny_run(tmp_path, capsys):
    cfg = tmp_path / "t2.cfg"
    cfg.write_text(
        "alpha = 1.5\n"
        "beta_list = [0.8]\n"
        "dt = 0.1\n"
        "m_traj = 3\n"
        "k_modes = 32\n"
        "h_list = [0.1]\n"
    )
    out = tmp_path / "t2"
    code, _, _ = run(["table2", "--config", str(cfg), "--seed", "3",
                      "--out", str(out), "--threads", "1"], capsys)
    assert code == 0
    rows = (out / "table2_beta0.8.csv").read_text().splitlines()
    assert rows[5] == "resolution,error,rate,stderr"
    assert len(rows) == 7  # single mesh, no rate entry
    assert rows[6].split(",")[2] == ""


def test_one_config_serves_table1_and_table2(tmp_path, capsys):
    """Each subcommand takes its own keys from a file holding both sets."""
    cfg = _tiny_cfg(tmp_path)
    with open(cfg, "a") as fh:
        fh.write("alpha = 1.5\nbeta_list = [0.8]\ndt = 0.1\nh_list = [0.1]\n")
    out = tmp_path / "both"
    for command in ("table1", "table2"):
        code, _, _ = run([command, "--config", cfg, "--m-traj", "3", "--out", str(out),
                          "--threads", "1"], capsys)
        assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["table1_alpha1.5.csv", "table1_alpha2.csv", "table2_beta0.8.csv"]
    t1 = (out / "table1_alpha2.csv").read_text().splitlines()
    t2 = (out / "table2_beta0.8.csv").read_text().splitlines()
    assert "# beta = 0.75" in t1 and "# m_traj = 3" in t1 and len(t1) == 6 + 2
    assert "# alpha = 1.5" in t2 and "# m_traj = 3" in t2 and len(t2) == 6 + 1


def test_readme_lists_every_setting_and_default():
    """The README's settings table matches `cli._SETTINGS` row for row: each
    key, its default under each subcommand, its TOML type.  The rows hold
    table1's own keys, then table2's, then the shared ones, each group in
    `_SETTINGS` order.  Defaults compare by repr, so `1000` is no float."""
    import tomllib

    import fracwave.cli as cli

    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    header = "| key | `table1` default | `table2` default | TOML type |"
    assert text.count(header) == 1
    rows = text.split(header)[1].split("\n\n")[0].strip().splitlines()[1:]

    def default(cell):
        if cell == "—":
            return "absent"
        value = cell.strip("`")
        return "k_modes" if value == "k_modes" else repr(tomllib.loads(f"v = {value}")["v"])

    listed = []
    for row in rows:
        key, t1, t2, kind = [c.strip() for c in row.strip("|").split("|")]
        listed.append((key.strip("`"), default(t1), default(t2), kind))

    def want(command, key):
        if key not in cli._SETTINGS[command]:
            return "absent"
        value = cli._SETTINGS[command][key]
        return "k_modes" if value is None else repr(list(value) if isinstance(value, tuple)
                                                    else value)

    t1, t2 = cli._SETTINGS["table1"], cli._SETTINGS["table2"]
    keys = ([k for k in t1 if k not in t2] + [k for k in t2 if k not in t1]
            + [k for k in t1 if k in t2])
    assert listed == [(key, want("table1", key), want("table2", key),
                       cli._toml_type({**t1, **t2}[key])) for key in keys]


def test_spectrum_csv_matches_closed_form(tmp_path, capsys):
    code, _, _ = run(["spectrum", "--n", "9", "--beta", "1.0", "--out", str(tmp_path)], capsys)
    assert code == 0
    rows = (tmp_path / "spectrum_n9_beta1.csv").read_text().splitlines()
    data = [r.split(",") for r in rows if not r.startswith("#")][1:]
    lam_h = np.array([float(r[1]) for r in data])
    lam_frac = np.array([float(r[2]) for r in data])
    h = 1.0 / 10.0
    j = np.arange(1, 10)
    ref = (6.0 / h**2) * (1 - np.cos(j * math.pi * h)) / (2 + np.cos(j * math.pi * h))
    np.testing.assert_allclose(lam_h, ref, rtol=1e-10)
    assert (lam_h >= lam_frac - 1e-9).all()
    assert (np.diff(lam_h) > 0.0).all()


@pytest.mark.parametrize("argv, name", [
    (["spectrum", "--n", "3", "--beta", "0.5"], "spectrum_n3_beta0.5.csv"),
    (["table1", "--m-traj", "2", "--threads", "1"], "table1_alpha1.5.csv"),
], ids=["spectrum", "table1"])
def test_failed_csv_write_exits_3_and_leaves_no_temp_file(tmp_path, capsys, argv, name):
    """A CSV whose path is a directory cannot replace it: exit 3, and the
    temporary file the CSV was written to is removed."""
    (tmp_path / name).mkdir()
    extra = ["--config", _tiny_cfg(tmp_path)] if argv[0] == "table1" else []
    code, _, err = run([*argv, *extra, "--out", str(tmp_path)], capsys)
    assert code == 3 and "Traceback" not in err
    assert (tmp_path / name).is_dir() and list(tmp_path.rglob("*.tmp")) == []


def test_failed_temp_removal_keeps_the_write_error(tmp_path, monkeypatch):
    """If removing the temporary file fails too, the error of the failed
    replace, not that of the removal, is the one raised."""
    from fracwave import experiments

    def refuse(path):
        raise PermissionError(path)

    (tmp_path / "t.csv").mkdir()
    monkeypatch.setattr(experiments.os, "remove", refuse)
    with pytest.raises(IsADirectoryError):
        experiments._write_csv(tmp_path / "t.csv", [], "x", ["1"])


def test_stability_csv(tmp_path, capsys):
    code, _, _ = run(["stability", "--alpha", "1.5", "--beta", "0.75",
                      "--out", str(tmp_path)], capsys)
    assert code == 0
    text = (tmp_path / "stability_alpha1.5_beta0.75.csv").read_text()
    assert "# fitted_exponent = " in text
    assert "section,t,value" in text
    assert "decay," in text and "continuity," in text
