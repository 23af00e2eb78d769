"""The benchmark's pinned values, checked in the test suite.

`bench/run.py` compares every CSV of its set-up commands (seed 1, one
trajectory) with `bench/reference.json`, to 1e-12 relative for table 1 and
1e-10 for table 2.  This test runs the same commands on the same config
files and applies the same check, so a change that moves a pinned value
fails here before the benchmark runs.  It takes the workloads, the config
writer, the expected tables and the check from bench/ itself, and writes
nothing there.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_run():
    """bench/run.py as a module; it puts bench/ on sys.path for its own imports."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ("table1", "table2"))
def test_setup_command_matches_bench_reference(tmp_path, workload):
    bench = _bench_run()
    wl = bench.WORKLOADS[workload]
    seed = bench.REFERENCE_SEED
    cfg = tmp_path / "run.cfg"
    bench.write_config(cfg, wl, 1, seed)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{var: "1" for var in bench.BLAS_PIN})
    subprocess.run([sys.executable, "-m", "fracwave.cli", wl.command, "--config", str(cfg),
                    "--out", str(tmp_path), "--threads", "1"],
                   env=env, cwd=ROOT, capture_output=True, timeout=300, check=True)
    reference = json.loads((ROOT / "bench" / "reference.json").read_text())
    assert reference["seed"] == seed
    refs = reference["tables"][wl.command]["1"]
    expect = bench.table_expectations(wl, 1, seed)
    assert sorted(expect) == sorted(refs)
    for name, exp in expect.items():
        assert bench.check_table(str(tmp_path / name), exp, refs[name],
                                 bench.REL_TOL[wl.command]) is None
