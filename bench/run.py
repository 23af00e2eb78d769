#!/usr/bin/env python3
"""Benchmark of the fracwave command line, run from the repository root:

    python3 bench/run.py --workload table1 --seed 3 --seconds 40 --trace 0

Each measured command is `python3 -m fracwave.cli table1|table2` in a
fresh process with a fresh output directory, BLAS pinned to one thread,
reading a config file the benchmark generates; the program comes from
`src/` of this checkout.  Every CSV it writes is checked (`checks.py`).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 alternates set-up commands (m_traj = 1) and full commands for
--seconds seconds, closed loop, and reports end-to-end metrics: medians
over the commands of a run.  --trace 1 runs the full command once
untraced and once with span recorders around each layer (`tracing.py`),
and reports per-layer metrics and the tracing overhead.

Set-up commands always run at REFERENCE_SEED and are compared with the
values recorded from the seed program; full commands run at --seed and
are checked for seed-independent properties, or against the recorded
values when --seed is REFERENCE_SEED.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

from checks import REL_TOL, check_table  # noqa: E402
from tracing import LAYERS, load_spans, span_metrics  # noqa: E402

#: Seed of the set-up commands and of the recorded reference values.
REFERENCE_SEED = 1
#: Each run ends, its children killed if need be, this long after it starts.
RUN_LIMIT_S = 170.0
#: Fewest set-up and full commands in one end-to-end run.
MIN_REPS = 2
#: Fresh-process probes of import time in a traced run.
PROBES = 5
#: Untraced and traced full commands, alternating, in a traced run.
TRACE_REPS = 2
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The paper's protocol shapes; only m_traj is reduced (see WORKLOADS).
TABLE1_KNOBS = {"alpha_list": [1.1, 1.25, 1.5, 1.75, 2.0], "beta": 0.75,
                "k_modes": 1000, "n_fine": 1000,
                "dt_list": [1 / 25, 1 / 50, 1 / 100, 1 / 125, 1 / 200]}
TABLE2_KNOBS = {"alpha": 1.5, "beta_list": [0.6, 0.8, 1.0], "dt": 0.01,
                "k_modes": 1000, "h_list": [1 / 10, 1 / 25, 1 / 50, 1 / 75, 1 / 100]}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    knobs: dict
    m_traj: int
    parallel: bool = False

    @property
    def threads(self) -> int:
        return len(os.sched_getaffinity(0)) if self.parallel else 1


# m_traj is sized so that sampling takes at least as long as set-up.
# table1: set-up is Mittag-Leffler kernel grids, trajectories are noise,
#   coarsening and weight contractions; no FEM.
# table2: set-up is FEM spectra and sine products, trajectories are the
#   dense (K x N).(K x steps) products; coarsening is a no-op.
# table1_par: the only workload through the fork pool, one worker per core.
WORKLOADS = {w.name: w for w in (
    Workload("table1", "table1", TABLE1_KNOBS, 64),
    Workload("table2", "table2", TABLE2_KNOBS, 32),
    Workload("table1_par", "table1", TABLE1_KNOBS, 128, parallel=True),
)}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def table_expectations(wl: Workload, m_traj: int, seed: int) -> dict[str, dict]:
    """CSV file name -> metadata and resolution column it must carry."""
    k = wl.knobs
    if wl.command == "table1":
        return {f"table1_alpha{a:g}.csv": {"alpha": a, "beta": k["beta"], "m_traj": m_traj,
                                          "seed": seed, "resolutions": k["dt_list"]}
                for a in k["alpha_list"]}
    return {f"table2_beta{b:g}.csv": {"alpha": k["alpha"], "beta": b, "m_traj": m_traj,
                                     "seed": seed, "resolutions": k["h_list"]}
            for b in k["beta_list"]}


def write_config(path: Path, wl: Workload, m_traj: int, seed: int) -> None:
    def fmt(v):
        return "[" + ", ".join(map(repr, v)) + "]" if isinstance(v, list) else repr(v)

    knobs = dict(wl.knobs, m_traj=m_traj, seed=seed)
    path.write_text("".join(f"{key} = {fmt(val)}\n" for key, val in knobs.items()))


def traj_cost(wl: Workload) -> tuple[int, int]:
    """Computed (flops, weight bytes read) of one trajectory function call.

    Counts the seed program's contractions from the array shapes.  table1,
    per alpha: the reference contraction over K x n_fine weights and one
    over K x steps weights per coarse grid, then each difference's squared
    norm.  table2, per beta: the forcing and the spectral contraction over
    K x steps, then per mesh with N nodes the (K x N).(K x steps) product,
    the N x steps time contraction and the K x N cross term.
    """
    k = wl.knobs
    K = k["k_modes"]
    if wl.command == "table1":
        steps = [round(1.0 / dt) for dt in k["dt_list"]]
        n_alpha = len(k["alpha_list"])
        elems = n_alpha * K * (k["n_fine"] + sum(steps))
        return 2 * elems + 3 * K * n_alpha * len(steps), 8 * elems
    s = round(1.0 / k["dt"])
    nodes = [round(1.0 / h) - 1 for h in k["h_list"]]
    flops = 3 * K * s + 2 * K + sum(2 * K * n * s + 2 * n * s + 2 * K * n + 4 * n
                                    for n in nodes)
    return flops, 8 * (2 * K * s + sum(K * n + n * s for n in nodes))


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], env: dict, log: Path, timeout: float) -> Child:
    """Run argv to completion; wall time, and CPU and peak RSS via wait4.

    The child leads its own process group, which is killed after timeout
    seconds, pool workers included.
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                 maxrss_mb=usage.ru_maxrss / 1024.0, returncode=proc.returncode)


class Runner:
    """Runs and checks fracwave commands for one workload in a work directory."""

    def __init__(self, wl: Workload, work: Path, reference: dict):
        self.wl = wl
        self.work = work
        self.reference = reference
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        **{var: "1" for var in BLAS_PIN})
        self.env.pop("FRACWAVE_OUT", None)
        self.moments = None
        self.failures: list[str] = []
        self.attempted = 0
        self.build = None
        self._count = 0

    def child(self, argv: list[str], tag: str) -> tuple[Child, Path]:
        self._count += 1
        log = self.work / f"{self._count:03d}_{tag}.log"
        return run_child(argv, self.env, log, self.deadline - time.perf_counter()), log

    def python(self, script: str, *args: str) -> dict:
        """Run a helper under bench/ and parse the JSON it prints."""
        result, log = self.child([sys.executable, str(BENCH / script), *args], script)
        if result.returncode != 0:
            raise RuntimeError(f"{script} failed:\n{log.read_text()[-2000:]}")
        return json.loads(log.read_text().splitlines()[-1])

    def probe(self) -> dict:
        info = self.python("probe.py")
        if not Path(info["fracwave_file"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"fracwave imported from {info['fracwave_file']}, not src/")
        return info

    def prepare_checks(self, seed: int) -> None:
        """Exact table-1 moments, when full commands run at a non-reference seed.

        They depend only on the knobs and the program, so they are kept in
        the work directory, keyed by both, for later runs in this checkout.
        """
        if self.wl.command != "table1" or seed == REFERENCE_SEED:
            return
        key = hashlib.sha256(json.dumps(self.wl.knobs, sort_keys=True).encode())
        for path in sorted((ROOT / "src" / "fracwave").glob("*.py")):
            key.update(path.read_bytes())
        cache = self.work.parent / f"exact_{key.hexdigest()[:16]}.json"
        if not cache.is_file():
            cache.write_text(json.dumps(self.python("exact.py", json.dumps(self.wl.knobs))))
        self.moments = json.loads(cache.read_text())

    def cli(self, m_traj: int, seed: int, threads: int, spans: Path | None = None) -> Child:
        """One fresh-process command; its CSVs are checked outside the timing."""
        self._count += 1
        out = self.work / f"out{self._count:03d}"
        out.mkdir()
        cfg = out.with_suffix(".cfg")
        write_config(cfg, self.wl, m_traj, seed)
        prog = ([str(BENCH / "tracing.py"), str(spans), str(self.wl.knobs["k_modes"])]
                if spans else ["-m", "fracwave.cli"])
        argv = [sys.executable, *prog, self.wl.command, "--config", str(cfg),
                "--out", str(out), "--threads", str(threads)]
        result, log = self.child(argv, self.wl.command)
        print(f"{self.wl.command} m_traj={m_traj} seed={seed} threads={threads}"
              f"{' traced' if spans else ''}: wall {result.wall_s:.3f} s, cpu {result.cpu_s:.3f} s,"
              f" rss {result.maxrss_mb:.1f} MiB, exit {result.returncode}", file=sys.stderr)
        self.check(result, out, m_traj, seed, log)
        return result

    def check(self, result: Child, out: Path, m_traj: int, seed: int, log: Path) -> None:
        expect = table_expectations(self.wl, m_traj, seed)
        self.attempted += len(expect)
        if result.returncode != 0:
            tail = log.read_text(errors="replace")[-500:]
            self.failures += [f"{name}: exit code {result.returncode}: {tail}" for name in expect]
            return
        refs = None
        if seed == self.reference["seed"]:
            refs = self.reference["tables"][self.wl.command].get(str(m_traj))
        for name, exp in expect.items():
            ref = refs[name] if refs is not None else None
            moments = self.moments[repr(float(exp["alpha"]))] if self.moments else None
            msg = check_table(str(out / name), exp, ref, REL_TOL[self.wl.command], moments)
            if msg:
                self.failures.append(msg)
        if self.build is None:
            self.build = _build_line(out / next(iter(expect)))


def _build_line(path: Path) -> str | None:
    try:
        for line in path.read_text().splitlines():
            if line.startswith("# build ="):
                return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def end_to_end(runner: Runner, seed: int, seconds: float) -> dict[str, float]:
    """Alternate full and set-up commands; medians of each.

    A command starts only if, timed like the last one of its kind, it ends
    within `seconds`, once each kind has run MIN_REPS times.
    """
    wl = runner.wl
    setups: list[Child] = []
    fulls: list[Child] = []
    stop_at = time.perf_counter() + seconds
    while True:
        full_next = len(fulls) <= len(setups)
        bucket = fulls if full_next else setups
        if (min(len(setups), len(fulls)) >= MIN_REPS
                and time.perf_counter() + bucket[-1].wall_s > stop_at):
            break
        if full_next:
            bucket.append(runner.cli(wl.m_traj, seed, wl.threads))
        else:
            bucket.append(runner.cli(1, REFERENCE_SEED, wl.threads))
    wall = statistics.median(c.wall_s for c in fulls)
    setup = statistics.median(c.wall_s for c in setups)
    # A difference of two medians, too noisy to bound; the traced run
    # measures trajectory throughput in process (experiments.traj_per_s).
    print(f"traj_per_s (derived, unbounded) = {(wl.m_traj - 1) / max(wall - setup, 1e-9)!r} 1/s")
    return {
        "wall_s": wall,
        "setup_s": setup,
        "cpu_s": statistics.median(c.cpu_s for c in fulls),
        "peak_rss_mb": statistics.median(c.maxrss_mb for c in fulls),
    }


PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.write_s": "s",
    "ml.busy_s": "s", "ml.args": "count", "ml.args_per_s": "1/s",
    "ml.contour_args": "count", "ml.max_abs_z": "1",
    "spectral.weights_self_s": "s", "spectral.weight_calls": "count",
    "fem.stiffness_s": "s", "fem.eigensolve_s": "s", "fem.sine_products_s": "s",
    "fem.meshes": "count",
    "noise.generate_ms.p50": "ms", "noise.generate_ms.p90": "ms",
    "noise.philox_setup_ms": "ms", "noise.draw_ms": "ms", "noise.coarsen_ms": "ms",
    "noise.bytes_per_traj": "bytes",
    "experiments.setup_self_s": "s", "experiments.traj_self_ms": "ms",
    "experiments.traj_per_s": "1/s",
    "experiments.flops_per_traj": "flop", "experiments.weight_bytes_per_traj": "bytes",
    "cli.self_s": "s", "experiments.self_s": "s", "spectral.self_s": "s",
    "ml.self_s": "s", "fem.self_s": "s", "noise.self_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead": "1",
    "trace.accounted_share": "1",
}


#: Per-layer counts computed from argument and array shapes; they repeat
#: exactly from run to run.
COMPUTED = {"ml.args", "ml.contour_args", "ml.max_abs_z", "noise.bytes_per_traj",
            "experiments.flops_per_traj", "experiments.weight_bytes_per_traj"}


def traced(runner: Runner, seed: int) -> dict[str, float]:
    """Untraced and traced full commands at one thread; per-layer metrics.

    Spans are recorded in one process, so table1_par is traced as table1.
    Each metric is the median over the traced commands.  The traced wall
    time leaves out the Philox probe that follows the command.
    """
    m_traj = WORKLOADS[runner.wl.command].m_traj  # the serial workload's
    probes = [runner.probe() for _ in range(PROBES)]
    plain, runs = [], []
    for i in range(TRACE_REPS):
        plain.append(runner.cli(m_traj, seed, 1).wall_s)
        path = runner.work / f"spans{i}.json"
        wall = runner.cli(m_traj, seed, 1, spans=path).wall_s
        spans, missing = load_spans(str(path)) if path.exists() else ([], [])
        print(f"trace: {len(spans)} spans; not found: {', '.join(missing) or 'none'}")
        wall -= sum(s.duration for s in spans if s.layer == "probe")
        metrics = span_metrics(spans)
        metrics.update({
            "trace.wall_s": wall,
            "trace.accounted_share": sum(metrics[f"{layer}.self_s"] for layer in LAYERS) / wall,
        })
        runs.append(metrics)
    metrics = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    flops, weight_bytes = traj_cost(runner.wl)
    metrics.update({
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "experiments.flops_per_traj": flops,
        "experiments.weight_bytes_per_traj": weight_bytes,
        "trace.untraced_wall_s": statistics.median(plain),
        "trace.overhead": metrics["trace.wall_s"] / statistics.median(plain) - 1.0,
    })
    return metrics


def environment(runner: Runner, info: dict) -> dict:
    try:
        commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workers": runner.wl.threads,
        "python": info["python"], "numpy": info["numpy"], "scipy": info["scipy"],
        "blas": info["blas"], "blas_pin": {var: "1" for var in BLAS_PIN},
        "commit": commit or "unavailable (not a git checkout)",
        "csv_build": runner.build,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "fracwave" / "cli.py").is_file():
        print(f"error: no fracwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(BENCH / "reference.json") as fh:
        reference = json.load(fh)
    wl = WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work = work_root / f"run{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(wl, work, reference)
        info = runner.probe()  # also warms the file cache and bytecode
        runner.prepare_checks(args.seed)
        if args.trace:
            metrics, units = traced(runner, args.seed), PER_LAYER_UNITS
        else:
            metrics, units = end_to_end(runner, args.seed, args.seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(environment(runner, info)))
    for msg in runner.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    failed = len(runner.failures)
    print(f"check_fail_ratio = {failed}/{runner.attempted}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}{' (computed)' if name in COMPUTED else ''}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
