"""Acceptance suite: one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines; the suite is the release gate of the package.
"""

import math
import time

import numpy as np

from fracwave.experiments import (
    ExperimentConfig,
    fem_error_tables,
    modeling_error_samples,
    modeling_error_tables,
    stability_report,
)
from fracwave.fem import FemMesh, discrete_spectrum, eigenvalues_from_series
from fracwave.mittag_leffler import ml, ml_series_hp, ml_time_kernel, ml_values
from fracwave.spectral import FracOrders
from fracwave.cli import main as cli_main

ACCEPTANCE_SEED = 20250809

# target successive-pair rates for each alpha column of the modeling-error
# table; the acceptance bands are centered on their per-column means
TABLE1_TARGET_RATES = {
    1.1: (0.7097, 0.6765, 0.5793, 0.7895),
    1.25: (0.7062, 0.8088, 0.6454, 0.8575),
    1.5: (0.8470, 0.9693, 0.9392, 0.8846),
    1.75: (0.9325, 1.0194, 0.9697, 0.9348),
    2.0: (0.9236, 1.0676, 0.9258, 0.9335),
}


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {status} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_mittag_leffler_accuracy():
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for alpha in (1.1, 1.25, 1.5, 1.75, 2.0):
        for beta in (1.0, 2.0, alpha, alpha + 1.0, alpha - 1.0):
            zs = np.linspace(-100.0, 0.0, 20)
            fast = ml_values(alpha, beta, zs)
            for z, f in zip(zs, fast):
                checked += 1
                if abs(z) <= 30.0:
                    ref = ml_series_hp(alpha, float(beta), float(z), 1e-30)
                    worst = max(worst, abs(f - ref) / max(abs(ref), 1e-300))
    # elementary special cases across the whole window
    zs = np.linspace(-100.0, 0.0, 40)
    worst_exp = np.max(np.abs(ml_values(1.0, 1.0, zs) - np.exp(zs))
                       / np.abs(np.exp(zs)))
    ts = np.linspace(0.0, 10.0, 40)
    cos_err = np.abs(ml_values(2.0, 1.0, -(ts**2)) - np.cos(ts))
    worst_cos = np.max(cos_err / (1.0 + np.abs(np.cos(ts))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and worst_exp <= 1e-12 and worst_cos <= 1e-12 and elapsed < 10.0
    _report(1, "Mittag-Leffler accuracy", ok,
            f"{checked} grid points, worst rel {worst:.2e}, exp {worst_exp:.2e}, "
            f"cos {worst_cos:.2e}, {elapsed:.1f}s")


def test_criterion_2_ml_calculus_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    worst = 0.0
    for _ in range(100):
        alpha = rng.uniform(1.05, 1.95)
        lam = rng.uniform(0.2, 30.0)
        t = rng.uniform(0.3, 1.5)
        h = 1e-5 * t

        def rel(a, b):
            return abs(a - b) / (1.0 + abs(b))

        d1 = (ml(alpha, 1.0, -lam * (t + h) ** alpha)
              - ml(alpha, 1.0, -lam * (t - h) ** alpha)) / (2 * h)
        worst = max(worst, rel(d1, -lam * t ** (alpha - 1.0)
                               * ml(alpha, alpha, -lam * t**alpha)))

        d2 = ((t + h) * ml(alpha, 2.0, -lam * (t + h) ** alpha)
              - (t - h) * ml(alpha, 2.0, -lam * (t - h) ** alpha)) / (2 * h)
        worst = max(worst, rel(d2, ml(alpha, 1.0, -lam * t**alpha)))

        tau = 0.4 * t
        d3 = (ml_time_kernel(alpha, lam, t - (tau + h), "impulse")
              - ml_time_kernel(alpha, lam, t - (tau - h), "impulse")) / (2 * h)
        u = t - tau
        ref3 = -u ** (alpha - 2.0) * ml(alpha, alpha - 1.0, -lam * u**alpha)
        worst = max(worst, rel(d3, ref3))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(2, "ML calculus identities", ok,
            f"100 random triples, worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_discrete_spectrum_oracle():
    t0 = time.perf_counter()
    worst_eig = 0.0
    worst_orth = 0.0
    for n in (9, 24, 49):
        spectrum = discrete_spectrum(FemMesh(n), 1.0, k_series=10**6)
        h = spectrum.mesh.h
        j = np.arange(1, n + 1)
        ref = (6.0 / h**2) * (1 - np.cos(j * math.pi * h)) / (2 + np.cos(j * math.pi * h))
        worst_eig = max(worst_eig, float(np.max(np.abs(spectrum.eigenvalues - ref) / ref)))
        gram = spectrum.eigenvectors.T @ spectrum.mass @ spectrum.eigenvectors
        worst_orth = max(worst_orth, float(np.abs(gram - np.eye(n)).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_eig <= 1e-6 and worst_orth <= 1e-10 and elapsed < 60.0
    _report(3, "discrete spectrum oracle", ok,
            f"worst eig rel {worst_eig:.2e}, orthonormality {worst_orth:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_4_spectral_definition_consistency():
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (0.6, 0.75, 0.8, 1.0):
        spectrum = discrete_spectrum(FemMesh(24), beta, k_series=10**6)
        recomputed = eigenvalues_from_series(spectrum)
        worst = max(worst, float(np.max(np.abs(recomputed - spectrum.eigenvalues)
                                        / spectrum.eigenvalues)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8
    _report(4, "spectral-definition consistency", ok,
            f"worst rel {worst:.2e} over beta grid, {elapsed:.1f}s")


def test_criterion_5_table1_reproduction():
    t0 = time.perf_counter()
    alphas = (1.1, 1.25, 1.5, 1.75, 2.0)
    cfg = ExperimentConfig(m_traj=1000, base_seed=ACCEPTANCE_SEED)
    tables = modeling_error_tables(cfg, [FracOrders(alpha, 0.75) for alpha in alphas],
                                   n_workers=1)
    elapsed = time.perf_counter() - t0
    ok = True
    details = []
    for alpha, table in zip(alphas, tables):
        mean_rate = table.mean_rate
        target = float(np.mean(TABLE1_TARGET_RATES[alpha]))
        floor = alpha - 0.75 if alpha <= 1.5 else 0.75
        monotone = bool((np.diff(table.errors) < 0.0).all() and (table.errors > 0).all())
        ok_col = abs(mean_rate - target) <= 0.25 and mean_rate >= floor and monotone
        ok = ok and ok_col
        details.append(f"a={alpha}: {mean_rate:.3f} vs {target:.3f}")
    ok = ok and elapsed < 1800.0
    _report(5, "Table 1 modeling-error rates", ok,
            "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_6_table2_reproduction():
    t0 = time.perf_counter()
    ok = True
    details = []
    betas = (0.6, 0.8, 1.0)
    cfg = ExperimentConfig(m_traj=500, base_seed=ACCEPTANCE_SEED, n_fine=100, dt_list=(0.01,))
    tables = fem_error_tables(cfg, [FracOrders(1.5, beta) for beta in betas], n_workers=1)
    for beta, table in zip(betas, tables):
        rates = table.rates[1:]
        ok_col = bool((rates >= 2.0 * beta - 0.3).all())
        if beta == 1.0:
            ok_col = ok_col and abs(table.mean_rate - 2.0) <= 0.3
        ok = ok and ok_col
        details.append(f"b={beta}: rates {np.array2string(rates, precision=3)}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1800.0
    _report(6, "Table 2 Galerkin rates", ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_7_rectangle_rule_degeneration():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(m_traj=3, base_seed=ACCEPTANCE_SEED, n_fine=1000,
                           dt_list=(1 / 1000,))
    samples = modeling_error_samples(cfg, [FracOrders(1.5, 0.75)], rule="left")
    elapsed = time.perf_counter() - t0
    ok = bool((samples == 0.0).all()) and elapsed < 60.0
    _report(7, "rectangle-rule degeneration", ok,
            f"max per-trajectory squared error {np.max(np.abs(samples)):.1e} "
            f"(bitwise zero required), {elapsed:.1f}s")


def test_criterion_8_homogeneous_stability():
    t0 = time.perf_counter()
    ok = True
    details = []
    for alpha, beta in ((1.25, 0.75), (1.5, 0.75), (1.75, 0.6)):
        rep = stability_report(FracOrders(alpha, beta))
        gap = abs(rep["fitted_exponent"] - rep["expected_exponent"])
        mono = bool((np.diff(rep["continuity_errors"]) < 0.0).all())
        ok = ok and gap <= 0.15 and mono
        details.append(f"a={alpha}: slope {rep['fitted_exponent']:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(8, "homogeneous stability decay", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "det.cfg"
    cfg.write_text("m_traj = 25\nn_fine = 1000\nk_modes = 1000\nn_cutoff = 1000\n")
    outs = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r8", "8")):
        out = tmp_path / name
        code = cli_main(["table1", "--config", str(cfg), "--seed", "7",
                         "--out", str(out), "--threads", threads])
        assert code == 0
        outs.append(sorted(out.iterdir()))
    assert [p.name for p in outs[0]] == [p.name for p in outs[1]] == [p.name for p in outs[2]]
    same_rerun = all(a.read_bytes() == b.read_bytes() for a, b in zip(outs[0], outs[1]))
    same_threads = all(a.read_bytes() == b.read_bytes() for a, b in zip(outs[0], outs[2]))
    elapsed = time.perf_counter() - t0
    ok = same_rerun and same_threads and len(outs[0]) == 5
    _report(9, "CLI determinism", ok,
            f"5 tables, rerun identical: {same_rerun}, 1-vs-8 threads identical: "
            f"{same_threads}, {elapsed:.0f}s")
