"""Galerkin approximation error across meshes (small-scale run).

At the noise step 0.01 (n_fine = 100) the spectral regularized solution is
compared with its finite element approximation on a family of meshes,
trajectory by trajectory with identical noise.  The root-mean-squared L2
error decays at order 2*beta in the mesh width (observed rates typically
run at 2).

The full-size experiment (500 trajectories, beta in {0.6, 0.8, 1.0},
meshes down to h = 1/100) is `fracwave table2`; this demo runs a light
version.
"""

import numpy as np

from fracwave.experiments import ExperimentConfig, fem_error_tables
from fracwave.spectral import FracOrders

cfg = ExperimentConfig(m_traj=60, base_seed=5, n_fine=100, k_modes=300, n_cutoff=300,
                       h_list=(1 / 10, 1 / 20, 1 / 40))
orders = [FracOrders(1.5, beta) for beta in (0.6, 1.0)]
for o, tab in zip(orders, fem_error_tables(cfg, orders)):
    beta = o.beta
    print(f"beta = {beta} (guaranteed order {2*beta:.1f}, mean rate {tab.mean_rate:.3f})")
    print("  1/h    error        rate")
    for r, e, rt in zip(tab.resolutions, tab.errors, tab.rates):
        rate = "  --  " if np.isnan(rt) else f"{rt:.4f}"
        print(f"  {1/r:4.0f}  {e:.4e}  {rate}")
    print()
