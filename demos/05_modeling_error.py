"""Modeling error of the time-discretized noise (small-scale run).

The reference solution lives on a fine lattice and integrates the impulse
kernel against the raw increments with a left-point sum; the regularized
solution sees the same Brownian paths through coarser piecewise-constant
noise, with the kernel integrated exactly per subinterval.  Their
root-mean-squared L2 distance decays in the coarse step at a rate that
grows with the time order alpha (saturating at first order past
alpha = 3/2).

The full-size experiment (1000 trajectories, 1000 modes, the five-step
resolution ladder) is `fracwave table1`; this demo runs a light version.
"""

import numpy as np

from fracwave.experiments import ExperimentConfig, modeling_error_tables
from fracwave.spectral import FracOrders

cfg = ExperimentConfig(m_traj=100, base_seed=1, n_fine=500, k_modes=250, n_cutoff=250,
                       dt_list=(1 / 25, 1 / 50, 1 / 100, 1 / 125), h_list=())

# one table per (alpha, beta); the columns share their Brownian paths
orders = [FracOrders(alpha, 0.75) for alpha in (1.1, 1.5, 2.0)]
for o, tab in zip(orders, modeling_error_tables(cfg, orders)):
    print(f"alpha = {o.alpha} (mean rate {tab.mean_rate:.3f})")
    print("  1/dt    error        rate")
    for r, e, rt in zip(tab.resolutions, tab.errors, tab.rates):
        rate = "  --  " if np.isnan(rt) else f"{rt:.4f}"
        print(f"  {1/r:5.0f}  {e:.4e}  {rate}")
    print()

print("rates increase with alpha and level off near 1 beyond alpha = 1.5")
