"""Exact mean and variance of one table-1 trajectory's squared modeling error.

Usage: PYTHONPATH=src python3 bench/exact.py '<workload knobs as JSON>'
Prints {"<alpha>": [[mean, variance], ...one pair per coarse step]}.

The homogeneous parts cancel, and a coarse increment is the ascending sum
of `factor` fine ones, so mode k's error is e_k = sum_i D[k, i] xi[k, i]
with D = W_ref - repeat(W_coarse, factor) and independent
xi ~ N(0, dt_fine).  Hence E|e|^2 = dt_fine ||D||_F^2 and, the e_k being
independent centred normals, Var |e|^2 = 2 sum_k (dt_fine ||D_k||^2)^2.
D is built from the public `convolution_weights`, with the rules the CLI
uses: the left-point reference over all modes, the exact coarse rule over
the first n_cutoff = k_modes modes.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from fracwave.noise import NoiseSpec, inverse_cubic_sigma
from fracwave.spectral import FracOrders, convolution_weights


def exact_moments(knobs: dict) -> dict:
    n_fine, k_modes = knobs["n_fine"], knobs["k_modes"]
    dt_fine = 1.0 / n_fine
    spec = NoiseSpec(sigma=inverse_cubic_sigma, n_cutoff=k_modes, K_modes=k_modes,
                     T=1.0, N_fine=n_fine)
    out = {}
    for alpha in knobs["alpha_list"]:
        orders = FracOrders(alpha, knobs["beta"])
        w_ref = convolution_weights(orders, spec, dt_fine, n_fine, rule="left",
                                    truncated=False)
        rows = []
        for dt in knobs["dt_list"]:
            steps = round(1.0 / dt)
            w_coarse = convolution_weights(orders, spec, dt, steps, rule="exact",
                                           truncated=True)
            d = w_ref - np.repeat(w_coarse, n_fine // steps, axis=1)
            per_mode = dt_fine * np.einsum("ki,ki->k", d, d)
            rows.append([float(per_mode.sum()), float(2.0 * np.dot(per_mode, per_mode))])
        out[repr(float(alpha))] = rows
    return out


if __name__ == "__main__":
    print(json.dumps(exact_moments(json.loads(sys.argv[1]))))
