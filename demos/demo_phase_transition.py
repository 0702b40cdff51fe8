#!/usr/bin/env python3
"""Giant-component phase transition for sparse graphon samples.

For edge probabilities lambda*w(x,y)/n the giant component appears once
lambda exceeds 1/rho(T_w), where rho is the spectral radius of the graphon
integral operator.  The sweep below shows the subcritical plateau, the
onset at lambda_c, and the supercritical growth toward the branching
fixed point.
"""

import numpy as np

from graphsynth import (Block, Constant, phase_sweep, spectral_bracket,
                        spectral_radius)

# --- 1. homogeneous case: lambda_c = 1, fixed point zeta = 1 - e^(-l z) --
lambdas = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0]
# five replicate graphs per lambda, each with its own seed
curve = phase_sweep(Constant(1.0), lambdas, n=10_000,
                    seeds=np.random.SeedSequence(42).spawn(5 * len(lambdas)))
print(f"Constant(1): rho = {curve.rho:.6f}, lambda_c = {curve.lambda_critical:.6f}")
print("\n  lambda   giant fraction (mean +/- sd)")
for lam, mean, sd in zip(curve.lambdas, curve.mean_fraction, curve.sd_fraction):
    bar = "#" * int(round(40 * mean))
    print(f"   {lam:5.2f}   {mean:.4f} +/- {sd:.4f}  {bar}")


def fixed_point(lam, iters=200):
    z = 0.5
    for _ in range(iters):
        z = 1.0 - np.exp(-lam * z)
    return z


print("\n  branching fixed points for comparison:")
for lam in (1.25, 1.5, 2.0, 3.0):
    print(f"   lambda={lam:4.2f}  zeta={fixed_point(lam):.4f}")

# --- 2. combined kernel: the critical point moves with the weights -------
parts = [Block([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.8]]),
         Block([0, 0.25, 1], [[0.3, 0.6], [0.6, 0.2]])]
beta = [0.05, 0.55, 0.40]
lower, upper, rho = spectral_bracket(beta, parts)
print(f"\nnonnegative combo beta={beta}:")
print(f"  agent rhos: {[round(spectral_radius(p), 4) for p in parts]}")
print(f"  bracket [{lower:.4f}, {upper:.4f}] contains rho_combo = {rho:.4f}")
print(f"  critical sparsity lambda_c = 1/rho = {1.0 / rho:.4f}")
