#!/usr/bin/env python3
"""Closed-form entropic tilts and KL-optimal moment calibration.

Walks through the three closed-form tilt families (ER, block model, dot
product model), cross-checks them against exhaustive enumeration on small
vertex sets, and calibrates an edge+triangle exponential-family model to a
moment target.
"""

import numpy as np

from graphsynth import (ER, ErgmSpec, GraphEnumeration, calibrate_moment,
                        exact_enumeration_pmf, statistic_matrix, tilt_er,
                        tilt_sbm)
from graphsynth.logistic import expit, logit

# --- 1. ER tilt is a log-odds shift --------------------------------------
p, lam = 0.3, np.log(3.0)
print(f"ER tilt: p={p}, lambda=ln 3 -> p'={tilt_er(p, lam):.6f}")
print(f"         closed form expit(logit(p)+lambda) = {expit(logit(p) + lam):.6f}")

# --- 2. block-model tilt acts blockwise ----------------------------------
b = np.array([[0.6, 0.2], [0.2, 0.5]])
lam_m = np.array([[0.7, 0.0], [0.0, -0.4]])
print("\nSBM blockwise tilt:")
print(tilt_sbm(b, lam_m).round(6))

# --- 3. enumeration cross-check at n=4 -----------------------------------
n = 4
enum = GraphEnumeration.get(n)
base = exact_enumeration_pmf(ER(p), n)
weighted = base.probs * np.exp(lam * enum.edge_counts())
weighted /= weighted.sum()
direct = exact_enumeration_pmf(ER(tilt_er(p, lam)), n)
tv = 0.5 * np.abs(weighted - direct.probs).sum()
print(f"\nenumeration cross-check at n={n}: TV(tilted pmf, closed form) = {tv:.2e}")

# --- 4. calibrate an edge+triangle model to a moment target --------------
stats = [("edges",), ("triangles",)]
spec = ErgmSpec(stats, [-0.2, 0.1], n)
stat = statistic_matrix(enum, stats)
base_mean = exact_enumeration_pmf(spec).probs @ stat
target = base_mean + np.array([0.6, 0.3])
tau = calibrate_moment(spec, target)
tilted = ErgmSpec(stats, spec.theta + tau, n)
achieved = exact_enumeration_pmf(tilted).probs @ stat
print(f"\nERGM calibration at n={n} (edges, triangles):")
print(f"  base mean      = {base_mean.round(4)}")
print(f"  target         = {target.round(4)}")
print(f"  calibrated tau = {tau.round(6)}")
print(f"  achieved mean  = {achieved.round(10)}")
print(f"  residual       = {np.max(np.abs(achieved - target)):.2e}")
