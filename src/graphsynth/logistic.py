"""Logistic helpers in numpy: the sigmoid, its log, its inverse and a
log-sum-exp.

They follow the formulas of ``scipy.special``'s functions of the same names
and agree with them to a few ulp; they differ in the last bits only where
numpy's ``exp`` and ``log`` round differently from the C library's.  Like
those, they return 0 and 1, -inf and inf at the ends of their ranges
without a floating-point warning.
"""

from __future__ import annotations

import numpy as np


def expit(x):
    """The logistic sigmoid 1 / (1 + exp(-x))."""
    with np.errstate(over="ignore"):
        return (1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float))))[()]


def log_expit(x):
    """log(expit(x)) = -log(1 + exp(-x)), without overflow or underflow to
    -inf at large |x|."""
    return (-np.logaddexp(0.0, -np.asarray(x, dtype=float)))[()]


def logit(p):
    """log(p / (1 - p)).  On [0.3, 0.65] it is computed as log1p(s) -
    log1p(-s) with s = 2 (p - 1/2), since the ratio loses relative
    accuracy near 1/2, where logit(p) is near 0."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(p / (1.0 - p), out=np.empty_like(p))
        mid = (p >= 0.3) & (p <= 0.65)
        if np.any(mid):
            s = 2.0 * (p[mid] - 0.5)
            out[mid] = np.log1p(s) - np.log1p(-s)
    return out[()]


def logsumexp(a) -> float:
    """log(sum(exp(a))) over every entry of ``a``, shifted by its maximum.
    The maxima are counted, not summed: with m of them and the other
    entries' shifted exponentials summing to s, the result is max + log(m)
    + log1p(s / m)."""
    a = np.asarray(a, dtype=float)
    top = a.max()
    at_top = a == top
    with np.errstate(over="ignore", invalid="ignore"):
        rest = np.exp(np.where(at_top, -np.inf, a - top)).sum()
    m = float(np.count_nonzero(at_top))
    return float(np.log1p(rest / m) + np.log(m) + top)
