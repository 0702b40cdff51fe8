"""The numpy logistic helpers against scipy.special, which they replace."""

import warnings

import numpy as np
import pytest
import scipy.special

from graphsynth.logistic import expit, log_expit, logit, logsumexp

MAX_ULPS = 8


def ulps(a, b) -> np.ndarray:
    """Units in the last place between a and b, elementwise: 0 where both
    are equal (+0 and -0 alike, infinities of one sign) or both NaN."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    def ordinal(x):
        # the bit patterns, ordered like the floats they encode
        bits = x.view(np.int64).astype(object)
        return np.where(bits < 0, -(bits & 0x7FFF_FFFF_FFFF_FFFF), bits)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    return np.where(same, 0, np.abs(ordinal(a) - ordinal(b))).astype(float)


def _quiet(fn, x):
    """fn(x), failing on any floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(x)


REALS = np.concatenate([
    np.linspace(-800.0, 800.0, 16_001),
    np.geomspace(1e-300, 800.0, 4_001), -np.geomspace(1e-300, 800.0, 4_001),
    [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 709.78, -709.78, 745.2, -745.2],
])
PROBS = np.concatenate([
    np.linspace(0.0, 1.0, 10_001),
    np.geomspace(5e-324, 0.1, 4_001), 1.0 - np.geomspace(1e-17, 0.1, 2_001),
    0.5 + np.geomspace(1e-17, 0.2, 2_001), 0.5 - np.geomspace(1e-17, 0.2, 2_001),
    # both sides of the branch points
    np.nextafter(0.3, [0.0, 1.0]), np.nextafter(0.65, [0.0, 1.0]), [0.3, 0.65],
    [-0.0, np.nextafter(1.0, 0.0), -0.5, 1.5],
])


@pytest.mark.parametrize("ours, theirs, grid", [
    (expit, scipy.special.expit, REALS),
    (log_expit, scipy.special.log_expit, REALS),
    (logit, scipy.special.logit, PROBS),
], ids=["expit", "log_expit", "logit"])
def test_elementwise_helpers_match_scipy(ours, theirs, grid):
    got = _quiet(ours, grid)
    assert got.shape == grid.shape
    assert ulps(got, theirs(grid)).max() <= MAX_ULPS
    # a scalar gives a scalar, equal to its entry of the array
    for x in grid[::997]:
        assert np.ndim(ours(float(x))) == 0
        assert ulps(ours(float(x)), got[grid == x][0]) == 0


def test_logit_keeps_relative_accuracy_near_one_half():
    p = 0.5 + np.geomspace(1e-15, 1e-3, 50)
    # logit(1/2 + d) = 2 atanh(2 d), to the rounding of p itself
    exact = 2.0 * np.arctanh(2.0 * (p - 0.5))
    assert ulps(logit(p), exact).max() <= MAX_ULPS


def test_logit_and_expit_invert_each_other_at_the_ends():
    assert logit(0.0) == -np.inf and logit(1.0) == np.inf
    assert expit(-np.inf) == 0.0 and expit(np.inf) == 1.0
    assert log_expit(-np.inf) == -np.inf and log_expit(np.inf) == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_logsumexp_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    for scale in (1e-3, 1.0, 30.0, 800.0):
        a = rng.normal(scale=scale, size=int(rng.integers(1, 3000)))
        # ties at the maximum, and entries that vanish under the shift
        a[rng.integers(0, a.size, size=3)] = a.max()
        a[rng.integers(0, a.size, size=2)] = -np.inf
        got = _quiet(logsumexp, a)
        assert isinstance(got, float)
        assert ulps(got, scipy.special.logsumexp(a)) <= MAX_ULPS


@pytest.mark.parametrize("a", [
    [0.0], [-np.inf, -np.inf], [np.inf, 1.0], [np.inf, np.inf, -np.inf],
    [-745.0, -745.0], [709.0, 709.0, 709.0], [1e308, -1e308],
])
def test_logsumexp_edge_cases_match_scipy(a):
    with np.errstate(over="ignore"):
        expected = scipy.special.logsumexp(a)
    assert ulps(_quiet(logsumexp, np.array(a)), expected) <= MAX_ULPS
