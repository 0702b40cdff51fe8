"""Graph and dyad sampling, components, and phase sweeps."""

import hashlib

import numpy as np
import pytest

from graphsynth import (Block, Constant, ProductWeight, default_generator,
                        functionals, giant_fraction, graph_statistics, make_rng,
                        phase_sweep,
                        sample_dyads, sample_graph, sample_sparse_graph,
                        split_rngs, uniform_step_map)
from graphsynth.graphons import Graphon
from graphsynth.sampling import graph_from_edge_array

TWO_BLOCK = Block.from_arrays([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.8]])


# ---------------------------------------------------------------------------
# dense sampling
# ---------------------------------------------------------------------------

def test_extreme_graphons():
    empty = sample_graph(Constant(0.0), 40, seed=1)
    assert empty.n_edges == 0
    full = sample_graph(Constant(1.0), 40, seed=1)
    assert full.n_edges == 40 * 39 // 2
    assert np.all(full.degrees == 39)


def test_determinism_bitwise():
    a = sample_graph(TWO_BLOCK, 300, seed=99)
    b = sample_graph(TWO_BLOCK, 300, seed=99)
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.latents, b.latents)
    c = sample_graph(TWO_BLOCK, 300, seed=100)
    assert not np.array_equal(a.edges, c.edges)


def test_density_concentration():
    p, n = 0.3, 2000
    g = sample_graph(Constant(p), n, seed=5)
    pairs = n * (n - 1) / 2
    density = g.n_edges / pairs
    sd = np.sqrt(p * (1 - p) / pairs)
    assert abs(density - p) <= 3 * sd


def test_edge_list_invariants():
    g = sample_graph(TWO_BLOCK, 500, seed=3)
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    keys = g.edges[:, 0] * 500 + g.edges[:, 1]
    assert np.unique(keys).size == keys.size
    deg = np.zeros(500, dtype=int)
    np.add.at(deg, g.edges[:, 0], 1)
    np.add.at(deg, g.edges[:, 1], 1)
    np.testing.assert_array_equal(deg, g.degrees)


def test_graph_from_edge_array_cleans_input():
    g = graph_from_edge_array(4, [[0, 1], [1, 0], [2, 2], [1, 3], [3, 1]])
    np.testing.assert_array_equal(g.edges, [[0, 1], [1, 3]])
    np.testing.assert_array_equal(g.degrees, [1, 2, 0, 1])


# ---------------------------------------------------------------------------
# sparse sampling
# ---------------------------------------------------------------------------

def test_sparse_reduces_to_er():
    n, lam = 10_000, 5.0
    g = sample_sparse_graph(Constant(1.0), n, lam, seed=11)
    mean_deg = 2 * g.n_edges / n
    # mean degree ~ lam with Poisson-like fluctuation
    assert abs(mean_deg - lam) <= 3 * np.sqrt(lam / n) * 3


def test_sparse_mean_degree_matches_edge_density():
    n, lam = 10_000, 6.0
    e_w = functionals(TWO_BLOCK).edge
    g = sample_sparse_graph(TWO_BLOCK, n, lam, seed=13)
    expected = lam * e_w
    mean_deg = 2 * g.n_edges / n
    assert abs(mean_deg - expected) <= 4 * np.sqrt(expected / n) * 3


def test_sparse_block_fast_path_matches_generic():
    """The block fast path and the generic Bernoulli path agree in
    distribution (checked on means over replicates)."""
    n, lam, reps = 800, 4.0, 30
    w = TWO_BLOCK

    class Opaque:
        bounded_unit = True

        def evaluate(self, x, y):
            return w.evaluate(x, y)

    fast = [sample_sparse_graph(w, n, lam, seed=1000 + r).n_edges for r in range(reps)]
    slow = [sample_sparse_graph(Opaque(), n, lam, seed=2000 + r).n_edges
            for r in range(reps)]
    mu, sd = np.mean(fast), np.std(fast)
    assert abs(np.mean(slow) - mu) <= 4 * sd / np.sqrt(reps) + 4 * sd / np.sqrt(reps)


def test_sparse_determinism_and_validation():
    a = sample_sparse_graph(TWO_BLOCK, 5000, 3.0, seed=2)
    b = sample_sparse_graph(TWO_BLOCK, 5000, 3.0, seed=2)
    np.testing.assert_array_equal(a.edges, b.edges)
    with pytest.raises(ValueError):
        sample_sparse_graph(TWO_BLOCK, 100, 0.0, seed=1)


class Ridge(Graphon):
    """A graphon with no block form, so the sparse sampler falls back to
    row-chunked Bernoulli draws."""

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        return 0.9 * np.exp(-4.0 * np.abs(x - np.asarray(y, dtype=float)))


# sha256 of the edge and degree bytes; a change here means seeded samples
# changed, which changes every pinned output downstream
PINNED_SAMPLES = {
    "dense_block": (
        lambda: sample_graph(TWO_BLOCK, 400, seed=21),
        "f33afb3e15cbd1a5f9b877dcd436a9c1aa40d5aae2af39461e706e8c18bf9267",
        "159494a3e891c985cf5bb9adcf3e78793d586e0eb559a115d1ed7fa6489d1a61"),
    "dense_linear_combo": (
        lambda: sample_graph(default_generator()[0], 600, seed=22),
        "4f0c092220936388e549556792c3d00b2d170ef6370804dac7f31785c790a40f",
        "ccadeb8e892cb14919b33b70684d358ed04988b6448a42d7c7b9b20ea4136127"),
    "sparse_block": (
        lambda: sample_sparse_graph(TWO_BLOCK, 3000, 6.0, seed=23),
        "020c798e4807d6bd26c9dd77288be4752ee3438ecd27f6794df420eaa7f865a9",
        "d829ced5605736348dda5b96771464978a75978539d4f8239521103701529cb6"),
    "sparse_fallback": (
        lambda: sample_sparse_graph(Ridge(), 600, 40.0, seed=24),
        "4c29f12686ab68f114661342fa0e71a8be510ebe0dc2dad9ac3c55d51a550c4f",
        "a8d27e503901ed6a173247bd7771b867aaa79a5d52294e11b7f161ae29119c82"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SAMPLES))
def test_sampler_streams_pinned(name):
    sample, edges_sha, degrees_sha = PINNED_SAMPLES[name]
    g = sample()
    assert g.edges.dtype == np.int64 and g.degrees.dtype == np.int64
    assert hashlib.sha256(g.edges.tobytes()).hexdigest() == edges_sha
    assert hashlib.sha256(g.degrees.tobytes()).hexdigest() == degrees_sha


# ---------------------------------------------------------------------------
# dyad sampling
# ---------------------------------------------------------------------------

def test_dyads_zero_graphon_all_negative():
    data = sample_dyads(Constant(0.0), [Constant(0.5)], 500, seed=4)
    assert np.all(data.labels == 0.0)
    assert np.all(data.features[:, 0] == 1.0)


def test_dyad_label_mean_matches_edge_density():
    m = 40_000
    e_w = functionals(TWO_BLOCK).edge
    data = sample_dyads(TWO_BLOCK, [Constant(0.5)], m, seed=6)
    sd = np.sqrt(e_w * (1 - e_w) / m)
    assert abs(data.labels.mean() - e_w) <= 3 * sd


def test_dyad_features_come_from_agents():
    agents = [Constant(0.25), TWO_BLOCK]
    data = sample_dyads(TWO_BLOCK, agents, 200, seed=8)
    np.testing.assert_allclose(data.features[:, 1], 0.25)
    assert set(np.round(np.unique(data.features[:, 2]), 6)) <= {0.1, 0.8}


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def test_giant_fraction_oracles():
    empty = graph_from_edge_array(8, np.empty((0, 2)))
    assert giant_fraction(empty) == pytest.approx(1 / 8)
    complete = sample_graph(Constant(1.0), 6, seed=1)
    assert giant_fraction(complete) == 1.0
    path = graph_from_edge_array(5, [[0, 1], [1, 2], [2, 3], [3, 4]])
    assert giant_fraction(path) == 1.0
    two_comp = graph_from_edge_array(5, [[0, 1], [2, 3]])
    assert giant_fraction(two_comp) == pytest.approx(2 / 5)


def test_phase_sweep_smoke():
    curve = phase_sweep(Constant(1.0), [0.5, 1.5, 3.0], n=2000, reps=3, seed=21)
    assert curve.lambda_critical == pytest.approx(1.0, abs=1e-6)
    assert curve.mean_fraction[0] < 0.05
    assert curve.mean_fraction[-1] > curve.mean_fraction[0]
    again = phase_sweep(Constant(1.0), [0.5, 1.5, 3.0], n=2000, reps=3, seed=21)
    np.testing.assert_array_equal(curve.mean_fraction, again.mean_fraction)


# ---------------------------------------------------------------------------
# degree-distribution limit
# ---------------------------------------------------------------------------

def test_degree_distribution_ks_limit():
    """Normalized degrees converge to the law of the graphon degree
    function d_w(U).

    The limit law is a step distribution, so the sup distance is taken away
    from the atoms (within 3 binomial sd of an atom the empirical mass
    splits roughly in half at any n).
    """
    n = 5000
    w = Block.from_arrays([0, 0.3, 0.7, 1], [[0.9, 0.2, 0.1],
                                             [0.2, 0.5, 0.3],
                                             [0.1, 0.3, 0.8]])
    g = sample_graph(w, n, seed=32)
    norm_deg = np.sort(g.degrees / (n - 1))
    mu = np.diff([0, 0.3, 0.7, 1])
    deg_vals = np.asarray(w.matrix) @ mu

    def theory_cdf(x):
        return float(np.sum(mu[deg_vals <= x]))

    grid = np.linspace(0, 1, 401)
    keep = np.all(np.abs(grid[:, None] - deg_vals[None, :]) > 0.02, axis=1)
    grid = grid[keep]
    emp = np.searchsorted(norm_deg, grid, side="right") / n
    theo = np.array([theory_cdf(x) for x in grid])
    assert np.max(np.abs(emp - theo)) <= 0.05


# ---------------------------------------------------------------------------
# RNG plumbing
# ---------------------------------------------------------------------------

def test_split_rngs_deterministic_and_distinct():
    a = [r.random(3) for r in split_rngs(7, 4)]
    b = [r.random(3) for r in split_rngs(7, 4)]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert not np.allclose(a[0], a[1])


def test_make_rng_accepts_seed_sequence():
    ss = np.random.SeedSequence(5)
    r1 = make_rng(ss)
    r2 = make_rng(np.random.SeedSequence(5))
    assert r1.random() == r2.random()
