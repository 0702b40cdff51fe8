"""Graph and dyad sampling, components, and phase sweeps."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsynth import (Block, Constant, LogisticLowRank, ProductWeight,
                        default_generator, functionals, giant_fraction,
                        graph_statistics, make_rng, phase_sweep, sample_dyads,
                        sample_graph, sample_sparse_graph,
                        uniform_step_map)
from graphsynth.graphons import Graphon
from graphsynth.sampling import (EDGE_CHECK_ROWS, GraphSample, graph_from_edge_array,
                                 in_sorted, unique_keys)

TWO_BLOCK = Block([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.8]])


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


@st.composite
def raw_pairs(draw):
    n = draw(st.integers(1, 30))
    ids = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(ids, ids), max_size=120))


@settings(max_examples=200, deadline=None)
@given(raw_pairs())
def test_graph_from_edge_array_matches_row_unique(case):
    """Duplicates, reversed pairs and self-loops clean up exactly as the
    row-wise unique of the sorted, loop-free pairs."""
    n, pairs = case
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    i, j = pairs[:, 0], pairs[:, 1]
    expected = np.unique(np.sort(pairs, 1)[i != j], axis=0).reshape(-1, 2)
    g = graph_from_edge_array(n, pairs)
    np.testing.assert_array_equal(g.edges, expected)
    np.testing.assert_array_equal(g.degrees, np.bincount(expected.ravel(), minlength=n))


INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
# unsorted int64 arrays: heavily repeated, mostly distinct over the whole
# range, or one value repeated (which covers empty and single-element)
KEY_ARRAYS = st.one_of(
    st.lists(st.integers(-3, 3), max_size=60),
    st.lists(INT64, max_size=60),
    st.builds(lambda value, count: [value] * count, INT64, st.integers(0, 20)),
).map(lambda values: np.asarray(values, dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(KEY_ARRAYS, KEY_ARRAYS)
def test_key_set_primitives_match_numpy(a, b):
    expected = np.unique(a)
    got = unique_keys(a)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    # half of a's values among b's, so both outcomes of the lookup occur
    b = np.concatenate([b, a[::2]])
    for table in (np.sort(b), unique_keys(b)):
        hits = in_sorted(a, table)
        assert hits.shape == a.shape
        np.testing.assert_array_equal(hits, np.isin(a, b))


def test_graph_from_edge_array_rejects_out_of_range_ids():
    # encoded as keys, (0, 5) with n = 3 would alias the edge (1, 2)
    with pytest.raises(ValueError, match="0 <= i < j < n"):
        graph_from_edge_array(3, [[0, 5]])
    with pytest.raises(ValueError, match="0 <= i < j < n"):
        graph_from_edge_array(3, [[-1, 2]])


def test_graph_sample_rejects_unsorted_or_repeated_edges():
    for edges in ([[1, 2], [0, 1]], [[0, 2], [0, 1]], [[0, 1], [0, 1]]):
        with pytest.raises(ValueError, match="distinct and sorted"):
            GraphSample(n=3, edges=np.asarray(edges), degrees=np.zeros(3, dtype=np.int64))


@pytest.mark.parametrize("row", [EDGE_CHECK_ROWS - 1, EDGE_CHECK_ROWS],
                         ids=["last_of_slice", "first_of_next"])
@pytest.mark.parametrize("fault", ["out_of_order", "repeated", "i_not_below_j"])
def test_graph_sample_rejects_a_bad_pair_at_a_check_slice_boundary(row, fault):
    """GraphSample checks its edges in slices of EDGE_CHECK_ROWS rows.  A bad
    row at either side of a slice boundary is rejected; at the first row of
    a slice, an order fault is seen only against the previous slice's last
    row."""
    k = np.arange(2 * EDGE_CHECK_ROWS + 3)
    edges = np.stack([k, k + 1], axis=1)
    degrees = np.zeros(k.size + 1, dtype=np.int64)
    GraphSample(n=k.size + 1, edges=edges.copy(), degrees=degrees)
    if fault == "out_of_order":
        edges[[row - 1, row]] = edges[[row, row - 1]]
    elif fault == "repeated":
        edges[row] = edges[row - 1]
    else:
        edges[row] = edges[row, ::-1]
    match = "0 <= i < j < n" if fault == "i_not_below_j" else "distinct and sorted"
    with pytest.raises(ValueError, match=match):
        GraphSample(n=k.size + 1, edges=edges, degrees=degrees)


def test_dense_sampler_peak_memory():
    """The dense sampler holds the keys and the decoded edges at once,
    besides one chunk of draws, and GraphSample checks the edges in row
    slices, so no full-length key or mask array joins them."""
    w = default_generator()[0]
    tracemalloc.start()
    try:
        g = sample_graph(w, 3000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * g.edges.nbytes


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
        "abafd3bc8551d22e3cd8d29c2e38569e28496d573f746d8d53817a3b352c01d5",
        "12c339a7652f811f3b721c2a87b4e05cdb7989b43e09e95f80c10baf5d215eb9"),
    "dense_linear_combo": (
        lambda: sample_graph(default_generator()[0], 600, seed=22),
        "4d56fa25a67f7161f40fbdfe53e3cb379f4e85fdaf35e78f0b6b5f717ad8822e",
        "45de798859823cf525e5fafc6bce0c715b29a90f79a254e1e529c6bb29a27efb"),
    "sparse_block": (
        lambda: sample_sparse_graph(TWO_BLOCK, 3000, 6.0, seed=23),
        "020c798e4807d6bd26c9dd77288be4752ee3438ecd27f6794df420eaa7f865a9",
        "d829ced5605736348dda5b96771464978a75978539d4f8239521103701529cb6"),
    "sparse_fallback": (
        lambda: sample_sparse_graph(Ridge(), 600, 40.0, seed=24),
        "d906d8cbe265b4fe3962949162328f6c37bd4631762d57535ab535d221060e48",
        "3cd6729901f04d9ac7f9d35f9a369a35db8d8a5eb70200a5167e60c7d93460ac"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SAMPLES))
def test_sampler_streams_pinned(name):
    sample, edges_sha, degrees_sha = PINNED_SAMPLES[name]
    g = sample()
    assert g.edges.dtype == np.int64 and g.degrees.dtype == np.int64
    assert hashlib.sha256(g.edges.tobytes()).hexdigest() == edges_sha
    assert hashlib.sha256(g.degrees.tobytes()).hexdigest() == degrees_sha


class Unblocked(Graphon):
    """Delegates to a graphon but has no block form, so samplers evaluate it."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, x, y):
        return self.inner.evaluate(x, y)


BLOCK_PATH_KINDS = {
    "linear_combo": default_generator()[0],
    "low_rank_d3": LogisticLowRank(uniform_step_map(
        [(0.9, -0.3, 0.2), (-0.4, 0.8, 0.1), (0.3, 0.3, -1.1)]), -0.5),
    "product": ProductWeight(uniform_step_map([0.95, 0.65, 0.45, 0.25])),
}


@pytest.mark.parametrize("name", sorted(BLOCK_PATH_KINDS))
def test_block_path_matches_evaluate_path(name):
    w = BLOCK_PATH_KINDS[name]
    a, b = sample_graph(w, 500, seed=31), sample_graph(Unblocked(w), 500, seed=31)
    assert np.array_equal(a.edges, b.edges)
    parts = [w, TWO_BLOCK, Constant(0.3)]
    d1 = sample_dyads(w, parts, 3000, seed=32)
    d2 = sample_dyads(Unblocked(w), [Unblocked(p) for p in parts], 3000, seed=32)
    assert np.array_equal(d1.features, d2.features)
    assert np.array_equal(d1.labels, d2.labels)


# ---------------------------------------------------------------------------
# dyad sampling
# ---------------------------------------------------------------------------

# sha256 of the feature and label bytes of default_generator() dyads (truth
# w_star, its three parts as agents, m = 5000)
PINNED_DYADS = {
    41: ("77a8d3547c885d71b78f3cbf8a7a4da338179ae9cf306d0074607e0c68b65aa6",
         "90a96c6a9ff44a7547b0eba34568ba3def697ede48ccd17e65a9ad4ad9949d90"),
    42: ("7414cf16173402a9d932bbae7a8403d63c82626d0ea9b0015e1c87217a2bdf04",
         "656f03d7964071c35bce722c12e279936637fef623144b1bfd6cd0cdb94c7b26"),
}


@pytest.mark.parametrize("seed", sorted(PINNED_DYADS))
def test_dyad_streams_pinned(seed):
    w_star, parts = default_generator()
    data = sample_dyads(w_star, parts, 5000, seed)
    features_sha, labels_sha = PINNED_DYADS[seed]
    assert data.features.dtype == np.float64 and data.labels.dtype == np.float64
    assert hashlib.sha256(data.features.tobytes()).hexdigest() == features_sha
    assert hashlib.sha256(data.labels.tobytes()).hexdigest() == labels_sha


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
    # isolated nodes after the last edge's row: the row pointer runs to n
    assert giant_fraction(graph_from_edge_array(10, [[0, 1]])) == pytest.approx(0.2)
    assert giant_fraction(graph_from_edge_array(10, [[0, 9], [3, 9]])) == pytest.approx(0.3)
    assert giant_fraction(graph_from_edge_array(6, [[4, 5], [3, 4], [0, 1]])) == pytest.approx(0.5)


def test_phase_sweep_smoke():
    def sweep():
        return phase_sweep(Constant(1.0), [0.5, 1.5, 3.0], n=2000,
                           seeds=np.random.SeedSequence(21).spawn(9))
    curve = sweep()
    assert curve.reps == 3
    assert curve.lambda_critical == pytest.approx(1.0, abs=1e-6)
    assert curve.mean_fraction[0] < 0.05
    assert curve.mean_fraction[-1] > curve.mean_fraction[0]
    np.testing.assert_array_equal(curve.mean_fraction, sweep().mean_fraction)
    # every lambda needs the same number of seeds, at least one
    for count in (0, 8):
        with pytest.raises(ValueError, match="seeds per lambda"):
            phase_sweep(Constant(1.0), [0.5, 1.5, 3.0], n=2000,
                        seeds=np.random.SeedSequence(21).spawn(count))


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
    w = Block([0, 0.3, 0.7, 1], [[0.9, 0.2, 0.1],
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

def test_make_rng_accepts_seed_sequence():
    ss = np.random.SeedSequence(5)
    r1 = make_rng(ss)
    r2 = make_rng(np.random.SeedSequence(5))
    assert r1.random() == r2.random()
