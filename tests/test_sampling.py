"""Graph and dyad sampling, components, and phase sweeps."""

import copy
import hashlib
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsynth import (Block, Constant, DyadData, default_generator, functionals,
                        giant_fraction, graph_statistics, make_rng, make_split,
                        phase_sweep, sample_dyads, sample_graph, sample_sparse_graph)
from graphsynth.sampling import (EDGE_CHECK_ROWS, GraphSample, _check_node_count,
                                 component_labels, graph_from_edge_array, in_sorted,
                                 pair_keys, unique_keys)

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


@pytest.mark.parametrize("ids", [np.array([[0.5, 1.9]]), np.array([[0, 1]], dtype=float),
                                 np.array([[False, True]])], ids=["fraction", "float", "bool"])
def test_node_ids_must_be_integers(ids):
    # a cast to int64 would read 0.5 and 1.9 as the edge (0, 1)
    for build in (lambda: graph_from_edge_array(3, ids), lambda: GraphSample(n=3, edges=ids)):
        with pytest.raises(ValueError, match="node ids must be integers"):
            build()


def test_unsigned_and_empty_ids_load():
    g = graph_from_edge_array(3, np.array([[2, 0]], dtype=np.uint64))
    np.testing.assert_array_equal(g.edges, [[0, 2]])
    # np.asarray([]) is float64, and holds no id to truncate
    assert graph_from_edge_array(3, []).n_edges == 0
    assert GraphSample(n=3, edges=np.array([[0, 2]], dtype=np.uint8)).edges.dtype == np.int32


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_graph_sample_counts_its_degrees(dtype):
    """GraphSample takes no degrees: it counts them from its edges, in the
    slices of EDGE_CHECK_ROWS rows that it checks, so a graph cannot carry
    degrees its edges contradict."""
    np.testing.assert_array_equal(GraphSample(n=3, edges=[[0, 2]]).degrees, [1, 0, 1])
    # a path and a star on node 0, each over three slices: the path's
    # nodes at a boundary are counted in two slices, the star's centre in all
    k = np.arange(2 * EDGE_CHECK_ROWS + 3, dtype=dtype)
    n = k.size + 1
    for edges in (np.stack([k, k + 1], axis=1), np.stack([0 * k, k + 1], axis=1)):
        g = GraphSample(n=n, edges=edges)
        assert g.degrees.dtype == np.int64
        np.testing.assert_array_equal(g.degrees, np.bincount(edges.ravel(), minlength=n))


def test_graph_sample_rejects_unsorted_or_repeated_edges():
    for edges in ([[1, 2], [0, 1]], [[0, 2], [0, 1]], [[0, 1], [0, 1]]):
        with pytest.raises(ValueError, match="distinct and sorted"):
            GraphSample(n=3, edges=np.asarray(edges))


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
    GraphSample(n=k.size + 1, edges=edges.copy())
    if fault == "out_of_order":
        edges[[row - 1, row]] = edges[[row, row - 1]]
    elif fault == "repeated":
        edges[row] = edges[row - 1]
    else:
        edges[row] = edges[row, ::-1]
    match = "0 <= i < j < n" if fault == "i_not_below_j" else "distinct and sorted"
    with pytest.raises(ValueError, match=match):
        GraphSample(n=k.size + 1, edges=edges)


# at n = 50,000 a key i * n + j reaches n^2 = 2.5e9, past the int32 range:
# a key formed from int32 ids without widening them wraps
OVERFLOW_N = 50_000


def _oracle_keys(pairs, n):
    pairs = np.asarray(pairs).astype(np.int64).reshape(-1, 2)
    return pairs[:, 0] * n + pairs[:, 1]


def test_int32_ids_form_keys_in_int64():
    """Every site that forms a key i * n + j from int32 ids agrees with the
    int64 oracle at a node count whose keys exceed 2^31."""
    n = OVERFLOW_N
    rng = np.random.default_rng(31)
    # raw int32 pairs over the whole id range, with repeats, both
    # orientations of a pair and self-loops
    raw = rng.integers(0, n, size=(6000, 2)).astype(np.int32)
    raw = np.concatenate([raw, raw[:500, ::-1], raw[:300], np.stack([raw[:200, 0]] * 2, 1)])
    lo, hi = raw.min(axis=1).astype(np.int64), raw.max(axis=1).astype(np.int64)
    keys = np.unique((lo * n + hi)[lo != hi])
    assert keys.max() >= 2 ** 31
    g = graph_from_edge_array(n, raw)
    assert g.edges.dtype == np.int32
    np.testing.assert_array_equal(_oracle_keys(g.edges, n), keys)
    np.testing.assert_array_equal(g.degrees, np.bincount(g.edges.ravel(), minlength=n))

    # GraphSample's order check: the sorted list passes, and a swap of two
    # rows is rejected, both between and across the rows whose keys pass 2^31
    GraphSample(n=n, edges=g.edges)
    GraphSample(n=n, edges=g.edges.astype(np.int64))
    past = int(np.searchsorted(keys, 2 ** 31))
    for a, b in ((past - 1, past), (past, past + 1), (0, keys.size - 1)):
        swapped = g.edges.copy()
        swapped[[a, b]] = swapped[[b, a]]
        assert np.any(np.diff(_oracle_keys(swapped, n)) <= 0)
        with pytest.raises(ValueError, match="distinct and sorted"):
            GraphSample(n=n, edges=swapped)

    sparse = sample_sparse_graph(TWO_BLOCK, n, 1.5, seed=32)
    sparse_keys = _oracle_keys(sparse.edges, n)
    assert sparse.edges.dtype == np.int32 and sparse_keys.max() >= 2 ** 31
    assert np.all(np.diff(sparse_keys) > 0)
    assert np.all(sparse.edges[:, 0] < sparse.edges[:, 1])
    np.testing.assert_array_equal(sparse.degrees,
                                  np.bincount(sparse.edges.ravel(), minlength=n))

    # make_split's dyad keys: every labelled dyad is an edge exactly when
    # its int64 key is one of the edges'
    np.testing.assert_array_equal(pair_keys(*sparse.edges.T, n), sparse_keys)
    for regime in ("edge_holdout", "node_holdout", "uniform_dyads"):
        split = make_split(sparse, regime, seed=33)
        for dyads, labels in ((split.train_dyads, split.train_labels),
                              (split.val_dyads, split.val_labels),
                              (split.test_dyads, split.test_labels)):
            np.testing.assert_array_equal(pair_keys(*dyads.T, n), _oracle_keys(dyads, n))
            np.testing.assert_array_equal(labels, np.isin(_oracle_keys(dyads, n), sparse_keys))

    # component labels against scipy's, each component named by its
    # smallest node id
    import scipy.sparse.csgraph

    _, comp = scipy.sparse.csgraph.connected_components(sparse.adjacency(), directed=False)
    smallest = np.full(comp.max() + 1, n)
    np.minimum.at(smallest, comp, np.arange(n))
    np.testing.assert_array_equal(component_labels(n, sparse.edges), smallest[comp])


def test_graph_sample_rejects_a_node_count_past_int32():
    with pytest.raises(ValueError, match=r"n < 2\*\*31"):
        GraphSample(n=2 ** 31, edges=np.zeros((0, 2), dtype=np.int32))
    # rejected before the degrees are counted
    with pytest.raises(ValueError, match=r"n < 2\*\*31"):
        graph_from_edge_array(2 ** 31, [[0, 1]])
    # the largest node count passes; a graph at it would count 2^31 - 1
    # degrees (16 GiB), so it is not built
    _check_node_count(2 ** 31 - 1)


def test_dense_sampler_peak_memory():
    """The dense sampler holds the int64 keys (8 bytes an edge) and the int32
    edges (8 bytes an edge) at once, besides one chunk of draws.
    GraphSample's checks and the degree count go EDGE_CHECK_ROWS rows at a
    time, so no full-length key, mask or int64 copy of the edges joins them:
    about 17.6 bytes an edge at n = 3000, where int64 edges took 25.5."""
    w = default_generator()[0]
    tracemalloc.start()
    try:
        g = sample_graph(w, 3000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n_edges > 1_900_000
    assert peak <= 20 * g.n_edges


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


def test_sparse_determinism_and_validation():
    a = sample_sparse_graph(TWO_BLOCK, 5000, 3.0, seed=2)
    b = sample_sparse_graph(TWO_BLOCK, 5000, 3.0, seed=2)
    np.testing.assert_array_equal(a.edges, b.edges)
    with pytest.raises(ValueError):
        sample_sparse_graph(TWO_BLOCK, 100, 0.0, seed=1)


# sha256 of the edge bytes (as int64) and the degree bytes; a change here
# means seeded samples changed, which changes every pinned output downstream
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
}


@pytest.mark.parametrize("name", sorted(PINNED_SAMPLES))
def test_sampler_streams_pinned(name):
    sample, edges_sha, degrees_sha = PINNED_SAMPLES[name]
    g = sample()
    assert g.edges.dtype == np.int32 and g.degrees.dtype == np.int64
    assert hashlib.sha256(g.edges.astype(np.int64).tobytes()).hexdigest() == edges_sha
    assert hashlib.sha256(g.degrees.tobytes()).hexdigest() == degrees_sha


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


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=60))))
def test_component_labels_match_networkx(graph):
    # raw pairs: none at all, self-loops, repeats and both orientations of
    # one pair are all allowed; every node not on an edge stands alone
    n, pairs = graph
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(pairs)
    want = np.empty(n, dtype=np.int64)
    for comp in nx.connected_components(G):
        want[list(comp)] = min(comp)
    got = component_labels(n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2))
    np.testing.assert_array_equal(got, want)


def _zigzag(n):
    """0, n-1, 1, n-2, 2, ...: every other node is a local minimum."""
    order = np.empty(n, dtype=np.int64)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = n - 1 - np.arange(n // 2)
    return order


@pytest.mark.parametrize("shape", ["random_path", "zigzag_path", "reversed_binary_tree"])
def test_component_labels_on_graphs_that_need_many_rounds(shape):
    # one component of 10^5 nodes whose ids defeat a single hook round: a
    # path through a random order of the nodes, a path alternating small and
    # large ids, and a binary tree whose root holds the largest id
    n = 100_000
    if shape == "random_path":
        order = np.random.default_rng(5).permutation(n)
        pairs = np.stack([order[:-1], order[1:]], axis=1)
    elif shape == "zigzag_path":
        order = _zigzag(n)
        pairs = np.stack([order[:-1], order[1:]], axis=1)
    else:
        child = np.arange(1, n)
        pairs = np.stack([n - 1 - child, n - 1 - (child - 1) // 2], axis=1)
    labels = component_labels(n, pairs)
    assert not labels.any()
    assert giant_fraction(graph_from_edge_array(n, pairs)) == 1.0


def test_equal_components_tie_to_the_smaller_node_id():
    # two components of 4 nodes each; the one holding node 0 is listed last
    # and holds the larger ids otherwise
    pairs = np.array([[1, 2], [2, 3], [3, 4], [0, 7], [7, 6], [6, 5]])
    labels = component_labels(8, pairs)
    np.testing.assert_array_equal(labels, [0, 1, 1, 1, 1, 0, 0, 0])
    giant = labels == np.argmax(np.bincount(labels))
    np.testing.assert_array_equal(np.flatnonzero(giant), [0, 5, 6, 7])
    assert giant_fraction(graph_from_edge_array(8, pairs)) == 0.5

    # fit_agents_to_graph keeps the component argmax(bincount(labels))
    # picks; scipy's connected_components numbers components in order of
    # their smallest node, so both pick the same one of equally large
    # components, and the agent fits keep their bytes
    import scipy.sparse.csgraph

    rng = np.random.default_rng(8)
    for _ in range(50):
        sizes = rng.integers(1, 6, size=rng.integers(2, 6))
        sizes[[0, -1]] = sizes.max()
        n = int(sizes.sum())
        ids = rng.permutation(n)
        pairs = [(ids[s], ids[s + i]) for s, size in zip(np.cumsum(sizes) - sizes, sizes)
                 for i in range(1, size)]
        g = graph_from_edge_array(n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2))
        _, old = scipy.sparse.csgraph.connected_components(g.adjacency(), directed=False)
        new = component_labels(n, g.edges)
        np.testing.assert_array_equal(new == np.argmax(np.bincount(new)),
                                      old == np.argmax(np.bincount(old)))


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


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

RECORDS = {
    "SplitSpec": lambda: make_split(sample_sparse_graph(TWO_BLOCK, 200, 4.0, seed=51),
                                    "edge_holdout", seed=52),
    "GraphSample": lambda: sample_sparse_graph(TWO_BLOCK, 200, 3.0, seed=53),
    "DyadData": lambda: DyadData(features=np.ones((3, 2)), labels=np.array([0.0, 1.0, 1.0])),
    "PhaseCurve": lambda: phase_sweep(TWO_BLOCK, [1.0, 2.0], n=50,
                                      seeds=np.random.SeedSequence(54).spawn(2)),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_compare_by_identity(name):
    """Records with array fields compare and hash by identity: a
    field-wise ``==`` would raise on the arrays."""
    record = RECORDS[name]()
    assert type(record).__name__ == name
    assert record == record
    assert record != copy.copy(record)
    assert hash(record) == hash(record)
