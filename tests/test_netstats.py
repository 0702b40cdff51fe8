"""Graph statistics, centralities, and heavy-tail analysis."""

import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from graphsynth import (Constant, NetstatsError, default_generator, bounded_tilt_bracket,
                        centralities, fit_tail_exponent,
                        giant_fraction, graph_statistics, hill_tail_exponent,
                        mixture_degree_pmf, polynomial_tilt_exponent_bracket,
                        power_law_pmf, sample_graph, tilt_degree_pmf,
                        triangle_count, verify_tail_bracket)
from graphsynth.netstats import TRIANGLE_BLOCK
from graphsynth.sampling import graph_from_edge_array
from graphsynth.graphons import Block


# ---------------------------------------------------------------------------
# graph statistics
# ---------------------------------------------------------------------------

def test_statistics_triangle_oracle():
    k3 = graph_from_edge_array(3, [[0, 1], [1, 2], [0, 2]])
    s = graph_statistics(k3)
    assert s.triangle_density == 1.0
    assert s.wedge_density == 1.0
    assert s.clustering == 1.0


def test_statistics_empty_graph():
    g = graph_from_edge_array(5, np.empty((0, 2)))
    s = graph_statistics(g)
    assert s.triangle_density == 0.0
    assert s.wedge_density == 0.0
    assert s.clustering == 0.0


def test_statistics_star_graph():
    star = graph_from_edge_array(4, [[0, 1], [0, 2], [0, 3]])
    s = graph_statistics(star)
    assert s.triangle_density == 0.0
    assert s.clustering == 0.0
    # S_n = sum d(d-1) / (n(n-1)(n-2)) = (3*2) / 24
    assert s.wedge_density == pytest.approx(6 / 24)
    with pytest.raises(NetstatsError):
        graph_statistics(graph_from_edge_array(2, [[0, 1]]))


def brute_triangles(n, edges):
    adj = np.zeros((n, n), dtype=int)
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                count += adj[i, j] * adj[j, k] * adj[i, k]
    return count


def test_triangle_count_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(3, 8))
        mask = rng.random((n, n)) < 0.4
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
        g = graph_from_edge_array(n, np.asarray(edges).reshape(-1, 2))
        assert triangle_count(g) == brute_triangles(n, g.edges)


def test_dense_triangle_count_matches_sparse_and_networkx():
    """Graphs with more than 50 n edges take the float32 BLAS branch; its
    count equals the int64 sparse product and networkx."""
    rng = np.random.default_rng(19)
    for n in (150, 220, 300, 400):
        p = rng.uniform(0.7, 0.95)
        g = sample_graph(Block([0, 0.4, 1], [[p, 0.6], [0.6, p]]), n,
                         seed=int(rng.integers(1 << 30)))
        assert g.n_edges > 50 * n
        adj = g.adjacency().astype(np.int64)
        sparse = int((adj @ adj).multiply(adj).sum() // 6)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(map(tuple, g.edges))
        assert triangle_count(g) == sparse == sum(nx.triangles(G).values()) // 3


@pytest.mark.parametrize("n", [TRIANGLE_BLOCK - 1, TRIANGLE_BLOCK, TRIANGLE_BLOCK + 1,
                               2 * TRIANGLE_BLOCK + 7])
def test_dense_triangle_count_across_row_blocks(n):
    """At sizes around the row-block edges, the blocked float32 count equals
    the int64 sparse product and networkx."""
    g = sample_graph(Block([0, 0.3, 1], [[0.5, 0.1], [0.1, 0.25]]), n, seed=n)
    assert g.n_edges > 50 * n
    adj = g.adjacency().astype(np.int64)
    sparse = int((adj @ adj).multiply(adj).sum() // 6)
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(map(tuple, g.edges))
    assert triangle_count(g) == sparse == sum(nx.triangles(G).values()) // 3


def test_dense_triangle_count_peak_memory():
    """Besides the graph, the dense count holds the float32 upper-triangle
    strips of its row blocks (about n^2 / 2 + B n floats) and one block
    product, never an n x n buffer."""
    n = 2000
    g = sample_graph(default_generator()[0], n, seed=3)
    assert g.n_edges > 50 * n
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        triangle_count(g)
        extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert extra <= 0.8 * n * n * 4


def test_dense_triangle_count_exact_at_benchmark_size():
    g = sample_graph(Constant(1.0), 3000, seed=1)
    assert triangle_count(g) == math.comb(3000, 3)


# ---------------------------------------------------------------------------
# centralities
# ---------------------------------------------------------------------------

def test_centralities_complete_graph():
    g = sample_graph(Constant(1.0), 6, seed=1)
    cl, bt, reachable = centralities(g)
    np.testing.assert_allclose(cl, 1.0, atol=1e-12)
    np.testing.assert_allclose(bt, 0.0, atol=1e-12)
    assert reachable


def test_centralities_path_oracle():
    g = graph_from_edge_array(3, [[0, 1], [1, 2]])
    cl, bt, reachable = centralities(g)
    assert cl[1] == pytest.approx(1.0)
    assert bt[1] == pytest.approx(1.0)
    assert bt[0] == bt[2] == 0.0
    assert cl[0] == pytest.approx(2 / 3)
    assert reachable


def test_centralities_disconnected_flagged():
    g = graph_from_edge_array(5, [[0, 1], [2, 3]])
    cl, _, reachable = centralities(g)
    assert not reachable
    assert cl[4] == 0.0
    assert cl[0] == pytest.approx((5 - 1) / 1.0)  # one reachable node at dist 1


def brute_betweenness(n, edges):
    """Independent oracle: shortest-path fractions via distance/count DP."""
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    inf = float("inf")
    dist = np.full((n, n), inf)
    sigma = np.zeros((n, n))
    for s in range(n):
        dist[s, s], sigma[s, s] = 0, 1
        frontier = [s]
        d = 0
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if dist[s, u] == inf:
                        dist[s, u] = d + 1
                        nxt.append(u)
                    if dist[s, u] == d + 1:
                        sigma[s, u] += sigma[s, v]
            frontier = nxt
            d += 1
    bt = np.zeros(n)
    for s in range(n):
        for t in range(n):
            if s == t or sigma[s, t] == 0:
                continue
            for v in range(n):
                if v in (s, t):
                    continue
                if dist[s, v] + dist[v, t] == dist[s, t]:
                    bt[v] += sigma[s, v] * sigma[v, t] / sigma[s, t]
    return bt / ((n - 1) * (n - 2))


def test_betweenness_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(4, 9))
        mask = rng.random((n, n)) < 0.35
        edges = np.asarray([(i, j) for i in range(n) for j in range(i + 1, n)
                            if mask[i, j]]).reshape(-1, 2)
        g = graph_from_edge_array(n, edges)
        _, bt, _ = centralities(g)
        np.testing.assert_allclose(bt, brute_betweenness(n, g.edges), atol=1e-9)


def test_graph_kernels_match_networkx():
    """Closeness, betweenness and the giant fraction against networkx on
    random graphs, sparse ones disconnected."""
    rng = np.random.default_rng(31)
    disconnected = 0
    for _ in range(20):
        n = int(rng.integers(3, 61))
        p = rng.uniform(0.5, 6.0) / n
        mask = np.triu(rng.random((n, n)) < p, 1)
        g = graph_from_edge_array(n, np.argwhere(mask))
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(map(tuple, g.edges))
        cl, bt, reachable = centralities(g)
        dist = dict(nx.all_pairs_shortest_path_length(G))
        sums = np.array([sum(dist[v].values()) for v in range(n)], dtype=float)
        cl_nx = np.divide(n - 1, sums, out=np.zeros(n), where=sums > 0)
        bt_nx = nx.betweenness_centrality(G)
        bt_nx = np.array([bt_nx[v] for v in range(n)])
        np.testing.assert_allclose(cl, cl_nx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(bt, bt_nx, rtol=0, atol=1e-12)
        components = list(nx.connected_components(G))
        assert reachable == (len(components) == 1)
        assert giant_fraction(g) == max(map(len, components)) / n
        disconnected += len(components) > 1
    assert 0 < disconnected < 20


def test_dense_centrality_limits():
    """Dense samples: betweenness vanishes, closeness approaches the
    1/(2 - normalized degree) limit."""
    w = Block([0, 0.5, 1], [[0.8, 0.4], [0.4, 0.6]])
    n = 1000
    g = sample_graph(w, n, seed=41)
    cl, bt, reachable = centralities(g)
    assert reachable
    assert bt.max() <= 10 / n
    limit = 1.0 / (2.0 - g.degrees / (n - 1))
    assert np.max(np.abs(cl - limit)) <= 0.05


# ---------------------------------------------------------------------------
# degree pmfs and tails
# ---------------------------------------------------------------------------

def test_power_law_pmf_basics():
    pmf = power_law_pmf(2.5, 10_000)
    assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert pmf.gamma == 2.5
    # ccdf ratio matches the exponent asymptotically
    ccdf = pmf.ccdf()
    ratio = ccdf[2000] / ccdf[1000]
    assert ratio == pytest.approx(2.0 ** -2.5, rel=0.05)


def test_fit_tail_exponent_recovers_gamma():
    for gamma in (2.5, 3.5):
        pmf = power_law_pmf(gamma, 100_000)
        gamma_hat, r2, _ = fit_tail_exponent(pmf)
        assert abs(gamma_hat - gamma) <= 0.15
        assert r2 > 0.99


def test_fit_tail_exponent_rejects_a_ccdf_that_underflows_in_the_window():
    # p_k ~ k^-151 underflows past k = 139; a fit on 100-139 alone would
    # report a window that was never asked for
    pmf = power_law_pmf(150.0, 20_000)
    assert pmf.ccdf()[139] > 0 and pmf.ccdf()[140] == 0
    with pytest.raises(NetstatsError,
                       match="ccdf underflows to 0 at k = 140 inside the window 100-10000"):
        fit_tail_exponent(pmf)
    # the window's size is checked before its values
    with pytest.raises(NetstatsError, match="tail window too small"):
        fit_tail_exponent(power_law_pmf(300.0, 105))


def test_tilt_degree_pmf_shifts_exponent():
    for gamma, rho in ((2.5, 0.5), (2.5, 1.0), (3.5, 0.5), (3.5, 1.0)):
        pmf = power_law_pmf(gamma, 100_000)
        tilted = tilt_degree_pmf(pmf, rho)
        assert tilted.gamma == pytest.approx(gamma - rho)
        gamma_hat, _, _ = fit_tail_exponent(tilted)
        assert abs(gamma_hat - (gamma - rho)) <= 0.15


def test_tilt_degree_pmf_identity_and_metadata_drop():
    pmf = power_law_pmf(2.5, 1000)
    same = tilt_degree_pmf(pmf, 0.0)
    np.testing.assert_allclose(same.probs, pmf.probs, atol=1e-15)
    assert same.gamma == 2.5
    hot = tilt_degree_pmf(pmf, 3.0)  # rho >= gamma: exponent reading void
    assert hot.gamma is None


def test_mixture_tail_dominance():
    light = power_law_pmf(13.0, 100_000)
    heavy = power_law_pmf(5.0, 100_000)
    for weight in (0.1, 0.5):
        mix = mixture_degree_pmf([light, heavy], [1 - weight, weight])
        assert mix.gamma == 5.0
        gamma_hat, _, _ = fit_tail_exponent(mix)
        assert abs(gamma_hat - 5.0) <= 0.2


def test_hill_estimator_on_pareto():
    rng = np.random.default_rng(3)
    gamma = 2.5
    sample = (1.0 / rng.random(100_000)) ** (1.0 / gamma)
    gamma_hat = hill_tail_exponent(sample, k_frac=0.05)
    assert 2.3 <= gamma_hat <= 2.7


def test_hill_mixture_tracks_min_exponent():
    rng = np.random.default_rng(4)
    m = 100_000
    pick = rng.random(m) < 0.5
    sample = np.where(pick, (1.0 / rng.random(m)) ** (1 / 5.0),
                      (1.0 / rng.random(m)) ** (1 / 13.0))
    gamma_hat = hill_tail_exponent(sample, k_frac=0.05)
    assert 4.4 <= gamma_hat <= 5.8  # near 5, nowhere near the 9 average


def test_hill_light_tail_grows_as_window_shrinks():
    rng = np.random.default_rng(5)
    sample = rng.exponential(scale=2.0, size=100_000)
    wide = hill_tail_exponent(sample, k_frac=0.2)
    narrow = hill_tail_exponent(sample, k_frac=0.005)
    assert narrow > wide


def test_hill_needs_enough_positives():
    with pytest.raises(NetstatsError):
        hill_tail_exponent(np.zeros(100))


# ---------------------------------------------------------------------------
# tilt brackets
# ---------------------------------------------------------------------------

def test_bounded_tilt_bracket_oracles():
    assert bounded_tilt_bracket(0.0, 5.0) == (1.0, 1.0)
    lo, hi = bounded_tilt_bracket(math.log(2.0), 1.0)
    assert lo == pytest.approx(0.25, abs=1e-14)
    assert hi == pytest.approx(4.0, abs=1e-14)
    with pytest.raises(NetstatsError):
        bounded_tilt_bracket(1.0, -1.0)


def test_polynomial_bracket_reduces_to_bounded():
    lo_exp, hi_exp = polynomial_tilt_exponent_bracket(2.5, 0.0, 0.0)
    assert lo_exp == hi_exp == 2.5
    lo_exp, hi_exp = polynomial_tilt_exponent_bracket(3.0, 0.5, 1.0)
    assert (lo_exp, hi_exp) == (3.5, 2.0)


def test_verify_tail_bracket_bounded_tilt():
    pmf = power_law_pmf(2.5, 50_000)
    # bounded tilt factor: weights in [1/2, 2] applied to tail events
    rng = np.random.default_rng(9)
    tilted_probs = pmf.probs * np.exp(
        rng.uniform(-math.log(2), math.log(2), size=pmf.probs.size))
    z = tilted_probs.sum()
    base_ccdf = pmf.ccdf()
    tilt_ccdf = np.cumsum(tilted_probs[::-1])[::-1] / z
    lo, hi = bounded_tilt_bracket(math.log(2.0), 1.0)
    ks = np.arange(1, 1000)
    assert verify_tail_bracket(lambda k: base_ccdf[k], lambda k: tilt_ccdf[k],
                               ks, lo, hi)
    # the bracket is refutable: a heavier tilt escapes it
    assert not verify_tail_bracket(lambda k: base_ccdf[k],
                                   lambda k: 10.0 * base_ccdf[k], ks, lo, hi)
