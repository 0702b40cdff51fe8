"""Graph and dyad sampling from graphons, dense and sparse regimes.

All randomness flows through the counter-based Philox generator; replicate
streams are derived by seed-splitting so replicates are order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .graphons import Graphon, GraphonError, as_block
from .synthesis import DyadData

DENSE_CHUNK_ROWS = 256


def make_rng(seed) -> np.random.Generator:
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def split_rngs(seed, count: int) -> list[np.random.Generator]:
    """Independent per-replicate streams from one base seed."""
    return [np.random.Generator(np.random.Philox(child))
            for child in np.random.SeedSequence(seed).spawn(count)]


@dataclass
class GraphSample:
    """Simple undirected graph: sorted deduplicated edge list plus degrees."""

    n: int
    edges: np.ndarray = field(repr=False)
    degrees: np.ndarray = field(repr=False)
    latents: np.ndarray | None = field(default=None, repr=False)
    seed: int | None = None

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if e.size and (np.any(e[:, 0] >= e[:, 1]) or e.min() < 0 or e.max() >= self.n):
            raise ValueError("edges must satisfy 0 <= i < j < n")
        self.edges = e

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def adjacency(self) -> scipy.sparse.csr_matrix:
        i, j = self.edges[:, 0], self.edges[:, 1]
        data = np.ones(2 * self.n_edges, dtype=np.int8)
        return scipy.sparse.csr_matrix(
            (data, (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(self.n, self.n))


def _finish_edges(n, edges, latents=None, seed=None) -> GraphSample:
    """Sort ``edges`` (pairs with i < j) and count degrees.

    Invariant: the returned edges are in ascending order of the key
    ``i * n + j``, that is by ``i`` and then by ``j``, whatever order the
    sampler produced them in.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    keys = np.sort(edges[:, 0] * n + edges[:, 1])
    edges = np.stack(np.divmod(keys, n), axis=1)
    degrees = np.bincount(edges.ravel(), minlength=n)
    return GraphSample(n=n, edges=edges, degrees=degrees, latents=latents, seed=seed)


def graph_from_edge_array(n: int, edges) -> GraphSample:
    """Build a GraphSample from raw (i, j) pairs: symmetrize, drop
    self-loops, deduplicate."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        lo = edges.min(axis=1)
        hi = edges.max(axis=1)
        keep = lo != hi
        edges = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    return _finish_edges(n, edges)


def _dense_edges(prob_rows, n, rng):
    """Row-chunked Bernoulli sampling over the upper triangle.

    ``prob_rows(start, stop)`` gives the edge probabilities of rows
    ``start:stop`` against columns ``start:``.  Every chunk still draws full
    rows of uniforms, so the stream, and every edge, does not depend on the
    columns evaluated.
    """
    edges = []
    for start in range(0, n, DENSE_CHUNK_ROWS):
        stop = min(start + DENSE_CHUNK_ROWS, n)
        draws = rng.random((stop - start, n))[:, start:]
        rows, cols = np.nonzero(draws < prob_rows(start, stop))
        mask = cols > rows
        if mask.any():
            edges.append(np.stack([rows[mask] + start, cols[mask] + start], axis=1))
    return np.concatenate(edges, axis=0) if edges else np.empty((0, 2), dtype=np.int64)


def sample_graph(w: Graphon, n: int, seed) -> GraphSample:
    """Latent-uniform graph: U_i iid uniform, edges Bernoulli(w(U_i, U_j))."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = make_rng(seed)
    latents = rng.random(n)

    def prob_rows(start, stop):
        return np.asarray(w.evaluate(latents[start:stop, None], latents[None, start:]),
                          dtype=float)

    edges = _dense_edges(prob_rows, n, rng)
    return _finish_edges(n, edges, latents=latents, seed=seed)


def _sample_distinct(rng, n_items: int, k: int) -> np.ndarray:
    """k distinct indices from range(n_items); efficient when k << n_items."""
    if k > n_items:
        raise ValueError("cannot sample more items than available")
    if n_items <= 4 * k or n_items < 1024:
        return rng.choice(n_items, size=k, replace=False)
    chosen = np.unique(rng.integers(0, n_items, size=int(k * 1.2) + 8))
    while chosen.size < k:
        extra = rng.integers(0, n_items, size=k)
        chosen = np.unique(np.concatenate([chosen, extra]))
    return rng.permutation(chosen)[:k]


def sample_sparse_graph(w: Graphon, n: int, lam: float, seed) -> GraphSample:
    """Sparse regime: edge probability min(1, lam * w(U_i,U_j) / n).

    Block-reducible kernels use a fast path: per block-pair binomial edge
    counts followed by uniform placement.  Other kernels fall back to the
    row-chunked dense sampler with rescaled probabilities.
    """
    if n < 2 or lam <= 0:
        raise ValueError("need n >= 2 and lam > 0")
    rng = make_rng(seed)
    latents = rng.random(n)
    try:
        blk = as_block(w)
    except GraphonError:
        blk = None
    if blk is None:
        def prob_rows(start, stop):
            vals = np.asarray(w.evaluate(latents[start:stop, None], latents[None, start:]),
                              dtype=float)
            return np.minimum(lam * vals / n, 1.0)
        edges = _dense_edges(prob_rows, n, rng)
        return _finish_edges(n, edges, latents=latents, seed=seed)

    labels = blk.piece_index(latents)
    mat = np.asarray(blk.matrix, dtype=float)
    k = mat.shape[0]
    members = [np.flatnonzero(labels == a) for a in range(k)]
    all_edges = []
    for a in range(k):
        for b in range(a, k):
            q = min(1.0, lam * mat[a, b] / n)
            if q <= 0.0:
                continue
            if a == b:
                na = members[a].size
                n_pairs = na * (na - 1) // 2
                if n_pairs == 0:
                    continue
                count = int(rng.binomial(n_pairs, q))
                if count == 0:
                    continue
                idx = _sample_distinct(rng, n_pairs, count)
                # decode triangular index: pair (r, s) with r < s within group
                r = (np.ceil((np.sqrt(8.0 * (idx + 1) + 1) - 1) / 2)).astype(np.int64)
                s = idx - r * (r - 1) // 2
                u, v = members[a][s], members[a][r]
            else:
                na, nb = members[a].size, members[b].size
                n_pairs = na * nb
                if n_pairs == 0:
                    continue
                count = int(rng.binomial(n_pairs, q))
                if count == 0:
                    continue
                idx = _sample_distinct(rng, n_pairs, count)
                u, v = members[a][idx // nb], members[b][idx % nb]
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            all_edges.append(np.stack([lo, hi], axis=1))
    edges = (np.concatenate(all_edges, axis=0) if all_edges
             else np.empty((0, 2), dtype=np.int64))
    return _finish_edges(n, edges, latents=latents, seed=seed)


def sample_dyads(w: Graphon, agents, m: int, seed) -> DyadData:
    """i.i.d. dyads: latent pairs, Bernoulli labels from w, agent features.

    Features are (1, w_1(X), ..., w_J(X)) evaluated at the same latent pair.
    """
    if m < 1:
        raise ValueError("need m >= 1 dyads")
    rng = make_rng(seed)
    u1 = rng.random(m)
    u2 = rng.random(m)
    truth = np.asarray(w.evaluate(u1, u2), dtype=float)
    labels = (rng.random(m) < truth).astype(float)
    cols = [np.ones(m)]
    cols.extend(np.asarray(a.evaluate(u1, u2), dtype=float) for a in agents)
    return DyadData(features=np.stack(cols, axis=1), labels=labels)


# ---------------------------------------------------------------------------
# components and phase sweeps
# ---------------------------------------------------------------------------

def giant_fraction(g: GraphSample) -> float:
    """Size of the largest connected component divided by n."""
    _, labels = scipy.sparse.csgraph.connected_components(g.adjacency(), directed=False)
    return float(np.bincount(labels).max()) / g.n


@dataclass
class PhaseCurve:
    """Giant-component fraction along a sparsity grid."""

    lambdas: np.ndarray
    mean_fraction: np.ndarray
    sd_fraction: np.ndarray
    n: int
    reps: int
    rho: float
    lambda_critical: float


def phase_sweep(w: Graphon, lambdas, n: int, reps: int, seed,
                spectral_grid: int = 256) -> PhaseCurve:
    """Giant-component fraction per sparsity level, with spectral threshold.

    Replicate streams are split from the base seed; the predicted critical
    value is 1/rho for the kernel's integral-operator spectral radius.
    """
    from .graphons import spectral_radius
    if reps < 1:
        raise ValueError("need reps >= 1")
    lambdas = np.asarray(lambdas, dtype=float)
    seeds = np.random.SeedSequence(seed).spawn(lambdas.size * reps)
    means = np.empty(lambdas.size)
    sds = np.empty(lambdas.size)
    for li, lam in enumerate(lambdas):
        fracs = []
        for r in range(reps):
            child = seeds[li * reps + r]
            g = sample_sparse_graph(w, n, float(lam), child)
            fracs.append(giant_fraction(g))
        fracs = np.asarray(fracs)
        means[li] = fracs.mean()
        sds[li] = fracs.std(ddof=1) if reps > 1 else 0.0
    rho = spectral_radius(w, spectral_grid)
    lam_c = 1.0 / rho if rho > 0 else float("inf")
    return PhaseCurve(lambdas=lambdas, mean_fraction=means, sd_fraction=sds,
                      n=n, reps=reps, rho=rho, lambda_critical=lam_c)
