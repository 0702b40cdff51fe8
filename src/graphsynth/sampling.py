"""Graph and dyad sampling from graphons, dense and sparse regimes.

All randomness flows through the counter-based Philox generator; replicate
streams are derived by seed-splitting so replicates are order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import graphons
from .graphons import Block, Graphon, GraphonError, as_block
from .synthesis import DyadData

if TYPE_CHECKING:
    import scipy.sparse

DENSE_CHUNK_ROWS = 256
EDGE_CHECK_ROWS = 1 << 16


def make_rng(seed) -> np.random.Generator:
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def child_seeds(seed: np.random.SeedSequence, k: int) -> list:
    """The first ``k`` children of ``seed``: what ``seed.spawn(k)`` returns on
    a fresh copy of it.  ``spawn`` itself advances the object's child
    counter, so a second call on one object would give other children; this
    is a pure function of (entropy, spawn_key, pool_size)."""
    return [np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (i,),
                                   pool_size=seed.pool_size) for i in range(k)]


def unique_keys(a) -> np.ndarray:
    """The sorted distinct values of an integer array; equals ``np.unique(a)``.

    One sort and an adjacent-difference mask.  numpy >= 2.3 sends integer
    ``np.unique`` through a hash table and then sorts its output, which is
    many times slower than this on node ids and dyad keys.
    """
    keys = np.sort(np.asarray(a).ravel())
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def in_sorted(keys, sorted_keys) -> np.ndarray:
    """Membership of each of ``keys`` in the ascending array ``sorted_keys``;
    equals ``np.isin(keys, sorted_keys)``.

    The keys are looked up in ascending order: numpy's binary search starts
    each lookup from the previous one's bounds, which makes sorting the
    keys first several times faster than searching them in draw order.
    """
    keys = np.asarray(keys)
    sorted_keys = np.asarray(sorted_keys)
    if sorted_keys.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    order = np.argsort(keys, axis=None)
    ranked = keys.ravel()[order]
    pos = np.minimum(np.searchsorted(sorted_keys, ranked), sorted_keys.size - 1)
    hits = np.empty(keys.size, dtype=bool)
    hits[order] = sorted_keys[pos] == ranked
    return hits.reshape(keys.shape)


@dataclass
class GraphSample:
    """Simple undirected graph: sorted deduplicated edge list plus degrees.

    The edges are distinct pairs (i, j) with i < j in ascending order of
    ``i * n + j``; ``giant_fraction`` reads its CSR rows straight off that
    order.
    """

    n: int
    edges: np.ndarray = field(repr=False)
    degrees: np.ndarray = field(repr=False)
    latents: np.ndarray | None = field(default=None, repr=False)
    seed: int | None = None

    def __post_init__(self):
        # Checked EDGE_CHECK_ROWS rows at a time, so that the checks'
        # temporaries stay small next to the edge list; the order check's
        # slices overlap by one row, so it also compares each slice's first
        # row with the row before it.
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        starts = range(0, e.shape[0], EDGE_CHECK_ROWS)
        for start in starts:
            part = e[start:start + EDGE_CHECK_ROWS]
            if np.any(part[:, 0] >= part[:, 1]) or part.min() < 0 or part.max() >= self.n:
                raise ValueError("edges must satisfy 0 <= i < j < n")
        for start in starts:
            part = e[max(start - 1, 0):start + EDGE_CHECK_ROWS]
            keys = part[:, 0] * self.n + part[:, 1]
            if np.any(keys[1:] <= keys[:-1]):
                raise ValueError("edges must be distinct and sorted by (i, j)")
        self.edges = e

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def adjacency(self) -> scipy.sparse.csr_matrix:
        import scipy.sparse

        i, j = self.edges[:, 0], self.edges[:, 1]
        data = np.ones(2 * self.n_edges, dtype=np.int8)
        return scipy.sparse.csr_matrix(
            (data, (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(self.n, self.n))


def _finish_edges(n, keys, latents=None, seed=None) -> GraphSample:
    """Decode ascending, distinct edge keys ``i * n + j`` (each with i < j)
    into the edge list and count degrees.

    Every sampler produces its keys in ascending order, so the edges come
    out sorted by ``i`` and then by ``j``; ``GraphSample`` rejects any other
    order.
    """
    keys = np.asarray(keys, dtype=np.int64)
    edges = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, n, out=(edges[:, 0], edges[:, 1]))
    degrees = np.bincount(edges.ravel(), minlength=n)
    return GraphSample(n=n, edges=edges, degrees=degrees, latents=latents, seed=seed)


def graph_from_edge_array(n: int, edges) -> GraphSample:
    """Build a GraphSample from raw (i, j) pairs: symmetrize, drop
    self-loops, deduplicate.  Every id must lie in ``0..n-1``."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edges must satisfy 0 <= i < j < n")
    lo = edges.min(axis=1)
    hi = edges.max(axis=1)
    keep = lo != hi
    # keys order pairs exactly as (i, j) does, so this is the row-wise unique
    return _finish_edges(n, unique_keys(lo[keep] * n + hi[keep]))


def _dense_edges(prob_rows, n, rng):
    """Row-chunked Bernoulli sampling over the upper triangle; returns the
    edge keys ``i * n + j`` in ascending order.

    ``prob_rows(start, stop)`` gives the edge probabilities of rows
    ``start:stop`` against columns ``start:``, and the chunk draws one
    uniform for each of those entries, row by row, so chunk ``start`` takes
    ``(stop - start) * (n - start)`` values of the stream; the entries on and
    below the diagonal are drawn and discarded.  A hit at flat index
    ``f = r * width + c`` of a chunk is the pair (start + r, start + c),
    whose key is ``f + r * start + start * (n + 1)``; flat indices ascend,
    so each chunk's keys, and their concatenation, come out sorted.
    """
    keys = [np.empty(0, dtype=np.int64)]
    for start in range(0, n, DENSE_CHUNK_ROWS):
        stop = min(start + DENSE_CHUNK_ROWS, n)
        height, width = stop - start, n - start
        hits = rng.random((height, width)) < prob_rows(start, stop)
        hits[:, :height] &= ~np.tri(height, dtype=bool)   # keep j > i only
        flat = np.flatnonzero(hits)
        keys.append(flat + (flat // width) * start + start * (n + 1))
    return np.concatenate(keys)


def _block_form(w: Graphon) -> Block | None:
    """``as_block(w)``, or None for a graphon without a block form."""
    try:
        return as_block(w)
    except GraphonError:
        return None


def _kernel_rows(w: Graphon, blk: Block | None, latents):
    """``rows(start, stop)``: w on latents ``start:stop`` against ``start:``.

    With a block form the values are read from ``matrix[:, labels]``, one
    column per latent, built once from piece labels: each chunk takes the
    rows of its latents' pieces and the columns ``start:``, which equals
    ``w.evaluate`` bit for bit.  Without one, ``w.evaluate`` runs on every
    chunk.
    """
    if blk is None:
        return lambda start, stop: np.asarray(
            w.evaluate(latents[start:stop, None], latents[None, start:]), dtype=float)
    labels = blk.piece_index(latents)
    by_latent = blk.matrix[:, labels]
    return lambda start, stop: by_latent[labels[start:stop], start:]


def sample_graph(w: Graphon, n: int, seed) -> GraphSample:
    """Latent-uniform graph: U_i iid uniform, edges Bernoulli(w(U_i, U_j)).

    A graphon with a block form (``as_block``) is read from its rate matrix;
    any other is evaluated chunk by chunk.  Both give the same edges.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = make_rng(seed)
    latents = rng.random(n)
    keys = _dense_edges(_kernel_rows(w, _block_form(w), latents), n, rng)
    return _finish_edges(n, keys, latents=latents, seed=seed)


def _sample_distinct(rng, n_items: int, k: int) -> np.ndarray:
    """k distinct indices from range(n_items); efficient when k << n_items."""
    if k > n_items:
        raise ValueError("cannot sample more items than available")
    if n_items <= 4 * k or n_items < 1024:
        return rng.choice(n_items, size=k, replace=False)
    chosen = unique_keys(rng.integers(0, n_items, size=int(k * 1.2) + 8))
    while chosen.size < k:
        extra = rng.integers(0, n_items, size=k)
        chosen = unique_keys(np.concatenate([chosen, extra]))
    return rng.permutation(chosen)[:k]


def sample_sparse_graph(w: Graphon, n: int, lam: float, seed) -> GraphSample:
    """Sparse regime: edge probability min(1, lam * w(U_i,U_j) / n).

    A graphon with a block form (``as_block``) is sampled per block pair:
    a binomial edge count followed by uniform placement.  Any other falls
    back to the row-chunked dense sampler with rescaled probabilities.
    """
    if n < 2 or lam <= 0:
        raise ValueError("need n >= 2 and lam > 0")
    rng = make_rng(seed)
    latents = rng.random(n)
    blk = _block_form(w)
    if blk is None:
        rows = _kernel_rows(w, None, latents)
        keys = _dense_edges(lambda start, stop: np.minimum(lam * rows(start, stop) / n, 1.0),
                            n, rng)
        return _finish_edges(n, keys, latents=latents, seed=seed)

    labels = blk.piece_index(latents)
    mat = blk.matrix
    k = mat.shape[0]
    members = [np.flatnonzero(labels == a) for a in range(k)]
    all_keys = [np.empty(0, dtype=np.int64)]
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
            all_keys.append(np.minimum(u, v) * n + np.maximum(u, v))
    keys = np.concatenate(all_keys)
    keys.sort()
    return _finish_edges(n, keys, latents=latents, seed=seed)


def sample_dyads(w: Graphon, agents, m: int, seed) -> DyadData:
    """i.i.d. dyads: latent pairs, Bernoulli labels from w, agent features.

    Features are (1, w_1(X), ..., w_J(X)) evaluated at the same latent pair.
    A graphon or agent with a block form (``as_block``) is read from its
    rate matrix, which gives the values ``evaluate`` would; piece labels are
    computed once per distinct set of breakpoints.
    """
    if m < 1:
        raise ValueError("need m >= 1 dyads")
    rng = make_rng(seed)
    u1 = rng.random(m)
    u2 = rng.random(m)
    piece_labels = {}

    def values(g):
        blk = _block_form(g)
        if blk is None:
            return np.asarray(g.evaluate(u1, u2), dtype=float)
        key = blk.boundaries.tobytes()
        if key not in piece_labels:
            piece_labels[key] = blk.piece_index(u1), blk.piece_index(u2)
        lab1, lab2 = piece_labels[key]
        return blk.matrix[lab1, lab2]

    truth = values(w)
    labels = (rng.random(m) < truth).astype(float)
    cols = [np.ones(m)]
    cols.extend(values(a) for a in agents)
    return DyadData(features=np.stack(cols, axis=1), labels=labels)


# ---------------------------------------------------------------------------
# components and phase sweeps
# ---------------------------------------------------------------------------

def giant_fraction(g: GraphSample) -> float:
    """Size of the largest connected component divided by n.

    The components come from the upper-triangular CSR matrix, one entry per
    edge, read straight off the sorted edge list: row ``i`` holds the ``j``
    of its edges, already in order.  ``connected_components(directed=False)``
    follows every edge both ways itself, so the symmetric matrix is never
    built.
    """
    import scipy.sparse
    import scipy.sparse.csgraph

    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(g.edges[:, 0], minlength=g.n), out=indptr[1:])
    upper = scipy.sparse.csr_matrix((np.ones(g.n_edges), g.edges[:, 1], indptr),
                                    shape=(g.n, g.n))
    _, labels = scipy.sparse.csgraph.connected_components(upper, directed=False)
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


def phase_sweep(w: Graphon, lambdas, n: int, seeds) -> PhaseCurve:
    """Giant-component fraction per sparsity level, with spectral threshold.

    ``seeds`` holds one seed per (lambda, replicate), lambda-major, so each
    level gets ``len(seeds) / len(lambdas)`` replicate graphs; the predicted
    critical value is 1/rho for the kernel's integral-operator spectral
    radius.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    seeds = list(seeds)
    reps = len(seeds) // max(lambdas.size, 1)
    if reps < 1 or len(seeds) != lambdas.size * reps:
        raise ValueError("need one or more seeds per lambda, the same number for each")
    means = np.empty(lambdas.size)
    sds = np.empty(lambdas.size)
    for li, lam in enumerate(lambdas):
        fracs = []
        for child in seeds[li * reps:(li + 1) * reps]:
            g = sample_sparse_graph(w, n, float(lam), child)
            fracs.append(giant_fraction(g))
        fracs = np.asarray(fracs)
        means[li] = fracs.mean()
        sds[li] = fracs.std(ddof=1) if reps > 1 else 0.0
    # looked up on the graphons module at call time, where the benchmark's
    # tracer wraps it
    rho = graphons.spectral_radius(w)
    lam_c = 1.0 / rho if rho > 0 else float("inf")
    return PhaseCurve(lambdas=lambdas, mean_fraction=means, sd_fraction=sds,
                      n=n, reps=reps, rho=rho, lambda_critical=lam_c)
