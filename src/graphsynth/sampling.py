"""Graph and dyad sampling from graphons, dense and sparse regimes.

All randomness flows through the counter-based Philox generator; replicate
streams are derived by seed-splitting so replicates are order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import graphons
from .graphons import Graphon
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


def triangular_pair(idx):
    """The pairs (s, r), s < r, at positions ``idx`` of the order (0, 1),
    (0, 2), (1, 2), (0, 3), ...: r is the least with r (r + 1) / 2 > idx,
    and s the offset of ``idx`` past the first pair with that r."""
    r = np.ceil((np.sqrt(8.0 * (idx + 1) + 1) - 1) / 2).astype(np.int64)
    return idx - r * (r - 1) // 2, r


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


def _id_pairs(edges) -> np.ndarray:
    """``edges`` as a (k, 2) array of signed integers: a signed integer input
    as it is, with no copy (int32 ids stay int32), any other one cast to
    int64."""
    edges = np.asarray(edges)
    if edges.dtype.kind != "i":
        edges = edges.astype(np.int64)
    return edges.reshape(-1, 2)


def _check_node_count(n: int) -> None:
    if n >= 2 ** 31:
        raise ValueError(f"n = {n} is too large: node ids are int32, so n < 2**31")


@dataclass(eq=False)
class GraphSample:
    """Simple undirected graph: sorted deduplicated edge list plus degrees.

    The edges are distinct pairs (i, j) with i < j in ascending order of
    ``i * n + j``.  Node ids are int32, so ``n`` must be below 2^31; a key
    ``i * n + j`` can exceed 2^31, and every site that forms one widens the
    ids to int64 first.  The degrees are int64.
    """

    n: int
    edges: np.ndarray = field(repr=False)
    degrees: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_node_count(self.n)
        # Checked EDGE_CHECK_ROWS rows at a time, so that the checks'
        # temporaries stay small next to the edge list; the order check's
        # slices overlap by one row, so it also compares each slice's first
        # row with the row before it.
        e = _id_pairs(self.edges)
        starts = range(0, e.shape[0], EDGE_CHECK_ROWS)
        for start in starts:
            part = e[start:start + EDGE_CHECK_ROWS]
            if np.any(part[:, 0] >= part[:, 1]) or part.min() < 0 or part.max() >= self.n:
                raise ValueError("edges must satisfy 0 <= i < j < n")
        for start in starts:
            part = e[max(start - 1, 0):start + EDGE_CHECK_ROWS]
            keys = part[:, 0].astype(np.int64) * self.n + part[:, 1]
            if np.any(keys[1:] <= keys[:-1]):
                raise ValueError("edges must be distinct and sorted by (i, j)")
        self.edges = e.astype(np.int32, copy=False)

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


def _finish_edges(n, keys) -> GraphSample:
    """Decode ascending, distinct edge keys ``i * n + j`` (each with i < j)
    into the int32 edge list and count degrees.

    Every sampler produces its keys in ascending order, so the edges come
    out sorted by ``i`` and then by ``j``; ``GraphSample`` rejects any other
    order.  ``np.bincount`` takes its input as intp, so the degrees are
    counted EDGE_CHECK_ROWS rows at a time: at once, it would copy the whole
    edge list into int64.
    """
    _check_node_count(n)
    keys = np.asarray(keys, dtype=np.int64)
    edges = np.empty((keys.size, 2), dtype=np.int32)
    np.divmod(keys, n, out=(edges[:, 0], edges[:, 1]))
    degrees = np.zeros(n, dtype=np.int64)
    for start in range(0, keys.size, EDGE_CHECK_ROWS):
        degrees += np.bincount(edges[start:start + EDGE_CHECK_ROWS].ravel(), minlength=n)
    return GraphSample(n=n, edges=edges, degrees=degrees)


def graph_from_edge_array(n: int, edges) -> GraphSample:
    """Build a GraphSample from raw (i, j) pairs: symmetrize, drop
    self-loops, deduplicate.  Every id must lie in ``0..n-1``."""
    edges = _id_pairs(edges)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edges must satisfy 0 <= i < j < n")
    lo = edges.min(axis=1)
    hi = edges.max(axis=1)
    keep = lo != hi
    # keys order pairs exactly as (i, j) does, so this is the row-wise unique
    return _finish_edges(n, unique_keys(lo[keep].astype(np.int64) * n + hi[keep]))


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


def sample_graph(w: Graphon, n: int, seed) -> GraphSample:
    """Latent-uniform graph: U_i iid uniform, edges Bernoulli(w(U_i, U_j)).

    The kernel is read from ``matrix[:, labels]`` of the block form, one
    column per latent, built once from piece labels: the rows of a chunk
    are those of its latents' pieces, at the columns ``start:``, which
    equals ``w.evaluate`` bit for bit.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = make_rng(seed)
    latents = rng.random(n)
    blk = w.block
    labels = blk.piece_index(latents)
    by_latent = blk.matrix[:, labels]
    keys = _dense_edges(lambda start, stop: by_latent[labels[start:stop], start:], n, rng)
    return _finish_edges(n, keys)


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

    The block form is sampled per block pair: a binomial edge count
    followed by uniform placement.
    """
    if n < 2 or lam <= 0:
        raise ValueError("need n >= 2 and lam > 0")
    rng = make_rng(seed)
    latents = rng.random(n)
    blk = w.block
    labels = blk.piece_index(latents)
    mat = blk.matrix
    k = mat.shape[0]
    members = [np.flatnonzero(labels == a) for a in range(k)]
    all_keys = [np.empty(0, dtype=np.int64)]
    for a in range(k):
        for b in range(a, k):
            q = min(1.0, lam * mat[a, b] / n)
            na, nb = members[a].size, members[b].size
            n_pairs = na * (na - 1) // 2 if a == b else na * nb
            if q <= 0.0 or n_pairs == 0:
                continue
            count = int(rng.binomial(n_pairs, q))
            if count == 0:
                continue
            idx = _sample_distinct(rng, n_pairs, count)
            # a block's own pairs s < r in triangular order, or the pairs of
            # two blocks in row-major order of their na x nb grid
            s, r = triangular_pair(idx) if a == b else np.divmod(idx, nb)
            u, v = members[a][s], members[b][r]
            all_keys.append(np.minimum(u, v) * n + np.maximum(u, v))
    keys = np.concatenate(all_keys)
    keys.sort()
    return _finish_edges(n, keys)


def sample_dyads(w: Graphon, agents, m: int, seed) -> DyadData:
    """i.i.d. dyads: latent pairs, Bernoulli labels from w, agent features.

    Features are (1, w_1(X), ..., w_J(X)) evaluated at the same latent pair.
    Each graphon is read from the rate matrix of its block form, which
    gives the values ``evaluate`` would; piece labels are computed once per
    distinct set of breakpoints.
    """
    if m < 1:
        raise ValueError("need m >= 1 dyads")
    rng = make_rng(seed)
    u1 = rng.random(m)
    u2 = rng.random(m)
    piece_labels = {}

    def values(g):
        blk = g.block
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

def component_labels(n: int, edges) -> np.ndarray:
    """Each node's connected-component label: the smallest node id in its
    component.  ``edges`` holds (i, j) pairs in any order, repeats and
    self-loops allowed.

    Hook-and-shortcut labelling (Shiloach & Vishkin, "An O(log n) parallel
    connectivity algorithm", J. Algorithms 1982) in vectorised rounds.
    ``label`` is a forest whose pointers never increase and never leave a
    component; at the start of a round every node points at a root, and the
    round's edges join the roots of their endpoints.  Hook: each edge points
    the larger of its two roots at the smaller one, the least wins
    (``np.minimum.at``).  Shortcut: jump pointers until every node points at
    a root again.  An edge whose endpoints now share a root is dropped for
    good.  Each round with an edge left lowers some root's pointer, so the
    loop ends; then each component has one root, and since no pointer
    exceeds its node, that root is the component's smallest node.
    """
    label = np.arange(n, dtype=np.int64)
    # int64 like ``label``: np.minimum.at of int32 values into it leaves its
    # fast path, and takes about 30 times as long
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    # a self-loop hooks nothing, and the first round drops it
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    while lo.size:
        np.minimum.at(label, hi, lo)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
        a, b = label[lo], label[hi]
        cross = a != b
        a, b = a[cross], b[cross]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
    return label


def giant_fraction(g: GraphSample) -> float:
    """Size of the largest connected component divided by n."""
    return float(np.bincount(component_labels(g.n, g.edges)).max()) / g.n


@dataclass(eq=False)
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
