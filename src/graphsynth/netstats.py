"""Finite-graph statistics, centralities, and heavy-tail analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sampling import GraphSample

class NetstatsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# graph statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphStatistics:
    """Degree vector plus normalized average degree, triangle/wedge
    densities and the clustering ratio."""

    degrees: np.ndarray = field(repr=False)
    avg_degree_norm: float = 0.0
    triangle_density: float = 0.0
    wedge_density: float = 0.0
    clustering: float = 0.0


def triangle_count(g: GraphSample) -> int:
    """Exact triangle count via A^2 restricted to edges.

    Dense graphs go through float32 BLAS (sparse products cost
    sum_i d_i^2, which blows up when degrees are macroscopic); sparse graphs
    stay sparse.  float32 is exact here: every entry of A^2 is an integer at
    most n - 2 < 2^24, and the float64 total is at most n^3 < 2^53.
    """
    n = g.n
    if n <= 6000 and g.n_edges > 50 * n:
        i, j = g.edges[:, 0], g.edges[:, 1]
        a = np.zeros((n, n), dtype=np.float32)
        a[i, j] = 1.0
        a[j, i] = 1.0
        paths2 = a @ a
        paths2 *= a
        return int(paths2.sum(dtype=np.float64)) // 6
    adj = g.adjacency().astype(np.int64)
    paths2 = (adj @ adj).multiply(adj)
    return int(paths2.sum() // 6)


def graph_statistics(g: GraphSample) -> GraphStatistics:
    """Normalized triangle density T_n, wedge density S_n, clustering C_n.

    T_n divides the triangle count by C(n,3); S_n is
    sum_i D_i (D_i - 1) / (n (n-1) (n-2)); C_n = T_n / S_n with the 0/0
    convention C_n = 0.
    """
    n = g.n
    if n < 3:
        raise NetstatsError("graph statistics need n >= 3")
    deg = g.degrees.astype(np.int64)
    tri = triangle_count(g)
    t_n = tri / math.comb(n, 3)
    s_n = float(np.sum(deg * (deg - 1))) / (n * (n - 1) * (n - 2))
    c_n = t_n / s_n if s_n > 0 else 0.0
    return GraphStatistics(degrees=deg,
                           avg_degree_norm=float(deg.mean()) / (n - 1),
                           triangle_density=t_n, wedge_density=s_n, clustering=c_n)


# ---------------------------------------------------------------------------
# centralities
# ---------------------------------------------------------------------------

CENTRALITY_BLOCK = 256


def centralities(g: GraphSample):
    """Closeness and normalized betweenness of every vertex.

    Closeness is (n-1) / sum of distances over reachable targets;
    betweenness accumulates shortest-path dependencies over ordered source
    target pairs and divides by (n-1)(n-2).

    Returns (closeness, betweenness, fully_reachable flag).
    """
    n = g.n
    if n < 3:
        raise NetstatsError("centralities need n >= 3")
    adj = g.adjacency().astype(np.float64)
    closeness_sum = np.zeros(n)
    reach = np.zeros(n, dtype=np.int64)
    between = np.zeros(n)
    # Brandes over a block of sources at once, one column per source:
    # level-synchronous BFS by sparse matmul, then dependency accumulation
    # from the deepest level up to level 1 (a source is not between its own
    # pairs).  One matmul per level, so the cost grows with the diameter.
    for start in range(0, n, CENTRALITY_BLOCK):
        sources = np.arange(start, min(start + CENTRALITY_BLOCK, n))
        cols = np.arange(sources.size)
        dist = np.full((n, sources.size), -1, dtype=np.int64)
        dist[sources, cols] = 0
        sigma = np.zeros((n, sources.size))
        sigma[sources, cols] = 1.0
        frontier = sigma.copy()
        depth = 0
        while True:
            frontier = adj @ frontier
            frontier[dist >= 0] = 0.0
            if not frontier.any():
                break
            depth += 1
            dist[frontier > 0] = depth
            sigma += frontier
        reached = dist >= 0
        reach[sources] = reached.sum(axis=0)
        closeness_sum[sources] = np.where(reached, dist, 0).sum(axis=0)
        delta = np.zeros_like(sigma)
        for lvl in range(depth, 1, -1):
            coeff = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma),
                              where=dist == lvl)
            delta += np.where(dist == lvl - 1, sigma * (adj @ coeff), 0.0)
        between += delta.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        closeness = np.where(closeness_sum > 0, (n - 1) / closeness_sum, 0.0)
    betweenness = between / ((n - 1) * (n - 2))
    fully_reachable = bool(np.all(reach == n))
    return closeness, betweenness, fully_reachable


# ---------------------------------------------------------------------------
# degree pmfs and heavy tails
# ---------------------------------------------------------------------------

MAX_PMF_SUPPORT = 1_000_000


@dataclass(frozen=True)
class DegreePmf:
    """Distribution over degrees 0..k_max, with optional tail exponent
    metadata (ccdf exponent gamma)."""

    probs: np.ndarray = field(repr=False)
    gamma: float | None = None
    truncated_mass: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if np.any(p < 0):
            raise NetstatsError("pmf has negative entries")
        if abs(p.sum() - 1.0) > 1e-10:
            raise NetstatsError(f"pmf sums to {p.sum():.12f}, not 1")

    @property
    def k_max(self) -> int:
        return len(self.probs) - 1

    def ccdf(self) -> np.ndarray:
        """P(D >= k) for k = 0..k_max."""
        p = np.asarray(self.probs, dtype=float)
        return np.concatenate([np.cumsum(p[::-1])[::-1]])

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(len(self.probs), size=m, p=self.probs / self.probs.sum())


def power_law_pmf(gamma: float, k_max: int, k_min: int = 1) -> DegreePmf:
    """Discrete power law with ccdf exponent gamma: p_k ~ k^-(gamma+1).

    Support truncated at k_max; the (analytic) truncated tail mass is
    reported.
    """
    if gamma <= 0:
        raise NetstatsError("need gamma > 0")
    k_max = min(k_max, MAX_PMF_SUPPORT)
    k = np.arange(k_min, k_max + 1, dtype=float)
    weights = k ** -(gamma + 1.0)
    total = weights.sum()
    # crude integral bound on the discarded tail, relative to kept mass
    trunc = (k_max ** -gamma / gamma) / total
    probs = np.zeros(k_max + 1)
    probs[k_min:] = weights / total
    return DegreePmf(probs=probs, gamma=gamma, truncated_mass=float(trunc))


def mixture_degree_pmf(components, weights) -> DegreePmf:
    """Convex mixture of degree pmfs on a common support."""
    weights = np.asarray(weights, dtype=float)
    if abs(weights.sum() - 1.0) > 1e-9 or np.any(weights < 0):
        raise NetstatsError("mixture weights must be a simplex vector")
    k_max = max(c.k_max for c in components)
    probs = np.zeros(k_max + 1)
    for c, wt in zip(components, weights):
        probs[: c.k_max + 1] += wt * c.probs
    gammas = [c.gamma for c, wt in zip(components, weights) if c.gamma is not None and wt > 0]
    return DegreePmf(probs=probs / probs.sum(), gamma=min(gammas) if gammas else None)


def tilt_degree_pmf(pmf: DegreePmf, rho: float) -> DegreePmf:
    """Polynomial degree tilt: p'_k proportional to k^rho p_k (0^rho := 1).

    Shifts a ccdf tail exponent gamma to gamma - rho; rho >= gamma leaves
    the truncated computation valid but voids the tail-exponent reading
    (gamma metadata is dropped in that case).
    """
    p = np.asarray(pmf.probs, dtype=float)
    k = np.arange(len(p), dtype=float)
    weights = np.where(k == 0, 1.0, k ** rho)
    new = p * weights
    total = new.sum()
    if total <= 0:
        raise NetstatsError("tilted pmf has no mass")
    gamma = None
    if pmf.gamma is not None and rho < pmf.gamma:
        gamma = pmf.gamma - rho
    return DegreePmf(probs=new / total, gamma=gamma)


def fit_tail_exponent(pmf: DegreePmf, k_window=(100, 10_000)):
    """Least-squares slope of log ccdf against log k over a k-window.

    Returns (gamma_hat, r_squared, window actually used).
    """
    ccdf = pmf.ccdf()
    lo = max(1, int(k_window[0]))
    hi = min(pmf.k_max, int(k_window[1]))
    k = np.arange(lo, hi + 1)
    mask = ccdf[lo:hi + 1] > 0
    k = k[mask]
    if k.size < 10:
        raise NetstatsError("tail window too small for a log-log fit")
    x = np.log(k.astype(float))
    y = np.log(ccdf[k])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(-slope), r2, (int(k[0]), int(k[-1]))


def hill_tail_exponent(degrees, k_frac: float = 0.05) -> float:
    """Hill estimate of the ccdf tail exponent from a degree sample.

    Uses the top ceil(k_frac * #positives) order statistics; requires at
    least 50 positive values.
    """
    degrees = np.asarray(degrees, dtype=float)
    positive = np.sort(degrees[degrees > 0])[::-1]
    if positive.size < 50:
        raise NetstatsError(f"need at least 50 positive degrees, got {positive.size}")
    k = int(np.ceil(k_frac * positive.size))
    k = min(max(k, 2), positive.size - 1)
    threshold = positive[k]
    logs = np.log(positive[:k] / threshold)
    mean_log = logs.mean()
    if mean_log <= 0:
        return float("inf")
    return float(1.0 / mean_log)


def bounded_tilt_bracket(lambda_norm: float, stat_bound: float):
    """Constant sandwich for tails under a bounded entropic tilt.

    A tilt exp(lambda . s(G)) with ||s|| <= B multiplies every tail
    probability by a factor inside [e^(-2|lambda|B), e^(2|lambda|B)], so
    the power-law exponent is unchanged.
    """
    if stat_bound < 0:
        raise NetstatsError("statistic bound must be nonnegative")
    span = 2.0 * abs(lambda_norm) * stat_bound
    return math.exp(-span), math.exp(span)


def polynomial_tilt_exponent_bracket(gamma: float, beta_minus: float, beta_plus: float):
    """Exponent interval under a polynomially controlled tilt.

    A tilt squeezed between c_-(1+k)^(-beta_-) and c_+(1+k)^(beta_+) on
    degree-tail events brackets the tilted ccdf between power laws with
    exponents gamma + beta_- (lower) and gamma - beta_+ (upper).  With
    beta_- = beta_+ = 0 this degenerates to the bounded-tilt case.
    """
    if beta_minus < 0 or beta_plus < 0:
        raise NetstatsError("polynomial control exponents must be nonnegative")
    return gamma + beta_minus, gamma - beta_plus


def verify_tail_bracket(base_tail, tilted_tail, ks, lower_factor, upper_factor,
                        slack: float = 0.0) -> bool:
    """Check lower*base <= tilted <= upper*base on the supplied grid."""
    ks = np.asarray(ks)
    base = np.asarray([base_tail(k) for k in ks], dtype=float)
    tilted = np.asarray([tilted_tail(k) for k in ks], dtype=float)
    lo = lower_factor * base - slack
    hi = upper_factor * base + slack
    return bool(np.all(tilted >= lo) and np.all(tilted <= hi))


def degree_pmf_from_sample(degrees, k_max: int | None = None) -> DegreePmf:
    """Empirical degree pmf from a degree vector."""
    degrees = np.asarray(degrees, dtype=np.int64)
    k_max = int(degrees.max()) if k_max is None else k_max
    probs = np.bincount(degrees, minlength=k_max + 1).astype(float)
    return DegreePmf(probs=probs / probs.sum())
