"""Finite-graph agent models, entropic tilts, and small-n enumeration.

Agents are edge-probability generators on a fixed vertex set.  Entropic
tilting by edge or block statistics has closed forms (logit shifts) for the
canonical families, or one bracketed scalar root (``logit_shift``); general
exponential-family agents are calibrated to target moments by Newton on the
convex dual over the exactly enumerated mean map (supported up to n = 6).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .graphons import set_readonly
from .logistic import expit, logit, logsumexp


class AgentError(ValueError):
    pass


class InfeasibleTarget(AgentError):
    """Requested moment target lies outside the mean-parameter space."""


class CalibrationFailure(AgentError):
    """Newton iteration failed to reach the moment target."""


MAX_ENUM_N = 6
CHUNG_LU_CAP = 1.0 - 1e-12
CALIBRATE_TOL = 1e-8
CALIBRATE_MAX_STEPS = 100
CALIBRATE_ARMIJO = 1e-4
# RDPG.dyad_logits gathers positions for this many dyads at a time
DYAD_BLOCK_ROWS = 16_384


# ---------------------------------------------------------------------------
# agent kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ER:
    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise AgentError("ER edge probability must lie in (0,1)")

    def dyad_probs(self, i, j) -> np.ndarray:
        return np.full(np.broadcast(i, j).shape, self.p)


@dataclass(frozen=True, eq=False)
class SBM:
    """Block model with node assignment c : [n] -> {0..K-1} and symmetric
    rate matrix with entries in (0,1)."""

    assignment: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        set_readonly(self, int, assignment=self.assignment)
        set_readonly(self, matrix=self.matrix)
        c, m = self.assignment, self.matrix
        if not np.allclose(m, m.T, atol=0.0):
            raise AgentError("SBM rate matrix must be symmetric")
        if np.any(m <= 0.0) or np.any(m >= 1.0):
            raise AgentError("SBM rates must lie in the open interval (0,1)")
        if c.min() < 0 or c.max() >= m.shape[0]:
            raise AgentError("assignment labels must index the rate matrix")

    @property
    def n(self) -> int:
        return len(self.assignment)

    def dyad_probs(self, i, j) -> np.ndarray:
        return self.matrix[self.assignment[i], self.assignment[j]]


@dataclass(frozen=True, eq=False)
class RDPG:
    """Logistic random dot product agent: P(edge ij) = sigmoid(z_i.z_j + b)."""

    positions: np.ndarray
    intercept: float = 0.0

    def __post_init__(self):
        set_readonly(self, positions=self.positions)
        if self.positions.ndim != 2:
            raise AgentError("RDPG positions must be an (n, d) array")

    @property
    def n(self) -> int:
        return len(self.positions)

    def dyad_logits(self, i, j) -> np.ndarray:
        # each row's sum is the same in a block as in one full-length gather
        z = self.positions
        i, j = np.broadcast_arrays(i, j)
        flat_i, flat_j = i.ravel(), j.ravel()
        out = np.empty(flat_i.size)
        for lo in range(0, flat_i.size, DYAD_BLOCK_ROWS):
            rows = slice(lo, lo + DYAD_BLOCK_ROWS)
            out[rows] = np.sum(np.take(z, flat_i[rows], axis=0)
                               * np.take(z, flat_j[rows], axis=0), axis=-1)
        out += self.intercept
        return out.reshape(i.shape)[()]

    def dyad_probs(self, i, j) -> np.ndarray:
        return expit(self.dyad_logits(i, j))


@dataclass(frozen=True, eq=False)
class ChungLu:
    """Product-weight agent: P(edge ij) = min(theta_i theta_j, cap)."""

    theta: np.ndarray

    def __post_init__(self):
        set_readonly(self, theta=self.theta)
        if np.any(self.theta < 0.0):
            raise AgentError("Chung-Lu weights must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.theta)

    def dyad_probs(self, i, j) -> np.ndarray:
        return np.minimum(self.theta[i] * self.theta[j], CHUNG_LU_CAP)


# each kind's ``dyad_probs(i, j)`` holds its edge-probability formula on
# node-index arrays that broadcast against each other
AgentModel = ER | SBM | RDPG | ChungLu


# ---------------------------------------------------------------------------
# closed-form tilts
# ---------------------------------------------------------------------------

def tilt_er(p: float, lam: float) -> float:
    """Entropic edge tilt of an independent-edge probability.

    p' = e^lam p / (e^lam p + 1 - p), i.e. a shift of lam in log-odds.
    """
    if not 0.0 < p < 1.0:
        raise AgentError("edge tilt needs p in the open interval (0,1)")
    return float(expit(logit(p) + lam))


def tilt_sbm(matrix, lam_matrix) -> np.ndarray:
    """Blockwise log-odds shift of a block rate matrix."""
    b = np.asarray(matrix, dtype=float)
    lam = np.asarray(lam_matrix, dtype=float)
    if lam.shape != b.shape:
        raise AgentError("tilt matrix shape must match the rate matrix")
    if not np.allclose(lam, lam.T, atol=0.0):
        raise AgentError("blockwise tilts must be symmetric")
    if np.any(b <= 0.0) or np.any(b >= 1.0):
        raise AgentError("block rates must lie in (0,1)")
    return expit(logit(b) + lam)


def tilt_rdpg(agent: RDPG, lam: float) -> RDPG:
    """Global edge tilt of a logistic dot-product agent: intercept shift."""
    return replace(agent, intercept=agent.intercept + lam)


# ---------------------------------------------------------------------------
# edge probabilities
# ---------------------------------------------------------------------------

def edge_prob_matrix(agent: AgentModel, n: int) -> np.ndarray:
    """n x n symmetric edge-probability matrix with zero diagonal."""
    if not hasattr(agent, "dyad_probs"):
        raise AgentError(f"unknown agent kind {type(agent).__name__}")
    if getattr(agent, "n", n) != n:
        raise AgentError(f"{type(agent).__name__} agent sized for {agent.n}, not {n}")
    idx = np.arange(n)
    mat = agent.dyad_probs(idx[:, None], idx[None, :])
    np.fill_diagonal(mat, 0.0)
    return mat


# ---------------------------------------------------------------------------
# exhaustive enumeration of small graph spaces
# ---------------------------------------------------------------------------

class GraphEnumeration:
    """All simple graphs on n <= 6 vertices, bitmask-indexed.

    Edge-indexed bitmasks run over the n(n-1)/2 vertex pairs in
    lexicographic (i < j) order; bit ``k`` of a mask is pair ``pairs[k]``.
    """

    _cache: dict = {}

    def __init__(self, n: int):
        if n > MAX_ENUM_N:
            raise AgentError(f"enumeration supported only up to n = {MAX_ENUM_N}")
        if n < 2:
            raise AgentError("need at least two vertices")
        self.n = n
        self.pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.n_pairs = len(self.pairs)
        self.n_graphs = 1 << self.n_pairs
        masks = np.arange(self.n_graphs, dtype=np.uint32)
        # (n_graphs, n_pairs) edge indicators
        self.edge_bits = ((masks[:, None] >> np.arange(self.n_pairs)[None, :]) & 1).astype(np.int8)
        self.degrees = np.zeros((self.n_graphs, n), dtype=np.int16)
        for k, (i, j) in enumerate(self.pairs):
            self.degrees[:, i] += self.edge_bits[:, k]
            self.degrees[:, j] += self.edge_bits[:, k]
        self._pair_index = {p: k for k, p in enumerate(self.pairs)}

    @classmethod
    def get(cls, n: int) -> "GraphEnumeration":
        if n not in cls._cache:
            cls._cache[n] = cls(n)
        return cls._cache[n]

    def pair_index(self, i: int, j: int) -> int:
        return self._pair_index[(min(i, j), max(i, j))]

    def edge_counts(self) -> np.ndarray:
        return self.edge_bits.sum(axis=1).astype(np.int64)

    def triangle_counts(self) -> np.ndarray:
        counts = np.zeros(self.n_graphs, dtype=np.int64)
        for i, j, k in itertools.combinations(range(self.n), 3):
            counts += (self.edge_bits[:, self.pair_index(i, j)]
                       * self.edge_bits[:, self.pair_index(i, k)]
                       * self.edge_bits[:, self.pair_index(j, k)]).astype(np.int64)
        return counts

    def kstar_counts(self, k: int) -> np.ndarray:
        # degrees are at most n-1, so a small lookup table suffices
        table = np.array([math.comb(d, k) for d in range(self.n)], dtype=np.int64)
        return table[self.degrees].sum(axis=1)

    def wedge_counts(self) -> np.ndarray:
        return self.kstar_counts(2)

    def block_counts(self, assignment) -> np.ndarray:
        """Edge counts per unordered block pair (a <= b), stacked."""
        c = np.asarray(assignment, dtype=int)
        k = int(c.max()) + 1
        cols = []
        for a in range(k):
            for b in range(a, k):
                sel = [idx for idx, (i, j) in enumerate(self.pairs)
                       if {c[i], c[j]} == ({a} if a == b else {a, b})]
                cols.append(self.edge_bits[:, sel].sum(axis=1).astype(np.int64)
                            if sel else np.zeros(self.n_graphs, dtype=np.int64))
        return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# ERGM specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ErgmSpec:
    """Exponential-family graph model on a stacked statistic vector.

    ``stats`` is an ordered tuple of descriptors: ("edges",),
    ("triangles",), ("wedges",), ("kstar", k), or
    ("block_counts", assignment-tuple).
    """

    stats: tuple
    theta: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "stats", tuple(map(tuple, self.stats)))
        set_readonly(self, theta=self.theta)
        if len(self.theta) != stat_dimension(self.stats):
            raise AgentError("theta length must match the stacked statistic dimension")


def stat_dimension(stats) -> int:
    dim = 0
    for s in stats:
        if s[0] == "block_counts":
            k = int(max(s[1])) + 1
            dim += k * (k + 1) // 2
        elif s[0] in ("edges", "triangles", "wedges", "kstar"):
            dim += 1
        else:
            raise AgentError(f"unknown statistic {s[0]!r}")
    return dim


def statistic_matrix(enum: GraphEnumeration, stats) -> np.ndarray:
    """(n_graphs, dim) matrix of stacked sufficient statistics."""
    cols = []
    for s in stats:
        if s[0] == "edges":
            cols.append(enum.edge_counts()[:, None])
        elif s[0] == "triangles":
            cols.append(enum.triangle_counts()[:, None])
        elif s[0] == "wedges":
            cols.append(enum.wedge_counts()[:, None])
        elif s[0] == "kstar":
            cols.append(enum.kstar_counts(int(s[1]))[:, None])
        elif s[0] == "block_counts":
            cols.append(enum.block_counts(s[1]))
        else:
            raise AgentError(f"unknown statistic {s[0]!r}")
    return np.concatenate(cols, axis=1).astype(float)


def er_as_ergm(p: float, n: int) -> ErgmSpec:
    """ER model as an edge-statistic exponential family, theta = logit(p)."""
    return ErgmSpec([("edges",)], [float(logit(p))], n)


def ergm_stack_tilt(weighted_specs, tau) -> ErgmSpec:
    """Log-linear pool of exponential-family agents plus an entropic tilt.

    Input is a list of (ErgmSpec, omega) with omega >= 0 summing to 1;
    ``tau`` is stacked across the agents' statistics.  The pooled model has
    the concatenated statistic and parameter blocks omega_j theta_j + tau_j.
    """
    omegas = np.array([w for _, w in weighted_specs], dtype=float)
    if np.any(omegas < 0) or abs(omegas.sum() - 1.0) > 1e-9:
        raise AgentError("pool weights must be nonnegative and sum to 1")
    ns = {spec.n for spec, _ in weighted_specs}
    if len(ns) != 1:
        raise AgentError("all pooled agents must share the vertex count")
    tau = np.asarray(tau, dtype=float)
    total_dim = sum(stat_dimension(spec.stats) for spec, _ in weighted_specs)
    if tau.size != total_dim:
        raise AgentError(f"tau has length {tau.size}, stacked dimension is {total_dim}")
    stats, theta = [], []
    offset = 0
    for spec, omega in weighted_specs:
        dim = stat_dimension(spec.stats)
        stats.extend(spec.stats)
        theta.extend(omega * spec.theta + tau[offset:offset + dim])
        offset += dim
    return ErgmSpec(stats, theta, ns.pop())


# ---------------------------------------------------------------------------
# pmfs on small graph spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GraphPmf:
    """Exhaustive pmf over all graphs on n vertices (bitmask order)."""

    n: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        set_readonly(self, probs=self.probs)
        p = self.probs
        if np.any(p < -1e-15):
            raise AgentError("pmf has negative entries")
        if abs(p.sum() - 1.0) > 1e-12:
            raise AgentError(f"pmf sums to {p.sum()}, not 1")


def exact_enumeration_pmf(model, n: int | None = None) -> GraphPmf:
    """Exhaustive pmf of an agent or exponential-family spec, n <= 6."""
    if isinstance(model, ErgmSpec):
        enum = GraphEnumeration.get(model.n)
        stat = statistic_matrix(enum, model.stats)
        logits = stat @ model.theta
        return GraphPmf(model.n, np.exp(logits - logsumexp(logits)))
    if n is None:
        n = model.n  # node-indexed agents know their size
    enum = GraphEnumeration.get(n)
    pmat = edge_prob_matrix(model, n)
    p_pair = np.array([pmat[i, j] for (i, j) in enum.pairs])
    p_pair = np.clip(p_pair, 1e-300, 1.0 - 1e-16)
    logp = enum.edge_bits @ np.log(p_pair) + (1 - enum.edge_bits) @ np.log1p(-p_pair)
    probs = np.exp(logp)
    return GraphPmf(n, probs / probs.sum())


def mixture_pmf(pmfs, alphas, prior) -> tuple[GraphPmf, np.ndarray]:
    """Mixture synthesis: reweight each agent pmf, then mix.

    ``alphas`` holds one nonnegative weight array per agent (or None for a
    flat weight).  With a_j the normalizer of alpha_j p_j, the synthesized
    pmf is sum_j pi~_j f_j with f_j = alpha_j p_j / a_j and
    pi~_j proportional to pi_j a_j.

    Returns (pmf, updated mixture weights).
    """
    prior = np.asarray(prior, dtype=float)
    if np.any(prior < 0) or abs(prior.sum() - 1.0) > 1e-9:
        raise AgentError("prior weights must be a simplex vector")
    if len(pmfs) != prior.size:
        raise AgentError("one prior weight per agent pmf")
    ns = {p.n for p in pmfs}
    if len(ns) != 1:
        raise AgentError("agent pmfs must share the vertex count")
    n = ns.pop()
    a = np.empty(prior.size)
    tilted = []
    for j, pmf in enumerate(pmfs):
        alpha = alphas[j] if alphas is not None and alphas[j] is not None else 1.0
        weighted = np.asarray(alpha, dtype=float) * pmf.probs
        a[j] = weighted.sum()
        tilted.append(weighted)
    if np.all(a * prior == 0.0):
        raise AgentError("degenerate mixture: every tilted agent has zero mass")
    pi_new = prior * a
    pi_new = pi_new / pi_new.sum()
    probs = sum(pi_new[j] * tilted[j] / a[j] for j in range(prior.size) if pi_new[j] > 0)
    return GraphPmf(n, probs / probs.sum()), pi_new


def edge_tilt_weights(n: int, lam: float) -> np.ndarray:
    """Entropic weight exp(lam * edge count) per graph, bitmask order."""
    enum = GraphEnumeration.get(n)
    return np.exp(lam * enum.edge_counts().astype(float))


def stat_tilt_weights(n: int, stats, tau) -> np.ndarray:
    """Entropic weight exp(tau . T(A)) per graph for a stacked statistic."""
    enum = GraphEnumeration.get(n)
    return np.exp(statistic_matrix(enum, stats) @ np.asarray(tau, dtype=float))


# ---------------------------------------------------------------------------
# moment calibration
# ---------------------------------------------------------------------------

def logit_shift(logits, rate: float) -> float:
    """Shift b with mean(expit(logits + b)) = rate, for 0 < rate < 1.

    The mean increases in b, and every term is at most ``rate`` at
    logit(rate) - max(logits) and at least ``rate`` at logit(rate) -
    min(logits), so these bracket the root.  Newton on logit(mean) starts
    from logit(rate) - mean(logits), each evaluation moves one end of the
    bracket to b, a step leaving the bracket bisects it instead, and a step
    at the rounding level of logits + b ends the iteration.  Above rate 1/2
    it solves the complement, mean(expit(-logits - b)) = 1 - rate, whose
    mean resolves a small 1 - rate that a mean of terms near 1 cannot.
    """
    if rate > 0.5:
        return -logit_shift(-np.asarray(logits, dtype=float), 1.0 - rate)
    logits = np.asarray(logits, dtype=float)
    target = float(logit(rate))
    lo, hi = target - float(logits.max()), target - float(logits.min())
    peak = float(np.abs(logits).max())
    b = min(max(target - float(logits.mean()), lo), hi)
    while True:
        p = expit(logits + b)
        m = float(p.mean())
        lo, hi = (b, hi) if m < rate else (lo, b)
        # d logit(m) / db = mean(p(1-p)) / (m(1-m)); zero once every term saturates
        slope = float(np.mean(p * (1.0 - p)))
        new = b + (target - float(logit(m))) * m * (1.0 - m) / slope if slope > 0 else np.inf
        tol = 4.0 * np.finfo(float).eps * (peak + abs(b))
        if not (abs(new - b) <= tol or lo < new < hi):
            new = 0.5 * (lo + hi)
        if abs(new - b) <= tol:
            return new
        b = new


def _newton_calibrate(stat: np.ndarray, base_logits: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Solve E_{tau}[T] = target by Newton on the convex dual
    log Z(tau) - tau . target, summed exactly over all graphs from the
    baseline's unnormalized log probabilities ``base_logits``.

    Steps halve until the Armijo condition holds; iteration stops at
    residual sup-norm ``CALIBRATE_TOL`` and raises ``CalibrationFailure``
    after ``CALIBRATE_MAX_STEPS`` steps.
    """
    lo, hi = stat.min(axis=0), stat.max(axis=0)
    if np.any(target <= lo) or np.any(target >= hi):
        raise InfeasibleTarget(
            f"target {target} outside the open mean-parameter box ({lo}, {hi})")

    def dual(t):
        logw = base_logits + stat @ t
        log_z = logsumexp(logw)
        return float(log_z - t @ target), np.exp(logw - log_z)

    tau = np.zeros(stat.shape[1])
    obj, w = dual(tau)
    for _ in range(CALIBRATE_MAX_STEPS):
        mu = w @ stat
        grad = mu - target
        if np.linalg.norm(grad, np.inf) <= CALIBRATE_TOL:
            return tau
        centered = stat - mu
        cov = (centered * w[:, None]).T @ centered
        step = np.linalg.solve(cov + 1e-12 * np.eye(cov.shape[0]), grad)
        # the dual is only known to rounding; see fit_logistic_stack
        slack = 8.0 * np.finfo(float).eps * max(1.0, abs(obj))
        t = 1.0
        while True:
            cand_obj, cand_w = dual(tau - t * step)
            if cand_obj <= obj - CALIBRATE_ARMIJO * t * (grad @ step) + slack or t < 1e-12:
                break
            t *= 0.5
        tau, obj, w = tau - t * step, cand_obj, cand_w
    raise CalibrationFailure(f"Newton missed the target after {CALIBRATE_MAX_STEPS} steps")


def calibrate_moment(model, target, n: int | None = None):
    """KL-optimal entropic tilt hitting a moment target, returned as the
    shift in the family's own parameter.

    ER: ``target`` is the expected edge count; returns the float log-odds
    shift lambda for ``tilt_er``.  SBM: ``target`` is the expected edge
    count per unordered block pair; returns the symmetric (k, k) log-odds
    shift for ``tilt_sbm``, 0 on block pairs with no vertex pairs.  RDPG:
    ``target`` is the expected edge count; returns the float intercept
    shift for ``tilt_rdpg``, the ``logit_shift`` root on the exact mean map.
    Exponential-family specs (n <= 6): returns the stacked shift tau of
    theta, by Newton on the dual over the enumerated mean map.
    """
    if isinstance(model, ER):
        if n is None:
            raise AgentError("ER calibration needs the vertex count n")
        m_n = n * (n - 1) // 2
        if not 0.0 < target < m_n:
            raise InfeasibleTarget(f"edge target must lie in (0, {m_n})")
        return float(logit(target / m_n) - logit(model.p))

    if isinstance(model, SBM):
        c, b = model.assignment, model.matrix
        k = b.shape[0]
        sizes = np.bincount(c, minlength=k)
        # unordered pairs: n_a n_b across blocks, n_a (n_a - 1) / 2 within one
        counts = np.outer(sizes, sizes).astype(float)
        np.fill_diagonal(counts, sizes * (sizes - 1) / 2)
        target = np.asarray(target, dtype=float)
        lam = np.zeros((k, k))
        for a in range(k):
            for bb in range(a, k):
                if counts[a, bb] == 0:
                    continue
                frac = target[a, bb] / counts[a, bb]
                if not 0.0 < frac < 1.0:
                    raise InfeasibleTarget(f"block ({a},{bb}) target outside (0, {counts[a, bb]})")
                lam[a, bb] = lam[bb, a] = float(logit(frac) - logit(b[a, bb]))
        return lam

    if isinstance(model, RDPG):
        logits = model.dyad_logits(*np.triu_indices(model.n, k=1))
        m_n = logits.size
        if not 0.0 < target < m_n:
            raise InfeasibleTarget(f"edge target must lie in (0, {m_n})")
        return logit_shift(logits, target / m_n)

    if isinstance(model, ErgmSpec):
        enum = GraphEnumeration.get(model.n)
        stat = statistic_matrix(enum, model.stats)
        base_logits = stat @ model.theta
        return _newton_calibrate(stat, base_logits, np.asarray(target, dtype=float))

    raise AgentError(f"no calibration rule for {type(model).__name__}")
