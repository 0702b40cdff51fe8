"""Synthesis weights for edge-probability forecasts.

Fits the intercept-plus-agents linear model to dyad samples by plain least
squares, ridge, or exact simplex-constrained least squares, and exposes the
population-level L2 projection onto the agent span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .graphons import Graphon, gram_and_target

SINGULAR_EIG_TOL = 1e-12
SIMPLEX_MAX_AGENTS = 12


class SingularDesign(ValueError):
    """Gram matrix is numerically singular; ridge regularization applies."""


@dataclass
class DyadData:
    """Dyad samples for synthesis: features (1, p_1, ..., p_J), labels and
    row weights.

    ``features`` is (m, J+1) with a leading all-ones column; ``labels`` is
    a vector in [0, 1].  ``weights`` are row multiplicities, positive
    integers, one per row when absent: a row of weight w and label y stands
    for w dyads with those features, w * y of them edges.  Every fitter
    minimizes the same weighted objective, so it fits a count form and the
    rows it stands for alike, up to rounding.
    """

    features: np.ndarray
    labels: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.size:
            raise ValueError("features must be (m, J+1) matching the labels")
        if not np.all(self.features[:, 0] == 1.0):
            raise ValueError("leading feature must be exactly 1")
        if self.weights is None:
            self.weights = np.ones(self.labels.size)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != self.labels.shape:
            raise ValueError("weights must give one multiplicity per row")
        if not np.all((self.weights >= 1.0) & (self.weights == np.floor(self.weights))):
            raise ValueError("weights must be positive integers")

    @property
    def m(self) -> int:
        """Number of dyads: the total weight."""
        return int(self.weights.sum())

    @property
    def n_agents(self) -> int:
        return self.features.shape[1] - 1


@dataclass(frozen=True)
class WeightVector:
    """Fitted synthesis coefficients with fit metadata."""

    beta: np.ndarray = field(repr=False)
    method: str = "LS"
    lambda_reg: float = 0.0
    condition_number: float = float("nan")
    m_train: int = 0
    kkt_residual: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if not np.all(np.isfinite(self.beta)):
            raise ValueError("weight vector has non-finite entries")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.beta))


def _weighted_gram(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k x_k x_k' as xs' xs with xs = sqrt(w) x.  numpy computes a
    product of an array with its own transpose by a symmetric BLAS kernel,
    so for unit weights this is ``x.T @ x`` bit for bit; ``x.T @ (x * w)``
    goes through the general product and differs in the last bits.  Unit
    weights skip the scaled copy, which on ``real``'s uniform-dyad designs
    (about 120k rows) would be the run's largest allocation."""
    xs = x if np.all(weights == 1.0) else x * np.sqrt(weights)[:, None]
    return xs.T @ xs


def _normal_equations(data: DyadData):
    f, w = data.features, data.weights
    total = w.sum()
    gram = _weighted_gram(f, w) / total
    rhs = f.T @ (w * data.labels) / total
    return gram, rhs


def fit_ls(data: DyadData) -> WeightVector:
    """Unconstrained least squares on the dyad samples.

    Raises SingularDesign when the scaled Gram matrix has an eigenvalue
    below 1e-12; no silent ridge fallback.
    """
    if data.m < data.features.shape[1]:
        raise ValueError("need at least J+1 samples for least squares")
    gram, rhs = _normal_equations(data)
    eigvals = scipy.linalg.eigvalsh(gram)
    scale = max(eigvals[-1], 1.0)
    if eigvals[0] < SINGULAR_EIG_TOL * scale:
        raise SingularDesign(
            f"minimum Gram eigenvalue {eigvals[0]:.3e} below tolerance; use fit_ridge")
    beta = scipy.linalg.solve(gram, rhs, assume_a="pos")
    return WeightVector(beta=beta, method="LS",
                        condition_number=float(eigvals[-1] / eigvals[0]),
                        m_train=data.m)


def fit_ridge(data: DyadData, lambda_reg: float) -> WeightVector:
    """Least squares with an L2 penalty on the agent weights (not the
    intercept); lambda_reg = 0 reproduces plain LS on nonsingular designs."""
    if lambda_reg < 0:
        raise ValueError("ridge penalty must be nonnegative")
    gram, rhs = _normal_equations(data)
    penalty = np.eye(gram.shape[0]) * (lambda_reg / data.m)
    penalty[0, 0] = 0.0
    eigvals = scipy.linalg.eigvalsh(gram + penalty)
    if eigvals[0] <= 0:
        raise SingularDesign("penalized Gram matrix not positive definite")
    beta = scipy.linalg.solve(gram + penalty, rhs, assume_a="pos")
    return WeightVector(beta=beta, method="Ridge", lambda_reg=lambda_reg,
                        condition_number=float(eigvals[-1] / eigvals[0]),
                        m_train=data.m)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def fit_simplex(data: DyadData) -> WeightVector:
    """Simplex-constrained least squares, solved exactly.

    With the intercept free, the centred fit is the convex QP
    min b'Hb - 2c'b over the simplex, whose minimum is the equality-
    constrained one on some face.  Every support S solves
    [[H_SS, 1], [1', 0]] [b_S; nu] = [c_S; 1], and the candidate with
    b_S >= 0 and the lowest objective wins, the first support in mask order
    on ties.  The 2^J - 1 systems are stacked as (J+1) x (J+1) matrices
    whose off-support coordinates are pinned to 0 by identity rows and
    solved in one batch; exactly singular ones (an LU pivot of 0,
    ``slogdet`` sign 0) are skipped.  The work grows as 2^J, so J is capped
    at ``SIMPLEX_MAX_AGENTS``.
    """
    j = data.n_agents
    if not 1 <= j <= SIMPLEX_MAX_AGENTS:
        raise ValueError(f"simplex fit needs 1 to {SIMPLEX_MAX_AGENTS} agents, got {j}")
    w = data.weights
    total = w.sum()
    p_mean = np.sum(data.features[:, 1:] * w[:, None], axis=0) / total
    y_mean = np.sum(w * data.labels) / total
    pc = data.features[:, 1:] - p_mean
    hess, lin = _weighted_gram(pc, w) / total, pc.T @ (w * (data.labels - y_mean)) / total
    # one row per support, in mask order; bit k of the mask is agent k
    on = (np.arange(1, 2 ** j)[:, None] >> np.arange(j) & 1).astype(bool)
    kkt = np.zeros((on.shape[0], j + 1, j + 1))
    kkt[:, :j, :j] = np.where(on[:, :, None] & on[:, None, :], hess, 0.0)
    kkt[:, np.arange(j), np.arange(j)] += ~on
    kkt[:, :j, j] = kkt[:, j, :j] = on
    rhs = np.column_stack([np.where(on, lin, 0.0), np.ones(on.shape[0])])
    solvable = np.linalg.slogdet(kkt)[0] != 0
    on = on[solvable]
    sol = np.linalg.solve(kkt[solvable], rhs[solvable, :, None])[:, :j, 0]
    cand = np.where(on, sol, 0.0)
    obj = np.einsum("si,ij,sj->s", cand, hess, cand) - 2.0 * cand @ lin
    feasible = np.flatnonzero(np.all(cand >= 0.0, axis=1) & (obj < np.inf))
    b = cand[feasible[np.argmin(obj[feasible])]]
    grad = 2.0 * (hess @ b - lin)
    # KKT: the projected gradient step is a fixed point
    residual = float(np.linalg.norm(project_simplex(b - grad) - b))
    beta = np.concatenate([[y_mean - p_mean @ b], b])
    return WeightVector(beta=beta, method="Simplex", m_train=data.m, kkt_residual=residual)


def predict_clipped(weights: WeightVector | np.ndarray, features: np.ndarray) -> np.ndarray:
    """Clipped linear prediction: (beta . F) clamped into [0,1]."""
    beta = weights.beta if isinstance(weights, WeightVector) else np.asarray(weights, dtype=float)
    features = np.asarray(features, dtype=float)
    lead = features[..., 0]
    if not np.all(lead == 1.0):
        raise ValueError("feature vectors must lead with the constant 1")
    return np.clip(features @ beta, 0.0, 1.0)


def population_projection(w_star: Graphon, agents, return_gram: bool = False):
    """L2 projection of the true kernel onto span{1, w_1, ..., w_J}.

    Solves the population normal equations beta = G^{-1} c; the residual is
    orthogonal to the span up to quadrature tolerance.
    """
    gram, target = gram_and_target(list(agents), w_star)
    eigvals = scipy.linalg.eigvalsh(gram)
    if eigvals[0] < SINGULAR_EIG_TOL * max(eigvals[-1], 1.0):
        raise SingularDesign("agent graphons plus constant are linearly dependent")
    beta = scipy.linalg.solve(gram, target, assume_a="pos")
    wv = WeightVector(beta=beta, method="LS",
                      condition_number=float(eigvals[-1] / eigvals[0]))
    return (wv, gram, target) if return_gram else wv


def l2_risk(beta, beta_star, gram) -> float:
    """Quadratic-form L2 risk (beta - beta*)' G (beta - beta*)."""
    beta = beta.beta if isinstance(beta, WeightVector) else np.asarray(beta, dtype=float)
    beta_star = beta_star.beta if isinstance(beta_star, WeightVector) else np.asarray(beta_star, dtype=float)
    gram = np.asarray(gram, dtype=float)
    if beta.shape != beta_star.shape or gram.shape != (beta.size, beta.size):
        raise ValueError("risk inputs have mismatched dimensions")
    diff = beta - beta_star
    return float(diff @ gram @ diff)
