"""Synthesis weights for edge-probability forecasts.

Fits the intercept-plus-agents linear model to dyad samples by plain least
squares, ridge, or exact simplex-constrained least squares, and exposes the
population-level L2 projection onto the agent span.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .graphons import DEFAULT_QUAD, Graphon, LinearCombo, QuadratureSpec, gram_and_target

SINGULAR_EIG_TOL = 1e-12
SIMPLEX_MAX_AGENTS = 12


class SingularDesign(ValueError):
    """Gram matrix is numerically singular; ridge regularization applies."""


@dataclass
class DyadData:
    """Dyad samples for synthesis: features (1, p_1, ..., p_J) and labels.

    ``features`` is (m, J+1) with a leading all-ones column; ``labels`` is
    a 0/1 vector; ``dyads`` optionally records (i, j) ids with i < j.
    """

    features: np.ndarray
    labels: np.ndarray
    dyads: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.size:
            raise ValueError("features must be (m, J+1) matching the labels")
        if not np.all(self.features[:, 0] == 1.0):
            raise ValueError("leading feature must be exactly 1")

    @property
    def m(self) -> int:
        return self.labels.size

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

    def to_json(self) -> str:
        return json.dumps({
            "method": self.method,
            "beta": self.beta.tolist(),
            "lambda_reg": self.lambda_reg,
            "condition_number": self.condition_number,
            "m_train": self.m_train,
            "kkt_residual": self.kkt_residual,
        })

    @staticmethod
    def from_json(text: str) -> "WeightVector":
        d = json.loads(text)
        return WeightVector(beta=np.asarray(d["beta"], dtype=float), method=d["method"],
                            lambda_reg=d.get("lambda_reg", 0.0),
                            condition_number=d.get("condition_number", float("nan")),
                            m_train=d.get("m_train", 0),
                            kkt_residual=d.get("kkt_residual", 0.0))


def _normal_equations(data: DyadData):
    f = data.features
    gram = f.T @ f / data.m
    rhs = f.T @ data.labels / data.m
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
    [[H_SS, 1], [1', 0]] [b_S; nu] = [c_S; 1], singular systems are skipped,
    and the candidate with b_S >= 0 and the lowest objective wins: 2^J - 1
    small solves, so J is capped at ``SIMPLEX_MAX_AGENTS``.
    """
    j = data.n_agents
    if not 1 <= j <= SIMPLEX_MAX_AGENTS:
        raise ValueError(f"simplex fit needs 1 to {SIMPLEX_MAX_AGENTS} agents, got {j}")
    p_mean, y_mean = data.features[:, 1:].mean(axis=0), data.labels.mean()
    pc = data.features[:, 1:] - p_mean
    hess, lin = pc.T @ pc / data.m, pc.T @ (data.labels - y_mean) / data.m
    b, best = None, np.inf
    for mask in range(1, 2 ** j):
        s = np.flatnonzero(mask >> np.arange(j) & 1)
        kkt = np.pad(hess[np.ix_(s, s)], (0, 1), constant_values=1.0)
        kkt[-1, -1] = 0.0
        try:
            sol = np.linalg.solve(kkt, np.append(lin[s], 1.0))[:-1]
        except np.linalg.LinAlgError:
            continue
        cand = np.zeros(j)
        cand[s] = sol
        obj = cand @ hess @ cand - 2.0 * lin @ cand
        if np.all(sol >= 0.0) and obj < best:
            b, best = cand, obj
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


def population_projection(w_star: Graphon, agents, quad: QuadratureSpec = DEFAULT_QUAD,
                          return_gram: bool = False):
    """L2 projection of the true kernel onto span{1, w_1, ..., w_J}.

    Solves the population normal equations beta = G^{-1} c; the residual is
    orthogonal to the span up to quadrature tolerance.
    """
    gram, target = gram_and_target(list(agents), w_star, quad)
    eigvals = scipy.linalg.eigvalsh(gram)
    if eigvals[0] < SINGULAR_EIG_TOL * max(eigvals[-1], 1.0):
        raise SingularDesign("agent graphons plus constant are linearly dependent")
    beta = scipy.linalg.solve(gram, target, assume_a="pos")
    wv = WeightVector(beta=beta, method="LS",
                      condition_number=float(eigvals[-1] / eigvals[0]))
    return (wv, gram, target) if return_gram else wv


def combo_graphon(weights: WeightVector | np.ndarray, agents, clipped: bool = False) -> LinearCombo:
    """Linear-combination graphon for a fitted weight vector."""
    beta = weights.beta if isinstance(weights, WeightVector) else np.asarray(weights, dtype=float)
    return LinearCombo.make(beta, list(agents), clipped=clipped)


def l2_risk(beta, beta_star, gram) -> float:
    """Quadratic-form L2 risk (beta - beta*)' G (beta - beta*)."""
    beta = beta.beta if isinstance(beta, WeightVector) else np.asarray(beta, dtype=float)
    beta_star = beta_star.beta if isinstance(beta_star, WeightVector) else np.asarray(beta_star, dtype=float)
    gram = np.asarray(gram, dtype=float)
    if beta.shape != beta_star.shape or gram.shape != (beta.size, beta.size):
        raise ValueError("risk inputs have mismatched dimensions")
    diff = beta - beta_star
    return float(diff @ gram @ diff)
