"""Synthesis weights for edge-probability forecasts.

Fits the intercept-plus-agents linear model to dyad samples by plain least
squares, ridge, or exact simplex-constrained least squares, and exposes the
population-level L2 projection onto the agent span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphons import Graphon, gram_and_target, set_readonly

SINGULAR_EIG_TOL = 1e-12
SIMPLEX_MAX_AGENTS = 12


class SingularDesign(ValueError):
    """Gram matrix is numerically singular; ridge regularization applies."""


@dataclass(eq=False)
class DyadData:
    """Dyad samples for synthesis: features (1, p_1, ..., p_J), labels and
    row weights, for one sample or a batch of samples on shared rows.

    ``features`` is (m, J+1) with a leading all-ones column.  ``labels`` is
    (m,) for one sample or (R, m) for a batch of R samples, in [0, 1];
    ``weights`` has the labels' shape and holds row multiplicities,
    nonnegative integers with a positive total per sample, one per row when
    absent.  A row of weight w and label y stands for w dyads with those
    features, w * y of them edges, and a row of weight 0 for none.  Every
    fitter minimizes the same weighted objective, so it fits a count form
    and the rows it stands for alike, up to rounding.  Every fitter takes a
    batch in one call and returns one result per sample, each equal to the
    fit of that sample alone; 1-D data is a batch of one.
    """

    features: np.ndarray
    labels: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if (self.features.ndim != 2 or self.labels.ndim not in (1, 2)
                or self.labels.shape[-1] != self.features.shape[0]):
            raise ValueError("features must be (m, J+1) matching the labels")
        if not np.all(self.features[:, 0] == 1.0):
            raise ValueError("leading feature must be exactly 1")
        if self.weights is None:
            self.weights = np.ones(self.labels.shape)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != self.labels.shape:
            raise ValueError("weights must give one multiplicity per row")
        if not np.all((self.weights >= 0.0) & (self.weights == np.floor(self.weights))):
            raise ValueError("weights must be nonnegative integers")
        if not np.all(self.weights.sum(axis=-1) >= 1.0):
            raise ValueError("every sample needs a positive total weight")

    @property
    def m(self):
        """Number of dyads, the total weight: an int, or one per sample of a
        batch."""
        m = self.weights.sum(axis=-1).astype(np.int64)
        return int(m) if m.ndim == 0 else m

    @property
    def n_agents(self) -> int:
        return self.features.shape[1] - 1

    def batch(self):
        """(labels, weights) as (R, m) arrays; a view for 1-D data."""
        return np.atleast_2d(self.labels), np.atleast_2d(self.weights)


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Fitted synthesis coefficients with fit metadata: ``beta`` is (J+1,)
    with scalar diagnostics for one sample, (R, J+1) with (R,) diagnostics
    for a batch."""

    beta: np.ndarray = field(repr=False)
    condition_number: float | np.ndarray = float("nan")
    m_train: int | np.ndarray = 0
    kkt_residual: float | np.ndarray = 0.0

    def __post_init__(self):
        set_readonly(self, beta=self.beta)
        if not np.all(np.isfinite(self.beta)):
            raise ValueError("weight vector has non-finite entries")


def _raise_first(*checks) -> None:
    """Raise for the first sample of a batch that fails one of ``checks``,
    (bad, error, message) triples in the order a single sample meets them:
    ``error(message(r))`` of sample r's first failed check, with r as the
    error's ``replicate``, so that a caller can name the unit that failed."""
    failed = np.any([bad for bad, _, _ in checks], axis=0)
    if failed.any():
        r = int(np.argmax(failed))
        _, error, message = next(check for check in checks if check[0][r])
        exc = error(message(r))
        exc.replicate = r
        raise exc


def _weight_vector(data: DyadData, beta: np.ndarray, **diagnostics) -> WeightVector:
    """The WeightVector of (R, J+1) fitted ``beta`` and (R,) diagnostics;
    1-D data gets its sample's vector and scalars."""
    _raise_first((~np.all(np.isfinite(beta), axis=-1), ValueError,
                  lambda r: "weight vector has non-finite entries"))
    if data.labels.ndim == 1:
        beta = beta[0]
        diagnostics = {k: v[0].item() for k, v in diagnostics.items()}
    return WeightVector(beta=beta, **diagnostics)


def _weighted_gram(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k x_k x_k' per sample, as xs' xs with xs = sqrt(w) x, for
    (R, m) ``weights`` and rows ``x`` that are (m, d) or (R, m, d).  numpy
    computes a product of an array with its own transpose by a symmetric
    BLAS kernel, slice by slice, so for unit weights this is ``x.T @ x`` bit
    for bit; ``x.T @ (x * w)`` goes through the general product and differs
    in the last bits.  Unit weights skip the scaled copy, which on
    ``real``'s uniform-dyad designs (about 120k rows) would be the run's
    largest allocation."""
    xs = x if np.all(weights == 1.0) else x * np.sqrt(weights)[..., None]
    xs = np.broadcast_to(xs, weights.shape + x.shape[-1:])
    return xs.mT @ xs


def _normal_equations(data: DyadData):
    """The (R, d, d) scaled Gram matrices and (R, d) targets."""
    f = data.features
    labels, w = data.batch()
    total = w.sum(axis=-1)
    gram = _weighted_gram(f, w) / total[:, None, None]
    rhs = (f.T @ (w * labels)[..., None])[..., 0] / total[:, None]
    return gram, rhs


def fit_ls(data: DyadData) -> WeightVector:
    """Unconstrained least squares on the dyad samples: beta is (J+1,), or
    (R, J+1) for a batch.

    Raises ValueError below J+1 dyads and SingularDesign when the scaled
    Gram matrix has an eigenvalue below 1e-12; no silent ridge fallback.
    In a batch, the first failing sample raises, its index the error's
    ``replicate``.
    """
    m = np.atleast_1d(data.m)
    gram, rhs = _normal_equations(data)
    eigvals = np.linalg.eigvalsh(gram)
    scale = np.maximum(eigvals[:, -1], 1.0)
    _raise_first((m < data.features.shape[1], ValueError,
                  lambda r: "need at least J+1 samples for least squares"),
                 (eigvals[:, 0] < SINGULAR_EIG_TOL * scale, SingularDesign,
                  lambda r: f"minimum Gram eigenvalue {eigvals[r, 0]:.3e} below tolerance; "
                            "use fit_ridge"))
    beta = np.linalg.solve(gram, rhs[..., None])[..., 0]
    return _weight_vector(data, beta, condition_number=eigvals[:, -1] / eigvals[:, 0],
                          m_train=m)


def fit_ridge(data: DyadData, lambda_reg: float) -> WeightVector:
    """Least squares with an L2 penalty on the agent weights (not the
    intercept); lambda_reg = 0 reproduces plain LS on nonsingular designs.
    Shapes and failures follow ``fit_ls``."""
    if lambda_reg < 0:
        raise ValueError("ridge penalty must be nonnegative")
    m = np.atleast_1d(data.m)
    gram, rhs = _normal_equations(data)
    penalty = np.eye(gram.shape[-1]) * (lambda_reg / m)[:, None, None]
    penalty[:, 0, 0] = 0.0
    eigvals = np.linalg.eigvalsh(gram + penalty)
    _raise_first((eigvals[:, 0] <= 0, SingularDesign,
                  lambda r: "penalized Gram matrix not positive definite"))
    beta = np.linalg.solve(gram + penalty, rhs[..., None])[..., 0]
    return _weight_vector(data, beta, condition_number=eigvals[:, -1] / eigvals[:, 0],
                          m_train=m)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based), of a
    vector or of each row of a matrix."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    idx = np.arange(1, v.shape[-1] + 1)
    cond = u - css / idx > 0
    # the last index where cond holds; it holds at the first
    rho = v.shape[-1] - np.argmax(cond[..., ::-1], axis=-1)
    tau = np.take_along_axis(css, rho[..., None] - 1, axis=-1) / rho[..., None]
    return np.maximum(v - tau, 0.0)


def fit_simplex(data: DyadData) -> WeightVector:
    """Simplex-constrained least squares, solved exactly.

    With the intercept free, the centred fit is the convex QP
    min b'Hb - 2c'b over the simplex, whose minimum is the equality-
    constrained one on some face.  Every support S solves
    [[H_SS, 1], [1', 0]] [b_S; nu] = [c_S; 1], and the candidate with
    b_S >= 0 and the lowest objective wins, the first support in mask order
    on ties.  The 2^J - 1 systems of every sample are stacked as
    (J+1) x (J+1) matrices whose off-support coordinates are pinned to 0 by
    identity rows and solved in one batch; exactly singular ones (an LU
    pivot of 0, ``slogdet`` sign 0) are skipped.  The work grows as 2^J, so
    J is capped at ``SIMPLEX_MAX_AGENTS``.
    """
    j = data.n_agents
    if not 1 <= j <= SIMPLEX_MAX_AGENTS:
        raise ValueError(f"simplex fit needs 1 to {SIMPLEX_MAX_AGENTS} agents, got {j}")
    labels, w = data.batch()
    total = w.sum(axis=-1)
    p_mean = np.sum(data.features[:, 1:] * w[..., None], axis=-2) / total[:, None]
    y_mean = np.sum(w * labels, axis=-1) / total
    pc = data.features[:, 1:] - p_mean[:, None, :]
    hess = _weighted_gram(pc, w) / total[:, None, None]
    lin = (pc.mT @ (w * (labels - y_mean[:, None]))[..., None])[..., 0] / total[:, None]
    # one row per support, in mask order; bit k of the mask is agent k
    on = (np.arange(1, 2 ** j)[:, None] >> np.arange(j) & 1).astype(bool)
    kkt = np.zeros((w.shape[0], on.shape[0], j + 1, j + 1))
    kkt[..., :j, :j] = np.where(on[:, :, None] & on[:, None, :], hess[:, None], 0.0)
    kkt[..., np.arange(j), np.arange(j)] += ~on
    kkt[..., :j, j] = kkt[..., j, :j] = on
    rhs = np.ones(kkt.shape[:-1])
    rhs[..., :j] = np.where(on, lin[:, None], 0.0)
    solvable = np.linalg.slogdet(kkt)[0] != 0
    sol = np.full(rhs.shape, np.nan)
    sol[solvable] = np.linalg.solve(kkt[solvable], rhs[solvable][..., None])[..., 0]
    cand = np.where(on, sol[..., :j], 0.0)
    obj = (np.einsum("rsi,rij,rsj->rs", cand, hess, cand)
           - 2.0 * (cand @ lin[..., None])[..., 0])
    feasible = solvable & np.all(cand >= 0.0, axis=-1) & (obj < np.inf)
    rows = np.arange(w.shape[0])
    b = cand[rows, np.argmin(np.where(feasible, obj, np.inf), axis=-1)]
    grad = 2.0 * ((hess @ b[..., None])[..., 0] - lin)
    # KKT: the projected gradient step is a fixed point
    gap = project_simplex(b - grad) - b
    beta = np.column_stack([y_mean - np.vecdot(p_mean, b), b])
    return _weight_vector(data, beta, m_train=np.atleast_1d(data.m),
                          kkt_residual=np.sqrt(np.vecdot(gap, gap)))


def predict_clipped(weights: WeightVector | np.ndarray, features: np.ndarray) -> np.ndarray:
    """Clipped linear prediction: (beta . F) clamped into [0,1].  A batch of
    R weight vectors predicts (R, ...) values."""
    beta = weights.beta if isinstance(weights, WeightVector) else np.asarray(weights, dtype=float)
    features = np.asarray(features, dtype=float)
    lead = features[..., 0]
    if not np.all(lead == 1.0):
        raise ValueError("feature vectors must lead with the constant 1")
    return np.clip((features @ beta[..., None])[..., 0], 0.0, 1.0)


def population_projection(w_star: Graphon, agents) -> WeightVector:
    """L2 projection of the true kernel onto span{1, w_1, ..., w_J}.

    Solves the population normal equations beta = G^{-1} c; the residual is
    orthogonal to the span up to quadrature tolerance.
    """
    gram, target = gram_and_target(list(agents), w_star)
    eigvals = np.linalg.eigvalsh(gram)
    if eigvals[0] < SINGULAR_EIG_TOL * max(eigvals[-1], 1.0):
        raise SingularDesign("agent graphons plus constant are linearly dependent")
    beta = np.linalg.solve(gram, target)
    return WeightVector(beta=beta, condition_number=float(eigvals[-1] / eigvals[0]))


def l2_risk(beta, beta_star, gram) -> float:
    """Quadratic-form L2 risk (beta - beta*)' G (beta - beta*)."""
    beta = beta.beta if isinstance(beta, WeightVector) else np.asarray(beta, dtype=float)
    beta_star = beta_star.beta if isinstance(beta_star, WeightVector) else np.asarray(beta_star, dtype=float)
    gram = np.asarray(gram, dtype=float)
    if beta.shape != beta_star.shape or gram.shape != (beta.size, beta.size):
        raise ValueError("risk inputs have mismatched dimensions")
    diff = beta - beta_star
    return float(diff @ gram @ diff)
