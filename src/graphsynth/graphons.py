"""Graphon kernels, L2 geometry, structural functionals, and spectral radii.

A graphon is a symmetric measurable kernel w : [0,1]^2 -> [0,1].  Every kind
is piecewise constant in its latent coordinate and defines its kernel once,
as its exact ``Block`` form (``block``, built on first use and kept);
``evaluate`` reads it.  Pairwise L2 quantities, structural functionals and
the spectral radius are therefore exact block computations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .logistic import expit


class GraphonError(ValueError):
    pass


def set_readonly(obj, dtype=float, **fields) -> None:
    """Set each of ``fields`` on the frozen dataclass ``obj`` to a read-only
    ``dtype`` copy of its value; an array the caller passed keeps its flags."""
    for name, value in fields.items():
        arr = np.array(value, dtype=dtype)
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


# ---------------------------------------------------------------------------
# step maps (piecewise-constant functions on [0,1])
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StepMap:
    """Piecewise-constant map [0,1] -> R^d given by breakpoints and values.

    ``boundaries`` has K+1 strictly increasing entries starting at 0 and
    ending at 1; ``values`` has K rows (scalar values allowed for d=1).
    """

    boundaries: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        set_readonly(self, boundaries=self.boundaries, values=self.values)
        b = self.boundaries
        if b.ndim != 1 or b.size < 2:
            raise GraphonError("boundaries must be a 1-d sequence of length >= 2")
        if b[0] != 0.0 or b[-1] != 1.0:
            raise GraphonError("boundaries must start at 0 and end at 1")
        if np.any(np.diff(b) <= 0):
            raise GraphonError("boundaries must be strictly increasing")
        if len(self.values) != b.size - 1:
            raise GraphonError("need exactly one value per interval")

    @property
    def k(self) -> int:
        return len(self.values)


def uniform_step_map(values) -> StepMap:
    """StepMap with equal-measure pieces."""
    return StepMap(np.linspace(0.0, 1.0, len(values) + 1), values)


# ---------------------------------------------------------------------------
# graphon kinds
# ---------------------------------------------------------------------------

class Graphon(ABC):
    """Base class.  Every kind defines ``block``, its exact ``Block`` form,
    and inherits ``evaluate``, which reads it; a subclass without ``block``
    cannot be constructed."""

    @property
    @abstractmethod
    def block(self) -> Block:
        ...

    def evaluate(self, x, y):
        return self.block.evaluate(x, y)

    def __call__(self, x, y):
        return self.evaluate(x, y)


@dataclass(frozen=True)
class Constant(Graphon):
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise GraphonError(f"constant level {self.p} outside [0,1]")

    @cached_property
    def block(self) -> Block:
        return Block([0.0, 1.0], [[self.p]])


@dataclass(frozen=True, eq=False)
class Block(Graphon):
    """Piecewise-constant graphon: K blocks with symmetric rate matrix."""

    boundaries: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        set_readonly(self, boundaries=self.boundaries, matrix=self.matrix)
        b, m = self.boundaries, self.matrix
        if b[0] != 0.0 or b[-1] != 1.0 or np.any(np.diff(b) <= 0):
            raise GraphonError("block boundaries must increase strictly from 0 to 1")
        k = b.size - 1
        if m.shape != (k, k):
            raise GraphonError(f"rate matrix must be {k}x{k}")
        if not np.allclose(m, m.T, atol=0.0):
            raise GraphonError("rate matrix must be symmetric")
        if np.any(m < 0.0) or np.any(m > 1.0):
            raise GraphonError("block rates must lie in [0,1]")

    # the constructor under its former name, for perfbench/workloads.py
    @staticmethod
    def from_arrays(boundaries, matrix) -> "Block":
        return Block(boundaries, matrix)

    @property
    def block(self) -> Block:
        return self

    def measures(self) -> np.ndarray:
        return np.diff(self.boundaries)

    def piece_index(self, x) -> np.ndarray:
        return np.searchsorted(self.boundaries[1:-1], np.asarray(x, dtype=float), side="right")

    def evaluate(self, x, y):
        return self.matrix[self.piece_index(x), self.piece_index(y)]


@dataclass(frozen=True)
class LogisticLowRank(Graphon):
    """w(x,y) = sigmoid(z(x).z(y) + intercept) with piecewise-constant z."""

    latent: StepMap
    intercept: float = 0.0

    @cached_property
    def block(self) -> Block:
        # (K, d) latent values, d = 1 for scalars; np.sum, not z @ z.T, so
        # each rate is bit for bit sigmoid(sum_k z_k(x) z_k(y) + intercept)
        z = self.latent.values.reshape(self.latent.k, -1)
        mat = expit(np.sum(z[:, None, :] * z[None, :, :], axis=-1) + self.intercept)
        return Block(self.latent.boundaries, mat)


@dataclass(frozen=True)
class ProductWeight(Graphon):
    """w(x,y) = min(theta(x) * theta(y), 1) with piecewise-constant theta >= 0."""

    weights: StepMap

    def __post_init__(self):
        if np.any(self.weights.values < 0.0):
            raise GraphonError("product weights must be nonnegative")

    @cached_property
    def block(self) -> Block:
        th = self.weights.values
        return Block(self.weights.boundaries, np.minimum(np.outer(th, th), 1.0))


@dataclass(frozen=True, eq=False)
class LinearCombo(Graphon):
    """beta0 + sum_j beta_j * parts[j], unclipped: a combination may leave
    [0,1]."""

    beta: np.ndarray
    parts: tuple

    def __post_init__(self):
        set_readonly(self, beta=self.beta)
        object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.beta) != len(self.parts) + 1:
            raise GraphonError("beta must have one intercept plus one weight per part")

    @cached_property
    def block(self) -> Block:
        bounds, mats = _refine([p.block for p in self.parts])
        mat = np.full((bounds.size - 1,) * 2, self.beta[0])
        for b_j, m in zip(self.beta[1:], mats):
            mat += b_j * m
        # bypass Block's [0,1] validation, which a combination may fail
        blk = object.__new__(Block)
        set_readonly(blk, boundaries=bounds, matrix=mat)
        return blk


# ---------------------------------------------------------------------------
# block reduction
# ---------------------------------------------------------------------------

def _refine(blocks):
    """Merged breakpoints of ``blocks`` and each block's matrix on them.

    Every breakpoint is kept, however close to another, and each merged
    piece looks up its left end.  Pieces are closed on the left, so a merged
    piece lies inside one piece of every block and the refined matrices
    take the blocks' values at every point.
    """
    bounds = np.unique(np.concatenate([b.boundaries for b in blocks] or [[0.0, 1.0]]))
    mats = []
    for b in blocks:
        i = b.piece_index(bounds[:-1])
        mats.append(b.matrix[np.ix_(i, i)])
    return bounds, mats


def common_refinement(*graphons: Graphon):
    """Block matrices of every graphon on one shared partition.

    Returns (measures, [M_1, M_2, ...]), the matrices in argument order.
    """
    bounds, mats = _refine([w.block for w in graphons])
    return np.diff(bounds), mats


# ---------------------------------------------------------------------------
# L2 geometry
# ---------------------------------------------------------------------------

def l2_inner(w: Graphon, w2: Graphon) -> float:
    """L2 inner product <w, w2> over the unit square."""
    mu, (m1, m2) = common_refinement(w, w2)
    return float(mu @ (m1 * m2) @ mu)


def l2_distance(w: Graphon, w2: Graphon) -> float:
    """||w - w2||_2 over the unit square."""
    mu, (m1, m2) = common_refinement(w, w2)
    return float(np.sqrt(mu @ (m1 - m2) ** 2 @ mu))


def gram_and_target(features, w_star: Graphon):
    """Gram matrix and target vector of (1, w_1, ..., w_J) against w_star.

    The constant function is prepended internally, so G is (J+1)x(J+1) and
    symmetric positive semidefinite.
    """
    if not features:
        raise GraphonError("need at least one feature graphon")
    basis = [Constant(1.0)] + list(features)
    d = len(basis)
    gram = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            gram[i, j] = gram[j, i] = l2_inner(basis[i], basis[j])
    target = np.array([l2_inner(b, w_star) for b in basis])
    return gram, target


# ---------------------------------------------------------------------------
# structural functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FunctionalSet:
    """Edge, triangle, wedge and clustering summaries."""

    edge: float
    triangle: float
    wedge: float
    clustering: float


def functionals(w: Graphon) -> FunctionalSet:
    """Edge density e, triangle density t, wedge density s, clustering t/s.

    e is the double integral of w, d_w the row integral, s the integral of
    d_w^2, and t the triple integral of w(x,y)w(y,z)w(x,z).  Clustering is 0
    when s = 0.
    """
    blk = w.block
    mu = blk.measures()
    mat = blk.matrix
    deg = mat @ mu
    e = float(mu @ deg)
    s = float(mu @ deg ** 2)
    t = float(np.einsum("a,b,c,ab,bc,ac->", mu, mu, mu, mat, mat, mat))
    clustering = t / s if s > 0 else 0.0
    return FunctionalSet(edge=e, triangle=t, wedge=s, clustering=clustering)


@dataclass(frozen=True)
class LipschitzBudget:
    """Functional error bounds implied by an L2 distance of ``delta``."""

    delta: float
    s0: float
    edge_bound: float
    degree_bound: float
    triangle_bound: float
    wedge_bound: float
    clustering_bound: float


def lipschitz_budget(delta: float, s0: float) -> LipschitzBudget:
    """Transfer an L2 graphon error into functional error bounds.

    Edge density and the degree function are 1-Lipschitz, triangles are
    3-Lipschitz, wedges 2-Lipschitz, and clustering obeys the
    (3/s0 + 2/s0^2) bound on the region where the wedge density stays
    above s0.
    """
    if delta < 0:
        raise GraphonError("delta must be nonnegative")
    if s0 <= 0:
        raise GraphonError("clustering bound needs a positive wedge floor s0")
    return LipschitzBudget(
        delta=delta,
        s0=s0,
        edge_bound=delta,
        degree_bound=delta,
        triangle_bound=3.0 * delta,
        wedge_bound=2.0 * delta,
        clustering_bound=(3.0 / s0 + 2.0 / s0 ** 2) * delta,
    )


# ---------------------------------------------------------------------------
# integral-operator spectral radius
# ---------------------------------------------------------------------------

def spectral_radius(w: Graphon) -> float:
    """Spectral radius of the integral operator f -> int w(x,.)f.

    On a block form (piece measures mu, rates M) the nonzero spectrum is
    that of diag(sqrt mu) M diag(sqrt mu), so the radius is its largest
    |eigenvalue| (Bollobas, Janson & Riordan 2007).
    """
    blk = w.block
    root = np.sqrt(blk.measures())
    mat = root[:, None] * blk.matrix * root[None, :]
    return float(np.abs(np.linalg.eigvalsh(mat)).max())


def spectral_bracket(beta, parts):
    """Agent-level bracket for the spectral radius of a nonnegative combo.

    For w = beta0 + sum_j beta_j w_j with beta_j >= 0,
    max_j beta_j rho_j <= rho <= sum_j beta_j rho_j, where the intercept
    contributes through the constant-1 kernel (rho = 1).

    Returns (lower, upper, rho_combo).
    """
    beta = np.asarray(beta, dtype=float)
    if beta.size != len(parts) + 1:
        raise GraphonError("beta must carry an intercept plus one weight per part")
    if np.any(beta < 0):
        raise GraphonError("spectral bracket requires nonnegative coefficients")
    rhos = np.array([1.0] + [spectral_radius(p) for p in parts])
    terms = beta * rhos
    rho_combo = spectral_radius(LinearCombo(beta, parts))
    return float(terms.max()), float(terms.sum()), rho_combo
