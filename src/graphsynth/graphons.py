"""Graphon kernels, L2 geometry, structural functionals, and spectral radii.

A graphon is a symmetric measurable kernel w : [0,1]^2 -> [0,1].  Every kind
implemented here is piecewise constant in its latent coordinate and reduces
exactly to a ``Block`` (``as_block``), so pairwise L2 quantities, structural
functionals and the spectral radius are exact block computations.  A
midpoint-rule quadrature path runs only for graphons without a block form
(user subclasses of ``Graphon``); the kind decides, and no option selects it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit


class GraphonError(ValueError):
    pass


# ---------------------------------------------------------------------------
# step maps (piecewise-constant functions on [0,1])
# ---------------------------------------------------------------------------

class _Pieces:
    """Lookups shared by kinds defined by breakpoints ``boundaries``."""

    def measures(self) -> np.ndarray:
        return np.diff(np.asarray(self.boundaries, dtype=float))

    def piece_index(self, x) -> np.ndarray:
        b = np.asarray(self.boundaries, dtype=float)
        return np.searchsorted(b[1:-1], np.asarray(x, dtype=float), side="right")


@dataclass(frozen=True)
class StepMap(_Pieces):
    """Piecewise-constant map [0,1] -> R^d given by breakpoints and values.

    ``boundaries`` has K+1 strictly increasing entries starting at 0 and
    ending at 1; ``values`` has K rows (scalar values allowed for d=1).
    """

    boundaries: tuple
    values: tuple

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
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

    def __call__(self, x):
        vals = np.asarray(self.values, dtype=float)
        return vals[self.piece_index(x)]


def uniform_step_map(values) -> StepMap:
    """StepMap with equal-measure pieces."""
    values = (tuple(map(tuple, np.asarray(values).tolist())) if np.ndim(values) > 1
              else tuple(values))
    k = len(values)
    bounds = tuple(np.linspace(0.0, 1.0, k + 1).tolist())
    return StepMap(bounds, values)


# ---------------------------------------------------------------------------
# graphon kinds
# ---------------------------------------------------------------------------

class Graphon:
    """Base class; subclasses implement vectorized ``evaluate``."""

    def evaluate(self, x, y):
        raise NotImplementedError

    def __call__(self, x, y):
        return self.evaluate(x, y)

    @property
    def bounded_unit(self) -> bool:
        """True when values are guaranteed to lie in [0,1]."""
        return True


@dataclass(frozen=True)
class Constant(Graphon):
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise GraphonError(f"constant level {self.p} outside [0,1]")

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.float64(self.p), np.broadcast(x, y).shape).copy()


@dataclass(frozen=True)
class Block(_Pieces, Graphon):
    """Piecewise-constant graphon: K blocks with symmetric rate matrix."""

    boundaries: tuple
    matrix: tuple

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        if b[0] != 0.0 or b[-1] != 1.0 or np.any(np.diff(b) <= 0):
            raise GraphonError("block boundaries must increase strictly from 0 to 1")
        m = np.asarray(self.matrix, dtype=float)
        k = b.size - 1
        if m.shape != (k, k):
            raise GraphonError(f"rate matrix must be {k}x{k}")
        if not np.allclose(m, m.T, atol=0.0):
            raise GraphonError("rate matrix must be symmetric")
        if np.any(m < 0.0) or np.any(m > 1.0):
            raise GraphonError("block rates must lie in [0,1]")

    @staticmethod
    def from_arrays(boundaries, matrix) -> "Block":
        return Block(tuple(np.asarray(boundaries, dtype=float).tolist()),
                     tuple(map(tuple, np.asarray(matrix, dtype=float))))

    @property
    def k(self) -> int:
        return len(self.matrix)

    def evaluate(self, x, y):
        m = np.asarray(self.matrix, dtype=float)
        return m[self.piece_index(x), self.piece_index(y)]


@dataclass(frozen=True)
class LogisticLowRank(Graphon):
    """w(x,y) = sigmoid(z(x).z(y) + intercept) with piecewise-constant z."""

    latent: StepMap
    intercept: float = 0.0

    def _positions(self) -> np.ndarray:
        """Latent values as a (K, d) array; scalar values mean d = 1."""
        return np.asarray(self.latent.values, dtype=float).reshape(self.latent.k, -1)

    def evaluate(self, x, y):
        z = self._positions()
        dots = np.sum(z[self.latent.piece_index(x)] * z[self.latent.piece_index(y)], axis=-1)
        out = expit(dots + self.intercept)
        if np.isscalar(x) and np.isscalar(y):
            return float(out.reshape(-1)[0])
        return out


@dataclass(frozen=True)
class ProductWeight(Graphon):
    """w(x,y) = min(theta(x) * theta(y), 1) with piecewise-constant theta >= 0."""

    weights: StepMap

    def __post_init__(self):
        if np.any(np.asarray(self.weights.values, dtype=float) < 0.0):
            raise GraphonError("product weights must be nonnegative")

    def evaluate(self, x, y):
        return np.minimum(np.asarray(self.weights(x)) * np.asarray(self.weights(y)), 1.0)


@dataclass(frozen=True)
class LinearCombo(Graphon):
    """beta0 + sum_j beta_j * parts[j]; optionally clipped into [0,1].

    Unclipped combinations may leave [0,1]; ``bounded_unit`` reports this.
    """

    beta: tuple
    parts: tuple
    clipped: bool = False

    def __post_init__(self):
        if len(self.beta) != len(self.parts) + 1:
            raise GraphonError("beta must have one intercept plus one weight per part")

    @staticmethod
    def make(beta, parts, clipped=False) -> "LinearCombo":
        return LinearCombo(tuple(np.asarray(beta, dtype=float).tolist()), tuple(parts), clipped)

    def evaluate(self, x, y):
        beta = np.asarray(self.beta, dtype=float)
        out = np.full(np.broadcast(np.asarray(x, dtype=float), y).shape, beta[0])
        for b_j, part in zip(beta[1:], self.parts):
            out = out + b_j * np.asarray(part.evaluate(x, y))
        if self.clipped:
            out = np.clip(out, 0.0, 1.0)
        return out

    @property
    def bounded_unit(self) -> bool:
        return self.clipped


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
    bounds = np.unique(np.concatenate(
        [np.asarray(b.boundaries, dtype=float) for b in blocks] or [[0.0, 1.0]]))
    mats = []
    for b in blocks:
        i = b.piece_index(bounds[:-1])
        mats.append(np.asarray(b.matrix, dtype=float)[np.ix_(i, i)])
    return bounds, mats


def as_block(w: Graphon) -> Block:
    """Exact piecewise-constant representation of ``w``.

    All supported kinds are block graphons after refining breakpoints, which
    is what makes the L2 geometry computable in closed form.  The rates are
    computed with each kind's own arithmetic, so the Block's ``evaluate``
    equals ``w.evaluate`` bit for bit at every point.  Any other
    graphon raises ``GraphonError``; the L2 geometry and the functionals then
    fall back to quadrature.
    """
    if isinstance(w, Block):
        return w
    if isinstance(w, Constant):
        return Block.from_arrays([0.0, 1.0], [[w.p]])
    if isinstance(w, LogisticLowRank):
        b = np.asarray(w.latent.boundaries, dtype=float)
        z = w._positions()
        # evaluate's dot product, not z @ z.T, so the rates equal it bit for bit
        mat = expit(np.sum(z[:, None, :] * z[None, :, :], axis=-1) + w.intercept)
        return Block.from_arrays(b, mat)
    if isinstance(w, ProductWeight):
        b = np.asarray(w.weights.boundaries, dtype=float)
        th = np.asarray(w.weights.values, dtype=float)
        mat = np.minimum(np.outer(th, th), 1.0)
        return Block.from_arrays(b, mat)
    if isinstance(w, LinearCombo):
        bounds, mats = _refine([as_block(p) for p in w.parts])
        beta = np.asarray(w.beta, dtype=float)
        mat = np.full((bounds.size - 1,) * 2, beta[0])
        for b_j, m in zip(beta[1:], mats):
            mat += b_j * m
        if w.clipped:
            mat = np.clip(mat, 0.0, 1.0)
        # bypass Block's [0,1] validation for unclipped combinations
        blk = object.__new__(Block)
        object.__setattr__(blk, "boundaries", tuple(bounds.tolist()))
        object.__setattr__(blk, "matrix", tuple(map(tuple, mat)))
        return blk
    raise GraphonError(f"cannot reduce {type(w).__name__} to blocks")


def common_refinement(w: Graphon, w2: Graphon):
    """Block matrices of both graphons on a shared partition.

    Returns (measures, M, M2).
    """
    bounds, (m1, m2) = _refine([as_block(w), as_block(w2)])
    return np.diff(bounds), m1, m2


# ---------------------------------------------------------------------------
# quadrature and L2 geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Midpoint rule on a uniform g x g grid.

    Used only for graphons without a block form (``as_block`` raises);
    every built-in kind is integrated exactly over its blocks instead.
    """

    g: int = 256

    def __post_init__(self):
        if self.g < 2:
            raise GraphonError("quadrature grid must have g >= 2")

    def midpoints(self) -> np.ndarray:
        return (np.arange(self.g) + 0.5) / self.g


DEFAULT_QUAD = QuadratureSpec()


def grid_values(w: Graphon, g: int) -> np.ndarray:
    x = QuadratureSpec(g).midpoints()
    return np.asarray(w.evaluate(x[:, None], x[None, :]), dtype=float)


def l2_inner(w: Graphon, w2: Graphon, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """L2 inner product <w, w2> over the unit square."""
    try:
        mu, m1, m2 = common_refinement(w, w2)
    except GraphonError:
        return float(np.mean(grid_values(w, quad.g) * grid_values(w2, quad.g)))
    return float(mu @ (m1 * m2) @ mu)


def l2_distance(w: Graphon, w2: Graphon, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """||w - w2||_2, exact for block-reducible pairs."""
    try:
        mu, m1, m2 = common_refinement(w, w2)
    except GraphonError:
        return float(np.sqrt(np.mean((grid_values(w, quad.g) - grid_values(w2, quad.g)) ** 2)))
    return float(np.sqrt(mu @ (m1 - m2) ** 2 @ mu))


def gram_and_target(features, w_star: Graphon, quad: QuadratureSpec = DEFAULT_QUAD):
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
            gram[i, j] = gram[j, i] = l2_inner(basis[i], basis[j], quad)
    target = np.array([l2_inner(b, w_star, quad) for b in basis])
    return gram, target


# ---------------------------------------------------------------------------
# structural functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalSet:
    """Edge, triangle, wedge, clustering and degree-function summaries."""

    edge: float
    triangle: float
    wedge: float
    clustering: float
    degree_grid: np.ndarray = field(repr=False)


def functionals(w: Graphon, quad: QuadratureSpec = DEFAULT_QUAD) -> FunctionalSet:
    """Edge density e, triangle density t, wedge density s, clustering t/s.

    e is the double integral of w, d_w the row integral, s the integral of
    d_w^2, and t the triple integral of w(x,y)w(y,z)w(x,z).  Clustering is 0
    when s = 0.
    """
    try:
        blk = as_block(w)
    except GraphonError:
        vals = grid_values(w, quad.g)
        d_grid = vals.mean(axis=1)
        e = float(d_grid.mean())
        s = float(np.mean(d_grid ** 2))
        t = float(np.einsum("ab,bc,ac->", vals, vals, vals)) / quad.g ** 3
    else:
        mu = blk.measures()
        mat = np.asarray(blk.matrix, dtype=float)
        deg = mat @ mu
        e = float(mu @ deg)
        s = float(mu @ deg ** 2)
        t = float(np.einsum("a,b,c,ab,bc,ac->", mu, mu, mu, mat, mat, mat))
        d_grid = deg[blk.piece_index(quad.midpoints())]
    clustering = t / s if s > 0 else 0.0
    return FunctionalSet(edge=e, triangle=t, wedge=s, clustering=clustering,
                         degree_grid=np.asarray(d_grid, dtype=float))


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
    |eigenvalue| (Bollobas, Janson & Riordan 2007); a graphon without one
    uses its ``DEFAULT_QUAD`` midpoint grid (entries w/g) instead.
    """
    try:
        blk = as_block(w)
    except GraphonError:
        mat = grid_values(w, DEFAULT_QUAD.g) / DEFAULT_QUAD.g
    else:
        root = np.sqrt(blk.measures())
        mat = root[:, None] * np.asarray(blk.matrix, dtype=float) * root[None, :]
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
    rho_combo = spectral_radius(LinearCombo.make(beta, parts, clipped=False))
    return float(terms.max()), float(terms.sum()), rho_combo
