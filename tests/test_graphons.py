"""Graphon kernels: evaluation, L2 geometry, functionals, spectra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from graphsynth import (Block, Constant, LinearCombo, LogisticLowRank,
                        ProductWeight, GraphonError,
                        functionals, gram_and_target, l2_distance,
                        lipschitz_budget, spectral_bracket, spectral_radius,
                        uniform_step_map)
from graphsynth.graphons import l2_inner

RNG = np.random.default_rng(20240601)


def random_block(rng, k_max=4):
    k = int(rng.integers(1, k_max + 1))
    cuts = np.sort(rng.uniform(0.05, 0.95, size=k - 1))
    bounds = np.concatenate([[0.0], cuts, [1.0]])
    m = rng.uniform(0.0, 1.0, size=(k, k))
    return Block(bounds, 0.5 * (m + m.T))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_constant_evaluates_everywhere():
    w = Constant(0.3)
    assert w.evaluate(0.1, 0.9) == 0.3
    assert np.all(w.evaluate(np.linspace(0, 1, 7), np.linspace(0, 1, 7)) == 0.3)


def test_clipped_combo_clips_at_zero():
    w = LinearCombo([-0.2], [], clipped=True)
    assert w.evaluate(0.4, 0.6) == 0.0
    # unclipped, a combination may leave [0,1]
    assert LinearCombo([0.9, 0.5], [Constant(0.8)]).evaluate(0.5, 0.5) == pytest.approx(1.3)


def test_block_lookup_oracle():
    w = Block([0.0, 0.5, 1.0], [[0.8, 0.1], [0.1, 0.8]])
    assert w.evaluate(0.25, 0.75) == 0.1
    assert w.evaluate(0.75, 0.25) == 0.1


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.integers(0, 2 ** 32 - 1))
def test_symmetry_all_kinds(x, y, seed):
    rng = np.random.default_rng(seed)
    kinds = [
        Constant(0.37),
        random_block(rng),
        LogisticLowRank(uniform_step_map([(0.5, -0.2), (-0.4, 0.9), (1.0, 0.3)]), -0.1),
        ProductWeight(uniform_step_map([0.9, 0.4, 1.7])),
    ]
    kinds.append(LinearCombo([0.1, 0.3, 0.4], kinds[:2], clipped=True))
    for w in kinds:
        assert w.evaluate(x, y) == w.evaluate(y, x)


def test_block_validation_rejects_bad_inputs():
    with pytest.raises(GraphonError):
        Block([0.0, 0.5, 0.9], [[0.1, 0.2], [0.2, 0.1]])
    with pytest.raises(GraphonError):
        Block([0.0, 0.5, 1.0], [[0.1, 0.3], [0.2, 0.1]])
    with pytest.raises(GraphonError):
        Block([0.0, 0.5, 1.0], [[0.1, 1.2], [1.2, 0.1]])


# ---------------------------------------------------------------------------
# block reduction
# ---------------------------------------------------------------------------

def _piece(boundaries, x):
    """Index of the left-closed piece of ``boundaries`` holding each x."""
    return np.searchsorted(np.asarray(boundaries, dtype=float)[1:-1],
                           np.asarray(x, dtype=float), side="right")


def reference_kernel(w, x, y):
    """Each kind's kernel computed pointwise from its own parameters, not
    from its block form: p, sigmoid(sum_k z_k(x) z_k(y) + b), min(theta(x)
    theta(y), 1), the rate-matrix lookup, and the weighted sum of parts."""
    if isinstance(w, Constant):
        return np.broadcast_to(np.float64(w.p), np.broadcast(x, y).shape)
    if isinstance(w, Block):
        m = np.asarray(w.matrix, dtype=float)
        return m[_piece(w.boundaries, x), _piece(w.boundaries, y)]
    if isinstance(w, LogisticLowRank):
        # scalar latent values mean d = 1
        z = np.asarray(w.latent.values, dtype=float).reshape(w.latent.k, -1)
        dots = np.sum(z[_piece(w.latent.boundaries, x)] * z[_piece(w.latent.boundaries, y)],
                      axis=-1)
        return expit(dots + w.intercept)
    if isinstance(w, ProductWeight):
        th = np.asarray(w.weights.values, dtype=float)
        return np.minimum(th[_piece(w.weights.boundaries, x)]
                          * th[_piece(w.weights.boundaries, y)], 1.0)
    out = np.full(np.broadcast(np.asarray(x, dtype=float), y).shape, w.beta[0])
    for b_j, part in zip(w.beta[1:], w.parts):
        out = out + b_j * reference_kernel(part, x, y)
    return np.clip(out, 0.0, 1.0) if w.clipped else out


def every_kind(rng):
    near = 0.5 + 4e-15
    kinds = [
        Constant(0.42),
        random_block(rng),
        LogisticLowRank(uniform_step_map([(1.0, 0.0), (-0.5, 0.8)]), 0.2),
        LogisticLowRank(uniform_step_map(rng.normal(size=(5, 3))), -0.4),
        LogisticLowRank(uniform_step_map([0.9, -0.6, 0.3]), 0.1),  # scalar values: d = 1
        ProductWeight(uniform_step_map([0.8, 1.6, 0.1])),
    ]
    kinds.append(LinearCombo([0.05, 0.4, 0.6], kinds[2:4]))
    kinds.append(LinearCombo([0.1, 0.2, 0.3, 0.25], kinds[1:6:2], clipped=True))
    kinds.append(LinearCombo(
        [0.0, 0.5, 0.5], [Block([0, 0.5, 1], [[0.2, 0.6], [0.6, 0.9]]),
                          Block([0, near, 1], [[0.1, 0.7], [0.7, 0.3]])]))
    return kinds


def test_as_block_is_exact_for_every_kind():
    """``evaluate`` and the block form give the reference kernel's values
    bit for bit, at random points and at and just below every breakpoint,
    also for two parts whose breakpoints are closer together than 1e-14."""
    rng = np.random.default_rng(7)
    kinds = every_kind(rng)
    breaks = np.unique(np.concatenate([w.block.boundaries for w in kinds]
                                      + [[0.5, 0.5 + 4e-15]]))
    pts = np.concatenate([rng.uniform(0, 1, size=60), breaks, np.nextafter(breaks, 0.0)])
    for w in kinds:
        want = reference_kernel(w, pts[:, None], pts[None, :])
        assert want.shape == (pts.size, pts.size)
        assert np.array_equal(w.evaluate(pts[:, None], pts[None, :]), want)
        assert np.array_equal(w.block.evaluate(pts[:, None], pts[None, :]), want)
        assert np.array_equal(w.evaluate(pts, pts[::-1]), reference_kernel(w, pts, pts[::-1]))
        for x, y in zip(pts[:8].tolist(), pts[-8:].tolist()):
            assert w.evaluate(x, y) == reference_kernel(w, x, y)


def test_block_form_is_built_once_per_graphon():
    for w in every_kind(np.random.default_rng(8)):
        assert w.block is w.block


# ---------------------------------------------------------------------------
# L2 geometry
# ---------------------------------------------------------------------------

def test_l2_distance_identity_and_constants():
    w = random_block(np.random.default_rng(1))
    assert l2_distance(w, w) == 0.0
    assert l2_distance(Constant(0.2), Constant(0.7)) == pytest.approx(0.5, abs=1e-15)


def test_l2_distance_two_block_hand_oracle():
    # equal-measure blocks: dist^2 = sum_ab mu_a mu_b (B_ab - B'_ab)^2
    w = Block([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.6]])
    w2 = Block([0, 0.5, 1], [[0.5, 0.3], [0.3, 0.2]])
    expected = np.sqrt(0.25 * (0.3 ** 2 + 0.2 ** 2 + 0.2 ** 2 + 0.4 ** 2))
    assert l2_distance(w, w2) == pytest.approx(expected, abs=1e-15)


def test_gram_and_target_constant_oracle():
    p = 0.3
    gram, target = gram_and_target([Constant(p)], Constant(p))
    np.testing.assert_allclose(gram, [[1, p], [p, p * p]], atol=1e-15)
    np.testing.assert_allclose(target, [p, p * p], atol=1e-15)


def test_gram_target_zero_for_zero_truth():
    _, target = gram_and_target([random_block(np.random.default_rng(3))], Constant(0.0))
    np.testing.assert_allclose(target, 0.0, atol=1e-15)


def test_gram_disjoint_support_off_diagonal_zero():
    w1 = Block([0, 0.5, 1], [[0.6, 0.0], [0.0, 0.0]])
    w2 = Block([0, 0.5, 1], [[0.0, 0.0], [0.0, 0.7]])
    assert l2_inner(w1, w2) == 0.0
    gram, _ = gram_and_target([w1, w2], Constant(0.5))
    assert gram[1, 2] == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_gram_positive_semidefinite(seed):
    rng = np.random.default_rng(seed)
    feats = [random_block(rng) for _ in range(int(rng.integers(1, 5)))]
    gram, _ = gram_and_target(feats, Constant(0.5))
    assert np.linalg.eigvalsh(gram).min() >= -1e-10


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def test_functionals_constant_oracle():
    p = 0.6
    f = functionals(Constant(p))
    assert f.edge == pytest.approx(p, abs=1e-14)
    assert f.triangle == pytest.approx(p ** 3, abs=1e-14)
    assert f.wedge == pytest.approx(p ** 2, abs=1e-14)
    assert f.clustering == pytest.approx(p, abs=1e-12)


def test_functionals_zero_graphon():
    f = functionals(Constant(0.0))
    assert (f.edge, f.triangle, f.wedge, f.clustering) == (0.0, 0.0, 0.0, 0.0)


def test_functionals_two_block_hand_oracle():
    a, b = 0.8, 0.2
    f = functionals(Block([0, 0.5, 1], [[a, b], [b, a]]))
    assert f.edge == pytest.approx((a + b) / 2, abs=1e-14)
    # t = (a^3 + 3 a b^2) / 4 by expanding the 2x2 triple sum
    assert f.triangle == pytest.approx((a ** 3 + 3 * a * b ** 2) / 4, abs=1e-14)
    assert f.wedge == pytest.approx(((a + b) / 2) ** 2, abs=1e-14)


# ---------------------------------------------------------------------------
# Lipschitz budget
# ---------------------------------------------------------------------------

def test_lipschitz_budget_values():
    b = lipschitz_budget(0.1, 0.5)
    assert b.edge_bound == b.degree_bound == pytest.approx(0.1)
    assert b.triangle_bound == pytest.approx(0.3)
    assert b.wedge_bound == pytest.approx(0.2)
    assert b.clustering_bound == pytest.approx(1.4)
    zero = lipschitz_budget(0.0, 0.5)
    assert zero.edge_bound == zero.triangle_bound == zero.clustering_bound == 0.0


def test_lipschitz_budget_rejects_bad_floor():
    with pytest.raises(GraphonError):
        lipschitz_budget(0.1, 0.0)
    with pytest.raises(GraphonError):
        lipschitz_budget(-0.1, 0.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_lipschitz_inequalities_on_random_blocks(seed):
    rng = np.random.default_rng(seed)
    w, w2 = random_block(rng), random_block(rng)
    delta = l2_distance(w, w2)
    f, f2 = functionals(w), functionals(w2)
    assert abs(f.edge - f2.edge) <= delta + 1e-12
    assert abs(f.triangle - f2.triangle) <= 3 * delta + 1e-12
    assert abs(f.wedge - f2.wedge) <= 2 * delta + 1e-12
    s0 = 0.25
    if f.wedge >= s0 and f2.wedge >= s0:
        bound = lipschitz_budget(delta, s0).clustering_bound
        assert abs(f.clustering - f2.clustering) <= bound + 1e-12


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------

def test_spectral_radius_constant_and_zero():
    assert spectral_radius(Constant(0.45)) == pytest.approx(0.45, abs=1e-15)
    assert spectral_radius(Constant(1.0)) == 1.0
    assert spectral_radius(Constant(0.0)) == 0.0


def test_spectral_radius_bipartite_kernel():
    # eigenvalues +-sqrt(mu_1 mu_2): two of largest modulus, opposite signs
    w = Block([0, 0.3, 1], [[0.0, 1.0], [1.0, 0.0]])
    assert spectral_radius(w) == pytest.approx(np.sqrt(0.21), abs=1e-15)


def test_spectral_radius_of_negative_combo_is_positive():
    # -M/2 has eigenvalues -0.45 and -0.35, so the radius is 0.45
    w = Block([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.8]])
    assert spectral_radius(LinearCombo([0.0, -1.0], [w])) == pytest.approx(
        0.45, abs=1e-15)


def test_spectral_radius_two_block_eigen_oracle():
    b = np.array([[0.8, 0.1], [0.1, 0.8]])
    w = Block([0, 0.5, 1], b)
    expected = np.linalg.eigvalsh(b / 2).max()
    assert spectral_radius(w) == pytest.approx(expected, abs=1e-8)


def test_spectral_monotone_and_linear():
    rng = np.random.default_rng(5)
    w = random_block(rng)
    base = spectral_radius(w)
    more = spectral_radius(LinearCombo([0.1, 1.0], [w]))
    assert more >= base - 1e-8
    half = spectral_radius(LinearCombo([0.0, 0.5], [w]))
    assert half == pytest.approx(0.5 * base, abs=1e-8)


def test_spectral_bracket_constants_oracle():
    lower, upper, rho = spectral_bracket([0.0, 0.5, 0.5],
                                         [Constant(0.4), Constant(0.8)])
    assert lower == pytest.approx(0.4, abs=1e-9)
    assert upper == pytest.approx(0.6, abs=1e-9)
    assert rho == pytest.approx(0.6, abs=1e-8)


def test_spectral_bracket_single_agent_and_rejection():
    lower, upper, rho = spectral_bracket([0.0, 1.0], [Constant(0.3)])
    assert lower == pytest.approx(upper)
    assert rho == pytest.approx(lower, abs=1e-8)
    with pytest.raises(GraphonError):
        spectral_bracket([0.0, -0.5], [Constant(0.3)])


def test_spectral_bracket_mixed_kernel():
    rng = np.random.default_rng(11)
    parts = [random_block(rng), random_block(rng)]
    lower, upper, rho = spectral_bracket([0.05, 0.4, 0.55], parts)
    assert lower - 1e-6 <= rho <= upper + 1e-6
