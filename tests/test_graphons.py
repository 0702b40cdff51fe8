"""Graphon kernels: evaluation, L2 geometry, functionals, spectra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsynth import (Block, Constant, Graphon, LinearCombo, LogisticLowRank,
                        ProductWeight, GraphonError, QuadratureSpec, as_block,
                        functionals, gram_and_target, l2_distance, l2_inner,
                        lipschitz_budget, spectral_bracket, spectral_radius,
                        uniform_step_map)

RNG = np.random.default_rng(20240601)


class Unblocked(Graphon):
    """A graphon with no block form, so only the quadrature path applies."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, x, y):
        return self.inner.evaluate(x, y)


def random_block(rng, k_max=4):
    k = int(rng.integers(1, k_max + 1))
    cuts = np.sort(rng.uniform(0.05, 0.95, size=k - 1))
    bounds = np.concatenate([[0.0], cuts, [1.0]])
    m = rng.uniform(0.0, 1.0, size=(k, k))
    return Block.from_arrays(bounds, 0.5 * (m + m.T))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_constant_evaluates_everywhere():
    w = Constant(0.3)
    assert w.evaluate(0.1, 0.9) == 0.3
    assert np.all(w.evaluate(np.linspace(0, 1, 7), np.linspace(0, 1, 7)) == 0.3)


def test_clipped_combo_clips_at_zero():
    w = LinearCombo.make([-0.2], [], clipped=True)
    assert w.evaluate(0.4, 0.6) == 0.0


def test_block_lookup_oracle():
    w = Block.from_arrays([0.0, 0.5, 1.0], [[0.8, 0.1], [0.1, 0.8]])
    assert w.evaluate(0.25, 0.75) == 0.1
    assert w.evaluate(0.75, 0.25) == 0.1


def test_unclipped_combo_flagged():
    w = LinearCombo.make([0.9, 0.5], [Constant(0.8)], clipped=False)
    assert not w.bounded_unit
    assert w.evaluate(0.5, 0.5) == pytest.approx(1.3)
    assert LinearCombo.make([0.9, 0.5], [Constant(0.8)], clipped=True).bounded_unit


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
    kinds.append(LinearCombo.make([0.1, 0.3, 0.4], kinds[:2], clipped=True))
    for w in kinds:
        assert w.evaluate(x, y) == w.evaluate(y, x)


def test_block_validation_rejects_bad_inputs():
    with pytest.raises(GraphonError):
        Block.from_arrays([0.0, 0.5, 0.9], [[0.1, 0.2], [0.2, 0.1]])
    with pytest.raises(GraphonError):
        Block.from_arrays([0.0, 0.5, 1.0], [[0.1, 0.3], [0.2, 0.1]])
    with pytest.raises(GraphonError):
        Block.from_arrays([0.0, 0.5, 1.0], [[0.1, 1.2], [1.2, 0.1]])


# ---------------------------------------------------------------------------
# block reduction
# ---------------------------------------------------------------------------

def test_as_block_is_exact_for_every_kind():
    """The block form gives ``evaluate``'s values bit for bit, at random
    points and at and just below every breakpoint, also for two parts whose
    breakpoints are closer together than 1e-14."""
    rng = np.random.default_rng(7)
    near = 0.5 + 4e-15
    kinds = [
        Constant(0.42),
        random_block(rng),
        LogisticLowRank(uniform_step_map([(1.0, 0.0), (-0.5, 0.8)]), 0.2),
        LogisticLowRank(uniform_step_map(rng.normal(size=(5, 3))), -0.4),
        LogisticLowRank(uniform_step_map([0.9, -0.6, 0.3]), 0.1),  # scalar values: d = 1
        ProductWeight(uniform_step_map([0.8, 1.6, 0.1])),
    ]
    kinds.append(LinearCombo.make([0.05, 0.4, 0.6], kinds[2:4]))
    kinds.append(LinearCombo.make([0.1, 0.2, 0.3, 0.25], kinds[1:6:2], clipped=True))
    kinds.append(LinearCombo.make(
        [0.0, 0.5, 0.5], [Block.from_arrays([0, 0.5, 1], [[0.2, 0.6], [0.6, 0.9]]),
                          Block.from_arrays([0, near, 1], [[0.1, 0.7], [0.7, 0.3]])]))
    breaks = np.unique(np.concatenate([as_block(w).boundaries for w in kinds] + [[0.5, near]]))
    pts = np.concatenate([rng.uniform(0, 1, size=60), breaks, np.nextafter(breaks, 0.0)])
    for w in kinds:
        want = w.evaluate(pts[:, None], pts[None, :])
        assert want.shape == (pts.size, pts.size)
        assert np.array_equal(as_block(w).evaluate(pts[:, None], pts[None, :]), want)
        assert np.array_equal(as_block(w).evaluate(pts, pts[::-1]), w.evaluate(pts, pts[::-1]))


# ---------------------------------------------------------------------------
# L2 geometry
# ---------------------------------------------------------------------------

def test_l2_distance_identity_and_constants():
    w = random_block(np.random.default_rng(1))
    assert l2_distance(w, w) == 0.0
    assert l2_distance(Constant(0.2), Constant(0.7)) == pytest.approx(0.5, abs=1e-15)


def test_l2_distance_two_block_hand_oracle():
    # equal-measure blocks: dist^2 = sum_ab mu_a mu_b (B_ab - B'_ab)^2
    w = Block.from_arrays([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.6]])
    w2 = Block.from_arrays([0, 0.5, 1], [[0.5, 0.3], [0.3, 0.2]])
    expected = np.sqrt(0.25 * (0.3 ** 2 + 0.2 ** 2 + 0.2 ** 2 + 0.4 ** 2))
    assert l2_distance(w, w2) == pytest.approx(expected, abs=1e-15)


def test_l2_distance_grid_fallback_agrees_with_exact():
    w = Block.from_arrays([0, 0.25, 1], [[0.9, 0.2], [0.2, 0.4]])
    w2 = Constant(0.5)
    exact = l2_distance(w, w2)
    with pytest.raises(GraphonError):
        as_block(Unblocked(w))
    approx = l2_distance(Unblocked(w), w2, QuadratureSpec(g=512))
    assert abs(approx - exact) < 5e-3
    assert l2_inner(Unblocked(w), w2, QuadratureSpec(g=512)) == pytest.approx(
        l2_inner(w, w2), abs=5e-3)


def test_gram_and_target_constant_oracle():
    p = 0.3
    gram, target = gram_and_target([Constant(p)], Constant(p))
    np.testing.assert_allclose(gram, [[1, p], [p, p * p]], atol=1e-15)
    np.testing.assert_allclose(target, [p, p * p], atol=1e-15)


def test_gram_target_zero_for_zero_truth():
    _, target = gram_and_target([random_block(np.random.default_rng(3))], Constant(0.0))
    np.testing.assert_allclose(target, 0.0, atol=1e-15)


def test_gram_disjoint_support_off_diagonal_zero():
    w1 = Block.from_arrays([0, 0.5, 1], [[0.6, 0.0], [0.0, 0.0]])
    w2 = Block.from_arrays([0, 0.5, 1], [[0.0, 0.0], [0.0, 0.7]])
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
    f = functionals(Block.from_arrays([0, 0.5, 1], [[a, b], [b, a]]))
    assert f.edge == pytest.approx((a + b) / 2, abs=1e-14)
    # t = (a^3 + 3 a b^2) / 4 by expanding the 2x2 triple sum
    assert f.triangle == pytest.approx((a ** 3 + 3 * a * b ** 2) / 4, abs=1e-14)
    assert f.wedge == pytest.approx(((a + b) / 2) ** 2, abs=1e-14)


def test_functionals_grid_path_matches_exact():
    w = Block.from_arrays([0, 0.5, 1], [[0.7, 0.2], [0.2, 0.5]])
    exact = functionals(w)
    grid = functionals(Unblocked(w), QuadratureSpec(g=256))
    assert grid.edge == pytest.approx(exact.edge, abs=1e-12)
    assert grid.triangle == pytest.approx(exact.triangle, abs=1e-12)
    assert grid.wedge == pytest.approx(exact.wedge, abs=1e-12)


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
    assert spectral_radius(Constant(0.45)) == pytest.approx(0.45, abs=1e-9)
    assert spectral_radius(Constant(0.0)) == 0.0


def test_spectral_radius_two_block_eigen_oracle():
    b = np.array([[0.8, 0.1], [0.1, 0.8]])
    w = Block.from_arrays([0, 0.5, 1], b)
    expected = np.linalg.eigvalsh(b / 2).max()
    assert spectral_radius(w) == pytest.approx(expected, abs=1e-8)


def test_spectral_monotone_and_linear():
    rng = np.random.default_rng(5)
    w = random_block(rng)
    base = spectral_radius(w)
    more = spectral_radius(LinearCombo.make([0.1, 1.0], [w]))
    assert more >= base - 1e-8
    half = spectral_radius(LinearCombo.make([0.0, 0.5], [w]))
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
