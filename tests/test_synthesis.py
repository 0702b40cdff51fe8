"""Synthesis fits: LS, ridge, simplex, clipped prediction, projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsynth import (Block, Constant, DyadData, SingularDesign, WeightVector,
                        combo_graphon, fit_ls, fit_ridge, fit_simplex,
                        gram_and_target, l2_distance, l2_risk,
                        population_projection, predict_clipped, project_simplex)


def make_dyads(rng, m, betas, noise_labels=True):
    """Dyad features from uniform agent predictions, labels Bernoulli of the
    linear combination (clipped into [0,1])."""
    j = len(betas) - 1
    preds = rng.uniform(0, 1, size=(m, j))
    feats = np.column_stack([np.ones(m), preds])
    probs = np.clip(feats @ np.asarray(betas), 0, 1)
    labels = (rng.random(m) < probs).astype(float) if noise_labels else probs
    return DyadData(features=feats, labels=labels)


# ---------------------------------------------------------------------------
# least squares
# ---------------------------------------------------------------------------

def test_ls_constant_labels_zero_risk():
    rng = np.random.default_rng(0)
    feats = np.column_stack([np.ones(50), rng.uniform(0.2, 0.8, size=50)])
    data = DyadData(features=feats, labels=np.ones(50))
    beta = fit_ls(data)
    np.testing.assert_allclose(feats @ beta.beta, 1.0, atol=1e-9)


def test_ls_recovers_truth_in_span():
    rng = np.random.default_rng(42)
    data = make_dyads(rng, 100_000, [0.0, 0.5, 0.5])
    beta = fit_ls(data)
    assert np.linalg.norm(beta.beta - [0.0, 0.5, 0.5]) <= 0.02
    assert beta.method == "LS"
    assert beta.m_train == 100_000


def test_ls_duplicate_columns_singular():
    rng = np.random.default_rng(1)
    col = rng.uniform(0, 1, size=30)
    feats = np.column_stack([np.ones(30), col, col])
    with pytest.raises(SingularDesign):
        fit_ls(DyadData(features=feats, labels=(col > 0.5).astype(float)))


def test_dyad_data_validates_leading_ones():
    with pytest.raises(ValueError):
        DyadData(features=np.array([[0.9, 0.5]]), labels=np.array([1.0]))


# ---------------------------------------------------------------------------
# ridge
# ---------------------------------------------------------------------------

def test_ridge_zero_reg_matches_ls():
    rng = np.random.default_rng(2)
    data = make_dyads(rng, 5000, [0.1, 0.3, 0.4])
    ls = fit_ls(data)
    ridge = fit_ridge(data, 0.0)
    np.testing.assert_allclose(ridge.beta, ls.beta, atol=1e-9)


def test_ridge_tiny_reg_close_to_ls_on_conditioned_design():
    rng = np.random.default_rng(3)
    data = make_dyads(rng, 20_000, [0.0, 0.4, 0.3])
    ls = fit_ls(data)
    assert ls.condition_number <= 1e3
    ridge = fit_ridge(data, 1e-8)
    assert np.max(np.abs(ridge.beta - ls.beta)) <= 1e-6


def test_ridge_full_shrinkage_limit():
    rng = np.random.default_rng(4)
    data = make_dyads(rng, 2000, [0.2, 0.5])
    ridge = fit_ridge(data, 1e12)
    assert abs(ridge.beta[1]) < 1e-3
    assert ridge.beta[0] == pytest.approx(data.labels.mean(), abs=1e-3)


def test_ridge_handles_duplicate_columns():
    rng = np.random.default_rng(5)
    col = rng.uniform(0, 1, size=200)
    feats = np.column_stack([np.ones(200), col, col])
    labels = (rng.random(200) < col).astype(float)
    beta = fit_ridge(DyadData(features=feats, labels=labels), 1.0)
    assert np.all(np.isfinite(beta.beta))
    with pytest.raises(ValueError):
        fit_ridge(DyadData(features=feats, labels=labels), -0.5)


# ---------------------------------------------------------------------------
# simplex
# ---------------------------------------------------------------------------

def test_project_simplex_basic():
    out = project_simplex(np.array([0.5, 0.5]))
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)
    out = project_simplex(np.array([2.0, -1.0]))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)
    out = project_simplex(np.array([0.1, 0.2, 0.3]))
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(out >= 0)


def test_simplex_single_agent_forced():
    rng = np.random.default_rng(6)
    data = make_dyads(rng, 1000, [0.1, 0.6])
    beta = fit_simplex(data)
    assert beta.beta[1] == pytest.approx(1.0, abs=1e-9)
    expected_intercept = np.mean(data.labels - data.features[:, 1])
    assert beta.beta[0] == pytest.approx(expected_intercept, abs=1e-9)


def test_simplex_prefers_informative_agent():
    rng = np.random.default_rng(7)
    m = 100_000
    good = rng.uniform(0, 1, size=m)
    noise = rng.uniform(0, 1, size=m)
    labels = (rng.random(m) < good).astype(float)
    data = DyadData(features=np.column_stack([np.ones(m), good, noise]), labels=labels)
    beta = fit_simplex(data)
    assert beta.beta[1] >= 0.99


def test_simplex_objective_dominates_ls():
    rng = np.random.default_rng(8)
    data = make_dyads(rng, 3000, [0.3, 0.2, 0.1])
    ls = fit_ls(data)
    sx = fit_simplex(data)
    mse = lambda b: np.mean((data.labels - data.features @ b) ** 2)
    assert mse(sx.beta) >= mse(ls.beta) - 1e-12


def assert_simplex_kkt(data, fit):
    """KKT certificate of the simplex LS optimum, whatever solved it: b on
    the simplex, the objective gradient equal on the support and no smaller
    off it, and the reported residual at rounding level."""
    b = fit.beta[1:]
    assert np.all(b >= 0.0)
    assert abs(b.sum() - 1.0) <= 1e-12
    p = data.features[:, 1:]
    pc = p - p.mean(axis=0)
    yc = data.labels - data.labels.mean()
    grad = 2.0 * pc.T @ (pc @ b - yc) / data.m
    on = b > 0
    assert np.ptp(grad[on]) <= 1e-12
    assert np.all(grad[~on] >= grad[on].max() - 1e-12)
    assert fit.beta[0] == pytest.approx(data.labels.mean() - p.mean(axis=0) @ b, abs=1e-15)
    assert fit.kkt_residual <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
def test_simplex_feasibility_invariants(seed, j):
    rng = np.random.default_rng(seed)
    data = make_dyads(rng, 200, np.concatenate([[0.1], rng.dirichlet(np.ones(j))]))
    assert_simplex_kkt(data, fit_simplex(data))


def test_simplex_duplicate_agent_columns():
    rng = np.random.default_rng(9)
    data = make_dyads(rng, 2000, [0.05, 0.5, 0.3])
    twin = DyadData(features=np.column_stack([data.features, data.features[:, 1]]),
                    labels=data.labels)
    single, both = fit_simplex(data), fit_simplex(twin)
    assert_simplex_kkt(twin, both)
    # the copies may share their weight in any way; the fit is one copy's
    np.testing.assert_allclose([both.beta[0], both.beta[1] + both.beta[3], both.beta[2]],
                               single.beta, atol=1e-12)


def test_simplex_agent_cap():
    rng = np.random.default_rng(10)
    data = make_dyads(rng, 500, np.concatenate([[0.0], np.full(12, 1 / 12)]))
    assert_simplex_kkt(data, fit_simplex(data))
    wide = DyadData(features=np.column_stack([data.features, data.features[:, 1]]),
                    labels=data.labels)
    with pytest.raises(ValueError):
        fit_simplex(wide)


# ---------------------------------------------------------------------------
# clipped prediction
# ---------------------------------------------------------------------------

def test_predict_clipped_oracles():
    w = WeightVector(beta=np.array([0.0, 1.0]), method="LS")
    assert predict_clipped(w, np.array([1.0, 1.3])) == pytest.approx(1.0)
    assert predict_clipped(w, np.array([1.0, -0.2])) == pytest.approx(0.0)
    assert predict_clipped(w, np.array([1.0, 0.42])) == pytest.approx(0.42)
    with pytest.raises(ValueError):
        predict_clipped(w, np.array([0.0, 0.42]))


def test_weight_vector_json_round_trip():
    w = WeightVector(beta=np.array([0.1, 0.4, 0.5]), method="Ridge",
                     lambda_reg=0.01, condition_number=12.0, m_train=500)
    back = WeightVector.from_json(w.to_json())
    np.testing.assert_allclose(back.beta, w.beta)
    assert back.method == "Ridge" and back.lambda_reg == 0.01
    assert back.m_train == 500


# ---------------------------------------------------------------------------
# population projection
# ---------------------------------------------------------------------------

def test_projection_idempotent_on_span():
    parts = [Block.from_arrays([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.8]]),
             Block.from_arrays([0, 0.25, 1], [[0.2, 0.6], [0.6, 0.3]])]
    truth = combo_graphon(np.array([0.05, 0.3, 0.6]), parts)
    beta = population_projection(truth, parts)
    np.testing.assert_allclose(beta.beta, [0.05, 0.3, 0.6], atol=1e-10)


def test_projection_orthogonality_residual():
    parts = [Block.from_arrays([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.8]]),
             Constant(0.3)]
    # Constant agent makes G singular against the intercept
    with pytest.raises(SingularDesign):
        population_projection(Constant(0.5), parts)
    parts = [Block.from_arrays([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.8]]),
             Block.from_arrays([0, 0.3, 1], [[0.1, 0.7], [0.7, 0.2]])]
    truth = Block.from_arrays([0, 0.4, 1], [[0.9, 0.2], [0.2, 0.3]])
    beta, gram, target = population_projection(truth, parts, return_gram=True)
    resid = gram @ beta.beta - target
    assert np.max(np.abs(resid)) <= 1e-8


def test_projection_hand_linear_solve():
    # one agent: beta solves [[1, e],[e, q]] beta = (e*, c) by hand
    agent = Block.from_arrays([0, 0.5, 1], [[0.8, 0.2], [0.2, 0.4]])
    truth = Constant(0.5)
    gram, target = gram_and_target([agent], truth)
    expected = np.linalg.solve(gram, target)
    beta = population_projection(truth, [agent])
    np.testing.assert_allclose(beta.beta, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# risk
# ---------------------------------------------------------------------------

def test_l2_risk_oracles():
    g = np.eye(2)
    assert l2_risk(np.array([0.3, 0.4]), np.array([0.3, 0.4]), g) == 0.0
    assert l2_risk(np.array([0.3, 0.4]), np.zeros(2), g) == pytest.approx(0.25)
    doubled = l2_risk(2 * np.array([0.3, 0.4]), np.zeros(2), g)
    assert doubled == pytest.approx(4 * 0.25)
    with pytest.raises(ValueError):
        l2_risk(np.zeros(2), np.zeros(3), g)


def test_l2_risk_matches_graphon_distance():
    parts = [Block.from_arrays([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.8]]),
             Block.from_arrays([0, 0.3, 1], [[0.1, 0.7], [0.7, 0.2]])]
    truth = combo_graphon(np.array([0.0, 0.5, 0.5]), parts)
    beta_hat = np.array([0.1, 0.4, 0.45])
    _, gram, _ = population_projection(truth, parts, return_gram=True)
    risk = l2_risk(beta_hat, np.array([0.0, 0.5, 0.5]), gram)
    dist = l2_distance(combo_graphon(beta_hat, parts), truth)
    assert risk == pytest.approx(dist ** 2, abs=1e-12)
