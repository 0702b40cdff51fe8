"""Synthesis fits: LS, ridge, simplex, clipped prediction, projection, and
weighted dyad rows."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsynth import (Block, Constant, DyadData, LinearCombo, SingularDesign,
                        WeightVector, cv_best_agent, fit_logistic_stack, fit_ls,
                        fit_ridge, fit_simplex,
                        gram_and_target, l2_distance, l2_risk,
                        population_projection, predict_clipped)
from graphsynth.synthesis import _weighted_gram, project_simplex


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
    assert beta.m_train == 100_000


def test_ls_duplicate_columns_singular():
    rng = np.random.default_rng(1)
    col = rng.uniform(0, 1, size=30)
    feats = np.column_stack([np.ones(30), col, col])
    with pytest.raises(SingularDesign):
        fit_ls(DyadData(features=feats, labels=(col > 0.5).astype(float)))


def _ls_outcome(data: DyadData):
    """(beta, None) of ``fit_ls``, or (None, message) if it raises
    SingularDesign."""
    try:
        return fit_ls(data).beta, None
    except SingularDesign as exc:
        return None, str(exc)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(-20, 10), st.booleans())
def test_ls_rank_test_ignores_column_scale(seed, j, k, weighted):
    """``fit_ls`` on X diag(1, 2^k, ..., 2^k) succeeds exactly when it does
    on X, with the same message when it fails, and its beta is
    diag(1, 2^-k, ..., 2^-k) beta.  Agent values on a coarse grid and few
    rows make some designs exactly singular (a repeated or constant column,
    too few distinct rows); at k = -20 every agent entry of the Gram matrix
    is below 2^-40, where an absolute eigenvalue test fails them all."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(j + 1, 3 * j + 4))
    feats = np.column_stack([np.ones(m), rng.integers(1, 4, size=(m, j)) / 4])
    labels = rng.integers(0, 2, size=m).astype(float)
    weights = rng.integers(1, 4, size=m) if weighted else None
    scale = np.r_[1.0, np.full(j, 2.0 ** k)]
    beta, error = _ls_outcome(DyadData(feats, labels, weights))
    scaled, scaled_error = _ls_outcome(DyadData(feats * scale, labels, weights))
    assert scaled_error == error
    if error is None:
        np.testing.assert_allclose(scaled * scale, beta, rtol=0,
                                   atol=1e-9 * np.max(np.abs(beta)))


def test_dyad_data_validates_leading_ones():
    with pytest.raises(ValueError):
        DyadData(features=np.array([[0.9, 0.5]]), labels=np.array([1.0]))


def test_dyad_data_weights_default_to_one_and_must_be_multiplicities():
    feats, labels = np.array([[1.0, 0.5], [1.0, 0.2]]), np.array([1.0, 0.0])
    assert np.array_equal(DyadData(features=feats, labels=labels).weights, [1.0, 1.0])
    for weights in ([1.0], [0.0, 0.0], [1.0, -1.0], [1.0, 2.5], [1.0, np.nan]):
        with pytest.raises(ValueError):
            DyadData(features=feats, labels=labels, weights=weights)
    assert DyadData(features=feats, labels=labels, weights=[3, 4]).m == 7
    # a row of weight 0 stands for no dyad, as an empty cell of a batch does
    assert DyadData(features=feats, labels=labels, weights=[3, 0]).m == 3
    batch = DyadData(features=feats, labels=[[1.0, 0.0], [0.5, 0.0]], weights=[[1, 1], [2, 0]])
    np.testing.assert_array_equal(batch.m, [2, 2])
    with pytest.raises(ValueError):
        DyadData(features=feats, labels=[[1.0, 0.0], [0.5, 0.0]], weights=[[1, 1], [0, 0]])


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


def _simplex_by_support_loop(data: DyadData):
    """Simplex LS by one solve per support, in mask order: (b, support).
    Each support S solves [[H_SS, 1], [1', 0]] [b_S; nu] = [c_S; 1] on its
    own, a singular system is skipped, and a feasible candidate replaces
    the best only at a strictly lower objective."""
    j = data.n_agents
    w = data.weights
    total = w.sum()
    p_mean = np.sum(data.features[:, 1:] * w[:, None], axis=0) / total
    y_mean = np.sum(w * data.labels) / total
    pc = data.features[:, 1:] - p_mean
    hess, lin = _weighted_gram(pc, w) / total, pc.T @ (w * (data.labels - y_mean)) / total
    b, support, best = None, None, np.inf
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
            b, support, best = cand, s, obj
    return b, support


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(0, 30),
       st.lists(st.sampled_from(["random", "duplicate", "constant"]), min_size=6, max_size=6),
       st.booleans())
def test_batched_simplex_matches_the_support_loop(seed, j, extra, kinds, weighted):
    """The batched solve picks the support the per-support loop picks, with
    coefficients within 1e-12.  Copies of one agent column (duplicates, or
    constant columns, which all hold 0.5) tie exactly, so either fit may
    split their weight in any way: coefficients are summed and supports
    compared over the distinct columns."""
    rng = np.random.default_rng(seed)
    m = j + 2 + extra
    agents = rng.random((m, j))
    for k, kind in enumerate(kinds[:j]):
        if kind == "duplicate":
            agents[:, k] = agents[:, rng.integers(0, j)]
        elif kind == "constant":
            agents[:, k] = 0.5
    weights = rng.integers(1, 6, size=m) if weighted else None
    data = DyadData(features=np.column_stack([np.ones(m), agents]),
                    labels=(rng.random(m) < agents.mean(axis=1)).astype(float),
                    weights=weights)
    # each column's first exact copy
    first = [next(i for i in range(j) if np.array_equal(agents[:, i], agents[:, k]))
             for k in range(j)]
    b, support = _simplex_by_support_loop(data)
    got = fit_simplex(data).beta[1:]
    np.testing.assert_allclose(np.bincount(first, weights=got, minlength=j),
                               np.bincount(first, weights=b, minlength=j), rtol=0, atol=1e-12)
    assert ({first[k] for k in np.flatnonzero(got)}
            == {first[k] for k in np.flatnonzero(b)} <= {first[k] for k in support})


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
    w = WeightVector(beta=np.array([0.0, 1.0]))
    assert predict_clipped(w, np.array([1.0, 1.3])) == pytest.approx(1.0)
    assert predict_clipped(w, np.array([1.0, -0.2])) == pytest.approx(0.0)
    assert predict_clipped(w, np.array([1.0, 0.42])) == pytest.approx(0.42)
    with pytest.raises(ValueError):
        predict_clipped(w, np.array([0.0, 0.42]))


# ---------------------------------------------------------------------------
# population projection
# ---------------------------------------------------------------------------

def test_projection_idempotent_on_span():
    parts = [Block([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.8]]),
             Block([0, 0.25, 1], [[0.2, 0.6], [0.6, 0.3]])]
    truth = LinearCombo(np.array([0.05, 0.3, 0.6]), parts)
    beta = population_projection(truth, parts)
    np.testing.assert_allclose(beta.beta, [0.05, 0.3, 0.6], atol=1e-10)


def test_projection_orthogonality_residual():
    parts = [Block([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.8]]),
             Constant(0.3)]
    # Constant agent makes G singular against the intercept
    with pytest.raises(SingularDesign):
        population_projection(Constant(0.5), parts)
    parts = [Block([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.8]]),
             Block([0, 0.3, 1], [[0.1, 0.7], [0.7, 0.2]])]
    truth = Block([0, 0.4, 1], [[0.9, 0.2], [0.2, 0.3]])
    beta = population_projection(truth, parts)
    gram, target = gram_and_target(parts, truth)
    resid = gram @ beta.beta - target
    assert np.max(np.abs(resid)) <= 1e-8


def test_projection_hand_linear_solve():
    # one agent: beta solves [[1, e],[e, q]] beta = (e*, c) by hand
    agent = Block([0, 0.5, 1], [[0.8, 0.2], [0.2, 0.4]])
    truth = Constant(0.5)
    gram, target = gram_and_target([agent], truth)
    expected = np.linalg.solve(gram, target)
    beta = population_projection(truth, [agent])
    np.testing.assert_allclose(beta.beta, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# the Gram solve against a Cholesky oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("lambda_reg", [None, 0.0, 1e-3, 5.0])
def test_dyad_fits_match_a_cholesky_solve(seed, lambda_reg):
    """LS and ridge betas of a weighted batch equal the positive-definite
    solve of each sample's normal equations within 1e-12 relative."""
    rng = np.random.default_rng(seed)
    j, m, reps = int(rng.integers(1, 6)), int(rng.integers(20, 400)), 3
    feats = np.column_stack([np.ones(m), rng.beta(0.5, 2.0, size=(m, j))])
    labels = (rng.random((reps, m)) < 0.3).astype(float)
    weights = rng.integers(0, 4, size=(reps, m)).astype(float)
    weights[:, :j + 1] += 1.0
    data = DyadData(features=feats, labels=labels, weights=weights)
    fit = fit_ls(data) if lambda_reg is None else fit_ridge(data, lambda_reg)
    for r in range(reps):
        w = weights[r]
        gram = feats.T @ (feats * w[:, None]) / w.sum()
        if lambda_reg is not None:
            gram[1:, 1:] += np.eye(j) * lambda_reg / w.sum()
        expected = scipy.linalg.solve(gram, feats.T @ (w * labels[r]) / w.sum(),
                                      assume_a="pos")
        np.testing.assert_allclose(fit.beta[r], expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", range(4))
def test_population_projection_matches_a_cholesky_solve(seed):
    rng = np.random.default_rng(seed)
    def block(k):
        cuts = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, k - 1)), [1.0]])
        values = rng.uniform(0.05, 0.95, size=(k, k))
        return Block(cuts, (values + values.T) / 2)
    agents = [block(int(rng.integers(2, 5))) for _ in range(int(rng.integers(1, 4)))]
    truth = block(3)
    beta = population_projection(truth, agents)
    gram, target = gram_and_target(agents, truth)
    expected = scipy.linalg.solve(gram, target, assume_a="pos")
    np.testing.assert_allclose(beta.beta, expected, rtol=1e-12, atol=0)


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
    parts = [Block([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.8]]),
             Block([0, 0.3, 1], [[0.1, 0.7], [0.7, 0.2]])]
    truth = LinearCombo(np.array([0.0, 0.5, 0.5]), parts)
    beta_hat = np.array([0.1, 0.4, 0.45])
    gram, _ = gram_and_target(parts, truth)
    risk = l2_risk(beta_hat, np.array([0.0, 0.5, 0.5]), gram)
    dist = l2_distance(LinearCombo(beta_hat, parts), truth)
    assert risk == pytest.approx(dist ** 2, abs=1e-12)


# ---------------------------------------------------------------------------
# weighted rows
# ---------------------------------------------------------------------------

def _expanded(feats, weights, positives) -> DyadData:
    """The dyads that weighted rows stand for: row k repeated weights[k]
    times, its first positives[k] copies labelled 1."""
    labels = np.concatenate([np.arange(w) < p for w, p in zip(weights, positives)])
    return DyadData(features=np.repeat(feats, weights, axis=0), labels=labels)


def _five_fits(data: DyadData) -> dict:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # the one-class stack
        stack = fit_logistic_stack(data.features, data.labels, data.weights)
    return {"LS": fit_ls(data).beta, "Ridge": fit_ridge(data, 1e-3).beta,
            "Simplex": fit_simplex(data).beta, "Stack": stack,
            "BestAgent": cv_best_agent(data.features, data.labels, data.weights)}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(0, 5),
       st.sampled_from(["mixed", "none", "all"]), st.booleans())
def test_weighted_fits_equal_expanded_fits(seed, j, extra, classes, tie):
    """Each fitter on integer-weighted rows equals the same fitter on the
    rows repeated by their weights.  The distinct rows are J + 1 spread-out
    anchors (so the design is well conditioned) plus random ones; "mixed"
    rows each hold both labels, so the stack's optimum is finite, while
    "none" and "all" take the one-class path."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 0.3, size=j)
    agents = np.vstack([base, base + 0.6 * np.eye(j), rng.random((extra, j))])
    if tie:     # a copy of agent 1: BestAgent must still pick the lower index
        agents = np.column_stack([agents, agents[:, 0]])
    feats = np.column_stack([np.ones(len(agents)), agents])
    weights = rng.integers(2, 21, size=len(feats))
    positives = {"mixed": rng.integers(1, weights), "none": np.zeros_like(weights),
                 "all": weights}[classes]
    rows = _expanded(feats, weights, positives)
    weighted = DyadData(features=feats, labels=positives / weights, weights=weights)
    assert weighted.m == rows.m
    if tie:
        # the tie makes the LS design singular on both forms
        for data in (weighted, rows):
            with pytest.raises(SingularDesign):
                fit_ls(data)
        best = [cv_best_agent(d.features, d.labels, d.weights) for d in (weighted, rows)]
        assert best[0] == best[1] != feats.shape[1] - 2
        return
    got, want = _five_fits(weighted), _five_fits(rows)
    assert got.pop("BestAgent") == want.pop("BestAgent")
    for name, beta in got.items():
        np.testing.assert_allclose(beta, want[name], rtol=0, atol=1e-12, err_msg=name)
    if classes != "mixed":
        assert np.all(got["Stack"][1:] == 0.0)


def test_weighted_ls_singular_on_too_few_distinct_rows():
    # three distinct rows cannot determine four coefficients, however many
    # dyads stand behind them
    feats = np.array([[1.0, 0.2, 0.5, 0.9], [1.0, 0.7, 0.1, 0.3], [1.0, 0.4, 0.4, 0.6]])
    weights, positives = np.array([50, 40, 30]), np.array([10, 20, 5])
    for data in (DyadData(features=feats, labels=positives / weights, weights=weights),
                 _expanded(feats, weights, positives)):
        assert data.m == 120
        with pytest.raises(SingularDesign):
            fit_ls(data)


def test_stack_one_class_is_decided_on_weighted_positives():
    # every row half positive: equal fractions, but two classes
    feats = np.array([[1.0, 0.2], [1.0, 0.8]])
    weighted = DyadData(features=feats, labels=[0.5, 0.5], weights=[4, 6])
    rows = _expanded(feats, [4, 6], [2, 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta = fit_logistic_stack(weighted.features, weighted.labels, weighted.weights)
    np.testing.assert_allclose(beta, fit_logistic_stack(rows.features, rows.labels),
                               rtol=0, atol=1e-12)
