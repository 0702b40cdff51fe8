"""Agent models: closed-form tilts, ERGM stacking, calibration, enumeration."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit, logit

from graphsynth import (ER, RDPG, SBM, AgentError, Block, ChungLu, Constant,
                        DegreePmf, ErgmSpec, GraphEnumeration, GraphPmf,
                        InfeasibleTarget, LinearCombo, StepMap, WeightVector,
                        calibrate_moment, edge_prob_matrix, er_as_ergm, ergm_stack_tilt, exact_enumeration_pmf,
                        mixture_pmf, stat_tilt_weights, statistic_matrix,
                        tilt_er, tilt_rdpg, tilt_sbm)
from graphsynth.agents import DYAD_BLOCK_ROWS, logit_shift

EDGES = [("edges",)]


# ---------------------------------------------------------------------------
# closed-form tilts
# ---------------------------------------------------------------------------

def test_tilt_er_oracles():
    assert tilt_er(0.3, 0.0) == pytest.approx(0.3, abs=1e-15)
    assert tilt_er(0.5, math.log(3.0)) == pytest.approx(0.75, abs=1e-14)
    # monotone to 1 as lambda grows
    vals = [tilt_er(0.5, lam) for lam in (0.0, 1.0, 3.0, 10.0, 30.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1 - 1e-9


def test_tilt_er_formula_random():
    rng = np.random.default_rng(0)
    p = rng.uniform(1e-4, 1 - 1e-4, size=1000)
    lam = rng.normal(0, 3, size=1000)
    direct = np.exp(lam) * p / (np.exp(lam) * p + 1 - p)
    got = np.array([tilt_er(pi, li) for pi, li in zip(p, lam)])
    np.testing.assert_allclose(got, direct, rtol=0, atol=1e-14)


def test_tilt_er_rejects_boundary():
    for bad in (0.0, 1.0):
        with pytest.raises(AgentError):
            tilt_er(bad, 0.5)


def test_tilt_sbm_oracles():
    b = np.array([[0.5, 0.2], [0.2, 0.7]])
    np.testing.assert_allclose(tilt_sbm(b, np.zeros((2, 2))), b, atol=1e-15)
    lam = np.full((2, 2), math.log(3.0))
    assert tilt_sbm(b, lam)[0, 0] == pytest.approx(0.75, abs=1e-14)
    diag_only = np.diag([1.0, 1.0])
    tilted = tilt_sbm(b, diag_only)
    assert tilted[0, 1] == pytest.approx(0.2, abs=1e-15)
    assert tilted[0, 0] > b[0, 0]
    with pytest.raises(AgentError):
        tilt_sbm(b, np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_tilt_rdpg_intercept_shift():
    agent = RDPG([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], intercept=0.0)
    same = tilt_rdpg(agent, 0.0)
    np.testing.assert_allclose(edge_prob_matrix(same, 3), edge_prob_matrix(agent, 3))
    # dot product 1 with lambda = -1 cancels to sigma(0) = 0.5
    shifted = tilt_rdpg(RDPG([[1.0], [1.0]]), -1.0)
    assert edge_prob_matrix(shifted, 2)[0, 1] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("d", [1, 3, 5, 8, 9, 17])
def test_rdpg_dyad_logits_match_fancy_indexing(d):
    # bit for bit, across the DYAD_BLOCK_ROWS block boundaries
    rng = np.random.default_rng(d)
    z = rng.normal(size=(400, d))
    agent = RDPG(z, intercept=-2.5)
    i, j = rng.integers(0, 400, size=(2, 2 * DYAD_BLOCK_ROWS + 5))
    want = np.sum(z[i] * z[j], axis=-1) - 2.5
    assert agent.dyad_logits(i, j).tobytes() == want.tobytes()
    # broadcast index arrays, as edge_prob_matrix passes them
    idx = np.arange(400)
    want = np.sum(z[:, None] * z[None, :], axis=-1) - 2.5
    assert agent.dyad_logits(idx[:, None], idx[None, :]).tobytes() == want.tobytes()


def test_rdpg_dyad_logits_peak_memory():
    # 200,000 dyads at d = 3, as _fit_rdpg_intercept evaluates them: beside
    # the output and the positions, at most three block-sized gathers
    # (all at once, the three (m, d) temporaries took 6.1 times the output)
    rng = np.random.default_rng(7)
    z = rng.normal(size=(5000, 3))
    agent = RDPG(z)
    i, j = rng.integers(0, 5000, size=(2, 200_000))
    tracemalloc.start()
    try:
        out = agent.dyad_logits(i, j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + z.nbytes + 3 * DYAD_BLOCK_ROWS * z.shape[1] * 8


# ---------------------------------------------------------------------------
# edge probability matrices
# ---------------------------------------------------------------------------

def test_edge_prob_matrix_kinds():
    np.testing.assert_allclose(edge_prob_matrix(ER(0.4), 3),
                               0.4 * (1 - np.eye(3)))
    sbm = SBM([0, 1], [[0.5, 0.2], [0.2, 0.6]])
    assert edge_prob_matrix(sbm, 2)[0, 1] == 0.2
    cl = ChungLu([2.0, 0.9])
    assert edge_prob_matrix(cl, 2)[0, 1] == pytest.approx(1.0, abs=1e-11)
    bins = SBM([0, 1, 1], [[0.1, 0.3], [0.3, 0.8]])
    mat = edge_prob_matrix(bins, 3)
    assert mat[0, 1] == 0.3 and mat[1, 2] == 0.8
    with pytest.raises(AgentError):
        edge_prob_matrix(sbm, 5)


# ---------------------------------------------------------------------------
# model parameters
# ---------------------------------------------------------------------------

# every kind with array fields, and constructor arguments with writable arrays
MODEL_KINDS = {
    "StepMap": (StepMap, {"boundaries": np.array([0.0, 0.5, 1.0]),
                          "values": np.array([[0.3, 1.0], [0.2, 0.1]])}),
    "Block": (Block, {"boundaries": np.array([0.0, 0.5, 1.0]),
                      "matrix": np.array([[0.5, 0.2], [0.2, 0.6]])}),
    "LinearCombo": (LinearCombo, {"beta": np.array([0.1, 0.9]), "parts": (Constant(0.5),)}),
    "SBM": (SBM, {"assignment": np.array([0, 1, 1], dtype=np.int32),
                  "matrix": np.array([[0.5, 0.2], [0.2, 0.6]])}),
    "RDPG": (RDPG, {"positions": np.array([[1.0, 0.0], [0.5, 0.5]]), "intercept": -0.5}),
    "ChungLu": (ChungLu, {"theta": np.array([0.3, 0.9])}),
    "ErgmSpec": (ErgmSpec, {"stats": [("edges",)], "theta": np.array([0.2]), "n": 4}),
    # result records hold their arrays the same way
    "GraphPmf": (GraphPmf, {"n": 2, "probs": np.array([0.25, 0.75])}),
    "DegreePmf": (DegreePmf, {"probs": np.array([0.5, 0.3, 0.2]), "gamma": 1.5}),
    "WeightVector": (WeightVector, {"beta": np.array([0.1, 0.9])}),
}


@pytest.mark.parametrize("name", MODEL_KINDS)
def test_model_arrays_are_read_only_copies(name):
    kind, args = MODEL_KINDS[name]
    model = kind(**args)
    given = {key: value for key, value in args.items() if isinstance(value, np.ndarray)}
    stored = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)
              if isinstance(getattr(model, f.name), np.ndarray)}
    assert stored.keys() == given.keys()
    for key, arr in stored.items():
        assert arr.dtype == (int if key == "assignment" else float)
        np.testing.assert_array_equal(arr, given[key])
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1
        # the caller's array keeps its flags and is not aliased
        assert given[key].flags.writeable
        assert not np.shares_memory(arr, given[key])
    # models compare and hash by identity
    assert model == model and model != kind(**args)
    assert len({model, model, kind(**args)}) == 2


def test_unclipped_combo_block_is_read_only():
    # this block skips Block's [0, 1] check and still stores read-only arrays
    blk = LinearCombo([0.9, 0.5], [Constant(0.8)]).block
    assert blk.matrix.max() > 1.0
    assert not blk.matrix.flags.writeable and not blk.boundaries.flags.writeable


# ---------------------------------------------------------------------------
# enumeration and pmfs
# ---------------------------------------------------------------------------

def test_enumeration_counts_against_brute_force():
    enum = GraphEnumeration.get(4)
    tri = enum.triangle_counts()
    for mask in np.random.default_rng(1).integers(0, enum.n_graphs, size=50):
        adj = np.zeros((4, 4), dtype=int)
        for k, (i, j) in enumerate(enum.pairs):
            adj[i, j] = adj[j, i] = (mask >> k) & 1
        t = sum(adj[i, j] * adj[j, k] * adj[i, k]
                for i, j, k in itertools.combinations(range(4), 3))
        assert tri[mask] == t


def test_exact_pmf_er_triangle_probability():
    pmf = exact_enumeration_pmf(ER(0.3), n=3)
    assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert pmf.probs[-1] == pytest.approx(0.3 ** 3, abs=1e-14)  # all-edges mask


def tv_distance(a: GraphPmf, b: GraphPmf) -> float:
    return 0.5 * float(np.abs(a.probs - b.probs).sum())


def test_theta_zero_ergm_is_uniform():
    spec = ErgmSpec([("edges",)], [0.0], 4)
    pmf = exact_enumeration_pmf(spec)
    np.testing.assert_allclose(pmf.probs, 1.0 / pmf.probs.size, atol=1e-15)


def test_er_as_ergm_matches_independent_edges():
    p = 0.37
    a = exact_enumeration_pmf(ER(p), n=4)
    b = exact_enumeration_pmf(er_as_ergm(p, 4))
    assert tv_distance(a, b) < 1e-12


@pytest.mark.parametrize("stat", [("wedges",), ("kstar", 2)])
def test_ergm_spec_rejects_other_statistics(stat):
    # an ErgmSpec stacks edge and triangle counts only
    with pytest.raises(AgentError, match=stat[0]):
        ErgmSpec([stat], [0.1], 4)
    with pytest.raises(AgentError, match=stat[0]):
        statistic_matrix(GraphEnumeration.get(4), [("edges",), stat])


def test_enumeration_rejects_large_n():
    with pytest.raises(AgentError):
        GraphEnumeration(7)


# ---------------------------------------------------------------------------
# ERGM stacking and closure
# ---------------------------------------------------------------------------

def test_stack_tilt_parameter_arithmetic():
    s1 = ErgmSpec([("edges",)], [1.0], 4)
    s2 = ErgmSpec([("edges",)], [3.0], 4)
    pooled = ergm_stack_tilt([(s1, 0.5), (s2, 0.5)], [0.0, 0.0])
    assert pooled.theta.tolist() == [0.5, 1.5]
    solo = ergm_stack_tilt([(s1, 1.0)], [0.0])
    assert solo.theta.tolist() == [1.0]
    with pytest.raises(AgentError):
        ergm_stack_tilt([(s1, 0.5), (s2, 0.5)], [0.0])


def test_ergm_closure_tilt_equals_shifted_theta():
    # entropic tilt exp(tau . T) of an ERGM is the ERGM at theta + tau
    for n in (3, 4, 5):
        stats = [("edges",), ("triangles",)]
        theta = np.array([-0.4, 0.3])
        tau = np.array([0.6, -0.2])
        base = exact_enumeration_pmf(ErgmSpec(stats, theta, n))
        weights = stat_tilt_weights(n, stats, tau)
        tilted = base.probs * weights
        tilted = GraphPmf(n, tilted / tilted.sum())
        direct = exact_enumeration_pmf(ErgmSpec(stats, theta + tau, n))
        assert tv_distance(tilted, direct) <= 1e-10


def test_er_edge_tilt_matches_tilt_er_via_enumeration():
    p, lam, n = 0.3, 0.8, 4
    base = exact_enumeration_pmf(ER(p), n=n)
    weights = stat_tilt_weights(n, EDGES, [lam])
    tilted = base.probs * weights
    tilted = GraphPmf(n, tilted / tilted.sum())
    direct = exact_enumeration_pmf(ER(tilt_er(p, lam)), n=n)
    assert tv_distance(tilted, direct) <= 1e-10


def test_sbm_and_rdpg_tilt_enumeration_equivalence():
    n = 4
    sbm = SBM([0, 0, 1, 1], [[0.6, 0.2], [0.2, 0.5]])
    lam = 0.7
    base = exact_enumeration_pmf(sbm)
    tilted = base.probs * stat_tilt_weights(n, EDGES, [lam])
    tilted = GraphPmf(n, tilted / tilted.sum())
    direct = exact_enumeration_pmf(
        SBM(sbm.assignment, tilt_sbm(sbm.matrix, np.full((2, 2), lam))))
    assert tv_distance(tilted, direct) <= 1e-10

    rdpg = RDPG(np.random.default_rng(3).normal(size=(n, 2)), intercept=-0.2)
    base = exact_enumeration_pmf(rdpg)
    tilted = base.probs * stat_tilt_weights(n, EDGES, [lam])
    tilted = GraphPmf(n, tilted / tilted.sum())
    direct = exact_enumeration_pmf(tilt_rdpg(rdpg, lam))
    assert tv_distance(tilted, direct) <= 1e-10


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------

def test_mixture_single_agent_identity():
    pmf = exact_enumeration_pmf(ER(0.4), n=3)
    mixed, pi = mixture_pmf([pmf], [None], [1.0])
    assert tv_distance(mixed, pmf) < 1e-14
    assert pi[0] == pytest.approx(1.0)


def test_mixture_equal_untilted_is_average():
    a = exact_enumeration_pmf(ER(0.2), n=3)
    b = exact_enumeration_pmf(ER(0.7), n=3)
    mixed, pi = mixture_pmf([a, b], [None, None], [0.5, 0.5])
    np.testing.assert_allclose(mixed.probs, 0.5 * (a.probs + b.probs), atol=1e-14)
    np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-14)


def test_mixture_tilt_reweights_prior():
    # tilting one component upweights it by its normalizer a_j
    a = exact_enumeration_pmf(ER(0.2), n=3)
    b = exact_enumeration_pmf(ER(0.7), n=3)
    alpha = stat_tilt_weights(3, EDGES, [1.0])
    _, pi = mixture_pmf([a, b], [alpha, None], [0.5, 0.5])
    a_norm = float(alpha @ a.probs)
    expected = np.array([0.5 * a_norm, 0.5])
    np.testing.assert_allclose(pi, expected / expected.sum(), atol=1e-12)


def permute_pmf(enum: GraphEnumeration, probs: np.ndarray, perm) -> np.ndarray:
    """Pushforward of an enumerated pmf under a vertex permutation."""
    new_bit_order = [enum.pair_index(perm[i], perm[j]) for (i, j) in enum.pairs]
    weights = 1 << np.arange(enum.n_pairs, dtype=np.uint32)
    new_masks = (enum.edge_bits[:, new_bit_order].astype(np.uint32) * weights).sum(axis=1)
    out = np.zeros_like(probs)
    out[new_masks] = probs
    return out


def test_mixture_exchangeable_under_all_permutations():
    n = 4
    enum = GraphEnumeration.get(n)
    a = exact_enumeration_pmf(ER(0.3), n=n)
    b = exact_enumeration_pmf(ErgmSpec([("edges",), ("triangles",)],
                                       [-0.2, 0.4], n))
    mixed, _ = mixture_pmf([a, b], [stat_tilt_weights(n, EDGES, [0.5]), None], [0.6, 0.4])
    # invariance up to summation-order ulps in the enumeration dot products
    for perm in itertools.permutations(range(n)):
        np.testing.assert_allclose(permute_pmf(enum, mixed.probs, perm), mixed.probs,
                                   rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# moment calibration
# ---------------------------------------------------------------------------

def test_calibrate_er_closed_form():
    lam = calibrate_moment(ER(0.2), 22.5, n=10)
    assert lam == pytest.approx(math.log(4.0), abs=1e-12)
    assert tilt_er(0.2, lam) * 45 == pytest.approx(22.5, abs=1e-12)
    fixed = calibrate_moment(ER(0.2), 0.2 * 45, n=10)
    assert fixed == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(InfeasibleTarget):
        calibrate_moment(ER(0.2), 45.0, n=10)


def test_calibrate_sbm_blockwise():
    sbm = SBM([0, 0, 0, 1, 1, 1], [[0.3, 0.1], [0.1, 0.4]])
    # block pair counts: within 3 each, across 9
    target = np.array([[1.5, 4.5], [4.5, 2.1]])
    b = tilt_sbm(sbm.matrix, calibrate_moment(sbm, target))
    assert 3 * b[0, 0] == pytest.approx(1.5, abs=1e-10)
    assert 9 * b[0, 1] == pytest.approx(4.5, abs=1e-10)
    assert 3 * b[1, 1] == pytest.approx(2.1, abs=1e-10)


def test_calibrate_sbm_uneven_blocks_against_pair_enumeration():
    # block 1 is empty, so it has no pairs and keeps a zero tilt
    c = [0, 2, 2, 0, 2, 2, 0]
    sbm = SBM(c, [[0.3, 0.2, 0.1], [0.2, 0.5, 0.25], [0.1, 0.25, 0.4]])
    target = np.array([[1.0, 0.0, 3.0], [0.0, 0.0, 0.0], [3.0, 0.0, 2.5]])
    lam = calibrate_moment(sbm, target)
    assert np.all(lam[1] == 0.0)
    probs = edge_prob_matrix(SBM(c, tilt_sbm(sbm.matrix, lam)), len(c))
    got = np.zeros((3, 3))
    for i, j in itertools.combinations(range(len(c)), 2):
        a, b = sorted((c[i], c[j]))
        got[a, b] += probs[i, j]
    iu = np.triu_indices(3)
    np.testing.assert_allclose(got[iu], target[iu], atol=1e-12)


def test_calibrate_rdpg_hits_edge_target():
    rng = np.random.default_rng(8)
    agent = RDPG(rng.normal(scale=0.7, size=(6, 2)), intercept=-0.4)
    target = 9.0
    tilted = tilt_rdpg(agent, calibrate_moment(agent, target))
    mat = edge_prob_matrix(tilted, 6)
    assert np.triu(mat, 1).sum() == pytest.approx(target, abs=1e-13)


def test_calibrate_ergm_round_trip():
    n = 4
    stats = [("edges",), ("triangles",)]
    theta = np.array([-0.3, 0.2])
    delta = np.array([0.4, -0.3])
    shifted = exact_enumeration_pmf(ErgmSpec(stats, theta + delta, n))
    enum = GraphEnumeration.get(n)
    stat = statistic_matrix(enum, stats)
    target = shifted.probs @ stat
    tau = calibrate_moment(ErgmSpec(stats, theta, n), target)
    np.testing.assert_allclose(tau, delta, atol=1e-6)


def test_calibrate_ergm_infeasible_target():
    spec = ErgmSpec([("edges",)], [0.0], 4)
    with pytest.raises(InfeasibleTarget):
        calibrate_moment(spec, np.array([6.0]))  # max edges on n=4 is 6


def test_calibrate_ergm_far_tilt():
    # the target sits next to the complete graph's (6, 4) corner, so Newton
    # starts far from a large tau
    stats = [("edges",), ("triangles",)]
    delta = np.array([3.0, 1.5])
    stat = statistic_matrix(GraphEnumeration.get(4), stats)
    target = exact_enumeration_pmf(ErgmSpec(stats, delta, 4)).probs @ stat
    tau = calibrate_moment(ErgmSpec(stats, [0.0, 0.0], 4), target)
    np.testing.assert_allclose(tau, delta, atol=1e-6)


# ---------------------------------------------------------------------------
# logit shift
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rate", [1e-9, 7e-4, 0.3, 1 - 1e-6])
def test_logit_shift_hits_rate(rate):
    logits = np.random.default_rng(12).normal(-1.0, 2.0, size=5000)
    b = logit_shift(logits, rate)
    assert np.mean(expit(logits + b)) == pytest.approx(rate, rel=1e-12)


def test_logit_shift_constant_logits():
    # the bracket is the single point logit(rate) - 0.3
    b = logit_shift(np.full(7, 0.3), 0.2)
    assert b == pytest.approx(logit(0.2) - 0.3, abs=1e-15)


def test_logit_shift_saturated_terms():
    # terms at expit(+-800) are exactly 0 or 1, so Newton's slope comes from
    # one term only, or from none where the mean is flat
    b = logit_shift(np.array([-800.0, 800.0, 0.0]), 0.4)
    assert np.mean(expit(np.array([-800.0, 800.0, 0.0]) + b)) == pytest.approx(0.4, rel=1e-12)
    b = logit_shift(np.array([-800.0, 800.0]), 0.5)
    assert np.mean(expit(np.array([-800.0, 800.0]) + b)) == pytest.approx(0.5, rel=1e-12)


def test_logit_shift_expit_passes(monkeypatch):
    import graphsynth.agents as agents
    calls = []

    def counted(x):
        calls.append(1)
        return expit(x)

    monkeypatch.setattr(agents, "expit", counted)
    logits = np.random.default_rng(13).normal(0.0, 1.5, size=200_000)
    b = logit_shift(logits, 7e-4)
    assert len(calls) <= 5
    assert np.mean(expit(logits + b)) == pytest.approx(7e-4, rel=1e-12)


def test_logit_shift_near_rate_one(monkeypatch):
    # the mean of terms near 1 cannot resolve 1 - rate = 1e-9; the
    # complement's mean can, so few passes reach it to rounding
    import graphsynth.agents as agents
    calls = []

    def counted(x):
        calls.append(1)
        return expit(x)

    monkeypatch.setattr(agents, "expit", counted)
    logits = np.random.default_rng(14).normal(size=50_000)
    rate = 1 - 1e-9
    b = logit_shift(logits, rate)
    assert len(calls) <= 6
    tail = 1.0 - rate
    assert np.mean(expit(-(logits + b))) == pytest.approx(tail, rel=1e-12)
