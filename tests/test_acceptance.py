"""Acceptance suite: the eleven end-to-end behavioral guarantees.

Each test covers one criterion at its stated tolerance and prints a single
pass line on success (run with ``pytest -s`` to see them inline).
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.special import expit, logit

from graphsynth import (Block, Constant, ER, ErgmSpec, GraphEnumeration,
                        ProductWeight, RDPG, SBM, audit_split,
                        bounded_tilt_bracket, calibrate_moment, cv_best_agent,
                        edge_prob_matrix, exact_enumeration_pmf,
                        default_generator, fit_ls, fit_tail_exponent,
                        functionals, gram_and_target, graph_statistics,
                        l2_distance, l2_risk, lipschitz_budget, make_split,
                        mixture_degree_pmf, paired_gaps, phase_sweep,
                        power_law_pmf, predict_clipped, sample_dyads,
                        sample_graph, score_metrics, spectral_bracket,
                        statistic_matrix, tilt_degree_pmf, tilt_er, tilt_rdpg,
                        tilt_sbm, uniform_step_map, write_edge_list)
from graphsynth.cli import main as cli_main


def _done(name):
    print(f"\nacceptance {name}: PASS")


# ---------------------------------------------------------------------------
# 1. closed-form tilt exactness
# ---------------------------------------------------------------------------

def test_acceptance_01_tilt_closed_forms():
    start = time.perf_counter()
    rng = np.random.default_rng(101)

    p = rng.uniform(0.01, 0.99, size=10_000)
    lam = rng.uniform(-4.0, 4.0, size=10_000)
    got = np.array([tilt_er(pi, li) for pi, li in zip(p, lam)])
    want = expit(logit(p) + lam)
    assert np.max(np.abs(got - want)) <= 1e-14

    for _ in range(500):
        b = rng.uniform(0.05, 0.95, size=(2, 2))
        b = 0.5 * (b + b.T)
        lm = rng.uniform(-2, 2, size=(2, 2))
        lm = 0.5 * (lm + lm.T)
        assert np.max(np.abs(tilt_sbm(b, lm) - expit(logit(b) + lm))) <= 1e-14

    for _ in range(500):
        agent = RDPG.make(rng.normal(scale=0.4, size=(4, 2)), rng.normal())
        li = rng.uniform(-2, 2)
        before = edge_prob_matrix(agent, 4)
        after = edge_prob_matrix(tilt_rdpg(agent, li), 4)
        off = ~np.eye(4, dtype=bool)
        assert np.max(np.abs(after[off] - expit(logit(before[off]) + li))) <= 1e-14

    # enumeration cross-check at n <= 5: tilting the pmf by exp(lam * edges)
    # equals enumerating the closed-form tilted model
    for n in (3, 4, 5):
        enum = GraphEnumeration.get(n)
        for _ in range(5):
            p0, li = rng.uniform(0.1, 0.9), rng.uniform(-1.5, 1.5)
            base = exact_enumeration_pmf(ER(p0), n)
            weighted = base.probs * np.exp(li * enum.edge_counts())
            direct = exact_enumeration_pmf(ER(tilt_er(p0, li)), n)
            tv = 0.5 * np.abs(weighted / weighted.sum() - direct.probs).sum()
            assert tv <= 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"tilt suite took {elapsed:.2f}s"
    _done("01 closed-form tilts exact to 1e-14, enumeration TV <= 1e-10")


# ---------------------------------------------------------------------------
# 2. ERGM closure + KL-optimal calibration
# ---------------------------------------------------------------------------

def test_acceptance_02_ergm_calibration_kl_optimal():
    start = time.perf_counter()
    n = 4
    stats = [("edges",), ("triangles",)]
    spec = ErgmSpec.make(stats, [-0.2, 0.1], n)
    enum = GraphEnumeration.get(n)
    stat = statistic_matrix(enum, stats)

    # feasible target: the mean map of a shifted parameter
    shifted = ErgmSpec.make(stats, [0.1, 0.3], n)
    target = exact_enumeration_pmf(shifted).probs @ stat

    tau = calibrate_moment(spec, target)
    tilted = ErgmSpec.make(stats, np.asarray(spec.theta) + tau, n)
    f_star = exact_enumeration_pmf(tilted).probs
    assert np.max(np.abs(f_star @ stat - target)) <= 1e-8
    # closure: the tilt is exactly a parameter shift
    np.testing.assert_allclose(tau, [0.3, 0.2], atol=1e-6)

    p0 = exact_enumeration_pmf(spec).probs
    kl = lambda q: float(np.sum(q * (np.log(np.maximum(q, 1e-300)) - np.log(p0))))
    kl_star = kl(f_star)

    # 100 random competitors matching the same moments (and total mass):
    # perturb f_star inside the null space of the constraint rows
    constraints = np.vstack([np.ones(len(f_star)), stat.T])
    basis = null_space(constraints)
    rng = np.random.default_rng(202)
    beaten = 0
    for _ in range(100):
        v = basis @ rng.normal(size=basis.shape[1])
        eps = 0.5 * f_star.min() / np.max(np.abs(v))
        g = f_star + eps * v
        assert np.all(g > 0)
        assert np.max(np.abs(g @ stat - target)) <= 1e-6
        if kl(g) > kl_star:
            beaten += 1
    assert beaten == 100

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"calibration suite took {elapsed:.2f}s"
    _done("02 moment calibration <= 1e-8 and KL-beats 100 competitors")


# ---------------------------------------------------------------------------
# 3. projection recovery at the parametric rate
# ---------------------------------------------------------------------------

def test_acceptance_03_projection_parametric_rate():
    start = time.perf_counter()
    w_star, parts = default_generator()
    gram, _ = gram_and_target(parts, w_star)
    beta_star = np.array([0.0, 0.4, 0.35, 0.25])
    seeds = np.random.SeedSequence(303).spawn(20)
    scaled = []
    for m in (1_000, 4_000, 16_000):
        risks = []
        for seed in seeds:
            data = sample_dyads(w_star, parts, m, seed)
            beta = fit_ls(data)
            risks.append(l2_risk(beta.beta, beta_star, gram))
        scaled.append(m * float(np.mean(risks)))
    ratio = max(scaled) / min(scaled)
    assert ratio <= 3.0, f"m*risk spread {scaled} (ratio {ratio:.2f})"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"projection suite took {elapsed:.2f}s"
    _done(f"03 m*risk flat across m (ratio {ratio:.2f} <= 3)")


# ---------------------------------------------------------------------------
# 4. combination beats any single agent
# ---------------------------------------------------------------------------

def test_acceptance_04_combination_beats_components():
    w1 = Block.from_arrays([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.8]])
    w2 = Block.from_arrays([0, 0.5, 1], [[0.2, 0.6], [0.6, 0.3]])
    parts = [w1, w2]
    w_star = Block.from_arrays([0, 0.5, 1],
                               0.5 * (np.asarray(w1.matrix) + np.asarray(w2.matrix)))
    delta_sq = min(l2_distance(w_star, w1), l2_distance(w_star, w2)) ** 2
    assert delta_sq > 0.0
    gram, _ = gram_and_target(parts, w_star)
    beta_star = np.array([0.0, 0.5, 0.5])
    for seed in np.random.SeedSequence(404).spawn(10):
        data = sample_dyads(w_star, parts, 100_000, seed)
        beta = fit_ls(data)
        risk = l2_risk(beta.beta, beta_star, gram)
        assert risk <= delta_sq / 10.0, f"risk {risk:.3e} vs floor {delta_sq:.3e}"
    _done(f"04 LS risk below single-agent floor delta^2={delta_sq:.4f} / 10")


# ---------------------------------------------------------------------------
# 5. Lipschitz property suite
# ---------------------------------------------------------------------------

def test_acceptance_05_lipschitz_no_violations():
    rng = np.random.default_rng(505)
    violations = 0
    slack = 1e-12
    for _ in range(10_000):
        k = int(rng.integers(1, 4))
        cuts = np.sort(rng.uniform(0.05, 0.95, size=k - 1)) if k > 1 else np.array([])
        bounds = np.concatenate([[0.0], cuts, [1.0]])
        mats = []
        for _ in range(2):
            m = rng.uniform(0.05, 0.95, size=(k, k))
            mats.append(0.5 * (m + m.T))
        b1 = Block.from_arrays(bounds, mats[0])
        b2 = Block.from_arrays(bounds, mats[1])
        delta = l2_distance(b1, b2)
        f1, f2 = functionals(b1), functionals(b2)
        budget = lipschitz_budget(delta, s0=min(f1.wedge, f2.wedge))
        mu = np.diff(bounds)
        deg_gap = math.sqrt(float(mu @ (mats[0] @ mu - mats[1] @ mu) ** 2))
        checks = [
            abs(f1.edge - f2.edge) <= budget.edge_bound + slack,
            deg_gap <= budget.degree_bound + slack,
            abs(f1.triangle - f2.triangle) <= budget.triangle_bound + slack,
            abs(f1.wedge - f2.wedge) <= budget.wedge_bound + slack,
            abs(f1.clustering - f2.clustering) <= budget.clustering_bound + slack,
        ]
        violations += sum(not c for c in checks)
    assert violations == 0
    _done("05 zero Lipschitz violations over 10^4 random block pairs")


# ---------------------------------------------------------------------------
# 6. law-of-large-numbers transfer of functionals
# ---------------------------------------------------------------------------

def test_acceptance_06_lln_functional_transfer():
    references = {
        "constant": Constant(0.35),
        "two_block": Block.from_arrays([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.8]]),
        # moderate weight spread keeps the latent-sampling noise of the
        # cubic functionals inside the 5% band at n=3000
        "degree_weight": ProductWeight(uniform_step_map([0.8, 0.7, 0.6, 0.5])),
    }
    n = 3000
    for name, w in references.items():
        f = functionals(w)
        targets = (f.edge, f.triangle, f.wedge, f.clustering)
        passes = 0
        for seed in range(10):
            g = sample_graph(w, n, seed=6060 + seed)
            s = graph_statistics(g)
            observed = (s.avg_degree_norm, s.triangle_density, s.wedge_density,
                        s.clustering)
            if all(abs(o - t) <= 0.05 * abs(t) for o, t in zip(observed, targets)):
                passes += 1
        assert passes >= 9, f"{name}: only {passes}/10 seeds within 5%"
    _done("06 sampled functionals within 5% at n=3000 (>=9/10 seeds)")


# ---------------------------------------------------------------------------
# 7. sparse-regime phase transition
# ---------------------------------------------------------------------------

def test_acceptance_07_phase_transition():
    lambdas = [0.6, 0.8, 1.0, 1.1, 1.3, 2.0]
    curve = phase_sweep(Constant(1.0), lambdas, n=20_000,
                        seeds=np.random.SeedSequence(707).spawn(3 * len(lambdas)))
    assert curve.lambda_critical == pytest.approx(1.0, abs=1e-9)
    fractions = dict(zip(lambdas, curve.mean_fraction))
    onset = next(lam for lam in lambdas if fractions[lam] > 0.05)
    assert 0.8 <= onset <= 1.3, f"empirical onset {onset}"
    # fixed point of zeta = 1 - exp(-2 zeta)
    zeta = 0.7968121300200202
    assert abs(fractions[2.0] - zeta) <= 0.05
    # shape: subcritical below 0.8 * lambda_c, monotone growth above
    assert fractions[0.6] <= 0.05
    assert fractions[1.1] < fractions[1.3] < fractions[2.0]

    parts = [Block.from_arrays([0, 0.5, 1], [[0.8, 0.1], [0.1, 0.8]]),
             Block.from_arrays([0, 0.25, 1], [[0.3, 0.6], [0.6, 0.2]])]
    lower, upper, rho = spectral_bracket([0.1, 0.5, 0.4], parts)
    assert lower - 1e-6 <= rho <= upper + 1e-6
    _done(f"07 onset {onset} in [0.8,1.3]; fraction at lambda=2 near {zeta:.3f}; "
          "bracket holds to 1e-6")


# ---------------------------------------------------------------------------
# 8. heavy-tail guarantees
# ---------------------------------------------------------------------------

def test_acceptance_08_heavy_tails():
    start = time.perf_counter()
    for gamma in (2.5, 3.5):
        pmf = power_law_pmf(gamma, 100_000)
        for rho in (0.5, 1.0):
            gamma_hat, _, _ = fit_tail_exponent(tilt_degree_pmf(pmf, rho))
            assert abs(gamma_hat - (gamma - rho)) <= 0.15

    light = power_law_pmf(13.7, 100_000)
    heavy = power_law_pmf(5.0, 100_000)
    mix = mixture_degree_pmf([light, heavy], [0.7, 0.3])
    gamma_hat, _, _ = fit_tail_exponent(mix)
    assert abs(gamma_hat - 5.0) <= 0.2

    assert bounded_tilt_bracket(0.0, 7.0) == (1.0, 1.0)
    lo, hi = bounded_tilt_bracket(math.log(2.0), 1.0)
    assert lo == 0.25 and hi == 4.0

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"heavy-tail suite took {elapsed:.2f}s"
    _done("08 tilt shift within 0.15, mixture min-exponent within 0.2, "
          "bracket factors exact")


# ---------------------------------------------------------------------------
# 9. metric oracles
# ---------------------------------------------------------------------------

def test_acceptance_09_metric_oracles():
    r = score_metrics(np.array([0.9, 0.1]), np.array([1.0, 0.0]))
    assert abs(r.brier - 0.01) <= 1e-12
    assert abs(r.logloss + math.log(0.9)) <= 1e-12
    assert r.auc == 1.0 and r.ap == 1.0

    labels4 = np.array([1.0, 0.0, 1.0, 0.0])
    r4 = score_metrics(np.array([0.8, 0.6, 0.4, 0.2]), labels4)
    # one discordant pair out of four: AUC 3/4; AP = (1 + 2/3)/2
    assert abs(r4.auc - 0.75) <= 1e-12
    assert abs(r4.ap - (1.0 + 2.0 / 3.0) / 2.0) <= 1e-12
    assert abs(r4.brier - np.mean((np.array([0.8, 0.6, 0.4, 0.2]) - labels4) ** 2)) <= 1e-12

    # Murphy identity on random inputs: the decomposition equals the Brier
    # score of the bin-averaged predictions to 1e-9
    rng = np.random.default_rng(909)
    for _ in range(10):
        preds = rng.random(300)
        labels = (rng.random(300) < preds).astype(float)
        rep = score_metrics(preds, labels, bins=10)
        bin_idx = np.minimum((preds * 10).astype(int), 9)
        binned = preds.copy()
        for b in np.unique(bin_idx):
            binned[bin_idx == b] = preds[bin_idx == b].mean()
        assert abs(rep.binned_brier - np.mean((binned - labels) ** 2)) <= 1e-9

    # ECE bin audit on crafted inputs: two occupied bins with known gaps
    preds = np.array([0.05, 0.05, 0.95, 0.95])
    labels = np.array([0.0, 1.0, 1.0, 1.0])
    rep = score_metrics(preds, labels)
    # bin 0: |0.05 - 0.5| = 0.45 at weight 1/2; bin 9: |0.95 - 1| = 0.05
    assert abs(rep.ece - (0.5 * 0.45 + 0.5 * 0.05)) <= 1e-12
    assert len(rep.reliability_bins) == 2
    _done("09 metric hand oracles to 1e-12, Murphy to 1e-9, ECE audited")


# ---------------------------------------------------------------------------
# 10. synthesis beats the best single agent (synthetic signatures)
# ---------------------------------------------------------------------------

def _synthetic_round(w_star, parts, m_train, seed, m_val=1000, m_test=20_000):
    s_train, s_val, s_test = seed.spawn(3)
    train = sample_dyads(w_star, parts, m_train, s_train)
    val = sample_dyads(w_star, parts, m_val, s_val)
    test = sample_dyads(w_star, parts, m_test, s_test)
    ls_pred = predict_clipped(fit_ls(train), test.features)
    best = cv_best_agent(val.features, val.labels)
    best_pred = np.clip(test.features[:, 1 + best], 0.0, 1.0)
    return score_metrics(ls_pred, test.labels), score_metrics(best_pred, test.labels)


def test_acceptance_10_s1_s2_signatures():
    w_star, parts = default_generator()

    # S1: 20 replicates at the default training budget
    wins_brier = wins_logloss = 0
    for seed in np.random.SeedSequence(1010).spawn(20):
        ls, best = _synthetic_round(w_star, parts, 4000, seed)
        wins_brier += ls.brier < best.brier
        wins_logloss += ls.logloss < best.logloss
    assert wins_brier >= 19, f"Brier wins {wins_brier}/20"
    assert wins_logloss >= 19, f"log-loss wins {wins_logloss}/20"

    # S2: ordering at every n, with shrinking standard error
    n_grid = (200, 400, 800, 1200)
    ses = []
    for ni, n in enumerate(n_grid):
        briers_ls, briers_best = [], []
        for seed in np.random.SeedSequence(2020 + ni).spawn(10):
            ls, best = _synthetic_round(w_star, parts, 3 * n, seed)
            briers_ls.append(ls.brier)
            briers_best.append(best.brier)
        assert np.mean(briers_ls) < np.mean(briers_best), f"ordering fails at n={n}"
        ses.append(np.std(briers_ls, ddof=1) / np.sqrt(10))
    assert ses[-1] < ses[0], f"s.e. did not shrink: {ses}"
    _done(f"10 S1 wins {wins_brier}/20 Brier, {wins_logloss}/20 log-loss; "
          "S2 ordering at every n with shrinking s.e.")


# ---------------------------------------------------------------------------
# 11. real-protocol hygiene and report shape
# ---------------------------------------------------------------------------

def test_acceptance_11_real_protocol_hygiene(tmp_path, capsys):
    w = Block.from_arrays([0, 0.5, 1], [[0.08, 0.02], [0.02, 0.08]])
    g = sample_graph(w, 300, seed=1111)
    path = tmp_path / "graph.txt"
    write_edge_list(g, str(path))

    # the audit verb proves split hygiene on every regime
    assert cli_main(["audit", str(path)]) == 0
    out = capsys.readouterr().out
    for regime in ("edge_holdout", "node_holdout", "uniform_dyads"):
        assert f"audit {regime}: OK" in out

    # direct hygiene checks on the node-holdout split
    spec = make_split(g, "node_holdout", seed=5)
    audit_split(spec, g)
    held = set(int(v) for v in spec.held_out_nodes)
    for i, j in np.concatenate([spec.train_dyads, spec.val_dyads]):
        assert int(i) not in held and int(j) not in held

    # paired-gap report shape: mean, se, CI and win rate per dataset x split
    rng = np.random.default_rng(1112)
    scores_a, scores_b = {}, {}
    for regime in ("edge_holdout", "node_holdout", "uniform_dyads"):
        for s in range(5):
            key = f"{regime}/{s}"
            for scores in (scores_a, scores_b):
                preds = rng.random(200)
                labels = (rng.random(200) < preds).astype(float)
                scores[key] = score_metrics(preds, labels)
    report = paired_gaps(scores_a, scores_b)
    rows = report.to_rows()
    assert {row["metric"] for row in rows} == {"logloss", "brier", "auc", "ap"}
    for row in rows:
        assert row["n_units"] == 15
        assert row["ci_low"] <= row["mean_gap"] <= row["ci_high"]
        assert 0.0 <= row["win_rate"] <= 1.0
    _done("11 audit verb hygiene and paired-gap report shape")
