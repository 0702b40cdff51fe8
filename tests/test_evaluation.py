"""Split protocols, proper-score metrics, paired gaps, and baselines."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit, log_expit, logit

import graphsynth
from graphsynth import (Block, SplitError, audit_split, cv_best_agent, evaluation,
                        fit_logistic_stack, make_split, paired_gaps,
                        sample_graph, sample_sparse_graph, score_metrics)
from graphsynth.evaluation import (CALIBRATION_BINS, GAP_METRICS, STACK_RIDGE,
                                   UNIFORM_DYADS_PER_EDGE, _descending_ties,
                                   _sample_negatives, population_metrics)
from graphsynth.sampling import graph_from_edge_array

SPARSE_BLOCK = Block([0, 0.5, 1], [[0.08, 0.02], [0.02, 0.08]])


def sparse_graph(seed=7, n=300):
    return sample_graph(SPARSE_BLOCK, n, seed=seed)


# ---------------------------------------------------------------------------
# metrics: hand oracles
# ---------------------------------------------------------------------------

def test_perfect_predictions():
    labels = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    r = score_metrics(labels.copy(), labels)
    assert r.brier == 0.0
    assert r.logloss <= 1e-11
    assert r.auc == 1.0
    assert r.ap == 1.0
    assert r.ece == 0.0


def test_constant_half_on_balanced_labels():
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    preds = np.full(4, 0.5)
    r = score_metrics(preds, labels)
    assert r.brier == pytest.approx(0.25, abs=1e-12)
    assert r.logloss == pytest.approx(np.log(2.0), abs=1e-12)
    assert r.auc == pytest.approx(0.5, abs=1e-12)
    # constant scores: index tiebreak ranks positives at 1 and 3
    assert r.ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
    assert r.ece == 0.0  # the single occupied bin is perfectly calibrated


def test_two_point_oracle():
    preds = np.array([0.9, 0.1])
    labels = np.array([1.0, 0.0])
    r = score_metrics(preds, labels)
    assert r.auc == 1.0
    assert r.ap == 1.0
    assert r.brier == pytest.approx(0.01, abs=1e-15)
    assert r.logloss == pytest.approx(-np.log(0.9), abs=1e-12)
    assert r.ece == pytest.approx(0.1, abs=1e-12)
    rel, res, unc = r.murphy
    assert rel == pytest.approx(0.01, abs=1e-12)
    assert res == pytest.approx(0.25, abs=1e-12)
    assert unc == pytest.approx(0.25, abs=1e-12)
    assert r.binned_brier == pytest.approx(r.brier, abs=1e-12)


def test_murphy_binned_identity_random():
    """reliability - resolution + uncertainty equals the Brier score of the
    bin-averaged predictions (exact identity, checked to 1e-9)."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(50, 500))
        preds = rng.random(m)
        labels = (rng.random(m) < preds).astype(float)
        r = score_metrics(preds, labels)
        bins = CALIBRATION_BINS
        bin_idx = np.minimum((preds * bins).astype(int), bins - 1)
        binned = preds.copy()
        for b in np.unique(bin_idx):
            binned[bin_idx == b] = preds[bin_idx == b].mean()
        brier_binned = np.mean((binned - labels) ** 2)
        assert abs(r.binned_brier - brier_binned) <= 1e-9


def test_reliability_bins_skip_empty():
    preds = np.array([0.05, 0.06, 0.95, 0.94])
    labels = np.array([0.0, 0.0, 1.0, 1.0])
    r = score_metrics(preds, labels)
    assert len(r.reliability_bins) == 2  # only bins 0 and 9 are occupied
    masses = [row[2] for row in r.reliability_bins]
    assert masses == [0.5, 0.5]


def test_constant_predictor_grid_minimized_at_base_rate():
    """Among constant predictors, the label frequency minimizes both proper
    scores (propriety sanity check)."""
    rng = np.random.default_rng(13)
    labels = (rng.random(500) < 0.3).astype(float)
    rate = labels.mean()
    grid = np.linspace(0.01, 0.99, 99)
    briers = [score_metrics(np.full(500, c), labels).brier for c in grid]
    loglosses = [score_metrics(np.full(500, c), labels).logloss for c in grid]
    best_c = grid[int(np.argmin(briers))]
    assert abs(best_c - rate) <= 0.011
    assert abs(grid[int(np.argmin(loglosses))] - rate) <= 0.011


def test_ranking_metrics_monotone_invariant():
    rng = np.random.default_rng(15)
    preds = rng.random(200)
    labels = (rng.random(200) < preds).astype(float)
    warped = expit(4.0 * preds - 2.0)  # strictly increasing into (0,1)
    warped_report, report = score_metrics(warped, labels), score_metrics(preds, labels)
    assert warped_report.auc == pytest.approx(report.auc, abs=1e-12)
    assert warped_report.ap == pytest.approx(report.ap, abs=1e-12)


def test_metrics_degenerate_and_invalid_inputs():
    assert np.isnan(score_metrics(np.array([0.2, 0.4]), np.array([1.0, 1.0])).auc)
    assert np.isnan(score_metrics(np.array([0.2]), np.array([0.0])).ap)
    with pytest.raises(ValueError):
        score_metrics(np.array([0.5]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        score_metrics(np.array([1.2]), np.array([1.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"must lie in \[0,1\]"):
            score_metrics(np.array([bad, 0.5, 0.2]), np.array([1.0, 0.0, 1.0]))


@pytest.mark.parametrize("labels", [[1, 2, 0], [1, 0.5, 0], [1, np.nan, 0], [1, -1, 0]],
                         ids=["two", "half", "nan", "minus_one"])
def test_score_metrics_rejects_labels_other_than_0_and_1(labels):
    # such labels used to score without error, e.g. AP = 4.0 for [1, 2, 0]
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        score_metrics(np.array([0.9, 0.5, 0.1]), np.array(labels, dtype=float))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.booleans()),
                min_size=1, max_size=30))
def test_ranking_metrics_match_brute_force_on_ties(rows):
    preds = np.array([p for p, _ in rows])
    labels = np.array([float(y) for _, y in rows])
    pos, neg = preds[labels == 1], preds[labels == 0]
    report = score_metrics(preds, labels)
    if pos.size and neg.size:
        # every (positive, negative) pair: 1 when ordered right, 1/2 on a tie
        wins = (pos[:, None] > neg[None, :]) + 0.5 * (pos[:, None] == neg[None, :])
        assert report.auc == wins.sum() / (pos.size * neg.size)
    else:
        assert np.isnan(report.auc)
    if pos.size:
        sorted_labels = labels[np.lexsort((np.arange(preds.size), -preds))]
        precision = np.cumsum(sorted_labels) / np.arange(1, preds.size + 1)
        assert report.ap == np.sum(precision * sorted_labels) / pos.size
    else:
        assert np.isnan(report.ap)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.1, 0.5, 1.0, np.nan]), max_size=40))
def test_descending_ties_matches_lexsort(values):
    preds = np.array(values, dtype=float)
    order, starts = _descending_ties(preds)
    np.testing.assert_array_equal(order, np.lexsort((np.arange(preds.size), -preds)))
    # a run starts wherever the sorted value changes; NaN equals nothing
    ranked = preds[order]
    want = [k for k in range(preds.size) if k == 0 or not ranked[k] == ranked[k - 1]]
    np.testing.assert_array_equal(starts, want)


# ---------------------------------------------------------------------------
# metrics: population limit
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.05, 0.3, 0.35, 0.5, 0.99, 1.0]),
                          st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=12).filter(lambda rows: sum(a + b for _, a, b in rows)))
def test_population_metrics_match_the_expanded_sample(rows):
    # cells with integer positive and negative counts: scoring them on the
    # population equals scoring the sample that lists every dyad once, up to
    # AP, which is checked against a finer sample below
    pred = np.array([p for p, _, _ in rows])
    pos = np.array([a for _, a, _ in rows], dtype=float)
    neg = np.array([b for _, _, b in rows], dtype=float)
    total = pos + neg
    keep = total > 0
    exact = population_metrics(pred[keep], pos[keep] / total[keep], total[keep] / total.sum())
    preds = np.repeat(pred, (pos + neg).astype(int))
    labels = np.concatenate([np.r_[np.ones(int(a)), np.zeros(int(b))] for a, b in zip(pos, neg)])
    sample = score_metrics(preds, labels)
    for key in ("brier", "logloss", "ece"):
        assert getattr(exact, key) == pytest.approx(getattr(sample, key), abs=1e-12)
    np.testing.assert_allclose(exact.murphy, sample.murphy, atol=1e-12)
    if np.isnan(sample.auc):
        assert np.isnan(exact.auc)
    else:
        assert exact.auc == pytest.approx(sample.auc, abs=1e-12)
    np.testing.assert_allclose(exact.reliability_bins, sample.reliability_bins, atol=1e-12)
    assert exact.n == keep.sum()
    if pos.sum() == 0:
        assert np.isnan(exact.ap)
    else:
        # population AP is the continuum limit of the index tiebreak, where
        # a cell's positives spread over its mass, so even untied cells of
        # one dyad each differ from this sample.  Expanding every tie group
        # K times with its positives spread evenly (slot i positive where
        # floor((i + 1) a / (a + b)) steps) converges to it: the gap stays
        # below 1 / K (at most 0.58 / K in a search of these cells, K = 2000).
        k = 2000
        preds, labels = [], []
        for value in np.unique(pred):
            a, b = int(pos[pred == value].sum()), int(neg[pred == value].sum())
            slot = np.arange(k * (a + b))
            preds.append(np.full(slot.size, value))
            labels.append(((slot + 1) * a // (a + b) - slot * a // (a + b)).astype(float))
        fine = score_metrics(np.concatenate(preds), np.concatenate(labels))
        assert abs(exact.ap - fine.ap) <= 1.0 / k


def test_score_metrics_rows_keep_their_digest():
    """``score_metrics`` scores 0/1 rows as a batch of one in the batched
    metric core, with the arithmetic of the core before it took batches:
    the digest of these reports, ties and one-class rows included, was
    taken on that core."""
    rng = np.random.default_rng(1717)
    reports = []
    for r in range(60):
        m = int(rng.integers(1, 400))
        preds = rng.random(m) if r % 2 else rng.integers(0, 9, m) / 8
        labels = (rng.random(m) < preds).astype(float)
        if r % 7 == 3:
            labels[:] = r % 2
        reports.append(repr(score_metrics(preds, labels)))
    assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == (
        "da332fbae185dbf9e70ed57cea7dc9dbe637890a56bf28a6fa341e584310a4f3")


def test_population_ap_hand_oracle():
    # one tie group: every positive sits at precision b / d
    assert population_metrics([0.5, 0.5], [0.2, 0.6], [0.5, 0.5]).ap == pytest.approx(0.4)
    # a pure-positive group of mass 0.25 above a group of positive mass 0.25
    # and total 0.75: the second group's positives average
    # (1/d) int_0^d (A + (b/d) t) / (C + t) dt with A = C = 0.25, b = 0.25
    b, d, a, c = 0.25, 0.75, 0.25, 0.25
    t = np.linspace(0.0, d, 200_001)
    inner = (a + b / d * t) / (c + t)
    mean_precision = float(np.sum((inner[1:] + inner[:-1]) / 2 * np.diff(t))) / d
    got = population_metrics([0.9, 0.1], [1.0, 1.0 / 3.0], [0.25, 0.75]).ap
    assert got == pytest.approx((0.25 * 1.0 + 0.25 * mean_precision) / 0.5, abs=1e-9)


def test_population_metrics_rejects_bad_inputs():
    with pytest.raises(ValueError, match="equal-length"):
        population_metrics([0.5], [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match="predictions"):
        population_metrics([1.5], [0.5], [1.0])
    with pytest.raises(ValueError, match="truth"):
        population_metrics([0.5], [np.nan], [1.0])
    with pytest.raises(ValueError, match="sum to 1"):
        population_metrics([0.5, 0.5], [0.5, 0.5], [0.5, 0.4])


# the only scipy that graphsynth loads, each part by the code that calls it:
# the sparse adjacency of the structure statistics, and the ARPACK
# eigenvectors of real's agent fits; components are numpy
SPARSE_STACK = ("scipy.sparse", "scipy.sparse.linalg")
# what scipy's connected components would load
CSGRAPH = ("scipy.sparse.csgraph",)
# what a scipy k-means would load; the agent fits' k-means is numpy
CLUSTER_STACK = ("scipy.cluster", "scipy.spatial", "scipy.special")


def _loaded_after(code: str, modules) -> list:
    """The ``modules`` a fresh interpreter has loaded after running ``code``."""
    src = str(Path(graphsynth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    script = (f"import json, sys\n{code}\n"
              f"print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _cli_run(verb: str, config: dict, tmp_path) -> str:
    """Code that runs ``verb`` on ``config`` in process through the CLI."""
    path = tmp_path / f"{verb}.json"
    path.write_text(json.dumps({"experiment": verb, **config}))
    return ("from graphsynth.cli import main\n"
            f"assert main([{verb!r}, '--config', {str(path)!r}, "
            f"'--out', {str(tmp_path)!r}]) == 0")


def test_import_loads_no_scipy():
    # the logistic helpers and the Gram solve are numpy, the scalar roots
    # bracketed Newton in agents.logit_shift; every scipy module imports
    # the scipy package first
    assert _loaded_after("import graphsynth", ["scipy"]) == []


def test_import_leaves_scipy_stats_unloaded():
    assert _loaded_after("import graphsynth", ["scipy.stats"]) == []


def test_import_leaves_scipy_optimize_unloaded():
    # the scalar roots are bracketed Newton in agents.logit_shift
    assert _loaded_after("import graphsynth", ["scipy.optimize"]) == []


def test_import_leaves_the_sparse_stack_unloaded():
    assert _loaded_after("import graphsynth", SPARSE_STACK + CSGRAPH) == []


@pytest.mark.parametrize("verb, config", [
    ("s1", {"replicates": 2, "m_train": 500, "m_val": 200}),
    ("s2", {"replicates": 2, "n_grid": [100, 200], "m_val": 200}),
    ("s3", {"lambda_grid": [0.5, 2.0], "phase_n": 500, "phase_reps": 1}),
    ("s4", {"tail_k_max": 20_000}),
], ids=["s1", "s2", "s3", "s4"])
def test_synthetic_runs_load_no_scipy(tmp_path, verb, config):
    assert _loaded_after(_cli_run(verb, config, tmp_path), ["scipy"]) == []


def test_first_agent_fit_imports_what_it_needs():
    code = ("from graphsynth import Constant, ExperimentConfig, fit_agents_to_graph, "
            "sample_sparse_graph\n"
            "g = sample_sparse_graph(Constant(1.0), 300, 8.0, seed=3)\n"
            "assert len(fit_agents_to_graph(g, ExperimentConfig('real'), seed=1)) == 5")
    assert _loaded_after(code, SPARSE_STACK + CSGRAPH + CLUSTER_STACK) == list(SPARSE_STACK)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def test_edge_holdout_ratio_and_determinism():
    g = sparse_graph()
    a = make_split(g, "edge_holdout", seed=1, negpos_ratio=3.0)
    b = make_split(g, "edge_holdout", seed=1, negpos_ratio=3.0)
    np.testing.assert_array_equal(a.train_dyads, b.train_dyads)
    np.testing.assert_array_equal(a.test_labels, b.test_labels)
    for labels in (a.train_labels, a.val_labels, a.test_labels):
        pos = labels.sum()
        neg = labels.size - pos
        assert neg == round(3.0 * pos)
    c = make_split(g, "edge_holdout", seed=2, negpos_ratio=3.0)
    assert not np.array_equal(a.test_dyads, c.test_dyads)


def test_edge_holdout_rejects_low_ratio():
    g = sparse_graph()
    for regime in ("edge_holdout", "node_holdout"):
        with pytest.raises(SplitError, match="negpos_ratio must be >= 1"):
            make_split(g, regime, seed=1, negpos_ratio=0.5)
    with pytest.raises(SplitError):
        make_split(g, "no_such_regime", seed=1)


# sha256 of every array of a split of one sparse graph: the dyads and labels
# of train, val and test, then the held-out nodes where the regime has them
PINNED_SPLITS = {
    "edge_holdout": "b0468d07f9b653976136581d92ca8410dad8edb40447fbac9001f63b12d86cf4",
    "node_holdout": "eac41b7d68bff7f5838c79b024c6fd494d91f62c24e9c5a446a4632f7ff754ce",
    "uniform_dyads": "a3488d87e5cbb1e1548b85f1eadb8305d540b311ed1d076b1761f0865864f8be",
}


@pytest.mark.parametrize("regime", sorted(PINNED_SPLITS))
def test_make_split_keeps_its_digest(regime):
    g = sample_sparse_graph(SPARSE_BLOCK, 1500, 100.0, seed=12)
    spec = make_split(g, regime, seed=13)
    digest = hashlib.sha256()
    for name in ("train_dyads", "train_labels", "val_dyads", "val_labels",
                 "test_dyads", "test_labels", "held_out_nodes"):
        arr = getattr(spec, name)
        if arr is not None:
            digest.update(arr.tobytes())
    assert digest.hexdigest() == PINNED_SPLITS[regime]


def test_node_holdout_removes_incident_dyads():
    g = sparse_graph(seed=9)
    spec = make_split(g, "node_holdout", seed=3)
    held = set(int(v) for v in spec.held_out_nodes)
    assert len(held) == round(0.10 * g.n)
    for dyads in (spec.train_dyads, spec.val_dyads):
        for i, j in dyads:
            assert int(i) not in held and int(j) not in held
    # every positive test dyad touches the held-out set
    pos = spec.test_dyads[spec.test_labels == 1]
    for i, j in pos:
        assert int(i) in held or int(j) in held


def test_uniform_dyads_counts_and_rate():
    # UNIFORM_DYADS_PER_EDGE dyads per edge, or every pair of a denser graph
    sparser = Block([0, 0.5, 1], [[0.02, 0.005], [0.005, 0.02]])
    dense = Block([0, 1], [[0.3]])
    for g in (sample_graph(sparser, 300, seed=21), sample_graph(dense, 60, seed=4)):
        pairs = g.n * (g.n - 1) // 2
        m = min(pairs, UNIFORM_DYADS_PER_EDGE * g.n_edges)
        spec = make_split(g, "uniform_dyads", seed=5)
        total = spec.train_labels.size + spec.val_labels.size + spec.test_labels.size
        assert total == m
        density = g.n_edges / pairs
        rate = (spec.train_labels.sum() + spec.val_labels.sum()
                + spec.test_labels.sum()) / m
        assert abs(rate - density) <= 4 * np.sqrt(density / m)
    assert UNIFORM_DYADS_PER_EDGE * g.n_edges > pairs == m


def test_audit_split_catches_tampering():
    g = sparse_graph(seed=33)
    spec = make_split(g, "edge_holdout", seed=8)
    audit_split(spec, g)  # clean split passes

    bad = replace(spec, train_dyads=np.concatenate([spec.train_dyads, spec.test_dyads[:1]]),
                  train_labels=np.concatenate([spec.train_labels, spec.test_labels[:1]]))
    with pytest.raises(SplitError, match="^train/val/test dyad sets overlap$"):
        audit_split(bad, g)

    flipped = spec.train_labels.copy()
    flipped[0] = 1.0 - flipped[0]
    with pytest.raises(SplitError, match="^labels disagree with the adjacency$"):
        audit_split(replace(spec, train_labels=flipped), g)

    reversed_pair = spec.val_dyads.copy()
    reversed_pair[0] = reversed_pair[0, ::-1]
    with pytest.raises(SplitError, match="^val set violates i < j$"):
        audit_split(replace(spec, val_dyads=reversed_pair), g)

    repeated = replace(spec, test_dyads=np.concatenate([spec.test_dyads, spec.test_dyads[-1:]]),
                       test_labels=np.concatenate([spec.test_labels, spec.test_labels[-1:]]))
    with pytest.raises(SplitError, match="^test set contains duplicate dyads$"):
        audit_split(repeated, g)

    node = make_split(g, "node_holdout", seed=3)
    # move one test dyad, which touches a held-out node, into training
    moved = replace(node,
                    train_dyads=np.concatenate([node.train_dyads, node.test_dyads[:1]]),
                    train_labels=np.concatenate([node.train_labels, node.test_labels[:1]]),
                    test_dyads=node.test_dyads[1:], test_labels=node.test_labels[1:])
    with pytest.raises(SplitError,
                       match="^training retains a dyad touching a held-out node$"):
        audit_split(moved, g)


# refusals of a graph too small or too dense for a regime, raised before the
# audit runs
SPLIT_REFUSALS = ("too few edges", "left an empty positive set", "too dense")


@st.composite
def small_graphs(draw):
    n = draw(st.integers(12, 40))
    iu, ju = np.triu_indices(n, k=1)
    picked = sorted(draw(st.sets(st.integers(0, iu.size - 1), min_size=n // 2, max_size=n)))
    return graph_from_edge_array(n, np.stack([iu[picked], ju[picked]], axis=1))


@settings(max_examples=120, deadline=None)
@given(g=small_graphs(), regime=st.sampled_from(["edge_holdout", "node_holdout",
                                                  "uniform_dyads"]),
       negpos_ratio=st.sampled_from([1.0, 2.0, 3.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_make_split_hygiene_against_set_oracle(g, regime, negpos_ratio, seed):
    try:
        spec = make_split(g, regime, seed=seed, negpos_ratio=negpos_ratio)
    except SplitError as exc:
        assert any(reason in str(exc) for reason in SPLIT_REFUSALS), str(exc)
        assume(False)
    edge_set = {(int(i), int(j)) for i, j in g.edges}
    sets = []
    for dyads, labels in ((spec.train_dyads, spec.train_labels),
                          (spec.val_dyads, spec.val_labels),
                          (spec.test_dyads, spec.test_labels)):
        pairs = [(int(i), int(j)) for i, j in dyads]
        assert all(0 <= i < j < g.n for i, j in pairs)
        assert len(set(pairs)) == len(pairs)
        if regime != "uniform_dyads":
            # the holdout regimes list each set in (i, j) order
            assert pairs == sorted(pairs)
        assert labels.tolist() == [float(p in edge_set) for p in pairs]
        sets.append(set(pairs))
    train, val, test = sets
    assert not (train & val or train & test or val & test)
    if regime == "node_holdout":
        held = {int(v) for v in spec.held_out_nodes}
        assert all(i not in held and j not in held for i, j in train | val)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 25), density=st.floats(0.0, 0.9), seed=st.integers(0, 2 ** 32 - 1),
       subset=st.sampled_from(["none", "restrict", "touch"]), data=st.data())
def test_sample_negatives_properties(n, density, seed, subset, data):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    all_keys = iu * n + ju
    forbidden = all_keys[rng.random(all_keys.size) < density]
    nodes = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    restrict = nodes if subset == "restrict" else None
    touch = nodes if subset == "touch" else None
    allowed = ~np.isin(all_keys, forbidden)
    if restrict is not None:
        allowed &= np.isin(iu, nodes) & np.isin(ju, nodes)
    if touch is not None:
        allowed &= np.isin(iu, nodes) | np.isin(ju, nodes)
    available = int(allowed.sum())
    count = data.draw(st.integers(0, available + 2))
    if count > available:
        with pytest.raises(SplitError, match="too dense"):
            _sample_negatives(np.random.default_rng(seed), n, count, forbidden,
                              restrict_nodes=restrict, require_touch=touch)
        return
    out = _sample_negatives(np.random.default_rng(seed), n, count, forbidden,
                            restrict_nodes=restrict, require_touch=touch)
    assert out.shape == (count, 2)
    assert np.all((0 <= out[:, 0]) & (out[:, 0] < out[:, 1]) & (out[:, 1] < n))
    keys = out[:, 0] * n + out[:, 1]
    assert np.unique(keys).size == count
    assert not np.any(np.isin(keys, forbidden))
    if restrict is not None:
        assert np.all(np.isin(out, nodes))
    if touch is not None:
        assert np.all(np.isin(out, nodes).any(axis=1))


# ---------------------------------------------------------------------------
# paired gaps
# ---------------------------------------------------------------------------

def _score_maps(gap_values):
    """Scores whose Brier gaps are ``gap_values``; the other metrics tie."""
    a = {f"s{i}": SimpleNamespace(**{**dict.fromkeys(GAP_METRICS, 0.3), "brier": 0.3 + gv})
         for i, gv in enumerate(gap_values)}
    b = {f"s{i}": SimpleNamespace(**dict.fromkeys(GAP_METRICS, 0.3))
         for i in range(len(gap_values))}
    return a, b


def test_paired_gaps_hand_oracle():
    a, b = _score_maps([0.1, 0.1, -0.1, 0.1, 0.1])
    report = paired_gaps(a, b)
    s = report.summaries["brier"]
    assert s.mean == pytest.approx(0.06, abs=1e-12)
    sd = np.std([0.1, 0.1, -0.1, 0.1, 0.1], ddof=1)
    assert s.se == pytest.approx(sd / np.sqrt(5), abs=1e-12)
    assert s.ci_low == pytest.approx(s.mean - 1.96 * s.se, abs=1e-12)
    assert s.win_rate == pytest.approx(0.8)
    assert all(report.summaries[k].mean == 0.0 for k in GAP_METRICS if k != "brier")


def test_paired_gaps_identical_methods():
    a, b = _score_maps([0.0, 0.0, 0.0])
    report = paired_gaps(a, b)
    s = report.summaries["brier"]
    assert s.mean == 0.0 and s.se == 0.0 and s.win_rate == 0.0  # ties lose


def test_paired_gaps_report_shape_and_key_check():
    rng = np.random.default_rng(19)
    keys = [f"{reg}:{k}" for reg in ("eh", "nh", "ud") for k in range(5)]
    mk = lambda: {key: SimpleNamespace(logloss=rng.random(), brier=rng.random(),
                                       auc=rng.random(), ap=rng.random())
                  for key in keys}
    report = paired_gaps(mk(), mk())
    assert report.units == tuple(sorted(keys))
    rows = report.to_rows()
    assert len(rows) == 4
    assert all(row["n_units"] == 15 for row in rows)
    with pytest.raises(ValueError, match="mismatched"):
        paired_gaps({"a": SimpleNamespace(brier=0.1)}, {"b": SimpleNamespace(brier=0.1)})


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_cv_best_agent_selection():
    rng = np.random.default_rng(23)
    m = 2000
    good = rng.random(m)
    labels = (rng.random(m) < good).astype(float)
    feats = np.column_stack([np.ones(m), np.full(m, 0.5), good])
    assert cv_best_agent(feats, labels) == 1
    # duplicate best columns tie-break to the lowest index
    feats_tie = np.column_stack([np.ones(m), good, good])
    assert cv_best_agent(feats_tie, labels) == 0
    single = np.column_stack([np.ones(m), good])
    assert cv_best_agent(single, labels) == 0
    with pytest.raises(ValueError):
        cv_best_agent(single[:0], labels[:0])


def test_logistic_stack_recovers_coefficients():
    rng = np.random.default_rng(29)
    m = 20_000
    x = rng.random(m)
    y = rng.random(m)
    feats = np.column_stack([np.ones(m), x, y])
    true_beta = np.array([0.5, -1.2, 2.0])
    labels = (rng.random(m) < expit(feats @ true_beta)).astype(float)
    beta = fit_logistic_stack(feats, labels)
    assert np.max(np.abs(beta - true_beta)) <= 0.2


def test_logistic_stack_beats_single_agents():
    rng = np.random.default_rng(31)
    m = 5000
    p1 = rng.random(m)
    noise = rng.random(m)
    labels = (rng.random(m) < expit(3.0 * p1 - 1.5)).astype(float)
    feats = np.column_stack([np.ones(m), p1, noise])
    beta = fit_logistic_stack(feats, labels)
    stack_pred = expit(feats @ beta)
    stack_ll = score_metrics(stack_pred, labels).logloss
    for col in (1, 2):
        agent_ll = score_metrics(np.clip(feats[:, col], 0, 1), labels).logloss
        assert stack_ll < agent_ll
    assert beta[1] > 0


def test_logistic_stack_one_class_fallback():
    feats = np.column_stack([np.ones(50), np.linspace(0, 1, 50)])
    with pytest.warns(UserWarning, match="one-class"):
        beta = fit_logistic_stack(feats, np.ones(50))
    assert beta[1] == 0.0
    assert beta[0] == pytest.approx(logit(1 - 1e-6))


def _stack_objective(beta, feats, labels):
    z = feats @ beta
    loss = -np.mean(labels * log_expit(z) + (1 - labels) * log_expit(-z))
    return loss + 0.5 * STACK_RIDGE * beta[1:] @ beta[1:]


def _stack_gradient(beta, feats, labels):
    grad = feats.T @ (expit(feats @ beta) - labels) / labels.size
    grad[1:] += STACK_RIDGE * beta[1:]
    return grad


def test_logistic_stack_reaches_optimum_on_small_probabilities():
    # agent columns of order 1e-3 with a real signal: the MLE coefficients
    # are in the hundreds, far from the intercept-only model
    rng = np.random.default_rng(41)
    m = 10_000
    feats = np.column_stack([np.ones(m), 1e-3 * rng.random((m, 3))])
    labels = (rng.random(m) < expit(feats @ np.array([-2.3, 650.0, 700.0, 0.0]))).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta = fit_logistic_stack(feats, labels)
    assert np.linalg.norm(_stack_gradient(beta, feats, labels)) <= 1e-8
    oracle = minimize(_stack_objective, beta, args=(feats, labels), jac=_stack_gradient,
                      method="BFGS", options={"gtol": 1e-12})
    assert _stack_objective(beta, feats, labels) <= oracle.fun + 1e-9
    base = np.array([logit(labels.mean()), 0.0, 0.0, 0.0])
    assert _stack_objective(beta, feats, labels) < _stack_objective(base, feats, labels) - 1e-3


def test_logistic_stack_converges_on_random_designs():
    # seed 45 stalls next to the optimum if the sufficient-decrease test
    # does not allow for rounding in the loss
    for seed in range(60):
        rng = np.random.default_rng(seed)
        m, d = int(rng.integers(50, 5000)), int(rng.integers(2, 6))
        scale = 10.0 ** rng.uniform(-3, 0)
        feats = np.column_stack([np.ones(m), scale * rng.random((m, d - 1))])
        z = feats @ (rng.normal(size=d) * rng.uniform(0.5, 5) / scale)
        labels = (rng.random(m) < expit(z - z.mean())).astype(float)
        if labels.min() == labels.max():
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta = fit_logistic_stack(feats, labels)
        assert np.linalg.norm(_stack_gradient(beta, feats, labels)) <= 1e-10


def test_logistic_stack_separable_data_converges():
    x = np.linspace(0.0, 1.0, 200)
    feats = np.column_stack([np.ones(x.size), x])
    labels = (x > 0.5).astype(float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta = fit_logistic_stack(feats, labels)
    assert np.all(np.isfinite(beta))
    assert np.linalg.norm(_stack_gradient(beta, feats, labels)) <= 1e-10
    assert np.array_equal(expit(feats @ beta) > 0.5, labels == 1)


def test_logistic_stack_warns_without_convergence(monkeypatch):
    rng = np.random.default_rng(43)
    feats = np.column_stack([np.ones(500), rng.random(500)])
    labels = (rng.random(500) < expit(2.0 * feats[:, 1] - 1.0)).astype(float)
    monkeypatch.setattr(evaluation, "STACK_MAX_STEPS", 1)
    with pytest.warns(RuntimeWarning, match="did not converge"):
        beta = fit_logistic_stack(feats, labels)
    assert np.all(np.isfinite(beta))
