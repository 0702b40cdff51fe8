"""Config handling, data ingestion, agent fitting, serialization, runs, CLI."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from graphsynth import (Block, Constant, ConfigError, DyadData, ExperimentConfig, Graphon,
                        GraphonError, SerializeError, StageFailure,
                        agent_dyad_probs, agent_from_dict, agent_to_dict,
                        config_hash, default_generator, edge_prob_matrix,
                        fit_agents_to_graph, giant_fraction, graphon_from_dict,
                        graphon_to_dict, grid_values, l2_distance, l2_inner,
                        load_edge_list, load_model, run_experiment, sample_dyads,
                        sample_graph, sample_sparse_graph, save_model,
                        write_edge_list)
from graphsynth import experiments, fit_ls, predict_clipped
from graphsynth.cli import _read_metrics_csv, main as cli_main
from graphsynth.evaluation import population_metrics, score_metrics
from graphsynth.agents import SBM, ErgmSpec, TiltState
from graphsynth.sampling import graph_from_edge_array
from graphsynth.serialize import (AGENT_KINDS, GRAPHON_KINDS,
                                  write_metric_reports_csv)

SPARSE_BLOCK = Block.from_arrays([0, 0.5, 1], [[0.08, 0.02], [0.02, 0.08]])
GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"experiment": "s1", "replicats": 5})
    with pytest.raises(ConfigError, match="name an experiment"):
        ExperimentConfig.from_dict({"replicates": 5})
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentConfig.from_dict({"experiment": "s9"})
    with pytest.raises(ConfigError, match="split regime"):
        ExperimentConfig.from_dict({"experiment": "real", "regimes": ["bogus"]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "s1", "replicates": 0})


@pytest.mark.parametrize("keys", [{"n_grid": []}, {"lambda_grid": []}, {"pi_grid": []},
                                  {"regimes": []}, {"n_grid": [200, 200]},
                                  {"ridge_reg": -1.0}],
                         ids=["n_grid", "lambda_grid", "pi_grid", "regimes",
                              "repeated_n", "ridge_reg"])
def test_config_rejects_degenerate_values(keys):
    # an empty grid or regime list would run no unit and write NaN summaries;
    # a negative ridge penalty would fail only after the data is loaded
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "real", **keys})


def test_config_round_trip_and_hash():
    cfg = ExperimentConfig.from_dict({"experiment": "s2", "replicates": 3,
                                      "n_grid": [100, 200]})
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
    other = ExperimentConfig.from_dict({"experiment": "s2", "replicates": 4,
                                        "n_grid": [100, 200]})
    assert config_hash(other) != config_hash(cfg)


def test_config_drops_retired_m_test_with_a_warning():
    # s1/s2 score on the population, so nothing reads a test-set size; older
    # configs that still name one keep loading
    with pytest.warns(UserWarning, match="'m_test' is retired"):
        cfg = ExperimentConfig.from_dict({"experiment": "s1", "m_test": 2000})
    assert cfg == ExperimentConfig.from_dict({"experiment": "s1"})
    assert "m_test" not in cfg.to_dict()


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "s3", "phase_n": 500}))
    cfg = ExperimentConfig.from_file(str(path))
    assert cfg.experiment == "s3" and cfg.phase_n == 500


# ---------------------------------------------------------------------------
# edge-list ingestion
# ---------------------------------------------------------------------------

def test_load_edge_list_cleans_and_compacts(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text("# a comment\n5 9\n9 5\n7 7\n")
    g, ids = load_edge_list(str(path))
    assert g.n == 3  # ids 5, 7, 9 compacted
    np.testing.assert_array_equal(ids, [5, 7, 9])
    assert g.n_edges == 1  # duplicate/reversed collapse, self-loop dropped
    np.testing.assert_array_equal(g.degrees, [1, 0, 1])


def test_load_edge_list_triangle(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("1 2\n2 3\n3 1\n")
    g, _ = load_edge_list(str(path))
    assert g.n == 3 and g.n_edges == 3
    np.testing.assert_array_equal(g.degrees, [2, 2, 2])


def test_load_edge_list_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n1 2 3\n")
    with pytest.raises(ValueError, match=":2:"):
        load_edge_list(str(bad))
    nonint = tmp_path / "nonint.txt"
    nonint.write_text("1 x\n")
    with pytest.raises(ValueError, match="non-integer"):
        load_edge_list(str(nonint))
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no edges"):
        load_edge_list(str(empty))


def test_edge_list_round_trip(tmp_path):
    g = sample_graph(SPARSE_BLOCK, 120, seed=2)
    path = tmp_path / "g.txt"
    write_edge_list(g, str(path))
    back, ids = load_edge_list(str(path))
    assert back.n_edges == g.n_edges
    np.testing.assert_array_equal(back.edges, g.edges)


# ---------------------------------------------------------------------------
# agent fitting
# ---------------------------------------------------------------------------

def test_fit_agents_er_density():
    g = sample_graph(SPARSE_BLOCK, 200, seed=3)
    cfg = ExperimentConfig.from_dict({"experiment": "real", "sbm_k": 2, "rdpg_d": 2})
    agents = fit_agents_to_graph(g, cfg)
    density = g.n_edges / (g.n * (g.n - 1) / 2)
    assert agents["ER"].p == pytest.approx(density, abs=1e-12)
    theta = np.asarray(agents["ChungLu"].theta)
    np.testing.assert_allclose(theta, g.degrees / np.sqrt(2 * g.n_edges), atol=1e-12)


def test_fit_agents_rdpg_intercept_matches_density():
    # 200 nodes have fewer dyads than the subsample, so the edge rate is
    # matched on every dyad, to rounding
    g = sample_graph(SPARSE_BLOCK, 200, seed=3)
    cfg = ExperimentConfig.from_dict({"experiment": "real", "sbm_k": 2, "rdpg_d": 2})
    rdpg = fit_agents_to_graph(g, cfg)["RDPG"]
    density = g.n_edges / (g.n * (g.n - 1) / 2)
    probs = rdpg.dyad_probs(*np.triu_indices(g.n, k=1))
    assert np.mean(probs) == pytest.approx(density, rel=1e-13)


def test_fit_agents_sbm_recovers_planted_blocks():
    planted = Block.from_arrays([0, 0.5, 1], [[0.30, 0.05], [0.05, 0.30]])
    g = sample_graph(planted, 500, seed=5)
    cfg = ExperimentConfig.from_dict({"experiment": "real", "sbm_k": 2, "rdpg_d": 2})
    agents = fit_agents_to_graph(g, cfg, seed=1)
    rates = np.sort(np.unique(np.round(np.asarray(agents["SBM"].matrix), 6)))
    # two distinct rates near the planted off-diagonal and diagonal values
    assert abs(rates[0] - 0.05) <= 0.05
    assert abs(rates[-1] - 0.30) <= 0.05


def test_fit_agents_deghist_regular_graph_single_bin():
    cycle = graph_from_edge_array(20, [[i, (i + 1) % 20] for i in range(20)])
    cfg = ExperimentConfig.from_dict({"experiment": "real", "sbm_k": 2, "rdpg_d": 2})
    agents = fit_agents_to_graph(cycle, cfg)
    bins = np.asarray(agents["DegHist"].node_bins)
    assert np.unique(bins).size == 1  # all degrees equal: one occupied bin
    rate = np.asarray(agents["DegHist"].rates)[bins[0], bins[0]]
    assert rate == pytest.approx(2 * 20 / (20 * 19), abs=1e-9)


def test_agent_dyad_probs_match_matrices():
    g = sample_graph(SPARSE_BLOCK, 80, seed=7)
    cfg = ExperimentConfig.from_dict({"experiment": "real", "sbm_k": 2, "rdpg_d": 2})
    agents = fit_agents_to_graph(g, cfg)
    dyads = np.array([[0, 1], [3, 17], [40, 79]])
    for agent in agents.values():
        mat = edge_prob_matrix(agent, g.n)
        probs = agent_dyad_probs(agent, dyads)
        np.testing.assert_allclose(probs, mat[dyads[:, 0], dyads[:, 1]], atol=1e-12)


def test_fit_agents_repeatable_on_disconnected_graph():
    # a sparse block graph with many components: the top eigenvalue of its
    # normalized adjacency is repeated far more than sbm_k times
    blocks = Block.from_arrays([0.0, 0.3, 0.7, 1.0],
                               [[0.9, 0.1, 0.2], [0.1, 0.7, 0.1], [0.2, 0.1, 0.8]])
    g = sample_sparse_graph(blocks, 300, 2.0, 1)
    cfg = ExperimentConfig.from_dict({"experiment": "real"})
    first = fit_agents_to_graph(g, cfg, seed=1)
    for _ in range(3):
        assert fit_agents_to_graph(g, cfg, seed=1) == first


def test_fit_agents_validation():
    tiny = graph_from_edge_array(5, [[0, 1]])
    cfg = ExperimentConfig.from_dict({"experiment": "real"})
    with pytest.raises(ValueError):
        fit_agents_to_graph(tiny, cfg)


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------

def test_graphon_serialization_round_trip():
    w_star, parts = default_generator()
    for w in [Constant(0.3), parts[0], parts[1], parts[2], w_star]:
        back = graphon_from_dict(graphon_to_dict(w))
        np.testing.assert_allclose(grid_values(back, 16), grid_values(w, 16),
                                   atol=1e-12)


def test_agent_serialization_round_trip():
    g = sample_graph(SPARSE_BLOCK, 60, seed=9)
    cfg = ExperimentConfig.from_dict({"experiment": "real", "sbm_k": 2, "rdpg_d": 2})
    agents = fit_agents_to_graph(g, cfg)
    dyads = np.array([[0, 5], [10, 30], [2, 59]])
    for agent in agents.values():
        back = agent_from_dict(agent_to_dict(agent))
        np.testing.assert_allclose(agent_dyad_probs(back, dyads),
                                   agent_dyad_probs(agent, dyads), atol=1e-12)


@pytest.fixture(scope="module")
def model_of_kind():
    """One example model per registered kind, keyed by class name."""
    w_star, parts = default_generator()
    g = sample_graph(SPARSE_BLOCK, 60, seed=9)
    cfg = ExperimentConfig.from_dict({"experiment": "real", "sbm_k": 2, "rdpg_d": 2})
    ergm = ErgmSpec.make([("edges",), ("kstar", 2), ("block_counts", (0, 1, 1, 0))],
                         [0.1, -0.2, 0.3, 0.4, 0.5], 4)
    models = [Constant(0.3), *parts, w_star, *fit_agents_to_graph(g, cfg).values(), ergm]
    return {type(m).__name__: m for m in models}


@pytest.mark.parametrize("kind", sorted({**GRAPHON_KINDS, **AGENT_KINDS}))
def test_save_load_model_file(tmp_path, model_of_kind, kind):
    model = model_of_kind[kind]
    path = tmp_path / "m.json"
    save_model(model, str(path))
    back = load_model(str(path))
    assert type(back) is type(model)
    assert back == model
    save_model(back, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_text() == path.read_text()


def tilted_sbm():
    return SBM.make([0, 1, 1, 0, 2],
                    [[0.3, 0.1, 0.05], [0.1, 0.6, 0.2], [0.05, 0.2, 0.7]],
                    TiltState(lambda_block=((0.5, -0.25, 0.0), (-0.25, 1.0, 0.0),
                                            (0.0, 0.0, -0.5)), applied=True))


@pytest.mark.parametrize("name, model", [("linear_combo.json", default_generator()[0]),
                                         ("sbm_tilted.json", tilted_sbm())],
                         ids=["linear_combo", "sbm_tilted"])
def test_model_format_golden(tmp_path, name, model):
    """The on-disk model format is pinned byte for byte."""
    path = tmp_path / name
    save_model(model, str(path))
    assert path.read_text() == (GOLDEN / name).read_text()
    assert load_model(str(GOLDEN / name)) == model


def test_malformed_model_documents_rejected():
    with pytest.raises(SerializeError, match="unknown graphon kind"):
        graphon_from_dict({"kind": "ER", "p": 0.1})
    with pytest.raises(SerializeError, match="unknown agent kind"):
        agent_from_dict({"kind": "Wobbly"})
    with pytest.raises(SerializeError, match="cannot serialize agent kind"):
        agent_to_dict(Constant(0.3))
    with pytest.raises(SerializeError, match="malformed Constant"):
        graphon_from_dict({"kind": "Constant"})
    with pytest.raises(SerializeError, match="malformed ER"):
        agent_from_dict({"kind": "ER", "p": 0.1, "tilt": {"lambda": 1.0}})


def test_metrics_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    rows = []
    for method in ("A", "B"):
        for split in ("s0", "s1"):
            preds = rng.random(100)
            labels = (rng.random(100) < preds).astype(float)
            rows.append((method, split, score_metrics(preds, labels)))
    path = tmp_path / "m.csv"
    write_metric_reports_csv(rows, str(path))
    back = _read_metrics_csv(str(path))
    for method, split, rep in rows:
        got = back[method][split]
        assert got.brier == pytest.approx(rep.brier, rel=1e-10)
        assert got.logloss == pytest.approx(rep.logloss, rel=1e-10)
        assert got.n == rep.n


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------

def test_s4_run_deterministic_outputs(tmp_path):
    base = {"experiment": "s4", "tail_k_max": 20_000}
    m1 = run_experiment(ExperimentConfig.from_dict(dict(base, out_dir=str(tmp_path / "a"))))
    m2 = run_experiment(ExperimentConfig.from_dict(dict(base, out_dir=str(tmp_path / "b"))))
    a = (tmp_path / "a" / "s4" / "s4_tails.csv").read_bytes()
    b = (tmp_path / "b" / "s4" / "s4_tails.csv").read_bytes()
    assert a == b
    assert hashlib.sha256(a).hexdigest() == (
        "f5b661e333ef7d57333452e7b160c1625a8943beea0657670fe9b2c2f6afbe59")
    assert "s4/s4_tails.csv" in m1.outputs
    manifest = json.loads((tmp_path / "a" / "s4" / "manifest.json").read_text())
    assert manifest["config_hash"] == m1.config_hash
    assert manifest["config_hash"] == config_hash(
        ExperimentConfig.from_dict(manifest["config"]))
    # hashes differ only through the config (here: the out_dir)
    assert m1.config_hash != m2.config_hash


def test_s3_run_deterministic_outputs(tmp_path):
    base = {"experiment": "s3", "lambda_grid": [0.5, 2.0], "phase_n": 2000,
            "phase_reps": 2}
    for name in ("a", "b"):
        run_experiment(ExperimentConfig.from_dict(dict(base, out_dir=str(tmp_path / name))))
    for fname in ("s3_curve.csv", "s3_summary.json"):
        a = (tmp_path / "a" / "s3" / fname).read_bytes()
        b = (tmp_path / "b" / "s3" / fname).read_bytes()
        assert a == b
    curve = (tmp_path / "a" / "s3" / "s3_curve.csv").read_bytes()
    assert hashlib.sha256(curve).hexdigest() == (
        "e2765d86ecb46572435f0a6ce0ddbfe5f3328186fdb110240ebb77216d148790")


def test_s1_run_deterministic_outputs(tmp_path):
    base = {"experiment": "s1", "replicates": 2, "m_train": 300, "m_val": 100}
    for name in ("a", "b"):
        run_experiment(ExperimentConfig.from_dict(dict(base, out_dir=str(tmp_path / name))))
    for fname in ("s1_metrics.csv", "s1_summary.json"):
        a = (tmp_path / "a" / "s1" / fname).read_bytes()
        b = (tmp_path / "b" / "s1" / fname).read_bytes()
        assert a == b
    # a change here means the cell-count draw, the synthesis fits or the
    # population scores moved
    metrics = (tmp_path / "a" / "s1" / "s1_metrics.csv").read_bytes()
    assert hashlib.sha256(metrics).hexdigest() == (
        "fe3860c76e54e5fb9bcfc040578d5e176b1c89b52f64048fff249a8a6ebcfb63")


def test_s2_run_deterministic_outputs(tmp_path):
    base = {"experiment": "s2", "replicates": 2, "n_grid": [200], "m_val": 200}
    for name in ("a", "b"):
        run_experiment(ExperimentConfig.from_dict(dict(base, out_dir=str(tmp_path / name))))
    for fname in ("s2_curve.csv", "s2_summary.json"):
        a = (tmp_path / "a" / "s2" / fname).read_bytes()
        b = (tmp_path / "b" / "s2" / fname).read_bytes()
        assert a == b
    curve = (tmp_path / "a" / "s2" / "s2_curve.csv").read_bytes()
    assert hashlib.sha256(curve).hexdigest() == (
        "d139c936d571f96897fe6246c6ed668155923196b1172a442fd1f0e58dd10f35")


# ---------------------------------------------------------------------------
# exact population scoring of s1/s2
# ---------------------------------------------------------------------------

def _outside_span_truth():
    """A truth with a breakpoint at 0.3, which no default part has, so no
    combination of the parts reaches it."""
    return (Block.from_arrays([0, 0.3, 1], [[0.7, 0.2], [0.2, 0.4]]),
            default_generator()[1])


def test_cell_design_holds_the_sampled_values():
    for truth, k in ((default_generator(), 4), (_outside_span_truth(), 5)):
        w_star, parts = truth
        mass, cell_truth, features = experiments.cell_design(w_star, parts)
        assert mass.size == k * k
        assert mass.sum() == pytest.approx(1.0, abs=1e-15)
        # a latent pair in cell (a, b) gets the truth and features stored there
        bounds = np.unique(np.concatenate([w_star.block.boundaries]
                                          + [p.block.boundaries for p in parts]))
        mid = 0.5 * (bounds[:-1] + bounds[1:])
        x, y = np.repeat(mid, k), np.tile(mid, k)
        np.testing.assert_array_equal(mass, np.outer(np.diff(bounds), np.diff(bounds)).ravel())
        np.testing.assert_array_equal(cell_truth, w_star.evaluate(x, y))
        np.testing.assert_array_equal(
            features, np.stack([np.ones(k * k)] + [p.evaluate(x, y) for p in parts], axis=1))


def test_cell_design_needs_block_forms():
    class Smooth(Graphon):
        def evaluate(self, x, y):
            return 0.5 * (np.asarray(x, dtype=float) + y)

    with pytest.raises(GraphonError, match="population scoring needs block forms"):
        experiments.cell_design(Smooth(), default_generator()[1])


@pytest.mark.parametrize("truth", [default_generator(), _outside_span_truth()],
                         ids=["default", "outside_span"])
def test_cell_scores_match_monte_carlo_test_sets(truth):
    w_star, parts = truth
    mass, cell_truth, features = experiments.cell_design(w_star, parts)
    s_train, s_val, s_test = np.random.SeedSequence(515).spawn(3)
    train = sample_dyads(w_star, parts, 4000, s_train)
    val = sample_dyads(w_star, parts, 1000, s_val)
    tests = [sample_dyads(w_star, parts, 20_000, s) for s in s_test.spawn(20)]
    # one fit per method predicts the cells and every test set
    preds = experiments._method_predictions(
        train, val, np.vstack([features] + [t.features for t in tests]), 1e-3)
    k = mass.size
    for method, p in preds.items():
        exact = population_metrics(p[:k], cell_truth, mass)
        sampled = [score_metrics(q, t.labels) for q, t in zip(np.split(p[k:], len(tests)),
                                                              tests)]
        for key in ("brier", "logloss", "auc", "ap"):
            values = np.array([getattr(r, key) for r in sampled])
            se = values.std(ddof=1) / np.sqrt(values.size)
            assert abs(getattr(exact, key) - values.mean()) <= 3 * se, (method, key)
        # the sampled ECE is biased upward, so only the bins' masses are checked
        assert sum(row[2] for row in exact.reliability_bins) == pytest.approx(1.0, abs=1e-12)
        assert exact.n == k


def test_brier_minus_l2_risk_is_the_truth_variance():
    for truth in (default_generator(), _outside_span_truth()):
        w_star = truth[0]
        variance = l2_inner(w_star, Constant(1.0)) - l2_inner(w_star, w_star)
        design = experiments.cell_design(*truth)
        for seed in np.random.SeedSequence(3).spawn(3):
            scored = experiments._synthetic_replicate(design, seed, 500, 200, 1e-3)
            for report, risk in scored.values():
                assert abs(report.brier - risk - variance) <= 1e-15


# ---------------------------------------------------------------------------
# s1/s2 cell counts
# ---------------------------------------------------------------------------

def test_cell_counts_match_the_dyad_law():
    """Per cell, the mean count over seeds is m mu_a mu_b and the mean
    positives m mu_a mu_b W_ab, within 4 standard errors."""
    mass, truth, _ = experiments.cell_design(*default_generator())
    k = mass.size
    # a feature column naming the cell maps each row back to it
    tagged = (mass, truth, np.column_stack([np.ones(k), np.arange(k)]))
    m, reps = 4000, 400
    counts, positives = np.zeros((reps, k)), np.zeros((reps, k))
    for r, seed in enumerate(np.random.SeedSequence(77).spawn(reps)):
        data = experiments.sample_cells(tagged, m, seed)
        cells = data.features[:, 1].astype(int)
        assert np.all(np.diff(cells) > 0) and data.m == m
        counts[r, cells] = data.weights
        positives[r, cells] = data.weights * data.labels
    np.testing.assert_allclose(positives, np.rint(positives), rtol=1e-15, atol=0)
    # marginally, either count is Binomial(m, p)
    for observed, p in ((counts, mass), (positives, mass * truth)):
        se = np.sqrt(m * p * (1.0 - p) / reps)
        assert np.all(np.abs(observed.mean(axis=0) - m * p) <= 4.0 * se)


def _collapsed(data: DyadData) -> DyadData:
    """A dict oracle for the count form of unit-weight rows: one row per
    distinct feature row, with its count and positive fraction."""
    groups = {}
    for row, y in zip(map(tuple, data.features.tolist()), data.labels.tolist()):
        count, pos = groups.get(row, (0, 0.0))
        groups[row] = (count + 1, pos + y)
    counts, pos = map(np.array, zip(*groups.values()))
    return DyadData(features=np.array(list(groups)), labels=pos / counts, weights=counts)


def test_cell_counts_and_collapsed_dyads_give_one_ls_risk():
    """The mean BPS_LS L2 risk over 200 replicates agrees within 3 combined
    standard errors between ``sample_cells`` and the collapsed
    ``sample_dyads`` rows."""
    w_star, parts = default_generator()
    design = mass, truth, features = experiments.cell_design(w_star, parts)
    m, reps = 400, 200

    def risk(data):
        return mass @ (predict_clipped(fit_ls(data), features) - truth) ** 2

    cells_seeds, dyad_seeds = np.random.SeedSequence(88).spawn(2)
    by_cells = [risk(experiments.sample_cells(design, m, s))
                for s in cells_seeds.spawn(reps)]
    by_dyads = [risk(_collapsed(sample_dyads(w_star, parts, m, s)))
                for s in dyad_seeds.spawn(reps)]
    se = np.hypot(*(np.std(r, ddof=1) / np.sqrt(reps) for r in (by_cells, by_dyads)))
    assert abs(np.mean(by_cells) - np.mean(by_dyads)) <= 3.0 * se


def _recorded_fits(draws, design) -> list:
    """(name, value) of every weight vector and agent choice that
    ``_method_predictions`` returns on each (train, val) pair, in call
    order, with the runs' ridge penalty."""
    fitted = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("fit_ls", "fit_ridge", "fit_simplex", "fit_logistic_stack",
                     "cv_best_agent"):
            def recorder(*args, _fit=getattr(experiments, name), _name=name, **kwargs):
                out = _fit(*args, **kwargs)
                fitted.append((_name, np.asarray(getattr(out, "beta", out), dtype=float)))
                return out
            mp.setattr(experiments, name, recorder)
        for train, val in draws:
            experiments._method_predictions(train, val, design[2], 1e-3)
    return fitted


def _digest(fitted) -> str:
    return hashlib.sha256(b"".join(value.tobytes() for _, value in fitted)).hexdigest()


def _replicate_seeds():
    """The (train, val) seeds of the first two replicates of an s1 or s2 run
    with one n and the default base seed."""
    return [seed.spawn(2) for seed in
            np.random.SeedSequence(ExperimentConfig.base_seed).spawn(2)]


@pytest.mark.parametrize("m_train, m_val, row_digest", [
    # s1 with replicates 2, m_train 300, m_val 100
    (300, 100, "60b3b6c2b803f759971f1d1fa4a2ee1d0c13a4bd77a2e03f16d590b32ed438cc"),
    # s2 with replicates 2, n_grid [200] (m_train 3 * 200), m_val 200
    (600, 200, "570fe34778e62c643461e83887af5ad4ac4133d9da8a5c80150d8973eaa48ee2"),
], ids=["s1", "s2"])
def test_dyad_row_fits_keep_their_digest(m_train, m_val, row_digest):
    """Fits on the seeded ``sample_dyads`` rows of two replicates, with unit
    weights, match ``row_digest`` bit for bit, the digest of the fitters
    before they took weights: unit weights reproduce the unweighted
    arithmetic exactly."""
    w_star, parts = default_generator()
    draws = [(sample_dyads(w_star, parts, m_train, s_train),
              sample_dyads(w_star, parts, m_val, s_val))
             for s_train, s_val in _replicate_seeds()]
    assert _digest(_recorded_fits(draws, experiments.cell_design(w_star, parts))) == row_digest


def _expanded(data: DyadData) -> DyadData:
    """The unit-weight rows a count form stands for: each row repeated by
    its count, its positives first."""
    counts = data.weights.astype(int)
    positives = np.rint(data.weights * data.labels).astype(int)
    rank = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return DyadData(features=np.repeat(data.features, counts, axis=0),
                    labels=(rank < np.repeat(positives, counts)).astype(float))


@pytest.mark.parametrize("m_train, m_val", [(300, 100), (4000, 1000)])
def test_count_fits_match_their_expanded_rows(m_train, m_val):
    """Every fit on a count form lies within 1e-12 of the fit to the rows it
    stands for, with the same agent choice."""
    design = experiments.cell_design(*default_generator())
    draws = [(experiments.sample_cells(design, m_train, s_train),
              experiments.sample_cells(design, m_val, s_val))
             for s_train, s_val in _replicate_seeds()]
    counted = _recorded_fits(draws, design)
    rows = _recorded_fits([(_expanded(t), _expanded(v)) for t, v in draws], design)
    assert [name for name, _ in counted] == [name for name, _ in rows]
    for (name, got), (_, want) in zip(counted, rows):
        if name == "cv_best_agent":
            assert got == want
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)


def _real_config(tmp_path) -> dict:
    """A two-split real run on a 600-node planted-block graph."""
    g = sample_sparse_graph(Block.from_arrays([0, 0.3, 0.7, 1],
                                              [[0.9, 0.1, 0.2], [0.1, 0.7, 0.1],
                                               [0.2, 0.1, 0.8]]), 600, 12.0, seed=5)
    dataset = tmp_path / "edges.txt"
    write_edge_list(g, str(dataset))
    return {"experiment": "real", "dataset": str(dataset),
            "regimes": ["edge_holdout", "node_holdout"], "splits_per_regime": 1}


def test_real_run_deterministic_outputs(tmp_path, capsys):
    base = _real_config(tmp_path)
    for name in ("a", "b"):
        run_experiment(ExperimentConfig.from_dict(dict(base, out_dir=str(tmp_path / name))))
    for fname in ("real_metrics.csv", "real_gaps.json"):
        a = (tmp_path / "a" / "real" / fname).read_bytes()
        b = (tmp_path / "b" / "real" / fname).read_bytes()
        assert a == b
    # a change here means the edge-list loader, the splits, the agent fits
    # or the scores moved
    metrics = (tmp_path / "a" / "real" / "real_metrics.csv").read_bytes()
    assert hashlib.sha256(metrics).hexdigest() == (
        "52e3c8a0e89b0746d6c5ea979155fe6eeeab5ec6680835e38c6f2396d98f5f91")
    # the report verb prints the run's gap document, up to the 12 digits the
    # metrics CSV keeps
    assert cli_main(["report", str(tmp_path / "a" / "real" / "real_metrics.csv"),
                     "--out", str(tmp_path / "report")]) == 0
    printed = json.loads(capsys.readouterr().out.rsplit("}\n", 1)[0] + "}")
    written = json.loads((tmp_path / "a" / "real" / "real_gaps.json").read_text())
    assert printed["units"] == written["units"]
    assert len(printed["rows"]) == len(written["rows"])
    for got, want in zip(printed["rows"], written["rows"]):
        assert got == pytest.approx(want, rel=1e-9)


def test_real_fits_each_split_with_its_own_seed(tmp_path, monkeypatch):
    seeds = []
    fit = experiments.fit_agents_to_graph

    def recorder(g, config, seed=0):
        seeds.append(seed)
        return fit(g, config, seed=seed)

    monkeypatch.setattr(experiments, "fit_agents_to_graph", recorder)
    manifest = run_experiment(ExperimentConfig.from_dict(
        dict(_real_config(tmp_path), out_dir=str(tmp_path))))
    assert [u["key"] for u in manifest.units] == [["edge_holdout", 0], ["node_holdout", 0]]
    draws = [np.random.default_rng(s).random() for s in seeds]
    assert len(draws) == 2 and draws[0] != draws[1]
    # each agent seed is the first child of its split's unit seed
    assert [list(s.spawn_key) for s in seeds] == [u["spawn_key"] + [0]
                                                  for u in manifest.units]


def test_manifest_records_each_unit_seed(tmp_path):
    configs = {
        "s1": ({"replicates": 3, "m_train": 300, "m_val": 100},
               [[0], [1], [2]]),
        "s2": ({"replicates": 2, "n_grid": [200, 300], "m_val": 200},
               [[200, 0], [200, 1], [300, 0], [300, 1]]),
        "s3": ({"lambda_grid": [0.5, 2.0], "phase_n": 500, "phase_reps": 2},
               [[0.5, 0], [0.5, 1], [2.0, 0], [2.0, 1]]),
        "s4": ({"tail_k_max": 20_000, "replicates": 3}, []),
    }
    for verb, (keys, expected) in configs.items():
        run_experiment(ExperimentConfig.from_dict(
            {"experiment": verb, "out_dir": str(tmp_path), "base_seed": 7, **keys}))
        manifest = json.loads((tmp_path / verb / "manifest.json").read_text())
        assert "replicate_seeds" not in manifest
        units = manifest["units"]
        assert [u["key"] for u in units] == expected
        assert [u["spawn_key"] for u in units] == [[i] for i in range(len(expected))]


def test_s3_curve_is_the_mean_over_the_manifest_seeds(tmp_path):
    cfg = ExperimentConfig.from_dict({"experiment": "s3", "out_dir": str(tmp_path),
                                      "lambda_grid": [0.5, 2.0], "phase_n": 2000,
                                      "phase_reps": 3})
    manifest = run_experiment(cfg)
    rows = (tmp_path / "s3" / "s3_curve.csv").read_text().splitlines()[1:]
    for lam, row in zip(cfg.lambda_grid, rows):
        fracs = [giant_fraction(sample_sparse_graph(
                     Constant(1.0), cfg.phase_n, lam,
                     np.random.SeedSequence(cfg.base_seed,
                                            spawn_key=tuple(u["spawn_key"]))))
                 for u in manifest.units if u["key"][0] == lam]
        assert len(fracs) == cfg.phase_reps
        assert row.split(",")[1] == f"{np.asarray(fracs).mean():.12g}"


def test_s3_mini_run(tmp_path):
    cfg = ExperimentConfig.from_dict({"experiment": "s3", "out_dir": str(tmp_path),
                                      "lambda_grid": [0.5, 2.0], "phase_n": 2000,
                                      "phase_reps": 2})
    run_experiment(cfg)
    summary = json.loads((tmp_path / "s3" / "s3_summary.json").read_text())
    assert summary["lambda_critical"] == pytest.approx(1.0, abs=1e-9)
    assert summary["empirical_onset"] == 2.0
    curve = (tmp_path / "s3" / "s3_curve.csv").read_text().splitlines()
    assert curve[0] == "lambda,mean_fraction,sd_fraction,n,reps"
    assert len(curve) == 3


def test_s1_mini_run(tmp_path):
    cfg = ExperimentConfig.from_dict({"experiment": "s1", "out_dir": str(tmp_path),
                                      "replicates": 2, "m_train": 500,
                                      "m_val": 200})
    manifest = run_experiment(cfg)
    lines = (tmp_path / "s1" / "s1_metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 5  # header + replicates x methods
    summary = json.loads((tmp_path / "s1" / "s1_summary.json").read_text())
    assert summary["wins"]["replicates"] == 2
    assert [u["key"] for u in manifest.units] == [[0], [1]]
    # the paper's quantities: each method's L2 risk and the selection floor
    w_star, parts = default_generator()
    assert summary["selection_floor"] == min(l2_distance(w_star, p) ** 2 for p in parts)
    for method in experiments.METHODS:
        risk = summary[method]["l2_risk"]
        assert risk["n"] == 2 and risk["mean"] >= 0.0
    assert summary["BPS_LS"]["l2_risk"]["mean"] < summary["selection_floor"]
    # no single agent beats the floor; when BestAgent picks the nearest one,
    # its risk is the floor itself, summed over other cells in another order
    assert summary["BestAgent"]["l2_risk"]["mean"] >= summary["selection_floor"] * (1 - 1e-12)


def test_s2_mini_run(tmp_path):
    cfg = ExperimentConfig.from_dict({"experiment": "s2", "out_dir": str(tmp_path),
                                      "replicates": 2, "n_grid": [200],
                                      "m_val": 200})
    run_experiment(cfg)
    lines = (tmp_path / "s2" / "s2_curve.csv").read_text().splitlines()
    assert lines[0].startswith("n,m_train,method")
    assert len(lines) == 1 + 5
    assert all(line.startswith("200,600,") for line in lines[1:])
    summary = json.loads((tmp_path / "s2" / "s2_summary.json").read_text())
    ls_risk = summary["per_n"]["200"]["BPS_LS"]["l2_risk"]["mean"]
    assert summary["bps_ls_m_times_l2_risk"] == {"200": 600 * ls_risk}


def test_real_without_dataset_is_stage_tagged(tmp_path):
    cfg = ExperimentConfig.from_dict({"experiment": "real", "out_dir": str(tmp_path)})
    with pytest.raises(StageFailure, match=r"\[real\]"):
        run_experiment(cfg)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_audit_verb(tmp_path, capsys):
    g = sample_graph(SPARSE_BLOCK, 300, seed=13)
    path = tmp_path / "g.txt"
    write_edge_list(g, str(path))
    assert cli_main(["audit", str(path)]) == 0
    out = capsys.readouterr().out
    for regime in ("edge_holdout", "node_holdout", "uniform_dyads"):
        assert f"audit {regime}: OK" in out


def test_cli_report_verb(tmp_path, capsys):
    rng = np.random.default_rng(14)
    rows = []
    for method in ("BestAgent", "BPS_LS"):
        for split in ("eh/0", "eh/1", "nh/0"):
            preds = rng.random(200)
            labels = (rng.random(200) < preds).astype(float)
            rows.append((method, split, score_metrics(preds, labels)))
    path = tmp_path / "metrics.csv"
    write_metric_reports_csv(rows, str(path))
    assert cli_main(["report", str(path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "mean_gap" in out
    assert (tmp_path / "paired_gaps.csv").exists()
    assert cli_main(["report", str(path), "--method", "Nope"]) == 2
    assert "[report]" in capsys.readouterr().err


def test_cli_run_verb_s4(tmp_path, capsys):
    assert cli_main(["s4", "--out", str(tmp_path), "--seed", "7"]) == 0
    assert (tmp_path / "s4" / "s4_tails.csv").exists()
    manifest = json.loads((tmp_path / "s4" / "manifest.json").read_text())
    assert manifest["config"]["base_seed"] == 7


def test_cli_config_file_and_overrides(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"experiment": "s3", "phase_n": 1000,
                                    "phase_reps": 2, "lambda_grid": [0.5, 1.5]}))
    assert cli_main(["s3", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "s3" / "manifest.json").read_text())
    assert manifest["config"]["phase_n"] == 1000
