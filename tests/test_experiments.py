"""Config handling, data ingestion, agent fitting, serialization, runs, CLI."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from graphsynth import (Block, Constant, ConfigError, ExperimentConfig,
                        SerializeError, StageFailure, agent_dyad_probs,
                        agent_from_dict, agent_to_dict, config_hash,
                        default_generator, edge_prob_matrix,
                        fit_agents_to_graph, graphon_from_dict, graphon_to_dict,
                        grid_values, load_edge_list, load_model, run_experiment,
                        sample_graph, sample_sparse_graph, save_model,
                        write_edge_list)
from graphsynth.cli import _read_metrics_csv, main as cli_main
from graphsynth.evaluation import score_metrics
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


def test_config_round_trip_and_hash():
    cfg = ExperimentConfig.from_dict({"experiment": "s2", "replicates": 3,
                                      "n_grid": [100, 200]})
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
    other = ExperimentConfig.from_dict({"experiment": "s2", "replicates": 4,
                                        "n_grid": [100, 200]})
    assert config_hash(other) != config_hash(cfg)


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


def test_s1_run_deterministic_outputs(tmp_path):
    base = {"experiment": "s1", "replicates": 2, "m_train": 300, "m_val": 100,
            "m_test": 500}
    for name in ("a", "b"):
        run_experiment(ExperimentConfig.from_dict(dict(base, out_dir=str(tmp_path / name))))
    for fname in ("s1_metrics.csv", "s1_summary.json"):
        a = (tmp_path / "a" / "s1" / fname).read_bytes()
        b = (tmp_path / "b" / "s1" / fname).read_bytes()
        assert a == b
    # a change here means the dyad samplers, the synthesis fits or the scores
    # moved
    metrics = (tmp_path / "a" / "s1" / "s1_metrics.csv").read_bytes()
    assert hashlib.sha256(metrics).hexdigest() == (
        "3de8b3305fc4926baddb5fbcb0d3432d29c376b4080af22ae5f9066ac1cfd966")


def test_s2_run_deterministic_outputs(tmp_path):
    base = {"experiment": "s2", "replicates": 2, "n_grid": [200], "m_val": 200,
            "m_test": 1000}
    for name in ("a", "b"):
        run_experiment(ExperimentConfig.from_dict(dict(base, out_dir=str(tmp_path / name))))
    for fname in ("s2_curve.csv", "s2_summary.json"):
        a = (tmp_path / "a" / "s2" / fname).read_bytes()
        b = (tmp_path / "b" / "s2" / fname).read_bytes()
        assert a == b


def test_real_run_deterministic_outputs(tmp_path):
    g = sample_sparse_graph(Block.from_arrays([0, 0.3, 0.7, 1],
                                              [[0.9, 0.1, 0.2], [0.1, 0.7, 0.1],
                                               [0.2, 0.1, 0.8]]), 600, 12.0, seed=5)
    dataset = tmp_path / "edges.txt"
    write_edge_list(g, str(dataset))
    base = {"experiment": "real", "dataset": str(dataset),
            "regimes": ["edge_holdout", "node_holdout"], "splits_per_regime": 1}
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
        "48250a075d56dbd45453fb83f10d0a34806cc0c47ff79338bc566db2faeb546c")


def test_manifest_replicate_seeds_distinct(tmp_path):
    cfg = ExperimentConfig.from_dict({"experiment": "s4", "out_dir": str(tmp_path),
                                      "tail_k_max": 20_000, "replicates": 3,
                                      "base_seed": 7})
    run_experiment(cfg)
    seeds = json.loads((tmp_path / "s4" / "manifest.json").read_text())["replicate_seeds"]
    assert len(seeds) == 3
    assert len({tuple(s) for s in seeds}) == 3


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
                                      "m_val": 200, "m_test": 1000})
    manifest = run_experiment(cfg)
    lines = (tmp_path / "s1" / "s1_metrics.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 5  # header + replicates x methods
    summary = json.loads((tmp_path / "s1" / "s1_summary.json").read_text())
    assert summary["wins"]["replicates"] == 2
    assert len(manifest.replicate_seeds) == 2


def test_s2_mini_run(tmp_path):
    cfg = ExperimentConfig.from_dict({"experiment": "s2", "out_dir": str(tmp_path),
                                      "replicates": 2, "n_grid": [200],
                                      "m_val": 200, "m_test": 1000})
    run_experiment(cfg)
    lines = (tmp_path / "s2" / "s2_curve.csv").read_text().splitlines()
    assert lines[0].startswith("n,m_train,method")
    assert len(lines) == 1 + 5
    assert all(line.startswith("200,600,") for line in lines[1:])


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
