"""Config handling, data ingestion, agent fitting, CSV export, runs, CLI."""

import csv
import dataclasses
import gc
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import tomllib
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsynth
from graphsynth import (Block, Constant, ConfigError, DyadData, ExperimentConfig, Graphon,
                        StageFailure, agent_dyad_probs,
                        common_refinement, config_hash, default_generator,
                        edge_prob_matrix, fit_agents_to_graph, giant_fraction,
                        l2_distance, load_edge_list, make_split, run_experiment,
                        sample_dyads, sample_graph, sample_sparse_graph,
                        write_edge_list)
from graphsynth import (cv_best_agent, experiments, fit_logistic_stack, fit_ls, fit_ridge,
                        fit_simplex, predict_clipped)
from graphsynth.cli import _read_metrics_csv, main as cli_main
from graphsynth.evaluation import population_metrics, score_metrics
from graphsynth.graphons import l2_inner
from graphsynth.sampling import child_seeds, graph_from_edge_array
from graphsynth.serialize import write_metric_reports_csv

SPARSE_BLOCK = Block([0, 0.5, 1], [[0.08, 0.02], [0.02, 0.08]])


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

# keys that runs read as module constants now, each with the verb that read
# it and the value it had
FIXED_KEYS = {"deghist_bins": ("real", 10), "ridge_reg": ("s1", 1e-3),
              "negpos_ratio": ("real", 3.0), "dyads_per_n": ("s2", 3),
              "n_grid": ("s2", [200]), "pi_grid": ("s4", [0.0, 0.5]),
              "gamma_light": ("s4", 13.7), "gamma_heavy": ("s4", 5.0),
              "tail_k_max": ("s4", 20_000)}


def test_config_rejects_unknown_keys(tmp_path, capsys):
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
    # a key that became a constant is unknown too: a run that ignored the
    # value would report results for a setting it never ran
    for key, (verb, value) in FIXED_KEYS.items():
        cfg_path = tmp_path / f"{key}.json"
        cfg_path.write_text(json.dumps({"experiment": verb, key: value}))
        assert cli_main([verb, "--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err.strip() == f"[{verb}] unknown config keys: ['{key}']"
        assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("keys", [{"lambda_grid": []}, {"regimes": []},
                                  {"lambda_grid": [0.5, 0.5]}, {"lambda_grid": [-1, 1]},
                                  {"phase_n": 1}],
                         ids=["lambda_grid", "regimes", "repeated_lambda", "lambda",
                              "phase_n"])
def test_config_rejects_degenerate_values(keys):
    # an empty grid or regime list would run no unit and write NaN summaries;
    # the other values would fail only mid-run, after the data is drawn or
    # loaded
    key = next(iter(keys))
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_dict({"experiment": "real", **keys})


def test_config_rules_name_every_field_once():
    # one rule per key: a field without a rule would load unchecked
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert list(experiments._CONFIG_RULES) == fields
    assert [k for k, rule in experiments._CONFIG_RULES.items() if rule.grid] == [
        "lambda_grid", "regimes"]


def test_config_round_trip_and_hash():
    cfg = ExperimentConfig.from_dict({"experiment": "s3", "replicates": 3,
                                      "lambda_grid": [0.5, 1.0]})
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
    other = ExperimentConfig.from_dict({"experiment": "s3", "replicates": 4,
                                        "lambda_grid": [0.5, 1.0]})
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


def test_load_edge_list_rejects_an_id_beyond_int64(tmp_path, capsys):
    # used to raise OverflowError out of np.asarray: a traceback, exit 1
    path = tmp_path / "big.txt"
    path.write_text("1 2\n3 100000000000000000000\n")
    with pytest.raises(ValueError, match=":2: node id outside the int64 range"):
        load_edge_list(str(path))
    assert cli_main(["audit", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"[audit] {path}:2: node id outside")


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
    planted = Block([0, 0.5, 1], [[0.30, 0.05], [0.05, 0.30]])
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
    bins = np.asarray(agents["DegHist"].assignment)
    assert np.unique(bins).size == 1  # all degrees equal: one occupied bin
    rate = np.asarray(agents["DegHist"].matrix)[bins[0], bins[0]]
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
    blocks = Block([0.0, 0.3, 0.7, 1.0],
                   [[0.9, 0.1, 0.2], [0.1, 0.7, 0.1], [0.2, 0.1, 0.8]])
    g = sample_sparse_graph(blocks, 300, 2.0, 1)
    cfg = ExperimentConfig.from_dict({"experiment": "real"})
    first = _agent_digests(fit_agents_to_graph(g, cfg, seed=1))
    for _ in range(3):
        assert _agent_digests(fit_agents_to_graph(g, cfg, seed=1)) == first


def _agent_digests(agents) -> dict:
    """Per agent name, a sha256 over every field's name, dtype, shape and
    bytes: two fits compare on every stored value, which ``==`` (identity)
    and ``repr`` (elides arrays over 1000 entries) do not."""
    out = {}
    for name, agent in agents.items():
        h = hashlib.sha256()
        for f in dataclasses.fields(agent):
            value = np.asarray(getattr(agent, f.name))
            h.update(f"{f.name} {value.dtype} {value.shape}".encode())
            h.update(value.tobytes())
        out[name] = h.hexdigest()
    return out


def test_fit_agents_validation():
    tiny = graph_from_edge_array(5, [[0, 1]])
    cfg = ExperimentConfig.from_dict({"experiment": "real"})
    with pytest.raises(ValueError):
        fit_agents_to_graph(tiny, cfg)


@pytest.mark.parametrize("key", ["sbm_k", "rdpg_d"])
def test_fit_agents_needs_fewer_eigenvectors_than_nodes(key):
    # eigsh takes k = n - 1 and raises a TypeError at k = n
    g = graph_from_edge_array(12, [[i, (i + 1) % 12] for i in range(12)]
                              + [[i, i + 6] for i in range(6)])
    fit_agents_to_graph(g, ExperimentConfig.from_dict({"experiment": "real", key: 11}))
    with pytest.raises(ValueError, match=f"^{key} = 12 must be below the node count 12$"):
        fit_agents_to_graph(g, ExperimentConfig.from_dict({"experiment": "real", key: 12}))


def _fresh_python(code: str, **env) -> str:
    """Standard output of ``code`` in a fresh interpreter that imports this
    graphsynth, with ``env`` added to the environment."""
    src = str(Path(experiments.__file__).resolve().parents[1])
    path = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, check=True, timeout=120).stdout


# ---------------------------------------------------------------------------
# the SBM step's k-means
# ---------------------------------------------------------------------------

def _kmeans2_labels(data, k, seed):
    from scipy.cluster.vq import kmeans2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return kmeans2(data, k, minit="++", seed=seed)[1]


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("d", range(1, 5))
def test_kmeans_matches_kmeans2(d, k):
    # below 5 features kmeans2 sums squared differences feature by feature,
    # as _kmeans does, so every label agrees; rounded rows add exact ties
    rng = np.random.default_rng(10 * d + k)
    for trial in range(6):
        data = rng.normal(size=(int(rng.integers(k, 300)), d))
        if trial % 3 == 1:
            data /= np.linalg.norm(data, axis=1, keepdims=True)
        elif trial % 3 == 2:
            data = np.round(data, 1)
        seed = rng.integers(2 ** 31)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = experiments._kmeans(data, k, seed)
        np.testing.assert_array_equal(got, _kmeans2_labels(data, k, seed))


def test_kmeans_with_fewer_distinct_rows_than_clusters():
    # three distinct rows and k = 5: seeding reaches sum D^2 = 0 twice, and
    # duplicate centers leave clusters empty
    data = np.repeat([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], [7, 5, 3], axis=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = experiments._kmeans(data, 5, 11)
    assert {type(w.message) for w in caught} == {UserWarning}
    assert "empty" in str(caught[0].message)
    np.testing.assert_array_equal(got, _kmeans2_labels(data, 5, 11))
    assert np.unique(got).size == 3
    for row in np.unique(data, axis=0):
        assert np.unique(got[(data == row).all(axis=1)]).size == 1


def test_kmeans_on_equal_rows():
    data = np.full((20, 3), 0.25)
    with pytest.warns(UserWarning, match="empty"):
        got = experiments._kmeans(data, 4, 5)
    assert np.array_equal(got, np.zeros(20)) and np.array_equal(got, _kmeans2_labels(data, 4, 5))


class _TopDraw:
    """A RandomState stand-in whose first center is row 0 and whose every
    uniform() draw is 1 - 2**-53, the largest a RandomState returns."""

    def randint(self, n, dtype):
        return 0

    def uniform(self):
        return np.nextafter(1.0, 0.0)


def test_kmeans_pp_clamps_a_draw_above_the_rounded_cumulative_sum():
    # the normalized cumulative D^2 from row 0 ends at 1 - 2**-52, below the
    # draw, where kmeans2 would index past the end; the last row repeats
    # row 0, so the draw falls on the last row of positive weight
    data = np.array([[0.0], [85 / 7], [170 / 7], [255 / 7], [0.0]])
    d2 = data[:, 0] ** 2
    assert np.cumsum(d2 / d2.sum())[-1] < _TopDraw().uniform()
    centers = experiments._kmeans_pp(data, 2, _TopDraw())
    np.testing.assert_array_equal(centers, data[[0, 3]])


# k-means on a 5-feature embedding, where kmeans2 would take a BLAS product
_KMEANS_PROBE = """
import hashlib
import numpy as np
from graphsynth import experiments
x = np.random.default_rng(2201).normal(size=(3000, 5))
x /= np.linalg.norm(x, axis=1, keepdims=True)
print(hashlib.sha256(experiments._kmeans(x, 5, 1234).tobytes()).hexdigest())
"""


def test_kmeans_labels_do_not_depend_on_the_blas_kernel(capsys):
    exec(_KMEANS_PROBE, {})
    here = capsys.readouterr().out
    assert _fresh_python(_KMEANS_PROBE, OPENBLAS_CORETYPE="Haswell") == here


# the agents of the REGIME/0 training graph of a run on CONFIG, with the
# unit seed run_experiment gives that split
_SPLIT_FIT = """
import dataclasses
import hashlib
import numpy as np
from graphsynth import ExperimentConfig, fit_agents_to_graph, load_edge_list, make_split
from graphsynth.sampling import child_seeds, graph_from_edge_array
cfg = ExperimentConfig.from_dict(CONFIG)
graph, _ = load_edge_list(cfg.dataset)
seed = np.random.SeedSequence(cfg.base_seed).spawn(1)[0]
split = make_split(graph, REGIME, seed)
train = graph_from_edge_array(graph.n, split.train_dyads[split.train_labels == 1])
agents = fit_agents_to_graph(train, cfg, seed=child_seeds(seed, 1)[0])
for name, digest in _agent_digests(agents).items():
    print(name, digest)
"""


@pytest.mark.parametrize("regime", experiments.SPLIT_REGIMES)
def test_fit_agents_repeatable_across_processes(tmp_path, regime):
    # on this 800-node graph the uniform_dyads training graph has 96 edges
    # in hundreds of components, so ARPACK restarts in both spectral steps
    config = dict(_real_config(tmp_path, n=800, lam=10.0, seed=3), regimes=[regime])
    code = (f"CONFIG = {config!r}\nREGIME = {regime!r}\n"
            + inspect.getsource(_agent_digests) + _SPLIT_FIT)
    runs = [_fresh_python(code) for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0].split()[::2] == ["ER", "ChungLu", "DegHist", "SBM", "RDPG"]


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------

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

def test_s4_run_deterministic_outputs(tmp_path, monkeypatch):
    # the pinned digest is of the degree support 1..20,000
    monkeypatch.setattr(experiments, "S4_K_MAX", 20_000)
    base = {"experiment": "s4"}
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
        "8113e32f6ea8fbfad3c6c32932066f03d64fa40938a88684d509821b4426d809")


def test_s2_run_deterministic_outputs(tmp_path, monkeypatch):
    # the pinned digest is of the grid (200,)
    monkeypatch.setattr(experiments, "S2_N_GRID", (200,))
    base = {"experiment": "s2", "replicates": 2, "m_val": 200}
    for name in ("a", "b"):
        run_experiment(ExperimentConfig.from_dict(dict(base, out_dir=str(tmp_path / name))))
    for fname in ("s2_curve.csv", "s2_summary.json"):
        a = (tmp_path / "a" / "s2" / fname).read_bytes()
        b = (tmp_path / "b" / "s2" / fname).read_bytes()
        assert a == b
    curve = (tmp_path / "a" / "s2" / "s2_curve.csv").read_bytes()
    assert hashlib.sha256(curve).hexdigest() == (
        "445d4e4904a7f9f3930ae380de31d51f438ad433bd2638325125a1c4dc274ab7")


# ---------------------------------------------------------------------------
# exact population scoring of s1/s2
# ---------------------------------------------------------------------------

def _outside_span_truth():
    """A truth with a breakpoint at 0.3, which no default part has, so no
    combination of the parts reaches it."""
    return (Block([0, 0.3, 1], [[0.7, 0.2], [0.2, 0.4]]),
            default_generator()[1])


def test_cell_design_holds_the_sampled_values():
    for truth, k in ((default_generator(), 4), (_outside_span_truth(), 5)):
        w_star, parts = truth
        mass, cell_truth, features = experiments.cell_design(w_star, parts)
        assert mass.size == k * (k + 1) // 2
        assert mass.sum() == pytest.approx(1.0, abs=1e-15)
        # a latent pair in cell {a, b}, a <= b, gets the truth and features
        # stored there, with probability mu_a^2 if a = b and 2 mu_a mu_b else
        bounds = np.unique(np.concatenate([w_star.block.boundaries]
                                          + [p.block.boundaries for p in parts]))
        mid, mu = 0.5 * (bounds[:-1] + bounds[1:]), np.diff(bounds)
        a, b = zip(*[(a, b) for a in range(k) for b in range(a, k)])
        a, b = np.array(a), np.array(b)
        np.testing.assert_array_equal(mass, np.where(a == b, 1.0, 2.0) * mu[a] * mu[b])
        np.testing.assert_array_equal(cell_truth, w_star.evaluate(mid[a], mid[b]))
        np.testing.assert_array_equal(
            features, np.stack([np.ones(a.size)] + [p.evaluate(mid[a], mid[b]) for p in parts],
                               axis=1))


@pytest.mark.parametrize("truth", [default_generator(), _outside_span_truth()],
                         ids=["default", "outside_span"])
def test_unordered_cells_score_as_the_ordered_cells(truth):
    """Population scores and the L2 risk of forecasts that are symmetric in
    the cell agree within 1e-14 between ``cell_design``'s unordered cells
    and the k * k ordered cells of the common refinement."""
    w_star, parts = truth
    mu, (cell_truth, *_) = common_refinement(w_star, *parts)
    k = mu.size
    ordered_mass, ordered_truth = np.outer(mu, mu).ravel(), cell_truth.ravel()
    mass, merged_truth, _ = experiments.cell_design(w_star, parts)
    upper = np.triu_indices(k)
    rng = np.random.default_rng(1616)
    for r in range(200):
        forecast = np.zeros((k, k))
        # a coarse grid half the time, so that cells tie across the table
        forecast[upper] = rng.random(mass.size) if r % 2 else rng.integers(0, 5, mass.size) / 4
        forecast = np.maximum(forecast, forecast.T)
        merged = population_metrics(forecast[upper], merged_truth, mass)
        full = population_metrics(forecast.ravel(), ordered_truth, ordered_mass)
        for key in ("brier", "logloss", "auc", "ap", "ece"):
            assert getattr(merged, key) == pytest.approx(getattr(full, key), rel=0, abs=1e-14)
        np.testing.assert_allclose(merged.murphy, full.murphy, rtol=0, atol=1e-14)
        np.testing.assert_allclose(merged.reliability_bins, full.reliability_bins,
                                   rtol=0, atol=1e-14)
        assert mass @ (forecast[upper] - merged_truth) ** 2 == pytest.approx(
            ordered_mass @ (forecast.ravel() - ordered_truth) ** 2, rel=0, abs=1e-14)


def test_cell_design_needs_block_forms():
    # every graphon is its block form: a kind without one cannot be built
    class Smooth(Graphon):
        def evaluate(self, x, y):
            return 0.5 * (np.asarray(x, dtype=float) + y)

    with pytest.raises(TypeError, match="abstract"):
        Smooth()


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
        train, val, np.vstack([features] + [t.features for t in tests]))
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
        seeds = np.random.SeedSequence(3).spawn(3)
        for scored in experiments._synthetic_replicates(design, seeds, 500, 200).values():
            assert len(scored) == len(seeds)
            for report, risk in scored:
                assert abs(report.brier - risk - variance) <= 1e-15


# ---------------------------------------------------------------------------
# s1/s2 cell counts
# ---------------------------------------------------------------------------

def test_cell_counts_match_the_dyad_law():
    """Per cell, the mean count over seeds is m times the cell's mass and
    the mean positives m times its mass times W_ab, within 4 standard
    errors."""
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
    order."""
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
            experiments._method_predictions(train, val, design[2])
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
    (300, 100, "da1fb506d865aea0e031e339157f5015b9f7649397e721875caba15194d8c77a"),
    # s2 with replicates 2, S2_N_GRID (200,) (m_train 3 * 200), m_val 200
    (600, 200, "ef6b4d77ab1e3f3b10117bfc6b3b23f4e929677e242091ed631bf9358a9aef36"),
], ids=["s1", "s2"])
def test_dyad_row_fits_keep_their_digest(m_train, m_val, row_digest):
    """Fits on the seeded ``sample_dyads`` rows of two replicates, with unit
    weights, match ``row_digest`` bit for bit.  It was pinned before the
    fitters took weights (unit weights reproduce the unweighted arithmetic
    exactly) and re-pinned once when the Gram solve moved from Cholesky to
    LU and the logistic helpers to numpy, which moved the fits by at most
    7.4e-15 relative."""
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


# ---------------------------------------------------------------------------
# batched s1/s2 fits
# ---------------------------------------------------------------------------

def _twin_design():
    """The default cell table with agent 1 repeated as a fourth agent, so
    the LS design is singular in every sample."""
    mass, truth, features = experiments.cell_design(*default_generator())
    return mass, truth, np.column_stack([features, features[:, 1]])


def _outcome(call):
    """(result, None), or (None, (type, message)) if ``call`` raises a
    ValueError."""
    try:
        return call(), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def _assert_row_equals(batched, i: int, single) -> None:
    """Sample ``i`` of a batched result equals a single call's result bit
    for bit: a weight vector's beta and diagnostics, or the array."""
    if not hasattr(single, "beta"):
        np.testing.assert_array_equal(batched[i], single)
        return
    for name in ("beta", "condition_number", "m_train", "kkt_residual"):
        value = getattr(batched, name)
        np.testing.assert_array_equal(value[i] if np.ndim(value) else value,
                                      getattr(single, name), err_msg=name)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 60),
       st.booleans())
def test_batched_fits_equal_single_calls(seed, reps, m_max, twin):
    """Every fitter and ``population_metrics`` on R samples of cell counts
    over one cell table, in one call, give each sample's single-call result
    bit for bit: betas, agent choices, diagnostics and reports.  Small m
    leaves cells empty (weight 0) and some samples one-class, on purpose;
    where single calls fail, the batch raises the first failure, tagged
    with its sample, and the other samples fit as a batch of their own."""
    design = _twin_design() if twin else experiments.cell_design(*default_generator())
    mass, truth, features = design
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(1, mass, size=reps) + np.stack(
        [rng.multinomial(m, mass) for m in rng.integers(0, m_max, size=reps)])
    positives = rng.binomial(counts, truth)
    # a few samples with no edges, or only edges
    kind = rng.integers(0, 6, size=reps)
    positives = np.where(kind[:, None] == 0, 0, np.where(kind[:, None] == 1, counts, positives))
    labels = positives / np.maximum(counts, 1)
    batch = DyadData(features=features, labels=labels, weights=counts)
    singles = [DyadData(features=features, labels=y, weights=w) for y, w in zip(labels, counts)]
    fits = {"fit_ls": fit_ls, "fit_ridge": lambda d: fit_ridge(d, 1e-3),
            "fit_simplex": fit_simplex,
            "fit_logistic_stack": lambda d: fit_logistic_stack(d.features, d.labels, d.weights),
            "cv_best_agent": lambda d: cv_best_agent(d.features, d.labels, d.weights)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # one-class stacks
        for name, fit in fits.items():
            want = [_outcome(lambda d=d: fit(d)) for d in singles]
            failed = [r for r, (_, err) in enumerate(want) if err is not None]
            if failed:
                with pytest.raises(want[failed[0]][1][0]) as info:
                    fit(batch)
                assert (str(info.value), info.value.replicate) == (want[failed[0]][1][1],
                                                                   failed[0]), name
                if twin and name == "fit_ls":
                    assert len(failed) == reps
            ok = [r for r, (_, err) in enumerate(want) if err is None]
            if not ok:
                continue
            got = fit(DyadData(features=features, labels=labels[ok], weights=counts[ok]))
            for i, r in enumerate(ok):
                _assert_row_equals(got, i, want[r][0])
            if name == "fit_ridge":
                preds = predict_clipped(got, features)
                # half the forecasts on a coarse grid, so that cells tie
                preds[::2] = np.round(preds[::2] * 4) / 4
                reports = population_metrics(preds, truth, mass)
                assert [repr(rep) for rep in reports] == [
                    repr(population_metrics(p, truth, mass)) for p in preds]


def test_sample_cells_batch_rows_are_single_draws():
    """Row r of a batch of ``sample_cells`` draws is the 1-D draw of seed r,
    with each m, every cell listed and empty cells at weight 0."""
    design = experiments.cell_design(*default_generator())
    seeds = np.random.SeedSequence(4).spawn(5)
    m = [3, 40, 1, 4000, 12]
    batch = experiments.sample_cells(design, m, seeds)
    assert batch.labels.shape == batch.weights.shape == (5, design[0].size)
    np.testing.assert_array_equal(batch.m, m)
    assert np.any(batch.weights == 0)
    for r, (seed, m_r) in enumerate(zip(seeds, m)):
        one = experiments.sample_cells(design, m_r, seed)
        np.testing.assert_array_equal(one.weights, batch.weights[r])
        np.testing.assert_array_equal(one.labels, batch.labels[r])
    with pytest.raises(ValueError, match="m >= 1"):
        experiments.sample_cells(design, [5, 0], seeds[:2])


def test_child_seeds_do_not_depend_on_earlier_use():
    """``child_seeds`` gives what ``spawn`` gives on a fresh seed, however
    often the seed object was used before; ``spawn`` itself does not."""
    seed = np.random.SeedSequence(20240601).spawn(3)[2]
    fresh = np.random.SeedSequence(20240601).spawn(3)[2].spawn(2)
    first, second = child_seeds(seed, 2), child_seeds(seed, 2)
    for got in (first, second):
        assert [s.spawn_key for s in got] == [s.spawn_key for s in fresh]
        assert [s.generate_state(4).tolist() for s in got] == [
            s.generate_state(4).tolist() for s in fresh]
    seed.spawn(2)
    assert [s.spawn_key for s in child_seeds(seed, 2)] == [s.spawn_key for s in fresh]
    assert [s.spawn_key for s in seed.spawn(2)] != [s.spawn_key for s in fresh]


def test_scoring_one_seed_twice_gives_one_result():
    """A unit's seed object scored twice in one process gives the same
    reports: its children do not depend on earlier use."""
    design = experiments.cell_design(*default_generator())
    seeds = np.random.SeedSequence(5).spawn(3)
    runs = [experiments._synthetic_replicates(design, seeds, 300, 100)
            for _ in range(2)]
    assert repr(runs[0]) == repr(runs[1])


def _first_failing_unit(config: ExperimentConfig) -> tuple:
    """The key of the first unit whose train draw ``fit_ls`` rejects when
    the units are fitted one by one."""
    design = experiments.cell_design(*default_generator())
    keys = experiments._unit_keys(config)
    for key, seed in zip(keys, np.random.SeedSequence(config.base_seed).spawn(len(keys))):
        m = config.m_train if config.experiment == "s1" else experiments.S2_DYADS_PER_N * key[0]
        try:
            fit_ls(experiments.sample_cells(design, m, child_seeds(seed, 2)[0]))
        except ValueError:
            return key
    raise AssertionError("no unit fails")


# the message of a fit whose train draw lands in too few cells; the
# eigenvalue is round-off, so its digits are not pinned
SINGULAR_FIT = r"minimum Gram eigenvalue -?\d\.\d{3}e-\d+ below tolerance; use fit_ridge"


@pytest.mark.parametrize("keys, first", [
    ({"experiment": "s1", "m_train": 4, "replicates": 3, "base_seed": 1}, (0,)),
    ({"experiment": "s1", "m_train": 6, "replicates": 8, "base_seed": 1}, (3,)),
    # with S2_N_GRID (50, 2), the 6 dyads at n = 2 land in too few cells
    ({"experiment": "s2", "replicates": 3, "base_seed": 1}, (2, 0)),
], ids=["s1_first", "s1_later", "s2"])
def test_failed_fit_names_the_first_failing_unit(tmp_path, monkeypatch, keys, first):
    monkeypatch.setattr(experiments, "S2_N_GRID", (50, 2))
    config = ExperimentConfig.from_dict(dict(keys, out_dir=str(tmp_path)))
    unit = _first_failing_unit(config)
    with pytest.raises(StageFailure) as info:
        run_experiment(config)
    assert info.value.stage == config.experiment and info.value.unit == unit == first
    assert str(info.value).startswith(f"[{config.experiment} unit {list(unit)}] ")
    assert re.fullmatch(SINGULAR_FIT, info.value.message)


def test_failed_rerun_replaces_the_manifest_with_failure_json(tmp_path):
    base = {"experiment": "s1", "out_dir": str(tmp_path), "replicates": 2,
            "m_train": 500, "m_val": 200}
    run_dir = tmp_path / "s1"
    run_experiment(ExperimentConfig.from_dict(base))
    assert (run_dir / "manifest.json").exists()
    with pytest.raises(StageFailure):
        run_experiment(ExperimentConfig.from_dict(dict(base, m_train=4, base_seed=1)))
    # the first run's outputs stay, but no manifest vouches for them
    assert not (run_dir / "manifest.json").exists()
    failure = json.loads((run_dir / "failure.json").read_text())
    assert failure.keys() == {"stage", "unit", "message"}
    assert failure["stage"] == "s1" and failure["unit"] == [0]
    assert re.fullmatch(SINGULAR_FIT, failure["message"])
    run_experiment(ExperimentConfig.from_dict(base))
    assert not (run_dir / "failure.json").exists()
    assert (run_dir / "manifest.json").exists()


def _real_config(tmp_path, n=600, lam=12.0, seed=5) -> dict:
    """A two-split real run on a sparse planted-block graph, by default of
    600 nodes."""
    g = sample_sparse_graph(Block([0, 0.3, 0.7, 1],
                                  [[0.9, 0.1, 0.2], [0.1, 0.7, 0.1],
                                   [0.2, 0.1, 0.8]]), n, lam, seed=seed)
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
        "2fc5dfc60bfa72047fef905c445538d8724c841fac4280b707d2da547ecc6bbd")
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


def test_real_uniform_dyads_fits_without_its_constant_columns(tmp_path, monkeypatch):
    """A uniform_dyads split keeps about 100 train edges on 2000 nodes, so
    almost every node is isolated, DegHist's decile bins merge into one and
    DegHist is constant on the train rows, as ER is.  Both leave the
    synthesis design, which with them was singular."""
    constant = []
    predict = experiments._method_predictions

    def recorder(train, val, *args, **kwargs):
        constant.append((np.ptp(train.features[:, 1:], axis=0) == 0).tolist())
        return predict(train, val, *args, **kwargs)

    monkeypatch.setattr(experiments, "_method_predictions", recorder)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(dict(_real_config(tmp_path, n=2000, lam=10.0, seed=3),
                                        regimes=["uniform_dyads"])))
    assert cli_main(["real", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    # ER, ChungLu, DegHist, SBM, RDPG
    assert constant == [[True, False, True, False, False]]
    with open(tmp_path / "real" / "real_metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], r["split"]) for r in rows] == [
        (m, "uniform_dyads/0") for m in experiments.METHODS]


def test_real_drops_each_split_before_drawing_the_next(tmp_path, monkeypatch):
    """When a split's make_split starts, every earlier SplitSpec and the
    train and validation DyadData fitted on it are gone, so two splits'
    dyads and features never share the peak."""
    refs, alive = [], []
    split, predict = experiments.make_split, experiments._method_predictions

    def splitter(*args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))
        spec = split(*args)
        refs.append(weakref.ref(spec))
        return spec

    def recorder(train, val, *args, **kwargs):
        refs.extend([weakref.ref(train), weakref.ref(val)])
        return predict(train, val, *args, **kwargs)

    monkeypatch.setattr(experiments, "make_split", splitter)
    monkeypatch.setattr(experiments, "_method_predictions", recorder)
    run_experiment(ExperimentConfig.from_dict(
        dict(_real_config(tmp_path), splits_per_regime=2, out_dir=str(tmp_path))))
    assert len(refs) == 4 * 3 and alive == [0, 0, 0, 0]


def test_constant_agent_leaves_the_synthesis_fits_but_not_selection():
    """A constant agent column, here the second of three, changes no
    synthesis or stacking fit, and BestAgent can still select it: labels
    drawn at rate 0.3 apart from the agents make the constant 0.3 the best
    validation forecast."""
    rng = np.random.default_rng(11)

    def draw(m):
        agents = rng.uniform(0.05, 0.95, size=(m, 2))
        features = np.column_stack([np.ones(m), agents[:, 0], np.full(m, 0.3), agents[:, 1]])
        return features, (rng.random(m) < 0.3).astype(float)

    (train_f, train_y), (val_f, val_y), (test_f, _) = draw(400), draw(200), draw(100)
    varying = [0, 1, 3]
    full = experiments._method_predictions(DyadData(train_f, train_y),
                                           DyadData(val_f, val_y), test_f)
    reduced = experiments._method_predictions(DyadData(train_f[:, varying], train_y),
                                              DyadData(val_f[:, varying], val_y),
                                              test_f[:, varying])
    for method in ("BPS_LS", "BPS_Ridge", "BPS_Simplex", "Stack_Logistic"):
        np.testing.assert_array_equal(full[method], reduced[method], err_msg=method)
    np.testing.assert_array_equal(full["BestAgent"], 0.3)
    assert not np.all(reduced["BestAgent"] == 0.3)


def test_manifest_records_each_unit_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "S2_N_GRID", (200, 300))
    configs = {
        "s1": ({"replicates": 3, "m_train": 300, "m_val": 100},
               [[0], [1], [2]]),
        "s2": ({"replicates": 2, "m_val": 200},
               [[200, 0], [200, 1], [300, 0], [300, 1]]),
        "s3": ({"lambda_grid": [0.5, 2.0], "phase_n": 500, "phase_reps": 2},
               [[0.5, 0], [0.5, 1], [2.0, 0], [2.0, 1]]),
        "s4": ({"replicates": 3}, []),
    }
    for verb, (keys, expected) in configs.items():
        run_experiment(ExperimentConfig.from_dict(
            {"experiment": verb, "out_dir": str(tmp_path), "base_seed": 7, **keys}))
        manifest = json.loads((tmp_path / verb / "manifest.json").read_text())
        assert "replicate_seeds" not in manifest
        units = manifest["units"]
        assert [u["key"] for u in units] == expected
        assert [u["spawn_key"] for u in units] == [[i] for i in range(len(expected))]


def test_manifest_version_is_the_package_version(tmp_path):
    # pyproject.toml holds the one version the package and its runs report
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    manifest = run_experiment(ExperimentConfig.from_dict(
        {"experiment": "s1", "out_dir": str(tmp_path), "replicates": 1, "m_train": 300,
         "m_val": 100}))
    saved = json.loads((tmp_path / "s1" / "manifest.json").read_text())
    assert manifest.version == saved["version"] == graphsynth.__version__ == version


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


def test_s2_mini_run(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "S2_N_GRID", (200,))
    cfg = ExperimentConfig.from_dict({"experiment": "s2", "out_dir": str(tmp_path),
                                      "replicates": 2, "m_val": 200})
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
    assert json.loads((tmp_path / "real" / "failure.json").read_text()) == {
        "stage": "real", "unit": None, "message": "real experiment needs a dataset path"}


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


def _report_csv(tmp_path) -> Path:
    rng = np.random.default_rng(15)
    rows = [(method, split, score_metrics(rng.random(50), (rng.random(50) < 0.5) * 1.0))
            for method in ("BestAgent", "BPS_LS") for split in ("eh/0", "eh/1")]
    path = tmp_path / "metrics.csv"
    write_metric_reports_csv(rows, str(path))
    return path


def test_cli_report_rejects_a_missing_column(tmp_path, capsys):
    path = _report_csv(tmp_path)
    lines = path.read_text().splitlines()
    drop = lines[0].split(",").index("ap")
    path.write_text("".join(",".join(c for k, c in enumerate(line.split(",")) if k != drop)
                            + "\n" for line in lines))
    assert cli_main(["report", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[report]") and "missing columns ['ap']" in err
    assert not (tmp_path / "paired_gaps.csv").exists()


def test_cli_report_rejects_a_repeated_row(tmp_path, capsys):
    path = _report_csv(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + lines[-1:]) + "\n")
    assert cli_main(["report", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[report]") and "repeated row for (BPS_LS, eh/1)" in err
    assert not (tmp_path / "paired_gaps.csv").exists()


def test_cli_report_rejects_a_short_row(tmp_path, capsys):
    path = _report_csv(tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    assert cli_main(["report", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"[report] {path}:3: malformed row")


@pytest.mark.parametrize("argv", [["report", "m.csv", "--seed", "1"],
                                  ["report", "m.csv", "--config", "c.json"],
                                  ["audit", "e.txt", "--out", "d"],
                                  ["audit", "e.txt", "--config", "c.json"]],
                         ids=["report_seed", "report_config", "audit_out", "audit_config"])
def test_cli_rejects_a_flag_its_verb_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[2]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["report", "missing.csv"], ["audit", "missing.txt"],
                                  ["s1", "--config", "missing.json"]],
                         ids=["report", "audit", "s1_config"])
def test_cli_names_a_missing_input_file(tmp_path, monkeypatch, capsys, argv):
    # each used to raise FileNotFoundError out of main: a traceback, exit 1
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"[{argv[0]}] ") and f"'{argv[-1]}'" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_run_verb_s4(tmp_path, capsys):
    assert cli_main(["s4", "--out", str(tmp_path), "--seed", "7"]) == 0
    assert (tmp_path / "s4" / "s4_tails.csv").exists()
    manifest = json.loads((tmp_path / "s4" / "manifest.json").read_text())
    assert manifest["config"]["base_seed"] == 7


@pytest.mark.parametrize("keys", [{"phase_n": "big"}, {"m_train": 4000.5},
                                  {"replicates": True}, {"phase_n": 20000.0},
                                  {"lambda_grid": 0.5}, {"lambda_grid": ["1"]},
                                  {"sbm_k": None}, {"out_dir": 3}],
                         ids=["string", "float_count", "bool_count", "float_n",
                              "scalar_grid", "string_lambda", "null_number", "out_dir"])
def test_cli_rejects_a_wrong_typed_config_value(tmp_path, capsys, keys):
    # a wrong type used to crash with a TypeError traceback, or, for a float
    # count, run and record a value no draw can use
    key = next(iter(keys))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"experiment": "s1", **keys}))
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_file(str(cfg_path))
    assert cli_main(["s1", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"[s1] {key} must be ")
    assert not (tmp_path / "s1").exists()


@pytest.mark.parametrize("verb, keys", [("s1", {"base_seed": -1})], ids=["base_seed"])
def test_cli_rejects_an_out_of_range_config_value(tmp_path, capsys, verb, keys):
    # each used to fail mid-run, or at SeedSequence, with a message that
    # did not name the key
    key = next(iter(keys))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"experiment": verb, **keys}))
    assert cli_main([verb, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"[{verb}] {key} must be >= ")
    assert not (tmp_path / verb).exists()


# (verb, key, a wrong-typed value, an out-of-range value); out_dir and
# dataset take any string, so they have no out-of-range value
CONFIG_KEY_CASES = [
    ("s1", "experiment", 1, "s9"),
    ("s1", "base_seed", "7", -1),
    ("s1", "out_dir", 3, None),
    ("s1", "replicates", 2.0, 0),
    ("real", "sbm_k", "5", 0),
    ("real", "rdpg_d", True, 0),
    ("s1", "m_train", [4000], 0),
    ("s1", "m_val", None, 0),
    ("s3", "lambda_grid", [0.5, True], [0.5, 0]),
    ("s3", "phase_n", "1000", 1),
    ("s3", "phase_reps", 2.5, 0),
    ("real", "dataset", 7, None),
    ("real", "regimes", "edge_holdout", ["edge_holdout", "any"]),
    ("real", "splits_per_regime", 1.0, 0),
]


def test_config_key_cases_name_every_key():
    assert [key for _, key, _, _ in CONFIG_KEY_CASES] == [
        f.name for f in dataclasses.fields(ExperimentConfig)]


@pytest.mark.parametrize("verb, key, value", [
    pytest.param(verb, key, value, id=f"{key}-{kind}")
    for verb, key, *values in CONFIG_KEY_CASES
    for kind, value in zip(("type", "range"), values) if value is not None])
def test_cli_rejects_each_config_key(tmp_path, capsys, verb, key, value):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"experiment": verb, key: value}))
    # checked at load first, so a value the rules miss never starts a run
    with pytest.raises(ConfigError, match=f"^{key} must be "):
        ExperimentConfig.from_file(str(cfg_path))
    assert cli_main([verb, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"[{verb}] {key} must be ")
    assert not (tmp_path / verb).exists()


@pytest.mark.parametrize("verb, entry", [
    ("s3", '"lambda_grid": [1e400]'), ("s3", '"lambda_grid": [0.5, Infinity]'),
    ("s3", '"lambda_grid": [0.5, NaN]'), ("s3", '"lambda_grid": [1' + "0" * 400 + "]")],
    ids=["lambda_1e400", "lambda_inf", "lambda_nan", "lambda_int_past_float"])
def test_cli_rejects_a_non_finite_config_number(tmp_path, capsys, verb, entry):
    # JSON's 1e400 and Infinity load as inf: an infinite lambda passed its
    # > 0 check and made every pair an edge, until the run ran out of memory
    key = entry.split('"')[1]
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(f'{{"experiment": "{verb}", {entry}}}')
    with pytest.raises(ConfigError, match=f"^{key} must be .*a finite number"):
        ExperimentConfig.from_file(str(cfg_path))
    assert cli_main([verb, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"[{verb}] {key} must be ")
    assert not (tmp_path / verb).exists()


@pytest.mark.parametrize("text", ["[1, 2]", '"s1"', "null"], ids=["array", "string", "null"])
def test_cli_rejects_a_config_that_is_not_an_object(tmp_path, capsys, text):
    # each used to crash from_dict with an AttributeError or TypeError
    # traceback, exit 1
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(text)
    assert cli_main(["s1", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("[s1] a config must be a JSON object, not ")
    assert not (tmp_path / "s1").exists()


@pytest.mark.parametrize("verb, keys, message", [
    ("s1", {"m_train": 3}, "m_train must be >= 4 (an integer), not 3"),
    ("s3", {"lambda_grid": [0.5, 0.5]},
     "lambda_grid must be a nonempty list without repeats, each > 0 (a finite number), "
     "not [0.5, 0.5]"),
    ("real", {"regimes": ["edge_holdout", "any"]},
     "regimes must be a nonempty list without repeats, each one of edge_holdout, "
     "node_holdout, uniform_dyads (a split regime), not ['edge_holdout', 'any']")],
    ids=["s1_m_train", "s3_lambda_grid", "real_regimes"])
def test_cli_rejects_too_few_dyads_before_writing(tmp_path, capsys, verb, keys, message):
    # s1 fits least squares with an intercept and one column per agent;
    # fewer train dyads than columns fail at load.  The whole message is
    # pinned, and a grid shows as the list the config held, not as the
    # tuple from_dict made of it
    assert experiments.SYNTH_COLUMNS == 1 + len(default_generator()[1]) == 4
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"experiment": verb, **keys}))
    assert cli_main([verb, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == f"[{verb}] {message}"
    assert not (tmp_path / verb).exists()


@pytest.mark.parametrize("keys, rejected", [
    ({"phase_n": 100, "lambda_grid": [0.5, 100]}, True),
    ({"phase_n": 100, "lambda_grid": [250.0]}, True),
    ({"lambda_grid": [20000]}, True),
    ({"phase_n": 100, "lambda_grid": [0.5, 99.5]}, False),
    ({"experiment": "s1", "phase_n": 2, "lambda_grid": [3.0]}, False)])
def test_s3_rejects_a_lambda_that_makes_the_graph_complete(keys, rejected):
    # s3 samples Constant(1) with edge probability min(1, lambda / phase_n):
    # from lambda = phase_n on, every pair is an edge
    keys = {"experiment": "s3", **keys}
    if rejected:
        with pytest.raises(ConfigError, match=r"^lambda_grid holds .* below phase_n = "):
            ExperimentConfig.from_dict(keys)
    else:
        ExperimentConfig.from_dict(keys)


def test_cli_config_file_and_overrides(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"experiment": "s3", "phase_n": 1000,
                                    "phase_reps": 2, "lambda_grid": [0.5, 1.5]}))
    assert cli_main(["s3", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "s3" / "manifest.json").read_text())
    assert manifest["config"]["phase_n"] == 1000
