"""Experiment configuration, data ingestion, agent fitting, and run
orchestration.

Every run is fully determined by (config, base seed): replicate streams are
split from the base seed and all outputs are written deterministically with
frozen CSV headers.  A manifest records the config hash, seeds, outputs and
wall-times.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse.csgraph
import scipy.sparse.linalg
from scipy.cluster.vq import kmeans2
from scipy.special import expit

from . import agents as ag
from . import graphons as gr
# make_split runs audit_split itself; the name stays importable here because
# perfbench/tracing.py resolves it at this site
from .evaluation import (MetricReport, audit_split, cv_best_agent,  # noqa: F401
                         fit_logistic_stack, make_split, paired_gaps,
                         score_metrics)
from .netstats import fit_tail_exponent, mixture_degree_pmf, power_law_pmf
from .sampling import (GraphSample, graph_from_edge_array, phase_sweep, sample_dyads,
                       unique_keys)
from .serialize import (gap_report_to_json, write_gap_report_csv,
                        write_metric_reports_csv, write_phase_curve_csv)
from .synthesis import DyadData, fit_ls, fit_ridge, fit_simplex, predict_clipped

ARTIFACT_VERSION = "0.1.0"

EXPERIMENTS = ("s1", "s2", "s3", "s4", "real")
SPLIT_REGIMES = ("edge_holdout", "node_holdout", "uniform_dyads")
RDPG_INTERCEPT_PAIRS = 200_000


class ConfigError(ValueError):
    pass


class StageFailure(RuntimeError):
    """Experiment sub-stage failure, tagged with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class ExperimentConfig:
    """Explicit-key experiment configuration; unknown keys are errors."""

    experiment: str
    base_seed: int = 20240601
    out_dir: str = "runs"
    replicates: int = 20
    # agent hyperparameters (fixed across splits)
    sbm_k: int = 5
    rdpg_d: int = 3
    deghist_bins: int = 10
    # synthetic dyad budgets
    m_train: int = 4000
    m_val: int = 1000
    m_test: int = 20000
    # S2 learning curve
    n_grid: tuple = (200, 400, 800, 1200)
    dyads_per_n: int = 3
    # S3 phase sweep
    lambda_grid: tuple = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
    phase_n: int = 20000
    phase_reps: int = 5
    # S4 heavy tails
    pi_grid: tuple = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    gamma_light: float = 13.7
    gamma_heavy: float = 5.0
    tail_k_max: int = 100_000
    # real-data protocol
    dataset: str | None = None
    regimes: tuple = SPLIT_REGIMES
    splits_per_regime: int = 5
    negpos_ratio: float = 3.0
    ridge_reg: float = 1e-3

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {EXPERIMENTS}")
        for name in ("replicates", "sbm_k", "rdpg_d", "deghist_bins",
                     "m_train", "m_val", "m_test", "phase_n", "phase_reps",
                     "splits_per_regime", "dyads_per_n"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for regime in self.regimes:
            if regime not in SPLIT_REGIMES:
                raise ConfigError(f"unknown split regime {regime!r}")

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in d:
            raise ConfigError("config must name an experiment")
        d = dict(d)
        for key in ("n_grid", "lambda_grid", "pi_grid", "regimes"):
            if key in d:
                d[key] = tuple(d[key])
        return ExperimentConfig(**d)

    @staticmethod
    def from_file(path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


@dataclass
class RunManifest:
    """Reproducibility record: rerunning from the manifest reproduces every
    output byte."""

    config: dict
    config_hash: str
    version: str
    replicate_seeds: list
    outputs: list = field(default_factory=list)
    wall_times: dict = field(default_factory=dict)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"config": self.config, "config_hash": self.config_hash,
                       "version": self.version,
                       "replicate_seeds": self.replicate_seeds,
                       "outputs": self.outputs, "wall_times": self.wall_times},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")


def config_hash(config: ExperimentConfig) -> str:
    text = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# data ingestion
# ---------------------------------------------------------------------------

def load_edge_list(path: str):
    """Parse a SNAP-style whitespace edge list into a simple graph.

    Comment lines start with '#'.  Self-loops are dropped, duplicate and
    reversed pairs collapse, and node ids are compacted to 0..n-1.

    Returns (GraphSample, ids) where ids[k] is the original id of compact
    node k.
    """
    raw = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer node id") from exc
            raw.append((u, v))
    if not raw:
        raise ValueError(f"{path}: no edges found")
    raw = np.asarray(raw, dtype=np.int64)
    ids = unique_keys(raw)
    g = graph_from_edge_array(len(ids), np.searchsorted(ids, raw))
    if g.n_edges == 0:
        raise ValueError(f"{path}: graph is empty after cleaning")
    return g, ids


# ---------------------------------------------------------------------------
# agent fitting on an observed graph
# ---------------------------------------------------------------------------

def _clip_rate(x, eps=1e-6):
    return float(np.clip(x, eps, 1.0 - eps))


def fit_agents_to_graph(g: GraphSample, config: ExperimentConfig, seed=0):
    """Fit the five-agent menu to one observed graph.

    ER: empirical density.  ChungLu: theta_i = d_i / sqrt(2 * edges).
    DegHist: degree-decile node bins with empirical bin-pair rates.
    SBM: spectral clustering of the normalized adjacency of the largest
    connected component plus add-one smoothed block rates.  RDPG: top-d
    adjacency spectral embedding with a moment-matched logistic intercept.

    Returns an ordered dict name -> agent.
    """
    n = g.n
    if n < 10:
        raise ValueError("agent fitting needs n >= 10")
    if config.sbm_k > n or config.rdpg_d > n:
        raise ValueError("SBM K and RDPG d must not exceed n")
    if g.n_edges == 0:
        raise ValueError("cannot fit agents to an empty graph")
    deg = g.degrees.astype(float)
    total_pairs = n * (n - 1) / 2

    er = ag.ER(_clip_rate(g.n_edges / total_pairs))
    chung_lu = ag.ChungLu.make(deg / np.sqrt(2.0 * g.n_edges))

    # degree-decile bins (duplicate quantiles collapse for skewed degrees)
    k_bins = config.deghist_bins
    edges_q = np.unique(np.quantile(deg, np.linspace(0, 1, k_bins + 1)[1:-1]))
    node_bins = np.searchsorted(edges_q, deg, side="right")
    deg_hist = ag.DegHist.make(node_bins, _pair_rates(g, node_bins, smooth=False),
                               bin_edges=edges_q)

    adj = g.adjacency().astype(float)
    # spectral step on the largest component only: every further component
    # repeats the top eigenvalue 1, and eigsh then returns a basis of that
    # eigenspace drawn from ARPACK's random restarts, whose state persists
    # across calls.  Other nodes embed at the origin, as isolated nodes do.
    _, comp = scipy.sparse.csgraph.connected_components(adj, directed=False)
    giant = comp == np.argmax(np.bincount(comp))
    inv_sqrt = np.where(giant, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
    norm_adj = scipy.sparse.diags(inv_sqrt) @ adj @ scipy.sparse.diags(inv_sqrt)
    k = config.sbm_k
    _, vecs = scipy.sparse.linalg.eigsh(norm_adj, k=k, which="LA",
                                        v0=np.ones(n) / np.sqrt(n))
    row_norm = np.linalg.norm(vecs, axis=1, keepdims=True)
    embedding = vecs / np.maximum(row_norm, 1e-12)
    _, labels = kmeans2(embedding, k, minit="++",
                        seed=np.random.default_rng(seed).integers(2 ** 31))
    sbm = ag.SBM.make(labels, _pair_rates(g, labels, smooth=True))

    d = config.rdpg_d
    vals, u = scipy.sparse.linalg.eigsh(adj, k=d, which="LA",
                                        v0=np.ones(n) / np.sqrt(n))
    positions = u * np.sqrt(np.maximum(vals, 0.0))[None, :]
    rdpg = ag.RDPG.make(positions, _fit_rdpg_intercept(ag.RDPG.make(positions), g, seed))

    return {"ER": er, "ChungLu": chung_lu, "DegHist": deg_hist,
            "SBM": sbm, "RDPG": rdpg}


def _pair_rates(g: GraphSample, labels, smooth: bool) -> np.ndarray:
    """Empirical edge rate per unordered label pair, optionally add-one
    smoothed to stay inside (0,1)."""
    labels = np.asarray(labels, dtype=int)
    k = int(labels.max()) + 1
    sizes = np.bincount(labels, minlength=k).astype(float)
    pair_counts = np.outer(sizes, sizes)
    np.fill_diagonal(pair_counts, sizes * (sizes - 1))
    # unordered pairs: off-diagonal n_a*n_b, diagonal n_a(n_a-1)/2 (doubled
    # edge counts below keep the ratio consistent)
    edge_counts = np.zeros((k, k))
    li, lj = labels[g.edges[:, 0]], labels[g.edges[:, 1]]
    np.add.at(edge_counts, (li, lj), 1.0)
    np.add.at(edge_counts, (lj, li), 1.0)
    if smooth:
        rates = (edge_counts + 1.0) / (pair_counts + 2.0)
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            rates = np.where(pair_counts > 0, edge_counts / np.maximum(pair_counts, 1), 0.0)
        rates = np.clip(rates, 1e-6, 1.0 - 1e-6)
    return 0.5 * (rates + rates.T)


def _fit_rdpg_intercept(rdpg: ag.RDPG, g: GraphSample, seed) -> float:
    """Intercept shift of ``rdpg`` matching the observed edge count through
    the logistic link, estimated on a seeded subsample of at most
    ``RDPG_INTERCEPT_PAIRS`` dyads."""
    n = rdpg.n
    rng = np.random.default_rng(seed)
    total_pairs = n * (n - 1) // 2
    if total_pairs <= RDPG_INTERCEPT_PAIRS:
        logits = rdpg.dyad_logits(*np.triu_indices(n, k=1))
    else:
        i = rng.integers(0, n, size=RDPG_INTERCEPT_PAIRS)
        j = rng.integers(0, n, size=RDPG_INTERCEPT_PAIRS)
        keep = i != j
        logits = rdpg.dyad_logits(i[keep], j[keep])
    return ag.logit_shift(logits, float(np.clip(g.n_edges / total_pairs, 1e-9, 1 - 1e-9)))


def agent_dyad_probs(agent, dyads: np.ndarray) -> np.ndarray:
    """Agent edge probabilities on an explicit (k, 2) dyad array."""
    return agent.dyad_probs(dyads[:, 0], dyads[:, 1])


# ---------------------------------------------------------------------------
# synthetic generator (S1/S2)
# ---------------------------------------------------------------------------

def default_generator():
    """Heterogeneous truth used by the synthetic studies.

    w_star = 0.4 * two-block assortative + 0.35 * logistic low-rank
    geometry + 0.25 * capped product-weight degree heterogeneity; the three
    parts double as the agent kernels.
    """
    block = gr.Block.from_arrays([0.0, 0.5, 1.0], [[0.8, 0.1], [0.1, 0.8]])
    latent = gr.uniform_step_map([(1.2, 0.0), (0.4, 0.9), (-0.4, 0.9), (-1.2, 0.0)])
    low_rank = gr.LogisticLowRank(latent, intercept=-0.3)
    weights = gr.uniform_step_map([0.95, 0.65, 0.45, 0.25])
    product = gr.ProductWeight(weights)
    parts = [block, low_rank, product]
    w_star = gr.LinearCombo.make([0.0, 0.4, 0.35, 0.25], parts, clipped=False)
    return w_star, parts


AGENT_NAMES_SYNTH = ("Block", "LowRank", "Product")
METHODS = ("BPS_LS", "BPS_Ridge", "BPS_Simplex", "BestAgent", "Stack_Logistic")


def _method_predictions(train: DyadData, val: DyadData, test_features: np.ndarray,
                        ridge_reg: float, synth_cols=None) -> dict:
    """Fit every method on train (+val for selection) and predict the test
    features.  Returns name -> probability vector.

    ``synth_cols`` optionally restricts the columns used by the synthesis
    and stacking fits (column 0 must stay); BestAgent always selects over
    the full agent set.  This drops agents whose predictions are constant
    (collinear with the intercept by construction).
    """
    if synth_cols is None:
        synth_cols = np.arange(train.features.shape[1])
    synth_cols = np.asarray(synth_cols, dtype=int)
    synth_train = DyadData(features=train.features[:, synth_cols], labels=train.labels)
    synth_test = test_features[:, synth_cols]
    preds = {}
    preds["BPS_LS"] = predict_clipped(fit_ls(synth_train), synth_test)
    preds["BPS_Ridge"] = predict_clipped(fit_ridge(synth_train, ridge_reg), synth_test)
    preds["BPS_Simplex"] = predict_clipped(fit_simplex(synth_train), synth_test)
    best = cv_best_agent(val.features, val.labels)
    preds["BestAgent"] = np.clip(test_features[:, 1 + best], 0.0, 1.0)
    stack = fit_logistic_stack(synth_train.features, synth_train.labels)
    preds["Stack_Logistic"] = expit(synth_test @ stack)
    return preds


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _summary_stats(values: np.ndarray) -> dict:
    values = np.asarray(values, dtype=float)
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return {"mean": float(values.mean()), "se": se, "n": int(values.size)}


def _run_s1(config: ExperimentConfig, out_dir: str, outputs: list) -> None:
    w_star, parts = default_generator()
    seeds = np.random.SeedSequence(config.base_seed).spawn(config.replicates)
    rows = []
    per_method = {m: {"brier": [], "logloss": [], "auc": [], "ap": []} for m in METHODS}
    for r, seed in enumerate(seeds):
        s_train, s_val, s_test = seed.spawn(3)
        train = sample_dyads(w_star, parts, config.m_train, s_train)
        val = sample_dyads(w_star, parts, config.m_val, s_val)
        test = sample_dyads(w_star, parts, config.m_test, s_test)
        preds = _method_predictions(train, val, test.features, config.ridge_reg)
        for method, p in preds.items():
            rep = score_metrics(p, test.labels)
            rows.append((method, f"rep{r}", rep))
            for key in per_method[method]:
                per_method[method][key].append(getattr(rep, key))
    path = os.path.join(out_dir, "s1_metrics.csv")
    write_metric_reports_csv(rows, path)
    outputs.append(path)
    summary = {m: {k: _summary_stats(v) for k, v in d.items()}
               for m, d in per_method.items()}
    ls_b = np.asarray(per_method["BPS_LS"]["brier"])
    ba_b = np.asarray(per_method["BestAgent"]["brier"])
    ls_l = np.asarray(per_method["BPS_LS"]["logloss"])
    ba_l = np.asarray(per_method["BestAgent"]["logloss"])
    summary["wins"] = {
        "bps_ls_beats_best_agent_brier": int(np.sum(ls_b < ba_b)),
        "bps_ls_beats_best_agent_logloss": int(np.sum(ls_l < ba_l)),
        "replicates": config.replicates,
    }
    path = os.path.join(out_dir, "s1_summary.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append(path)


def _run_s2(config: ExperimentConfig, out_dir: str, outputs: list) -> None:
    w_star, parts = default_generator()
    seeds = np.random.SeedSequence(config.base_seed).spawn(
        len(config.n_grid) * config.replicates)
    rows = []
    summary = {"per_n": {}}
    for ni, n in enumerate(config.n_grid):
        m_train = config.dyads_per_n * int(n)
        per_method = {m: {"brier": [], "logloss": []} for m in METHODS}
        for r in range(config.replicates):
            seed = seeds[ni * config.replicates + r]
            s_train, s_val, s_test = seed.spawn(3)
            train = sample_dyads(w_star, parts, m_train, s_train)
            val = sample_dyads(w_star, parts, max(config.m_val, len(parts) + 2), s_val)
            test = sample_dyads(w_star, parts, config.m_test, s_test)
            preds = _method_predictions(train, val, test.features, config.ridge_reg)
            for method, p in preds.items():
                rep = score_metrics(p, test.labels)
                per_method[method]["brier"].append(rep.brier)
                per_method[method]["logloss"].append(rep.logloss)
        for method in METHODS:
            b = _summary_stats(per_method[method]["brier"])
            l = _summary_stats(per_method[method]["logloss"])
            rows.append([n, m_train, method, b["mean"], b["se"], l["mean"], l["se"]])
        summary["per_n"][str(n)] = {
            m: {"brier": _summary_stats(per_method[m]["brier"]),
                "logloss": _summary_stats(per_method[m]["logloss"])}
            for m in METHODS}
    path = os.path.join(out_dir, "s2_curve.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "m_train", "method", "mean_brier", "se_brier",
                         "mean_logloss", "se_logloss"])
        for row in rows:
            writer.writerow([row[0], row[1], row[2]] + [f"{v:.12g}" for v in row[3:]])
    outputs.append(path)
    path = os.path.join(out_dir, "s2_summary.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append(path)


def _run_s3(config: ExperimentConfig, out_dir: str, outputs: list) -> None:
    kernel = gr.Constant(1.0)
    curve = phase_sweep(kernel, np.asarray(config.lambda_grid, dtype=float),
                        config.phase_n, config.phase_reps, config.base_seed)
    path = os.path.join(out_dir, "s3_curve.csv")
    write_phase_curve_csv(curve, path)
    outputs.append(path)
    onset = next((float(lam) for lam, frac in zip(curve.lambdas, curve.mean_fraction)
                  if frac > 0.05), None)
    path = os.path.join(out_dir, "s3_summary.json")
    with open(path, "w") as fh:
        json.dump({"rho": curve.rho, "lambda_critical": curve.lambda_critical,
                   "empirical_onset": onset, "n": curve.n, "reps": curve.reps},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append(path)


def _run_s4(config: ExperimentConfig, out_dir: str, outputs: list) -> None:
    light = power_law_pmf(config.gamma_light, config.tail_k_max)
    heavy = power_law_pmf(config.gamma_heavy, config.tail_k_max)
    path = os.path.join(out_dir, "s4_tails.csv")
    rows = []
    for pi in config.pi_grid:
        mix = mixture_degree_pmf([light, heavy], [1.0 - pi, pi])
        gamma_hat, r2, window = fit_tail_exponent(mix)
        rows.append([pi, gamma_hat, r2, window[0], window[1], mix.gamma])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pi", "gamma_hat", "r2", "window_lo", "window_hi",
                         "gamma_theory"])
        for row in rows:
            writer.writerow([f"{row[0]:.12g}", f"{row[1]:.12g}", f"{row[2]:.12g}",
                             row[3], row[4], f"{row[5]:.12g}"])
    outputs.append(path)


def _run_real(config: ExperimentConfig, out_dir: str, outputs: list) -> None:
    if not config.dataset:
        raise ConfigError("real experiment needs a dataset path")
    graph, _ = load_edge_list(config.dataset)
    seeds = np.random.SeedSequence(config.base_seed).spawn(
        len(config.regimes) * config.splits_per_regime)
    rows = []
    scores = {m: {} for m in METHODS}
    idx = 0
    for regime in config.regimes:
        for s in range(config.splits_per_regime):
            seed = seeds[idx]
            idx += 1
            split = make_split(graph, regime, seed, negpos_ratio=config.negpos_ratio)
            train_graph = graph_from_edge_array(
                graph.n, split.train_dyads[split.train_labels == 1])
            agents = fit_agents_to_graph(train_graph, config, seed=config.base_seed)
            feats = {}
            for part, dyads in (("train", split.train_dyads), ("val", split.val_dyads),
                                ("test", split.test_dyads)):
                cols = [np.ones(len(dyads))]
                cols.extend(agent_dyad_probs(a, dyads) for a in agents.values())
                feats[part] = np.stack(cols, axis=1)
            train = DyadData(features=feats["train"], labels=split.train_labels,
                             dyads=split.train_dyads)
            val = DyadData(features=feats["val"], labels=split.val_labels,
                           dyads=split.val_dyads)
            # the ER column is constant, hence collinear with the intercept;
            # keep it for BestAgent selection but not in the synthesis design
            names = list(agents)
            synth_cols = [0] + [1 + k for k, name in enumerate(names) if name != "ER"]
            preds = _method_predictions(train, val, feats["test"], config.ridge_reg,
                                        synth_cols=synth_cols)
            key = f"{regime}/{s}"
            for method, p in preds.items():
                rep = score_metrics(p, split.test_labels)
                rows.append((method, key, rep))
                scores[method][key] = rep
    path = os.path.join(out_dir, "real_metrics.csv")
    write_metric_reports_csv(rows, path)
    outputs.append(path)
    gaps = paired_gaps(scores["BestAgent"], scores["BPS_LS"])
    path = os.path.join(out_dir, "real_gaps.csv")
    write_gap_report_csv(gaps, path)
    outputs.append(path)
    path = os.path.join(out_dir, "real_gaps.json")
    with open(path, "w") as fh:
        fh.write(gap_report_to_json(gaps))
        fh.write("\n")
    outputs.append(path)


_RUNNERS = {"s1": _run_s1, "s2": _run_s2, "s3": _run_s3, "s4": _run_s4,
            "real": _run_real}


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Execute the configured experiment and write its outputs.

    Any sub-stage failure aborts with a stage-tagged diagnostic and removes
    the partial outputs of this run.
    """
    out_dir = os.path.join(config.out_dir, config.experiment)
    os.makedirs(out_dir, exist_ok=True)
    seeds = [list(s.spawn_key) for s in
             np.random.SeedSequence(config.base_seed).spawn(config.replicates)]
    manifest = RunManifest(config=config.to_dict(), config_hash=config_hash(config),
                           version=ARTIFACT_VERSION, replicate_seeds=seeds)
    outputs: list = []
    start = time.perf_counter()
    try:
        _RUNNERS[config.experiment](config, out_dir, outputs)
    except Exception as exc:
        for path in outputs:
            if os.path.exists(path):
                os.remove(path)
        if isinstance(exc, StageFailure):
            raise
        raise StageFailure(config.experiment, str(exc)) from exc
    manifest.outputs = [os.path.relpath(p, config.out_dir) for p in outputs]
    manifest.wall_times[config.experiment] = time.perf_counter() - start
    manifest_path = os.path.join(out_dir, "manifest.json")
    manifest.save(manifest_path)
    manifest.outputs.append(os.path.relpath(manifest_path, config.out_dir))
    return manifest
