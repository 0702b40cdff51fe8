"""Experiment configuration, data ingestion, agent fitting, and run
orchestration.

Every run is fully determined by (config, base seed).  ``run_experiment``
is the one place a run makes seeds: it lists the run's seeded units
(replicates, grid points, splits) in a fixed order, gives each its own child
of ``SeedSequence(base_seed)``, and hands the runner a unit -> seed map.
Runners return their files; every file goes through a ``serialize`` writer,
with frozen CSV headers.  ``manifest.json`` records the config and its hash,
each unit's key and spawn key, the outputs and the wall time.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import agents as ag
from . import graphons as gr
# make_split runs audit_split itself; the name stays importable here because
# perfbench/tracing.py resolves it at this site
from .evaluation import (MetricReport, audit_split, cv_best_agent,  # noqa: F401
                         fit_logistic_stack, make_split, paired_gaps,
                         population_metrics, score_metrics)
from .logistic import expit
from .netstats import (MAX_PMF_SUPPORT, TAIL_FIT_MIN_POINTS, TAIL_WINDOW,
                       fit_tail_exponent, mixture_degree_pmf, power_law_pmf)
# s1/s2 draw cell counts (sample_cells), not dyads; sample_dyads stays
# importable here because perfbench/tracing.py resolves it at this site
from .sampling import (GraphSample, child_seeds, component_labels,  # noqa: F401
                       graph_from_edge_array, make_rng, phase_sweep, sample_dyads,
                       unique_keys)
from .serialize import (write_csv, write_gap_report_csv, write_json,
                        write_metric_reports_csv, write_phase_curve_csv)
from .synthesis import DyadData, fit_ls, fit_ridge, fit_simplex, predict_clipped

ARTIFACT_VERSION = "0.1.0"

EXPERIMENTS = ("s1", "s2", "s3", "s4", "real")
SPLIT_REGIMES = ("edge_holdout", "node_holdout", "uniform_dyads")
RDPG_INTERCEPT_PAIRS = 200_000
KMEANS_ROUNDS = 10
# keys that earlier configs may still name and that nothing reads: from_dict
# drops them with a warning
RETIRED_KEYS = ("m_test",)


class ConfigError(ValueError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


# What each config value, or each entry of a grid, must be.  A config file
# can hold any JSON type: a wrong one would fail the range checks below with
# a TypeError, or (a float count) run on a value no draw can use.
_VALUE_TYPES = {
    **dict.fromkeys(("base_seed", "replicates", "sbm_k", "rdpg_d", "deghist_bins",
                     "m_train", "m_val", "dyads_per_n", "phase_n", "phase_reps",
                     "tail_k_max", "splits_per_regime"), (_is_int, "an integer")),
    **dict.fromkeys(("gamma_light", "gamma_heavy", "negpos_ratio", "ridge_reg"),
                    (_is_real, "a number")),
    **dict.fromkeys(("experiment", "out_dir"), (_is_str, "a string")),
    "dataset": (lambda v: v is None or _is_str(v), "a string or null"),
}
_GRID_TYPES = {"n_grid": (_is_int, "integers"), "lambda_grid": (_is_real, "numbers"),
               "pi_grid": (_is_real, "numbers"), "regimes": (_is_str, "strings")}


class StageFailure(RuntimeError):
    """Experiment sub-stage failure, tagged with the stage name and, when
    one seeded unit failed, that unit's key."""

    def __init__(self, stage: str, message: str, unit: tuple | None = None):
        where = stage if unit is None else f"{stage} unit {list(unit)}"
        super().__init__(f"[{where}] {message}")
        self.stage = stage
        self.unit = unit
        self.message = message


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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _GRID_TYPES:
                is_entry, kind = _GRID_TYPES[f.name]
                if not (isinstance(value, tuple) and all(map(is_entry, value))):
                    raise ConfigError(f"{f.name} must be a list of {kind}, not {value!r}")
            else:
                is_value, kind = _VALUE_TYPES[f.name]
                if not is_value(value):
                    raise ConfigError(f"{f.name} must be {kind}, not {value!r}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {EXPERIMENTS}")
        for name in ("replicates", "sbm_k", "rdpg_d", "deghist_bins",
                     "m_train", "m_val", "phase_reps",
                     "splits_per_regime", "dyads_per_n"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for regime in self.regimes:
            if regime not in SPLIT_REGIMES:
                raise ConfigError(f"unknown split regime {regime!r}")
        # grid values key the run's seeded units, so they must be distinct
        for name in ("n_grid", "lambda_grid", "pi_grid", "regimes"):
            values = getattr(self, name)
            if len(values) == 0 or len(set(values)) != len(values):
                raise ConfigError(f"{name} must be nonempty and without repeats")
        if not self.ridge_reg >= 0:
            raise ConfigError("ridge_reg must be >= 0")
        # SeedSequence takes only non-negative entropy
        if self.base_seed < 0:
            raise ConfigError("base_seed must be >= 0")
        # values the runners would reject only mid-run, after their data is
        # drawn or parsed
        if self.phase_n < 2:
            raise ConfigError("phase_n must be >= 2")
        if not all(n >= 1 for n in self.n_grid):
            raise ConfigError("n_grid values must be >= 1")
        if not all(lam > 0 for lam in self.lambda_grid):
            raise ConfigError("lambda_grid values must be > 0")
        if not all(0 <= pi <= 1 for pi in self.pi_grid):
            raise ConfigError("pi_grid values must lie in [0, 1]")
        for name in ("gamma_light", "gamma_heavy"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0")
        if not self.negpos_ratio >= 1:
            raise ConfigError("negpos_ratio must be >= 1")
        # s4 fits the tail from k = TAIL_WINDOW[0] on, to at least
        # TAIL_FIT_MIN_POINTS degrees of the support
        min_k_max = TAIL_WINDOW[0] + TAIL_FIT_MIN_POINTS - 1
        if self.tail_k_max < min_k_max:
            raise ConfigError(f"tail_k_max must be >= {min_k_max}, the smallest support "
                              "the s4 tail fit can use")
        if self.tail_k_max > MAX_PMF_SUPPORT:
            raise ConfigError(f"tail_k_max must be <= {MAX_PMF_SUPPORT}, the largest "
                              "degree pmf support")
        # s4 fits the tail of (1 - pi) light + pi heavy at each pi, and a
        # ccdf that is 0 inside the window has no logarithm there.  A power
        # law's ccdf at the window's top is 0 exactly when its pmf there,
        # hi^-(gamma+1) over a total that rounds to 1 at such a gamma,
        # underflows; the mixture's is 0 when that of every tail it weights is
        if self.experiment == "s4":
            hi = min(self.tail_k_max, TAIL_WINDOW[1])
            for pi in self.pi_grid:
                weighted = [name for name, wt in (("gamma_light", 1.0 - pi),
                                                  ("gamma_heavy", pi)) if wt > 0]
                if all(float(hi) ** -(getattr(self, name) + 1.0) == 0.0
                       for name in weighted):
                    name = weighted[0]
                    raise ConfigError(f"{name} = {getattr(self, name)} is too large for "
                                      f"the s4 tail fit: its power-law ccdf underflows "
                                      f"to 0 inside the window {TAIL_WINDOW[0]}-{hi}")

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        for key in RETIRED_KEYS:
            if key in d:
                warnings.warn(f"config key {key!r} is retired and ignored", stacklevel=2)
        d = {k: v for k, v in d.items() if k not in RETIRED_KEYS}
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in d:
            raise ConfigError("config must name an experiment")
        for key in _GRID_TYPES:
            if isinstance(d.get(key), list):
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
    output byte.

    ``units`` lists the run's seeded units in spawn order as ``{"key",
    "spawn_key"}``: the unit's key (``[r]`` for s1, ``[n, r]`` for s2,
    ``[lambda, r]`` for s3, ``[regime, split]`` for real; s4 draws nothing
    and has none) and the spawn key of its child of
    ``SeedSequence(base_seed)``.
    """

    config: dict
    config_hash: str
    version: str
    units: list
    outputs: list = field(default_factory=list)
    wall_times: dict = field(default_factory=dict)

    def save(self, path: str) -> None:
        write_json(asdict(self), path)


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
    DegHist: an SBM on degree-decile node bins with empirical bin-pair
    rates, clipped into [1e-6, 1 - 1e-6].
    SBM: spectral clustering of the normalized adjacency of the largest
    connected component (from ``component_labels``, numpy), by its top-K
    eigenvectors from ARPACK, rows normalized, then ``_kmeans``: k-means++
    and KMEANS_ROUNDS Lloyd rounds in numpy, no BLAS call; plus add-one
    smoothed block rates.  RDPG: top-d adjacency spectral embedding with a
    moment-matched logistic intercept.  The only scipy it loads is
    ``scipy.sparse`` and ARPACK's ``scipy.sparse.linalg``.

    Returns an ordered dict name -> agent.
    """
    import scipy.sparse.linalg

    n = g.n
    if n < 10:
        raise ValueError("agent fitting needs n >= 10")
    for key in ("sbm_k", "rdpg_d"):
        if getattr(config, key) >= n:
            raise ValueError(f"{key} = {getattr(config, key)} must be below the node count {n}")
    if g.n_edges == 0:
        raise ValueError("cannot fit agents to an empty graph")
    deg = g.degrees.astype(float)
    total_pairs = n * (n - 1) / 2

    er = ag.ER(_clip_rate(g.n_edges / total_pairs))
    chung_lu = ag.ChungLu(deg / np.sqrt(2.0 * g.n_edges))

    # degree-decile bins (duplicate quantiles collapse for skewed degrees)
    k_bins = config.deghist_bins
    edges_q = np.unique(np.quantile(deg, np.linspace(0, 1, k_bins + 1)[1:-1]))
    node_bins = np.searchsorted(edges_q, deg, side="right")
    deg_hist = ag.SBM(node_bins, _pair_rates(g, node_bins, smooth=False))

    adj = g.adjacency().astype(float)
    # ARPACK restarts from a random vector whenever its Krylov space runs
    # out, as on a graph of many components.  Each restart draws from eigsh's
    # ``rng``; no state carries across calls, and without an ``rng`` every
    # restart draws fresh OS entropy.  Both calls take a child of the agent
    # seed that no other draw uses.
    arpack_seed = child_seeds(seed if isinstance(seed, np.random.SeedSequence)
                              else np.random.SeedSequence(seed), 1)[0]
    # spectral step on the largest component only: every further component
    # repeats the top eigenvalue 1, and eigsh then returns an arbitrary basis
    # of that eigenspace.  Other nodes embed at the origin, as isolated nodes
    # do.  A label is its component's smallest node id and argmax takes the
    # first of equal counts, so a tie goes to the component holding the
    # smallest node id.
    comp = component_labels(n, g.edges)
    giant = comp == np.argmax(np.bincount(comp))
    inv_sqrt = np.where(giant, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
    norm_adj = scipy.sparse.diags(inv_sqrt) @ adj @ scipy.sparse.diags(inv_sqrt)
    k = config.sbm_k
    _, vecs = scipy.sparse.linalg.eigsh(norm_adj, k=k, which="LA",
                                        v0=np.ones(n) / np.sqrt(n), rng=arpack_seed)
    row_norm = np.linalg.norm(vecs, axis=1, keepdims=True)
    embedding = vecs / np.maximum(row_norm, 1e-12)
    labels = _kmeans(embedding, k, np.random.default_rng(seed).integers(2 ** 31))
    sbm = ag.SBM(labels, _pair_rates(g, labels, smooth=True))

    d = config.rdpg_d
    vals, u = scipy.sparse.linalg.eigsh(adj, k=d, which="LA",
                                        v0=np.ones(n) / np.sqrt(n), rng=arpack_seed)
    positions = u * np.sqrt(np.maximum(vals, 0.0))[None, :]
    rdpg = ag.RDPG(positions)
    rdpg = replace(rdpg, intercept=_fit_rdpg_intercept(rdpg, g, seed))

    return {"ER": er, "ChungLu": chung_lu, "DegHist": deg_hist,
            "SBM": sbm, "RDPG": rdpg}


def _sq_dists(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances of ``data``'s rows to ``centers``, summed
    feature by feature with no BLAS product."""
    dist = np.zeros((len(data), len(centers)))
    for f in range(data.shape[1]):
        diff = data[:, f, None] - centers[None, :, f]
        dist += diff * diff
    return dist


def _kmeans_pp(data: np.ndarray, k: int, rng) -> np.ndarray:
    """k-means++ seeding: ``k`` rows of ``data`` as centers, drawn from
    ``rng`` (a ``RandomState``) as scipy's ``kmeans2(minit="++")`` draws
    them.

    The first center is the row ``rng.randint(n)``, each further one the
    row where a ``rng.uniform()`` draw falls in the cumulative
    D^2 / sum D^2.  Where ``kmeans2`` would fail, this picks a row: a draw
    above the cumulative sum's rounded top takes the last row of positive
    weight (``kmeans2`` raises ``IndexError``), and when every row already
    is a center (sum D^2 = 0) row 0 is taken, as ``kmeans2``'s NaN
    cumulative sum does, without its divide warning.
    """
    n = len(data)
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.randint(n, dtype=np.int64)]
    d2 = _sq_dists(data, centers[:1])[:, 0]
    for c in range(1, k):
        total = d2.sum()
        r = rng.uniform()
        if total > 0:
            cum = np.cumsum(d2 / total)
            row = int(np.searchsorted(cum, min(r, cum[-1])))
        else:
            row = 0
        centers[c] = data[row]
        d2 = np.minimum(d2, _sq_dists(data, centers[c:c + 1])[:, 0])
    return centers


def _kmeans(data: np.ndarray, k: int, seed) -> np.ndarray:
    """Labels of k-means on the rows of ``data``: ``_kmeans_pp`` seeding from
    ``RandomState(seed)``, then KMEANS_ROUNDS Lloyd rounds.

    Step for step, this is scipy's ``kmeans2(data, k, minit="++",
    seed=seed)`` with its distances summed feature by feature, as ``kmeans2``
    sums them below 5 features (from 5 on it takes a BLAS product).  Each
    round assigns every row to its nearest center, the first on ties, and
    moves each center to its members' mean; an empty cluster keeps its
    center, with a warning.  The labels are those of the last assignment.
    """
    data = np.asarray(data, dtype=float)
    centers = _kmeans_pp(data, k, np.random.RandomState(seed))
    for _ in range(KMEANS_ROUNDS):
        labels = np.argmin(_sq_dists(data, centers), axis=1)
        sizes = np.bincount(labels, minlength=k)
        filled = sizes > 0
        if not filled.all():
            warnings.warn("k-means left a cluster empty; it keeps its previous center",
                          stacklevel=2)
        sums = np.stack([np.bincount(labels, weights=col, minlength=k) for col in data.T],
                        axis=1)
        centers[filled] = sums[filled] / sizes[filled, None]
    return labels


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
    block = gr.Block([0.0, 0.5, 1.0], [[0.8, 0.1], [0.1, 0.8]])
    latent = gr.uniform_step_map([(1.2, 0.0), (0.4, 0.9), (-0.4, 0.9), (-1.2, 0.0)])
    low_rank = gr.LogisticLowRank(latent, intercept=-0.3)
    weights = gr.uniform_step_map([0.95, 0.65, 0.45, 0.25])
    product = gr.ProductWeight(weights)
    parts = [block, low_rank, product]
    w_star = gr.LinearCombo([0.0, 0.4, 0.35, 0.25], parts)
    return w_star, parts


def cell_design(w_star, parts):
    """The unordered cells a <= b of the common refinement of a truth and
    its parts, in row-major order: (mass, truth W_ab, features (1, w_1ab,
    ..., w_Jab)), with mass mu_a^2 on the diagonal and 2 mu_a mu_b off it.
    A latent pair lands in cell {a, b} with that probability, is an edge
    with probability W_ab and has the features ``sample_dyads`` would give
    it, so the cells carry both the draw of ``sample_cells`` and the exact
    scoring."""
    mu, (truth, *agents) = gr.common_refinement(w_star, *parts)
    a, b = np.triu_indices(mu.size)
    mass = np.where(a == b, 1.0, 2.0) * mu[a] * mu[b]
    return mass, truth[a, b], np.stack([np.ones(mass.size)]
                                       + [w[a, b] for w in agents], axis=1)


def sample_cells(design, m, seed) -> DyadData:
    """The sufficient statistics of m i.i.d. dyads on ``design`` =
    ``cell_design(...)``: counts ~ Multinomial(m, mass) over the cells and
    positives ~ Binomial(counts, truth), as one row per cell (in cell order)
    weighted by its count and labelled with its positive fraction (0 in an
    empty cell, whose weight is 0).  This is the law of the ``sample_dyads``
    rows grouped by cell, drawn in O(cells) instead of O(m).

    One seed gives 1-D labels and weights over the cells.  A list of R
    seeds, with ``m`` one count or one per seed, gives an (R, cells) batch
    whose row r is what seed r alone gives."""
    batched = isinstance(seed, list)
    seeds = seed if batched else [seed]
    m = np.broadcast_to(m, len(seeds))
    if np.any(m < 1):
        raise ValueError("need m >= 1 dyads")
    mass, truth, features = design
    counts = np.empty((len(seeds), mass.size), dtype=np.int64)
    positives = np.empty_like(counts)
    for r, (s, m_r) in enumerate(zip(seeds, m)):
        rng = make_rng(s)
        counts[r] = rng.multinomial(m_r, mass)
        positives[r] = rng.binomial(counts[r], truth)
    labels = np.divide(positives, counts, out=np.zeros(counts.shape), where=counts > 0)
    if not batched:
        labels, counts = labels[0], counts[0]
    return DyadData(features=features, labels=labels, weights=counts)


AGENT_NAMES_SYNTH = ("Block", "LowRank", "Product")
METHODS = ("BPS_LS", "BPS_Ridge", "BPS_Simplex", "BestAgent", "Stack_Logistic")


def _method_predictions(train: DyadData, val: DyadData, test_features: np.ndarray,
                        ridge_reg: float, synth_cols=None) -> dict:
    """Fit every method on train (+val for selection) and predict the (k,
    J+1) test features (test dyads, or cells).  Returns name -> probability
    vector (k,), or (R, k) when train and val are batches of R samples:
    one call per method fits the whole batch.  Every fit honours the row
    weights, so cell counts fit as the dyads they stand for.

    ``synth_cols`` optionally restricts the columns used by the synthesis
    and stacking fits (column 0 must stay); BestAgent always selects over
    the full agent set.  This drops agents whose predictions are constant
    (collinear with the intercept by construction).
    """
    if synth_cols is None:
        synth_cols = np.arange(train.features.shape[1])
    synth_cols = np.asarray(synth_cols, dtype=int)
    synth_train = DyadData(features=train.features[:, synth_cols], labels=train.labels,
                           weights=train.weights)
    synth_test = test_features[:, synth_cols]
    preds = {}
    preds["BPS_LS"] = predict_clipped(fit_ls(synth_train), synth_test)
    preds["BPS_Ridge"] = predict_clipped(fit_ridge(synth_train, ridge_reg), synth_test)
    preds["BPS_Simplex"] = predict_clipped(fit_simplex(synth_train), synth_test)
    best = cv_best_agent(val.features, val.labels, val.weights)
    preds["BestAgent"] = np.clip(test_features.T[1 + best], 0.0, 1.0)
    stack = fit_logistic_stack(synth_train.features, synth_train.labels, synth_train.weights)
    preds["Stack_Logistic"] = expit((synth_test @ stack[..., None])[..., 0])
    return preds


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _summary_stats(values) -> dict:
    values = np.asarray(values, dtype=float)
    se = float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return {"mean": float(values.mean()), "se": se, "n": int(values.size)}


def _method_stats(per_method: dict, metrics) -> dict:
    """method -> metric -> summary stats over that method's (report, L2
    risk) pairs; the risk's stats are under "l2_risk"."""
    return {m: {**{k: _summary_stats([getattr(rep, k) for rep, _ in scored])
                   for k in metrics},
                "l2_risk": _summary_stats([risk for _, risk in scored])}
            for m, scored in per_method.items()}


def _synthetic_replicates(design, seeds: list, m_train, m_val: int,
                          ridge_reg: float) -> dict:
    """S1/S2 replicates on ``design`` = cell_design(w_star, parts), in one
    batched pass.  Replicate r draws its train and validation cell counts by
    ``sample_cells`` from the first two children of ``seeds[r]``, with
    ``m_train`` one count or one per replicate; every method is fitted on
    all replicates by one call, and each is scored exactly on the cells.
    Returns method -> one (MetricReport, L2 risk) per replicate, where the
    risk is sum mass * (p - W)^2, the squared L2 distance to the truth."""
    mass, cell_truth, features = design
    children = [child_seeds(seed, 2) for seed in seeds]
    train = sample_cells(design, m_train, [c[0] for c in children])
    val = sample_cells(design, m_val, [c[1] for c in children])
    preds = _method_predictions(train, val, features, ridge_reg)
    return {method: list(zip(population_metrics(p, cell_truth, mass),
                             np.vecdot((p - cell_truth) ** 2, mass).tolist()))
            for method, p in preds.items()}


def _score_units(config: ExperimentConfig, design, seeds: dict, m_train, m_val: int) -> dict:
    """``_synthetic_replicates`` over the run's units; a fit that fails
    names the verb and the first unit it failed on."""
    try:
        return _synthetic_replicates(design, list(seeds.values()), m_train, m_val,
                                     config.ridge_reg)
    except ValueError as exc:
        unit = list(seeds)[exc.replicate] if hasattr(exc, "replicate") else None
        raise StageFailure(config.experiment, str(exc), unit) from exc


# Each runner takes the config and its unit -> seed map, and returns
# file name -> (writer, *arguments before the path).

def _run_s1(config: ExperimentConfig, seeds: dict) -> dict:
    w_star, parts = default_generator()
    per_method = _score_units(config, cell_design(w_star, parts), seeds, config.m_train,
                              config.m_val)
    rows = [(method, f"rep{r}", per_method[method][i][0])
            for i, (r,) in enumerate(seeds) for method in METHODS]
    summary = _method_stats(per_method, ("brier", "logloss", "auc", "ap"))
    pairs = [(a, b) for (a, _), (b, _) in zip(per_method["BPS_LS"], per_method["BestAgent"])]
    summary["wins"] = {
        "bps_ls_beats_best_agent_brier": sum(bool(a.brier < b.brier) for a, b in pairs),
        "bps_ls_beats_best_agent_logloss": sum(bool(a.logloss < b.logloss)
                                               for a, b in pairs),
        "replicates": config.replicates,
    }
    # min_j ||W* - w_j||^2: no selector of a single agent gets below it
    summary["selection_floor"] = min(gr.l2_distance(w_star, p) ** 2 for p in parts)
    return {"s1_metrics.csv": (write_metric_reports_csv, rows),
            "s1_summary.json": (write_json, summary)}


S2_CSV_HEADER = ["n", "m_train", "method", "mean_brier", "se_brier",
                 "mean_logloss", "se_logloss"]


def _run_s2(config: ExperimentConfig, seeds: dict) -> dict:
    w_star, parts = default_generator()
    # every n's replicates fit in one batch, each with its own m_train
    scored = _score_units(config, cell_design(w_star, parts), seeds,
                          [config.dyads_per_n * n for n, _ in seeds], config.m_val)
    per_n = {n: {m: [] for m in METHODS} for n in config.n_grid}
    for i, (n, _) in enumerate(seeds):
        for method in METHODS:
            per_n[n][method].append(scored[method][i])
    rows = []
    # m * E||W_LS - W*||^2 per n, flat in m at the parametric rate
    summary = {"per_n": {}, "bps_ls_m_times_l2_risk": {}}
    for n, per_method in per_n.items():
        m_train = config.dyads_per_n * n
        stats = summary["per_n"][str(n)] = _method_stats(per_method, ("brier", "logloss"))
        summary["bps_ls_m_times_l2_risk"][str(n)] = m_train * stats["BPS_LS"]["l2_risk"]["mean"]
        rows.extend([n, m_train, m, s["brier"]["mean"], s["brier"]["se"],
                     s["logloss"]["mean"], s["logloss"]["se"]] for m, s in stats.items())
    return {"s2_curve.csv": (write_csv, rows, S2_CSV_HEADER),
            "s2_summary.json": (write_json, summary)}


def _run_s3(config: ExperimentConfig, seeds: dict) -> dict:
    # the units are (lambda, r), lambda-major, as phase_sweep takes them
    curve = phase_sweep(gr.Constant(1.0), np.asarray(config.lambda_grid, dtype=float),
                        config.phase_n, list(seeds.values()))
    onset = next((float(lam) for lam, frac in zip(curve.lambdas, curve.mean_fraction)
                  if frac > 0.05), None)
    return {"s3_curve.csv": (write_phase_curve_csv, curve),
            "s3_summary.json": (write_json, {
                "rho": curve.rho, "lambda_critical": curve.lambda_critical,
                "empirical_onset": onset, "n": curve.n, "reps": curve.reps})}


S4_CSV_HEADER = ["pi", "gamma_hat", "r2", "window_lo", "window_hi", "gamma_theory"]


def _run_s4(config: ExperimentConfig, seeds: dict) -> dict:
    light = power_law_pmf(config.gamma_light, config.tail_k_max)
    heavy = power_law_pmf(config.gamma_heavy, config.tail_k_max)
    rows = []
    for pi in config.pi_grid:
        mix = mixture_degree_pmf([light, heavy], [1.0 - pi, pi])
        gamma_hat, r2, (lo, hi) = fit_tail_exponent(mix)
        rows.append([pi, gamma_hat, r2, lo, hi, mix.gamma])
    return {"s4_tails.csv": (write_csv, rows, S4_CSV_HEADER)}


def _run_real(config: ExperimentConfig, seeds: dict) -> dict:
    if not config.dataset:
        raise ConfigError("real experiment needs a dataset path")
    graph, _ = load_edge_list(config.dataset)
    rows = []
    scores = {m: {} for m in METHODS}
    for (regime, s), seed in seeds.items():
        split = make_split(graph, regime, seed, negpos_ratio=config.negpos_ratio)
        train_graph = graph_from_edge_array(
            graph.n, split.train_dyads[split.train_labels == 1])
        # a child of the split's seed, so make_split's own stream is unchanged
        agents = fit_agents_to_graph(train_graph, config, seed=child_seeds(seed, 1)[0])
        feats = {}
        for part, dyads in (("train", split.train_dyads), ("val", split.val_dyads),
                            ("test", split.test_dyads)):
            cols = [np.ones(len(dyads))]
            cols.extend(agent_dyad_probs(a, dyads) for a in agents.values())
            feats[part] = np.stack(cols, axis=1)
        train = DyadData(features=feats["train"], labels=split.train_labels)
        val = DyadData(features=feats["val"], labels=split.val_labels)
        # the ER column is constant, hence collinear with the intercept;
        # keep it for BestAgent selection but not in the synthesis design
        names = list(agents)
        synth_cols = [0] + [1 + k for k, name in enumerate(names) if name != "ER"]
        try:
            preds = _method_predictions(train, val, feats["test"], config.ridge_reg,
                                        synth_cols=synth_cols)
        except ValueError as exc:
            raise StageFailure(config.experiment, str(exc), (regime, s)) from exc
        key = f"{regime}/{s}"
        for method, p in preds.items():
            rep = score_metrics(p, split.test_labels)
            rows.append((method, key, rep))
            scores[method][key] = rep
    gaps = paired_gaps(scores["BestAgent"], scores["BPS_LS"])
    return {"real_metrics.csv": (write_metric_reports_csv, rows),
            "real_gaps.csv": (write_gap_report_csv, gaps),
            "real_gaps.json": (write_json, gaps.to_dict())}


_RUNNERS = {"s1": _run_s1, "s2": _run_s2, "s3": _run_s3, "s4": _run_s4,
            "real": _run_real}


def _unit_keys(config: ExperimentConfig) -> list:
    """The run's seeded units, in spawn order."""
    reps = range(config.replicates)
    return {"s1": [(r,) for r in reps],
            "s2": [(n, r) for n in config.n_grid for r in reps],
            "s3": [(lam, r) for lam in config.lambda_grid for r in range(config.phase_reps)],
            "s4": [],
            "real": [(regime, s) for regime in config.regimes
                     for s in range(config.splits_per_regime)]}[config.experiment]


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Execute the configured experiment and write its outputs.

    Spawns one child of ``SeedSequence(base_seed)`` per seeded unit, hands
    the runner the unit -> seed map and writes the files it returns.  Any
    sub-stage failure aborts with a stage-tagged diagnostic, removes the
    partial outputs of this run and any earlier run's ``manifest.json``, and
    writes ``failure.json`` (stage, unit, message) in their place; a
    successful run removes a stale ``failure.json``.
    """
    out_dir = os.path.join(config.out_dir, config.experiment)
    manifest_path = os.path.join(out_dir, "manifest.json")
    failure_path = os.path.join(out_dir, "failure.json")
    os.makedirs(out_dir, exist_ok=True)
    keys = _unit_keys(config)
    seeds = dict(zip(keys, np.random.SeedSequence(config.base_seed).spawn(len(keys))))
    manifest = RunManifest(config=config.to_dict(), config_hash=config_hash(config),
                           version=ARTIFACT_VERSION,
                           units=[{"key": list(k), "spawn_key": list(s.spawn_key)}
                                  for k, s in seeds.items()])
    outputs: list = []
    start = time.perf_counter()
    try:
        for name, (write, *args) in _RUNNERS[config.experiment](config, seeds).items():
            outputs.append(os.path.join(out_dir, name))
            write(*args, outputs[-1])
    except Exception as exc:
        failure = exc if isinstance(exc, StageFailure) else StageFailure(
            config.experiment, str(exc))
        # no manifest may vouch for the directory: the outputs it lists are
        # an earlier run's, or gone
        for path in outputs + [manifest_path]:
            if os.path.exists(path):
                os.remove(path)
        write_json({"stage": failure.stage, "message": failure.message,
                    "unit": None if failure.unit is None else list(failure.unit)},
                   failure_path)
        if failure is exc:
            raise
        raise failure from exc
    if os.path.exists(failure_path):
        os.remove(failure_path)
    manifest.outputs = [os.path.relpath(p, config.out_dir) for p in outputs]
    manifest.wall_times[config.experiment] = time.perf_counter() - start
    manifest.save(manifest_path)
    manifest.outputs.append(os.path.relpath(manifest_path, config.out_dir))
    return manifest
