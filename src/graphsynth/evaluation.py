"""Holdout protocols, proper-score metrics, calibration, and paired gaps.

Every metric is written once, over entries with a positive and a negative
weight: ``score_metrics`` scores 0/1 rows, ``population_metrics`` the cells
of a piecewise-constant truth weighted by their mass.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .logistic import expit, log_expit, logit
from .sampling import GraphSample, in_sorted, make_rng, triangular_pair, unique_keys

LOGLOSS_FLOOR = 1e-12

# the shares of a split's positives (of its dyads, for uniform_dyads) cut
# out as the test and validation roles; each role gets at least one
TEST_FRAC = 0.2
VAL_FRAC = 0.1
# node_holdout holds out this share of the nodes (at least one)
NODE_FRAC = 0.10
# uniform_dyads draws this many dyads per edge, at most every pair
UNIFORM_DYADS_PER_EDGE = 20

# equal-width bins on [0, 1] for ECE, the Murphy terms and reliability
CALIBRATION_BINS = 10
# the scores paired_gaps compares
GAP_METRICS = ("logloss", "brier", "auc", "ap")

# logistic stacking: fixed ridge on the non-intercept coefficients, the
# gradient-norm stopping rule, a safety bound on Newton steps (reaching it
# warns) and the Armijo sufficient-decrease constant
STACK_RIDGE = 1e-8
STACK_GRAD_TOL = 1e-10
STACK_MAX_STEPS = 100
STACK_ARMIJO = 1e-4


class SplitError(ValueError):
    pass


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SplitSpec:
    """Train/val/test dyad sets with labels for one evaluation split.

    Dyad arrays are (k, 2) with i < j and no duplicates; the three sets are
    pairwise disjoint.
    """

    train_dyads: np.ndarray
    train_labels: np.ndarray
    val_dyads: np.ndarray
    val_labels: np.ndarray
    test_dyads: np.ndarray
    test_labels: np.ndarray
    held_out_nodes: np.ndarray | None = None

    @property
    def test_positive_rate(self) -> float:
        return float(self.test_labels.mean()) if self.test_labels.size else float("nan")


def _dyad_key(dyads: np.ndarray, n: int) -> np.ndarray:
    return dyads[:, 0].astype(np.int64) * n + dyads[:, 1].astype(np.int64)


def _node_mask(n: int, nodes) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(nodes, dtype=np.int64)] = True
    return mask


def _sample_negatives(rng, n, count, forbidden_keys, restrict_nodes=None,
                      require_touch=None):
    """Uniform non-edge dyads (i < j), excluding the int64 ``forbidden_keys``
    and earlier picks.  ``restrict_nodes`` keeps both endpoints in a node
    set; ``require_touch`` demands at least one endpoint in a node set.

    Candidate pairs are drawn in batches and filtered in draw order; after
    ``200 * count + 10_000`` candidates the graph counts as too dense.
    """
    pool = np.arange(n) if restrict_nodes is None else np.asarray(restrict_nodes, np.int64)
    touch = None if require_touch is None else _node_mask(n, require_touch)
    # ascending throughout, so membership is a binary search
    forbidden = np.sort(np.asarray(forbidden_keys, dtype=np.int64))
    budget = 200 * max(count, 1) + 10_000
    picks = []
    found = accepted = drawn = 0
    while found < count:
        if drawn >= budget or pool.size < 2:
            raise SplitError(
                f"could not find {count} negative dyads ({found} found); "
                "graph too dense for the requested ratio")
        need = count - found
        # size the batch from the acceptance rate so far (at least 1/8)
        rate = max(accepted / drawn if drawn else 1.0, 0.125)
        size = min(int(1.1 * need / rate) + 64, budget - drawn)
        pairs = pool[rng.integers(0, pool.size, size=(size, 2))]
        drawn += size
        i, j = pairs.min(axis=1), pairs.max(axis=1)
        keep = i != j
        if touch is not None:
            keep &= touch[i] | touch[j]
        keys = i[keep] * n + j[keep]
        keys = keys[~in_sorted(keys, forbidden)]
        # keep the first draw of each key: a stable sort puts it first in
        # its run of equal keys
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        repeat = np.zeros(keys.size, dtype=bool)
        repeat[order[1:][ranked[1:] == ranked[:-1]]] = True
        keys = keys[~repeat]
        accepted += keys.size
        keys = keys[:need]
        picks.append(keys)
        forbidden = np.sort(np.concatenate([forbidden, keys]))
        found += keys.size
    keys = np.concatenate(picks) if picks else np.empty(0, dtype=np.int64)
    return np.stack([keys // n, keys % n], axis=1)


def _build_labeled(pos, neg, n: int):
    dyads = np.concatenate([pos, neg], axis=0) if neg.size else pos
    labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
    # the dyads of a set are distinct, so their keys sort them as (i, j) would
    order = np.argsort(_dyad_key(dyads, n))
    return dyads[order], labels[order]


def _cut(rng, count: int, *fracs) -> list:
    """A permutation of ``range(count)`` cut into one run of
    ``max(1, round(frac * count))`` items per fraction, then the rest."""
    perm = rng.permutation(count)
    sizes = np.cumsum([max(1, int(round(frac * count))) for frac in fracs])
    if sizes[-1] >= count:
        raise SplitError("too few edges for the requested holdout fractions")
    return np.split(perm, sizes)


def make_split(graph: GraphSample, regime: str, seed, negpos_ratio: float = 3.0) -> SplitSpec:
    """Deterministic train/val/test dyad split under one of three regimes.

    edge_holdout: hold out observed edges, negatives sampled from non-edges
    at the fixed ratio.  node_holdout: hold out ``NODE_FRAC`` of the nodes,
    drop all their incident edges from training, test on dyads touching
    held-out nodes.  uniform_dyads: ``UNIFORM_DYADS_PER_EDGE`` uniform dyads
    per edge (at most every pair) without replacement, labels from the
    adjacency.

    The holdout regimes cut the positives into train, val and test roles.
    Each role then draws its negatives, in that order, from the dyads that
    are neither edges nor earlier negatives, with both ends in its node set
    (node holdout's train and val) or one end in it (its test).
    """
    n = graph.n
    rng = make_rng(seed)
    edges = graph.edges
    if edges.shape[0] == 0:
        raise SplitError("graph has no edges")
    edge_keys = _dyad_key(edges, n)
    held = None

    if regime == "uniform_dyads":
        total_pairs = n * (n - 1) // 2
        m = min(total_pairs, UNIFORM_DYADS_PER_EDGE * edges.shape[0])
        if m < 10:
            raise SplitError("uniform regime needs at least 10 dyads")
        idx = rng.choice(total_pairs, size=m, replace=False)
        dyads = np.stack(triangular_pair(idx), axis=1)
        labels = in_sorted(_dyad_key(dyads, n), edge_keys).astype(float)
        test, val, train = (np.sort(part) for part in _cut(rng, len(dyads), TEST_FRAC, VAL_FRAC))
        sets = [(dyads[part], labels[part]) for part in (train, val, test)]
    else:
        if regime == "edge_holdout":
            test, val, train = (edges[part] for part in _cut(rng, len(edges), TEST_FRAC, VAL_FRAC))
            roles = [(train, None, None), (val, None, None), (test, None, None)]
        elif regime == "node_holdout":
            n_held = max(1, int(round(NODE_FRAC * n)))
            held = np.sort(rng.choice(n, size=n_held, replace=False))
            held_mask = _node_mask(n, held)
            touch = np.any(held_mask[edges], axis=1)
            test, kept = edges[touch], edges[~touch]
            if len(test) == 0 or len(kept) < 2:
                raise SplitError("node holdout left an empty positive set")
            val, train = (kept[part] for part in _cut(rng, len(kept), VAL_FRAC))
            kept_nodes = np.flatnonzero(~held_mask)
            roles = [(train, kept_nodes, None), (val, kept_nodes, None), (test, None, held)]
        else:
            raise SplitError(f"unknown split regime {regime!r}")
        if negpos_ratio < 1:
            raise SplitError("negpos_ratio must be >= 1")
        forbidden = edge_keys
        sets = []
        for pos, restrict_nodes, require_touch in roles:
            neg = _sample_negatives(rng, n, int(round(negpos_ratio * len(pos))), forbidden,
                                    restrict_nodes=restrict_nodes, require_touch=require_touch)
            forbidden = np.concatenate([forbidden, _dyad_key(neg, n)])
            sets.append(_build_labeled(pos, neg, n))

    spec = SplitSpec(*sets[0], *sets[1], *sets[2], held_out_nodes=held)
    audit_split(spec, graph)
    return spec


def audit_split(spec: SplitSpec, graph: GraphSample) -> None:
    """Split-hygiene audit; raises SplitError on any violation.

    Checks i < j and no duplicates per set, pairwise disjointness, and for
    node holdout that training retains no dyad touching a held-out node.
    Each set's keys are sorted once; since no set repeats a key, a repeat
    in their union is an overlap between two sets.
    """
    n = graph.n
    sets = (("train", spec.train_dyads, spec.train_labels),
            ("val", spec.val_dyads, spec.val_labels),
            ("test", spec.test_dyads, spec.test_labels))
    labelled = []
    sorted_sets = [np.empty(0, dtype=np.int64)]
    for name, dyads, labels in sets:
        if dyads.size == 0:
            continue
        if np.any(dyads[:, 0] >= dyads[:, 1]):
            raise SplitError(f"{name} set violates i < j")
        keys = _dyad_key(dyads, n)
        ranked = unique_keys(keys)
        if ranked.size != keys.size:
            raise SplitError(f"{name} set contains duplicate dyads")
        labelled.append((keys, labels))
        sorted_sets.append(ranked)
    union = np.concatenate(sorted_sets)
    if unique_keys(union).size != union.size:
        raise SplitError("train/val/test dyad sets overlap")
    if spec.held_out_nodes is not None:
        held = _node_mask(n, spec.held_out_nodes)
        for dyads in (spec.train_dyads, spec.val_dyads):
            if np.any(held[dyads]):
                raise SplitError("training retains a dyad touching a held-out node")
    # labels must agree with the adjacency for positives; the edge keys
    # ascend by GraphSample's invariant
    edge_keys = _dyad_key(graph.edges, n)
    for keys, labels in labelled:
        is_edge = in_sorted(keys, edge_keys)
        if not np.array_equal(is_edge.astype(float), labels):
            raise SplitError("labels disagree with the adjacency")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricReport:
    """Proper scores, ranking metrics, and calibration decomposition."""

    brier: float
    logloss: float
    auc: float
    ap: float
    ece: float
    murphy: tuple  # (reliability, resolution, uncertainty)
    reliability_bins: tuple  # per-bin (mean prediction, empirical rate, mass)
    n: int

    @property
    def binned_brier(self) -> float:
        rel, res, unc = self.murphy
        return rel - res + unc

    def to_dict(self) -> dict:
        return {"brier": self.brier, "logloss": self.logloss, "auc": self.auc,
                "ap": self.ap, "ece": self.ece,
                "reliability": self.murphy[0], "resolution": self.murphy[1],
                "uncertainty": self.murphy[2], "n": self.n}


def _descending_ties(predictions: np.ndarray):
    """One stable descending sort of each row of ``predictions`` and its
    tie groups.

    Returns ``order``, which keeps equal values of a row in index order (so
    a row of it equals ``np.lexsort((np.arange(m), -row))``, NaNs last), and
    ``starts``, the flat positions in the sorted rows, read row after row,
    where a run of equal values begins; every row begins one.
    """
    order = np.argsort(-predictions, axis=-1, kind="stable")
    ranked = np.take_along_axis(predictions, order, axis=-1)
    new_run = np.empty(ranked.shape, dtype=bool)
    new_run[..., :1] = True
    np.not_equal(ranked[..., 1:], ranked[..., :-1], out=new_run[..., 1:])
    return order, np.flatnonzero(new_run)


def _group_sums(starts: np.ndarray, *values: np.ndarray) -> list:
    """For each (R, k) array of ``values``, its sums over the runs that
    ``starts`` begins, each by ``np.add.reduceat`` in sorted order, left-
    aligned in an (R, k) array whose rows end in zeros."""
    rows, k = values[0].shape
    row = starts // k
    group = np.arange(starts.size) - np.searchsorted(starts, np.arange(rows) * k)[row]
    sums = []
    for v in values:
        out = np.zeros((rows, k))
        out[row, group] = np.add.reduceat(v.ravel(), starts)
        sums.append(out)
    return sums


def _logloss_sum(predictions, pos, neg):
    """The floored log-loss summed over positive weights ``pos`` and negative
    weights ``neg``, along the last axis."""
    clipped = np.clip(predictions, LOGLOSS_FLOOR, 1.0 - LOGLOSS_FLOOR)
    return -(np.vecdot(pos, np.log(clipped)) + np.vecdot(neg, np.log1p(-clipped)))


def _weighted_report(predictions, pos, neg, index_ties: bool):
    """Every metric of a forecast whose entry k carries positive weight
    ``pos[k]`` and negative weight ``neg[k]``, normalised by the total: one
    MetricReport for a vector of ``predictions``, a list of them for each
    row of an (R, k) matrix, with ``pos`` and ``neg`` per row or shared.

    Brier is sum pos (1 - p)^2 + neg p^2, and the floored log-loss is summed
    the same way.  Entries of equal prediction form one tie group.  AUC
    counts ties at one half.  AP depends on the order within a tie group:
    with ``index_ties`` the entries rank in index order (unit rows), else
    each group's positives interleave evenly through its weight, the limit
    of a random order: a group of positive weight b and total d, after
    groups of positive weight A and total C, gives its positives the mean
    precision b / d + (A d - b C) / d^2 * ln((C + d) / C).  ECE, the Murphy
    terms and the reliability bins share ``CALIBRATION_BINS`` equal-width
    bins, weighted; the reliability bins list only occupied bins.  Unit
    weights stay integers until the final divides, so AUC on 0/1 rows is
    exact.  The per-group and per-bin sums fill rows of fixed length (k
    groups, ``CALIBRATION_BINS`` bins) padded with zeros, so a row of a
    batch goes through the arithmetic of that row alone.
    """
    p = np.ascontiguousarray(np.atleast_2d(predictions))
    pos = np.ascontiguousarray(np.broadcast_to(pos, p.shape))
    neg = np.ascontiguousarray(np.broadcast_to(neg, p.shape))
    weight = pos + neg
    total = weight.sum(axis=-1)
    total_pos = pos.sum(axis=-1)
    total_neg = total - total_pos
    brier = (np.vecdot(pos, (1.0 - p) ** 2) + np.vecdot(neg, p ** 2)) / total
    logloss = _logloss_sum(p, pos, neg) / total

    order, starts = _descending_ties(p)
    ranked = np.take_along_axis(pos, order, axis=-1)
    # positive, negative and total weight per tie group
    b, b_neg = _group_sums(starts, ranked, np.take_along_axis(neg, order, axis=-1))
    d = b + b_neg
    above = np.cumsum(b, axis=-1) - b          # positive weight ranked strictly higher
    with np.errstate(invalid="ignore", divide="ignore"):
        auc = np.where((total_pos > 0) & (total_neg > 0),
                       np.vecdot(b_neg, above + 0.5 * b) / (total_pos * total_neg), np.nan)
        if index_ties:
            precision = (np.cumsum(ranked, axis=-1)
                         / np.cumsum(np.take_along_axis(weight, order, axis=-1), axis=-1))
            ap = np.sum(precision * ranked, axis=-1) / total_pos
        else:
            before = np.cumsum(d, axis=-1) - d     # total weight ranked strictly higher
            live = d > 0
            d_live = np.where(live, d, 1.0)
            # the first group has nothing before it: its precision is b / d
            tail = np.where(before > 0, (above * d_live - b * before) / d_live ** 2
                            * np.log1p(d_live / np.where(before > 0, before, 1.0)), 0.0)
            ap = np.vecdot(b, np.where(live, b / d_live + tail, 0.0)) / total_pos
    ap = np.where(total_pos > 0, ap, np.nan)

    rows, k = p.shape
    bins = CALIBRATION_BINS
    bin_idx = np.minimum((p * bins).astype(int), bins - 1)
    flat = (bin_idx + bins * np.arange(rows)[:, None]).ravel()

    def per_bin(values):
        return np.bincount(flat, weights=values.ravel(), minlength=rows * bins).reshape(rows, bins)

    wt = per_bin(weight)
    occupied = wt > 0
    wt_safe = np.where(occupied, wt, 1.0)
    p_bar = np.where(occupied, per_bin(weight * p) / wt_safe, 0.0)
    y_bar = np.where(occupied, per_bin(pos) / wt_safe, 0.0)
    wt = wt / total[:, None]
    base_rate = total_pos / total
    ece = np.vecdot(wt, np.abs(p_bar - y_bar))
    reliability = np.vecdot(wt, (p_bar - y_bar) ** 2)
    resolution = np.vecdot(wt, (y_bar - base_rate[:, None]) ** 2)
    reports = [
        MetricReport(
            brier=row[0], logloss=row[1], auc=row[2], ap=row[3], ece=row[4],
            murphy=(row[5], row[6], row[7] * (1 - row[7])),
            reliability_bins=tuple(tuple(bin_row) for bin_row, live in zip(bins_r, occ_r)
                                   if live),
            n=k)
        for row, bins_r, occ_r in zip(
            np.column_stack([brier, logloss, auc, ap, ece, reliability, resolution,
                             base_rate]).tolist(),
            np.stack([p_bar, y_bar, wt], axis=-1).tolist(), occupied.tolist())]
    return reports if np.ndim(predictions) == 2 else reports[0]


def _check_predictions(predictions: np.ndarray) -> None:
    # written so that NaN fails it too
    if not np.all((predictions >= 0) & (predictions <= 1)):
        raise ValueError("predictions must lie in [0,1]")


def score_metrics(predictions, labels) -> MetricReport:
    """Brier, floored log-loss, AUC, AP, ECE, and the Brier decomposition of
    a sample of 0/1 labels.  AP ranks tied predictions in index order."""
    predictions = np.asarray(predictions, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise ValueError("predictions and labels must be equal-length and nonempty")
    _check_predictions(predictions)
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    return _weighted_report(predictions, labels, 1.0 - labels, index_ties=True)


def population_metrics(predictions, truth, mass):
    """The population limit of ``score_metrics``: every score of a forecast
    that is constant on cells of the unit square, against labels drawn
    Bernoulli(truth) on a dyad whose latent pair falls in a cell with
    probability ``mass``.  A cell has positive weight mass * truth and
    negative weight mass * (1 - truth); AP is the limit of the index
    tiebreak, where positives interleave at random within a tie group.
    ``n`` is the number of cells.  ``predictions`` is one forecast (k,),
    scored as a MetricReport, or R forecasts (R, k) on the same cells,
    scored as a list of R reports, each equal to its row's score alone.
    """
    predictions = np.asarray(predictions, dtype=float)
    truth = np.asarray(truth, dtype=float)
    mass = np.asarray(mass, dtype=float)
    if (predictions.ndim not in (1, 2) or not (predictions.shape[-1:] == truth.shape
                                                == mass.shape) or predictions.size == 0):
        raise ValueError("predictions, truth and mass must be equal-length and nonempty")
    _check_predictions(predictions)
    # written so that NaN fails them too
    if not np.all((truth >= 0) & (truth <= 1)):
        raise ValueError("truth must lie in [0,1]")
    if not (np.all(mass >= 0) and abs(mass.sum() - 1.0) <= 1e-9):
        raise ValueError("cell masses must be nonnegative and sum to 1")
    return _weighted_report(predictions, mass * truth, mass * (1.0 - truth), index_ties=False)


# ---------------------------------------------------------------------------
# paired gaps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapSummary:
    mean: float
    se: float
    ci_low: float
    ci_high: float
    win_rate: float


@dataclass(frozen=True)
class PairedGapReport:
    """Per-split paired gaps metric(A) - metric(B); positive favors B for
    losses.  CI is normal: mean +/- 1.96 se; ties count as non-wins."""

    units: tuple
    summaries: dict

    def to_rows(self):
        rows = []
        for name, s in self.summaries.items():
            rows.append({"metric": name, "mean_gap": s.mean, "se": s.se,
                         "ci_low": s.ci_low, "ci_high": s.ci_high,
                         "win_rate": s.win_rate, "n_units": len(self.units)})
        return rows

    def to_dict(self) -> dict:
        return {"units": list(self.units), "rows": self.to_rows()}


def paired_gaps(scores_a: dict, scores_b: dict) -> PairedGapReport:
    """Paired per-split gaps in each of ``GAP_METRICS`` between two methods
    on identical split keys."""
    keys_a, keys_b = set(scores_a), set(scores_b)
    if keys_a != keys_b:
        raise ValueError(f"mismatched split keys: {sorted(keys_a ^ keys_b)}")
    units = tuple(sorted(scores_a))
    summaries = {}
    for metric in GAP_METRICS:
        gaps = np.array([getattr(scores_a[k], metric) - getattr(scores_b[k], metric)
                         for k in units], dtype=float)
        mean = float(gaps.mean())
        se = float(gaps.std(ddof=1) / np.sqrt(gaps.size)) if gaps.size > 1 else 0.0
        summaries[metric] = GapSummary(
            mean=mean, se=se,
            ci_low=mean - 1.96 * se, ci_high=mean + 1.96 * se,
            win_rate=float(np.mean(gaps > 0)))
    return PairedGapReport(units=units, summaries=summaries)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def cv_best_agent(val_features: np.ndarray, val_labels: np.ndarray, weights=None):
    """Index (0-based over agents) of the validation-log-loss-best agent;
    ties break to the lowest index.  ``weights`` are row multiplicities
    (``DyadData.weights``), one per row when absent.  Labels and weights of
    shape (R, m) on the shared rows give one index per sample, an (R,)
    array."""
    val_labels = np.asarray(val_labels, dtype=float)
    if val_labels.shape[-1] == 0:
        raise ValueError("validation set must be nonempty")
    weights = (np.ones(val_labels.shape) if weights is None
               else np.asarray(weights, dtype=float))
    pos = weights * val_labels
    # one contiguous row per agent, as a column of its own would be
    agents = np.ascontiguousarray(np.asarray(val_features)[:, 1:].T)
    np.clip(agents, 0.0, 1.0, out=agents)
    losses = _logloss_sum(agents, pos[..., None, :], (weights - pos)[..., None, :])
    best = np.argmin(losses, axis=-1)
    return int(best) if best.ndim == 0 else best


def _stack_objective(beta, features, labels, weights, total):
    """Weighted mean log-loss of the stack plus
    ``STACK_RIDGE / 2 * |beta[1:]|^2``, per row of the (R, d) ``beta``."""
    z = (features @ beta[..., None])[..., 0]
    loss = -np.sum(weights * (labels * log_expit(z) + (1.0 - labels) * log_expit(-z)),
                   axis=-1) / total
    return loss + 0.5 * STACK_RIDGE * np.vecdot(beta[:, 1:], beta[:, 1:])


def _rows(mask: np.ndarray):
    """Index of the rows where ``mask`` holds: a full slice when all do, so
    that a batch of one is never copied."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def fit_logistic_stack(features: np.ndarray, labels: np.ndarray, weights=None) -> np.ndarray:
    """Logistic stacking on (1, p_1, ..., p_J) by damped Newton (IRLS).

    Minimizes the mean log-loss plus a fixed ridge ``STACK_RIDGE / 2`` on
    the squared non-intercept coefficients, which keeps the optimum finite
    on (near-)separable data.  Each step solves the d x d system
    ``(X' diag(p(1-p)) X / m + ridge) step = gradient`` and halves the step
    until the Armijo condition holds.  Iteration stops once the gradient
    norm of the penalized objective is at most ``STACK_GRAD_TOL``; if that
    takes more than ``STACK_MAX_STEPS`` steps, the last iterate is returned
    with a RuntimeWarning.  ``weights`` are row multiplicities
    (``DyadData.weights``, one per row when absent) and ``labels`` the
    positive fraction of each row, so the mean runs over the dyads the rows
    stand for.  Degenerate one-class labels (no positives, or all) yield an
    intercept-only model (with a warning) since the MLE diverges.

    Labels and weights of shape (R, m) on the shared (m, d) ``features``
    fit R stacks at once and return (R, d) coefficients: every sample
    takes its own Newton and Armijo steps, stops at its own convergence
    and equals its fit alone; the iteration ends when every sample has
    stopped.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    weights = np.ones(labels.shape) if weights is None else np.asarray(weights, dtype=float)
    y, w = np.atleast_2d(labels), np.atleast_2d(weights)

    def which(mask):
        return f" in {int(mask.sum())} of {mask.size} samples" if labels.ndim == 2 else ""

    d = features.shape[1]
    total = w.sum(axis=-1)
    positives = np.sum(w * y, axis=-1)
    beta = np.zeros((y.shape[0], d))
    one_class = (positives == 0.0) | (positives == total)
    if one_class.any():
        warnings.warn(f"one-class training labels{which(one_class)}: "
                      "returning intercept-only stack")
        rate = np.clip(positives[one_class] / total[one_class], 1e-6, 1 - 1e-6)
        beta[one_class, 0] = logit(rate)

    penalty = np.full(d, STACK_RIDGE)
    penalty[0] = 0.0
    active = ~one_class
    loss = np.zeros(y.shape[0])
    rows = _rows(active)
    loss[rows] = _stack_objective(beta[rows], features, y[rows], w[rows], total[rows])
    for _ in range(STACK_MAX_STEPS):
        if not active.any():
            break
        rows = _rows(active)
        b, yr, wr, tr = beta[rows], y[rows], w[rows], total[rows]
        p = expit((features @ b[..., None])[..., 0])
        grad = (features.T @ (wr * (p - yr))[..., None])[..., 0] / tr[:, None] + penalty * b
        going = ~(np.sqrt(np.vecdot(grad, grad)) <= STACK_GRAD_TOL)
        if not going.all():
            active[np.flatnonzero(active)[~going]] = False
            if not going.any():
                break
            keep = np.flatnonzero(going)
            rows = np.flatnonzero(active)
            b, yr, wr, tr, p, grad = b[keep], yr[keep], wr[keep], tr[keep], p[keep], grad[keep]
        hess = ((features.T * (wr * p * (1.0 - p))[:, None, :]) @ features / tr[:, None, None]
                + np.diag(penalty))
        step = np.linalg.solve(hess, grad[..., None])[..., 0]
        decrease = np.vecdot(grad, step)
        lr = loss[rows]
        # the loss is only known to rounding, so the sufficient-decrease test
        # allows that much slack; otherwise it would stall next to the optimum
        slack = 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(lr))
        t = np.ones(lr.size)
        cand, cand_loss = np.empty_like(b), np.empty_like(lr)
        searching = np.ones(lr.size, dtype=bool)
        while searching.any():
            s = _rows(searching)
            cand[s] = b[s] - t[s, None] * step[s]
            cand_loss[s] = _stack_objective(cand[s], features, yr[s], wr[s], tr[s])
            accept = ((cand_loss[s] <= lr[s] - STACK_ARMIJO * t[s] * decrease[s] + slack[s])
                      | (t[s] < 1e-12))
            idx = np.flatnonzero(searching)
            searching[idx[accept]] = False
            t[idx[~accept]] *= 0.5
        beta[rows], loss[rows] = cand, cand_loss
    else:
        if active.any():
            warnings.warn(f"logistic stack did not converge{which(active)}", RuntimeWarning)
    return beta if labels.ndim == 2 else beta[0]
