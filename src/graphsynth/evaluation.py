"""Holdout protocols, proper-score metrics, calibration, and paired gaps."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, log_expit, logit

from .sampling import GraphSample, in_sorted, make_rng, unique_keys

LOGLOSS_FLOOR = 1e-12

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

@dataclass
class SplitSpec:
    """Train/val/test dyad sets with labels for one evaluation split.

    Dyad arrays are (k, 2) with i < j and no duplicates; the three sets are
    pairwise disjoint.
    """

    regime: str
    train_dyads: np.ndarray
    train_labels: np.ndarray
    val_dyads: np.ndarray
    val_labels: np.ndarray
    test_dyads: np.ndarray
    test_labels: np.ndarray
    seed: int | None = None
    negpos_ratio: float | None = None
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


def make_split(graph: GraphSample, regime: str, seed, negpos_ratio: float = 3.0,
               test_frac: float = 0.2, val_frac: float = 0.1,
               node_frac: float = 0.10, m_uniform: int | None = None) -> SplitSpec:
    """Deterministic train/val/test dyad split under one of three regimes.

    edge_holdout: hold out observed edges, negatives sampled from non-edges
    at the fixed ratio.  node_holdout: hold out a node fraction, drop all
    their incident edges from training, test on dyads touching held-out
    nodes.  uniform_dyads: uniform dyads without replacement, labels from
    the adjacency.
    """
    n = graph.n
    rng = make_rng(seed)
    edges = graph.edges
    if edges.shape[0] == 0:
        raise SplitError("graph has no edges")
    edge_keys = _dyad_key(edges, n)

    if regime == "edge_holdout":
        if negpos_ratio < 1:
            raise SplitError("negpos_ratio must be >= 1")
        perm = rng.permutation(edges.shape[0])
        n_test = max(1, int(round(test_frac * edges.shape[0])))
        n_val = max(1, int(round(val_frac * edges.shape[0])))
        if n_test + n_val >= edges.shape[0]:
            raise SplitError("too few edges for the requested holdout fractions")
        test_pos = edges[perm[:n_test]]
        val_pos = edges[perm[n_test:n_test + n_val]]
        train_pos = edges[perm[n_test + n_val:]]
        forbidden = edge_keys
        neg_sets = []
        for pos in (train_pos, val_pos, test_pos):
            neg = _sample_negatives(rng, n, int(round(negpos_ratio * len(pos))), forbidden)
            forbidden = np.concatenate([forbidden, _dyad_key(neg, n)])
            neg_sets.append(neg)
        tr = _build_labeled(train_pos, neg_sets[0], n)
        va = _build_labeled(val_pos, neg_sets[1], n)
        te = _build_labeled(test_pos, neg_sets[2], n)
        spec = SplitSpec("edge_holdout", *tr, *va, *te, seed=seed, negpos_ratio=negpos_ratio)

    elif regime == "node_holdout":
        n_held = max(1, int(round(node_frac * n)))
        held = np.sort(rng.choice(n, size=n_held, replace=False))
        held_mask = _node_mask(n, held)
        touch = np.any(held_mask[edges], axis=1)
        test_pos = edges[touch]
        keep_pos = edges[~touch]
        if len(test_pos) == 0 or len(keep_pos) < 2:
            raise SplitError("node holdout left an empty positive set")
        perm = rng.permutation(len(keep_pos))
        n_val = max(1, int(round(val_frac * len(keep_pos))))
        val_pos = keep_pos[perm[:n_val]]
        train_pos = keep_pos[perm[n_val:]]
        kept_nodes = np.flatnonzero(~held_mask)
        train_neg = _sample_negatives(rng, n, int(round(negpos_ratio * len(train_pos))),
                                      edge_keys, restrict_nodes=kept_nodes)
        forbidden = np.concatenate([edge_keys, _dyad_key(train_neg, n)])
        val_neg = _sample_negatives(rng, n, int(round(negpos_ratio * len(val_pos))),
                                    forbidden, restrict_nodes=kept_nodes)
        forbidden = np.concatenate([forbidden, _dyad_key(val_neg, n)])
        test_neg = _sample_negatives(rng, n, int(round(negpos_ratio * len(test_pos))),
                                     forbidden, require_touch=held)
        tr = _build_labeled(train_pos, train_neg, n)
        va = _build_labeled(val_pos, val_neg, n)
        te = _build_labeled(test_pos, test_neg, n)
        spec = SplitSpec("node_holdout", *tr, *va, *te, seed=seed,
                         negpos_ratio=negpos_ratio, held_out_nodes=held)

    elif regime == "uniform_dyads":
        total_pairs = n * (n - 1) // 2
        m = m_uniform if m_uniform is not None else min(total_pairs, 20 * edges.shape[0])
        if m < 10:
            raise SplitError("uniform regime needs at least 10 dyads")
        m = min(m, total_pairs)
        # triangular decoding of uniform pair indices without replacement
        idx = rng.choice(total_pairs, size=m, replace=False)
        r = np.ceil((np.sqrt(8.0 * (idx + 1) + 1) - 1) / 2).astype(np.int64)
        s = idx - r * (r - 1) // 2
        dyads = np.stack([s, r], axis=1)
        keys = _dyad_key(dyads, n)
        labels = in_sorted(keys, edge_keys).astype(float)
        perm = rng.permutation(m)
        n_test = max(1, int(round(test_frac * m)))
        n_val = max(1, int(round(val_frac * m)))
        te_i, va_i, tr_i = perm[:n_test], perm[n_test:n_test + n_val], perm[n_test + n_val:]
        spec = SplitSpec("uniform_dyads",
                         dyads[np.sort(tr_i)], labels[np.sort(tr_i)],
                         dyads[np.sort(va_i)], labels[np.sort(va_i)],
                         dyads[np.sort(te_i)], labels[np.sort(te_i)],
                         seed=seed)
    else:
        raise SplitError(f"unknown split regime {regime!r}")

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
    reliability_bins: tuple  # per-bin (mean prediction, empirical rate, count)
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
    """One stable descending sort of ``predictions`` and its tie groups.

    Returns ``order``, which keeps equal values in index order (so it equals
    ``np.lexsort((np.arange(m), -predictions))``, NaNs last), and
    ``starts``, the positions in ``order`` where a run of equal values
    begins.
    """
    order = np.argsort(-predictions, kind="stable")
    ranked = predictions[order]
    new_run = np.empty(ranked.size, dtype=bool)
    new_run[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new_run[1:])
    return order, np.flatnonzero(new_run)


def _auc_sorted(predictions, pos, order, starts) -> float:
    n_pos = int(pos.sum())
    n_neg = pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    if np.isnan(predictions[order[-1]]):
        return float("nan")
    # a run at positions [start, stop) of the descending order has ascending
    # midrank m - (start + stop - 1) / 2, an exact half-integer, so the rank
    # sum below is exact whatever the summation order
    stops = np.append(starts[1:], pos.size)
    midranks = pos.size - 0.5 * (starts + stops - 1)
    pos_per_run = np.add.reduceat(pos[order].astype(np.int64), starts)
    rank_sum = float(midranks @ pos_per_run)
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def _average_precision_sorted(labels, order) -> float:
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        return float("nan")
    sorted_labels = labels[order]
    tp = np.cumsum(sorted_labels)
    precision = tp / np.arange(1, labels.size + 1)
    return float(np.sum(precision * sorted_labels) / n_pos)


def auc_score(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUC with midranks for ties; NaN when a class is missing
    or a prediction is NaN."""
    predictions = np.asarray(predictions, dtype=float)
    return _auc_sorted(predictions, np.asarray(labels) == 1,
                       *_descending_ties(predictions))


def average_precision(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Step-integrated precision-recall (deterministic index tiebreak)."""
    predictions = np.asarray(predictions, dtype=float)
    order, _ = _descending_ties(predictions)
    return _average_precision_sorted(np.asarray(labels), order)


def score_metrics(predictions, labels, bins: int = 10) -> MetricReport:
    """Brier, floored log-loss, AUC, AP, ECE, and the Brier decomposition.

    The reliability/resolution/uncertainty decomposition and ECE share the
    same equal-width bins; empty bins are skipped.  AUC and AP share one
    sort of the predictions.
    """
    predictions = np.asarray(predictions, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise ValueError("predictions and labels must be equal-length and nonempty")
    if bins < 1:
        raise ValueError("need bins >= 1")
    # written so that NaN fails it too
    if not np.all((predictions >= 0) & (predictions <= 1)):
        raise ValueError("predictions must lie in [0,1]")
    m = predictions.size
    brier = float(np.mean((predictions - labels) ** 2))
    clipped = np.clip(predictions, LOGLOSS_FLOOR, 1.0 - LOGLOSS_FLOOR)
    logloss = float(-np.mean(labels * np.log(clipped) + (1 - labels) * np.log1p(-clipped)))
    order, starts = _descending_ties(predictions)
    auc = _auc_sorted(predictions, labels == 1, order, starts)
    ap = _average_precision_sorted(labels, order)

    # each bin is a contiguous slice of a stable sort by bin that keeps its
    # rows in index order, so a bin's mean sums its rows in index order; the
    # smallest integer type that holds the bins makes that sort a radix sort
    bin_idx = np.minimum((predictions * bins).astype(np.min_scalar_type(bins)), bins - 1)
    counts = np.bincount(bin_idx, minlength=bins)
    by_bin = np.argsort(bin_idx, kind="stable")
    binned_p = predictions[by_bin]
    binned_y = labels[by_bin]
    stops = np.cumsum(counts)
    base_rate = labels.mean()
    ece = 0.0
    rel = 0.0
    res = 0.0
    bin_rows = []
    for b in np.flatnonzero(counts):
        count = int(counts[b])
        rows = slice(stops[b] - count, stops[b])
        p_bar = float(binned_p[rows].mean())
        y_bar = float(binned_y[rows].mean())
        wt = count / m
        ece += wt * abs(p_bar - y_bar)
        rel += wt * (p_bar - y_bar) ** 2
        res += wt * (y_bar - base_rate) ** 2
        bin_rows.append((p_bar, y_bar, count))
    unc = float(base_rate * (1 - base_rate))
    return MetricReport(brier=brier, logloss=logloss, auc=auc, ap=ap, ece=float(ece),
                        murphy=(float(rel), float(res), unc),
                        reliability_bins=tuple(bin_rows), n=m)


# ---------------------------------------------------------------------------
# paired gaps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapSummary:
    metric: str
    gaps: np.ndarray = None
    mean: float = 0.0
    se: float = 0.0
    ci_low: float = 0.0
    ci_high: float = 0.0
    win_rate: float = 0.0


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


def paired_gaps(scores_a: dict, scores_b: dict,
                metrics=("logloss", "brier", "auc", "ap")) -> PairedGapReport:
    """Paired per-split gaps between two methods on identical split keys."""
    keys_a, keys_b = set(scores_a), set(scores_b)
    if keys_a != keys_b:
        raise ValueError(f"mismatched split keys: {sorted(keys_a ^ keys_b)}")
    units = tuple(sorted(scores_a))
    summaries = {}
    for metric in metrics:
        gaps = np.array([getattr(scores_a[k], metric) - getattr(scores_b[k], metric)
                         for k in units], dtype=float)
        mean = float(gaps.mean())
        se = float(gaps.std(ddof=1) / np.sqrt(gaps.size)) if gaps.size > 1 else 0.0
        summaries[metric] = GapSummary(
            metric=metric, gaps=gaps, mean=mean, se=se,
            ci_low=mean - 1.96 * se, ci_high=mean + 1.96 * se,
            win_rate=float(np.mean(gaps > 0)))
    return PairedGapReport(units=units, summaries=summaries)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def _logloss_vec(pred, labels):
    p = np.clip(pred, LOGLOSS_FLOOR, 1.0 - LOGLOSS_FLOOR)
    return float(-np.mean(labels * np.log(p) + (1 - labels) * np.log1p(-p)))


def cv_best_agent(val_features: np.ndarray, val_labels: np.ndarray) -> int:
    """Index (0-based over agents) of the validation-log-loss-best agent;
    ties break to the lowest index."""
    if val_labels.size == 0:
        raise ValueError("validation set must be nonempty")
    losses = [_logloss_vec(np.clip(val_features[:, 1 + j], 0.0, 1.0), val_labels)
              for j in range(val_features.shape[1] - 1)]
    return int(np.argmin(losses))


def _stack_objective(beta, features, labels):
    """Mean log-loss of the stack plus ``STACK_RIDGE / 2 * |beta[1:]|^2``."""
    z = features @ beta
    loss = -np.mean(labels * log_expit(z) + (1.0 - labels) * log_expit(-z))
    return loss + 0.5 * STACK_RIDGE * float(beta[1:] @ beta[1:])


def fit_logistic_stack(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Logistic stacking on (1, p_1, ..., p_J) by damped Newton (IRLS).

    Minimizes the mean log-loss plus a fixed ridge ``STACK_RIDGE / 2`` on
    the squared non-intercept coefficients, which keeps the optimum finite
    on (near-)separable data.  Each step solves the d x d system
    ``(X' diag(p(1-p)) X / m + ridge) step = gradient`` and halves the step
    until the Armijo condition holds.  Iteration stops once the gradient
    norm of the penalized objective is at most ``STACK_GRAD_TOL``; if that
    takes more than ``STACK_MAX_STEPS`` steps, the last iterate is returned
    with a RuntimeWarning.  Degenerate one-class labels yield an
    intercept-only model (with a warning) since the MLE diverges.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    m, d = features.shape
    if labels.min() == labels.max():
        warnings.warn("one-class training labels: returning intercept-only stack")
        rate = np.clip(labels.mean(), 1e-6, 1 - 1e-6)
        beta = np.zeros(d)
        beta[0] = float(logit(rate))
        return beta

    penalty = np.full(d, STACK_RIDGE)
    penalty[0] = 0.0
    beta = np.zeros(d)
    loss = _stack_objective(beta, features, labels)
    for _ in range(STACK_MAX_STEPS):
        p = expit(features @ beta)
        grad = features.T @ (p - labels) / m + penalty * beta
        if np.linalg.norm(grad) <= STACK_GRAD_TOL:
            return beta
        hess = (features.T * (p * (1.0 - p))) @ features / m + np.diag(penalty)
        step = np.linalg.solve(hess, grad)
        decrease = float(grad @ step)
        # the loss is only known to rounding, so the sufficient-decrease test
        # allows that much slack; otherwise it would stall next to the optimum
        slack = 8.0 * np.finfo(float).eps * max(1.0, abs(loss))
        t = 1.0
        while True:
            cand = beta - t * step
            cand_loss = _stack_objective(cand, features, labels)
            if cand_loss <= loss - STACK_ARMIJO * t * decrease + slack or t < 1e-12:
                break
            t *= 0.5
        beta, loss = cand, cand_loss
    warnings.warn("logistic stack did not converge", RuntimeWarning)
    return beta
