#!/usr/bin/env python3
"""End-to-end link-prediction protocol on an observed graph.

Samples a two-community graph, holds out edges, fits the five-agent menu on
the training graph only, synthesizes the agent forecasts, and scores every
method with proper scores, ranking metrics, and paired gaps.
"""

import numpy as np

from graphsynth import (Block, DyadData, ExperimentConfig, agent_dyad_probs,
                        cv_best_agent, fit_agents_to_graph, fit_logistic_stack,
                        fit_ls, fit_simplex, make_split, paired_gaps,
                        predict_clipped, sample_graph, score_metrics)
from graphsynth.logistic import expit
from graphsynth.sampling import graph_from_edge_array

truth = Block([0, 0.5, 1], [[0.10, 0.02], [0.02, 0.08]])
graph = sample_graph(truth, 400, seed=3)
print(f"observed graph: n={graph.n}, edges={graph.n_edges}")

config = ExperimentConfig.from_dict({"experiment": "real", "sbm_k": 2, "rdpg_d": 2})

scores = {"BestAgent": {}, "BPS_LS": {}, "BPS_Simplex": {}, "Stack": {}}
for s in range(3):
    split = make_split(graph, "edge_holdout", seed=100 + s)
    train_graph = graph_from_edge_array(graph.n,
                                        split.train_dyads[split.train_labels == 1])
    agents = fit_agents_to_graph(train_graph, config)

    feats = {}
    for part, dyads in (("train", split.train_dyads), ("val", split.val_dyads),
                        ("test", split.test_dyads)):
        cols = [np.ones(len(dyads))]
        cols.extend(agent_dyad_probs(a, dyads) for a in agents.values())
        feats[part] = np.stack(cols, axis=1)

    # an agent that is constant on the train dyads (here ER) adds nothing to
    # span{1, w_1, ..., w_J}, so it stays out of the regression design
    names = list(agents)
    keep = np.r_[True, np.ptp(feats["train"][:, 1:], axis=0) > 0]
    train = DyadData(features=feats["train"][:, keep], labels=split.train_labels)

    best = cv_best_agent(feats["val"], split.val_labels)
    stack = fit_logistic_stack(train.features, train.labels)
    preds = {
        "BestAgent": np.clip(feats["test"][:, 1 + best], 0, 1),
        "BPS_LS": predict_clipped(fit_ls(train), feats["test"][:, keep]),
        "BPS_Simplex": predict_clipped(fit_simplex(train), feats["test"][:, keep]),
        "Stack": expit(feats["test"][:, keep] @ stack),
    }
    print(f"\nsplit {s}: best validation agent = {names[best]}")
    print("  method        brier   logloss     auc      ap")
    for method, p in preds.items():
        rep = score_metrics(p, split.test_labels)
        scores[method][f"edge/{s}"] = rep
        print(f"  {method:<12} {rep.brier:.4f}   {rep.logloss:.4f}  "
              f"{rep.auc:.4f}  {rep.ap:.4f}")

print("\npaired gaps BestAgent - BPS_LS (positive mean favors the synthesis):")
report = paired_gaps(scores["BestAgent"], scores["BPS_LS"])
for row in report.to_rows():
    print(f"  {row['metric']:<8} mean {row['mean_gap']:+.4f}  se {row['se']:.4f}  "
          f"CI [{row['ci_low']:+.4f}, {row['ci_high']:+.4f}]  "
          f"win rate {row['win_rate']:.2f}")
