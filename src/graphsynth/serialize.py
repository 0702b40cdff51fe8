"""Structured-text serialization for models and CSV export of results.

Graphons and agents round-trip through tagged JSON documents; numeric
results (phase curves, metric and gap reports) export as CSV
with frozen headers.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from . import agents as ag
from . import graphons as gr
from .evaluation import PairedGapReport
from .sampling import GraphSample, PhaseCurve

SCHEMA_VERSION = 1


class SerializeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# graphons
# ---------------------------------------------------------------------------

def _step_map_to_dict(sm: gr.StepMap) -> dict:
    return {"boundaries": list(sm.boundaries),
            "values": np.asarray(sm.values, dtype=float).tolist()}


def _step_map_from_dict(d: dict) -> gr.StepMap:
    vals = d["values"]
    vals = tuple(map(tuple, vals)) if vals and isinstance(vals[0], list) else tuple(vals)
    return gr.StepMap(tuple(d["boundaries"]), vals)


def graphon_to_dict(w: gr.Graphon) -> dict:
    if isinstance(w, gr.Constant):
        return {"kind": "Constant", "p": w.p}
    if isinstance(w, gr.Block):
        return {"kind": "Block", "boundaries": list(w.boundaries),
                "matrix": np.asarray(w.matrix, dtype=float).tolist()}
    if isinstance(w, gr.LogisticLowRank):
        return {"kind": "LogisticLowRank", "latent": _step_map_to_dict(w.latent),
                "intercept": w.intercept}
    if isinstance(w, gr.ProductWeight):
        return {"kind": "ProductWeight", "weights": _step_map_to_dict(w.weights)}
    if isinstance(w, gr.LinearCombo):
        return {"kind": "LinearCombo", "beta": list(w.beta),
                "parts": [graphon_to_dict(p) for p in w.parts], "clipped": w.clipped}
    raise SerializeError(f"cannot serialize graphon kind {type(w).__name__}")


def graphon_from_dict(d: dict) -> gr.Graphon:
    kind = d.get("kind")
    if kind == "Constant":
        return gr.Constant(d["p"])
    if kind == "Block":
        return gr.Block.from_arrays(d["boundaries"], d["matrix"])
    if kind == "LogisticLowRank":
        return gr.LogisticLowRank(_step_map_from_dict(d["latent"]), d["intercept"])
    if kind == "ProductWeight":
        return gr.ProductWeight(_step_map_from_dict(d["weights"]))
    if kind == "LinearCombo":
        return gr.LinearCombo.make(d["beta"],
                                   [graphon_from_dict(p) for p in d["parts"]],
                                   clipped=d.get("clipped", False))
    raise SerializeError(f"unknown graphon kind tag {kind!r}")


# ---------------------------------------------------------------------------
# agents
# ---------------------------------------------------------------------------

def _tilt_to_dict(t: ag.TiltState) -> dict:
    return {"lambda_edge": t.lambda_edge,
            "lambda_block": (np.asarray(t.lambda_block, dtype=float).tolist()
                             if t.lambda_block is not None else None),
            "applied": t.applied}


def _tilt_from_dict(d: dict | None) -> ag.TiltState:
    if not d:
        return ag.TiltState()
    lb = d.get("lambda_block")
    return ag.TiltState(lambda_edge=d.get("lambda_edge", 0.0),
                        lambda_block=tuple(map(tuple, lb)) if lb is not None else None,
                        applied=d.get("applied", False))


def agent_to_dict(a) -> dict:
    tilt = _tilt_to_dict(a.tilt) if hasattr(a, "tilt") else None
    if isinstance(a, ag.ER):
        return {"kind": "ER", "p": a.p, "tilt": tilt}
    if isinstance(a, ag.SBM):
        return {"kind": "SBM", "assignment": list(a.assignment),
                "matrix": np.asarray(a.matrix, dtype=float).tolist(), "tilt": tilt}
    if isinstance(a, ag.RDPG):
        return {"kind": "RDPG", "positions": np.asarray(a.positions, dtype=float).tolist(),
                "intercept": a.intercept, "tilt": tilt}
    if isinstance(a, ag.ChungLu):
        return {"kind": "ChungLu", "theta": list(a.theta), "tilt": tilt}
    if isinstance(a, ag.DegHist):
        return {"kind": "DegHist", "node_bins": list(a.node_bins),
                "rates": np.asarray(a.rates, dtype=float).tolist(),
                "bin_edges": list(a.bin_edges), "tilt": tilt}
    if isinstance(a, ag.ErgmSpec):
        return {"kind": "ErgmSpec", "n": a.n, "theta": list(a.theta),
                "stats": [list(s) for s in a.stats]}
    raise SerializeError(f"cannot serialize agent kind {type(a).__name__}")


def agent_from_dict(d: dict):
    kind = d.get("kind")
    tilt = _tilt_from_dict(d.get("tilt"))
    if kind == "ER":
        return ag.ER(d["p"], tilt)
    if kind == "SBM":
        return ag.SBM.make(d["assignment"], d["matrix"], tilt)
    if kind == "RDPG":
        return ag.RDPG.make(d["positions"], d.get("intercept", 0.0), tilt)
    if kind == "ChungLu":
        return ag.ChungLu.make(d["theta"], tilt)
    if kind == "DegHist":
        return ag.DegHist.make(d["node_bins"], d["rates"], d.get("bin_edges", ()), tilt)
    if kind == "ErgmSpec":
        return ag.ErgmSpec.make([tuple(s) for s in d["stats"]], d["theta"], d["n"])
    raise SerializeError(f"unknown agent kind tag {kind!r}")


def save_model(obj, path) -> None:
    """Write a graphon or agent as a tagged JSON document."""
    to_dict = graphon_to_dict if isinstance(obj, gr.Graphon) else agent_to_dict
    doc = {"schema_version": SCHEMA_VERSION, "model": to_dict(obj)}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path):
    with open(path) as fh:
        doc = json.load(fh)
    model = doc["model"] if "model" in doc else doc
    if model.get("kind") in ("Constant", "Block", "LogisticLowRank",
                             "ProductWeight", "LinearCombo"):
        return graphon_from_dict(model)
    return agent_from_dict(model)


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------

def write_edge_list(g: GraphSample, path) -> None:
    """SNAP-style whitespace edge list with comment header."""
    with open(path, "w") as fh:
        fh.write(f"# nodes: {g.n} edges: {g.n_edges}\n")
        for i, j in g.edges:
            fh.write(f"{i}\t{j}\n")


def write_phase_curve_csv(curve: PhaseCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "mean_fraction", "sd_fraction", "n", "reps"])
        for lam, mean, sd in zip(curve.lambdas, curve.mean_fraction, curve.sd_fraction):
            writer.writerow([f"{lam:.12g}", f"{mean:.12g}", f"{sd:.12g}",
                             curve.n, curve.reps])


METRIC_CSV_HEADER = ["method", "split", "brier", "logloss", "auc", "ap", "ece",
                     "reliability", "resolution", "uncertainty", "n"]


def write_metric_reports_csv(rows, path) -> None:
    """``rows`` is a list of (method, split_key, MetricReport)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_CSV_HEADER)
        for method, split, rep in rows:
            d = rep.to_dict()
            writer.writerow([method, split] +
                            [f"{d[k]:.12g}" for k in ("brier", "logloss", "auc", "ap",
                                                      "ece", "reliability", "resolution",
                                                      "uncertainty")] + [d["n"]])


def write_gap_report_csv(report: PairedGapReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "mean_gap", "se", "ci_low", "ci_high",
                         "win_rate", "n_units"])
        for row in report.to_rows():
            writer.writerow([row["metric"]] +
                            [f"{row[k]:.12g}" for k in ("mean_gap", "se", "ci_low",
                                                        "ci_high", "win_rate")] +
                            [row["n_units"]])


def gap_report_to_json(report: PairedGapReport) -> str:
    return json.dumps({"units": list(report.units), "rows": report.to_rows()},
                      indent=2, sort_keys=True)
