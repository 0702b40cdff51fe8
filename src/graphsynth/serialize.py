"""Structured-text serialization for models and CSV export of results.

Graphons and agents round-trip through tagged JSON documents.  Every JSON
document the package writes has the form of ``json_text``, and every CSV
goes through ``write_csv`` with a frozen header.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields

import numpy as np

from . import agents as ag
from . import graphons as gr
from .evaluation import PairedGapReport
from .sampling import GraphSample, PhaseCurve

SCHEMA_VERSION = 1


class SerializeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

GRAPHON_KINDS = {c.__name__: c for c in (gr.Constant, gr.Block, gr.LogisticLowRank,
                                          gr.ProductWeight, gr.LinearCombo)}
AGENT_KINDS = {c.__name__: c for c in (ag.ER, ag.SBM, ag.RDPG, ag.ChungLu,
                                        ag.DegHist, ag.ErgmSpec)}
# untagged dataclasses, decoded by the name of the field that holds them
FIELD_CLASSES = {"tilt": ag.TiltState, "latent": gr.StepMap, "weights": gr.StepMap}


def _encode(v):
    """JSON form of a model: dataclass fields by name (plus ``kind`` for a
    registered class), tuples and arrays as lists, numpy scalars as numbers."""
    if isinstance(v, (tuple, list, np.ndarray)):
        return [_encode(x) for x in v]
    if isinstance(v, np.generic):
        return v.item()
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    kind = type(v).__name__
    tagged = {**GRAPHON_KINDS, **AGENT_KINDS}.get(kind) is type(v)
    if not tagged and type(v) not in FIELD_CLASSES.values():
        raise SerializeError(f"cannot serialize {kind}")
    doc = {f.name: _encode(getattr(v, f.name)) for f in fields(v)}
    return dict(doc, kind=kind) if tagged else doc


def _decode(v, kinds: dict, family: str):
    """Inverse of ``_encode``: lists become tuples, and a tagged document is
    built by its class's ``make``/``from_arrays`` (else the constructor)."""
    if isinstance(v, list):
        return tuple(_decode(x, kinds, family) for x in v)
    if not isinstance(v, dict):
        return v
    kind = v.get("kind")
    if kind not in kinds:
        raise SerializeError(f"unknown {family} kind tag {kind!r}")
    cls = kinds[kind]
    try:
        args = {}
        for name, x in v.items():
            if name in FIELD_CLASSES:
                args[name] = FIELD_CLASSES[name](**{k: _decode(y, kinds, family)
                                                    for k, y in (x or {}).items()})
            elif name != "kind":
                args[name] = _decode(x, kinds, family)
        return getattr(cls, "make", getattr(cls, "from_arrays", cls))(**args)
    except TypeError as exc:
        raise SerializeError(f"malformed {kind} document: {exc}") from exc


def _to_dict(obj, kinds: dict, family: str) -> dict:
    if kinds.get(type(obj).__name__) is not type(obj):
        raise SerializeError(f"cannot serialize {family} kind {type(obj).__name__}")
    return _encode(obj)


def graphon_to_dict(w: gr.Graphon) -> dict:
    return _to_dict(w, GRAPHON_KINDS, "graphon")


def graphon_from_dict(d: dict) -> gr.Graphon:
    return _decode(d, GRAPHON_KINDS, "graphon")


def agent_to_dict(a) -> dict:
    return _to_dict(a, AGENT_KINDS, "agent")


def agent_from_dict(d: dict):
    return _decode(d, AGENT_KINDS, "agent")


def json_text(obj) -> str:
    """``obj`` as indented, sorted-key JSON with a trailing newline: the
    form of every JSON document the package writes or prints."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(obj))


def save_model(obj, path) -> None:
    """Write a graphon or agent as a tagged JSON document."""
    to_dict = graphon_to_dict if isinstance(obj, gr.Graphon) else agent_to_dict
    write_json({"schema_version": SCHEMA_VERSION, "model": to_dict(obj)}, path)


def load_model(path):
    with open(path) as fh:
        doc = json.load(fh)
    model = doc["model"] if "model" in doc else doc
    if model.get("kind") in GRAPHON_KINDS:
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


def write_csv(rows, header, path) -> None:
    """Write ``header`` and then ``rows``: floats as ``.12g``, every other
    value as ``csv.writer`` renders it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, (float, np.floating)) else v
                             for v in row])


def write_phase_curve_csv(curve: PhaseCurve, path) -> None:
    write_csv(([lam, mean, sd, curve.n, curve.reps] for lam, mean, sd in
               zip(curve.lambdas, curve.mean_fraction, curve.sd_fraction)),
              ["lambda", "mean_fraction", "sd_fraction", "n", "reps"], path)


METRIC_CSV_HEADER = ["method", "split", "brier", "logloss", "auc", "ap", "ece",
                     "reliability", "resolution", "uncertainty", "n"]


def write_metric_reports_csv(rows, path) -> None:
    """``rows`` is a list of (method, split_key, MetricReport)."""
    write_csv(([method, split, *map(rep.to_dict().get, METRIC_CSV_HEADER[2:])]
               for method, split, rep in rows), METRIC_CSV_HEADER, path)


GAP_CSV_HEADER = ["metric", "mean_gap", "se", "ci_low", "ci_high", "win_rate", "n_units"]


def write_gap_report_csv(report: PairedGapReport, path) -> None:
    write_csv(([row[k] for k in GAP_CSV_HEADER] for row in report.to_rows()),
              GAP_CSV_HEADER, path)
