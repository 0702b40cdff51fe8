"""JSON, edge-list and CSV export of results.

Every JSON document the package writes has the form of ``json_text``, and
every CSV goes through ``write_csv`` with a frozen header.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .evaluation import PairedGapReport
from .sampling import GraphSample, PhaseCurve


def json_text(obj) -> str:
    """``obj`` as indented, sorted-key JSON with a trailing newline: the
    form of every JSON document the package writes or prints."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(obj))


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
