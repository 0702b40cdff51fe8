"""Command-line entry point for the experiment suite.

Verbs: s1, s2, s3, s4, real (run an experiment), report (paired gaps from a
metrics CSV), audit (split hygiene on an edge list).  Exit code 0 on
success; nonzero with a stage-tagged message on failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .evaluation import MetricReport, make_split, paired_gaps
from .experiments import (EXPERIMENTS, SPLIT_REGIMES, ConfigError, ExperimentConfig,
                          StageFailure, load_edge_list, run_experiment)
from .serialize import METRIC_CSV_HEADER, json_text, write_gap_report_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsynth",
        description="Graphon-level predictive synthesis experiment suite")
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, desc in (("s1", "synthetic one-shot comparison"),
                       ("s2", "learning curve over the n grid"),
                       ("s3", "giant-component phase sweep"),
                       ("s4", "heavy-tail exponent sweep"),
                       ("real", "real edge-list protocol")):
        p = sub.add_parser(verb, help=desc)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="JSON config file with explicit keys")
        p.add_argument("--seed", metavar="U64", type=int, default=None,
                       help="base seed override")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory override")
        if verb == "real":
            p.add_argument("--dataset", metavar="PATH", default=None,
                           help="SNAP-style edge list (overrides config)")

    p = sub.add_parser("report", help="paired-gap report from a metrics CSV")
    p.add_argument("metrics_csv", help="CSV written by a run (method,split,...)")
    p.add_argument("--baseline", default="BestAgent")
    p.add_argument("--method", default="BPS_LS")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="output directory (default: the metrics CSV's directory)")

    p = sub.add_parser("audit", help="split-hygiene audit on an edge list")
    p.add_argument("edge_list", help="SNAP-style edge list file")
    p.add_argument("--regime", choices=list(SPLIT_REGIMES) + ["all"], default="all")
    p.add_argument("--seed", metavar="U64", type=int, default=0, help="split seed")
    return parser


def _load_config(args, experiment: str) -> ExperimentConfig:
    base = {"experiment": experiment}
    if args.config:
        cfg = ExperimentConfig.from_file(args.config)
        base = cfg.to_dict()
        base["experiment"] = experiment
    if args.seed is not None:
        base["base_seed"] = args.seed
    if args.out is not None:
        base["out_dir"] = args.out
    if getattr(args, "dataset", None):
        base["dataset"] = args.dataset
    return ExperimentConfig.from_dict(base)


def _cmd_run(args) -> int:
    config = _load_config(args, args.verb)
    manifest = run_experiment(config)
    print(f"{args.verb}: wrote {len(manifest.outputs)} files under "
          f"{os.path.join(config.out_dir, config.experiment)}")
    return 0


def _read_metrics_csv(path):
    """method -> split -> MetricReport from a metrics CSV; ValueError when a
    column is missing, a value is malformed or a (method, split) repeats."""
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [k for k in METRIC_CSV_HEADER if k not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        for record in reader:
            try:
                rep = MetricReport(
                    brier=float(record["brier"]), logloss=float(record["logloss"]),
                    auc=float(record["auc"]), ap=float(record["ap"]),
                    ece=float(record["ece"]),
                    murphy=(float(record["reliability"]), float(record["resolution"]),
                            float(record["uncertainty"])),
                    reliability_bins=(), n=int(record["n"]))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{reader.line_num}: malformed row") from exc
            by_split = rows.setdefault(record["method"], {})
            if record["split"] in by_split:
                raise ValueError(f"{path}:{reader.line_num}: repeated row for "
                                 f"({record['method']}, {record['split']})")
            by_split[record["split"]] = rep
    return rows


def _cmd_report(args) -> int:
    scores = _read_metrics_csv(args.metrics_csv)
    for name in (args.baseline, args.method):
        if name not in scores:
            raise StageFailure("report", f"method {name!r} not found in "
                               f"{sorted(scores)}")
    report = paired_gaps(scores[args.baseline], scores[args.method])
    out_dir = args.out or os.path.dirname(os.path.abspath(args.metrics_csv))
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "paired_gaps.csv")
    write_gap_report_csv(report, csv_path)
    sys.stdout.write(json_text(report.to_dict()))
    print(f"report: wrote {csv_path}")
    return 0


def _cmd_audit(args) -> int:
    graph, _ = load_edge_list(args.edge_list)
    regimes = list(SPLIT_REGIMES) if args.regime == "all" else [args.regime]
    for regime in regimes:
        try:
            split = make_split(graph, regime, args.seed)
        except Exception as exc:
            raise StageFailure("audit", f"{regime}: {exc}") from exc
        print(f"audit {regime}: OK "
              f"(train={len(split.train_labels)}, val={len(split.val_labels)}, "
              f"test={len(split.test_labels)}, "
              f"test positive rate={split.test_positive_rate:.4f})")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb in EXPERIMENTS:
            return _cmd_run(args)
        if args.verb == "report":
            return _cmd_report(args)
        if args.verb == "audit":
            return _cmd_audit(args)
        raise StageFailure("cli", f"unknown verb {args.verb!r}")
    except StageFailure as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        # an OSError's message names the file it could not open
        print(f"[{args.verb}] {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
