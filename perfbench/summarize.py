"""Summarize benchmark records across runs.

    python3 perfbench/summarize.py [record.json ...]

Reads the records that run.py leaves under ``.perfbench_out/`` (or the
files given) and prints, per workload and metric, the median over runs and
the highest percentile with at least ten samples beyond it, with the sample
count.  Op times are pooled over every untraced op of every run, per op
kind, so ``real`` shows its edge, node and uniform regimes apart.  Runs of
one workload, seed and size must write the same data files; every op kind
whose output digests differ between such runs is listed.
"""

from __future__ import annotations

import glob
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import OUT, high_percentile


def _line(label, values) -> str:
    hp = high_percentile(values)
    tail = f"p{hp[0]:g}={hp[1]:.6g}" if hp else "p-high=n/a (<21 samples)"
    return f"  {label:34s} median={statistics.median(values):.6g}  {tail}  n={len(values)}"


def main(argv) -> int:
    paths = argv or sorted(glob.glob(str(OUT / "*.json")))
    metrics = defaultdict(lambda: defaultdict(list))
    op_walls = defaultdict(lambda: defaultdict(list))
    failures = defaultdict(lambda: [0, 0])
    digests = defaultdict(set)
    for path in paths:
        rec = json.loads(Path(path).read_text())
        key = (rec["workload"], rec["size"], rec["trace"])
        for op in rec["ops"]:
            if "digest" in op:
                digests[(rec["workload"], rec["seed"], rec["size"], op["kind"])].add(
                    op["digest"])
        for name, value in rec["metrics"].items():
            metrics[key][name].append(value)
        for kind, d in rec["kinds"].items():
            op_walls[key[:2]][kind].extend(d["wall_s"])
        failures[key][0] += rec["failed"]
        failures[key][1] += rec["attempted"]
    for (workload, size, trace), by_name in sorted(metrics.items()):
        failed, attempted = failures[(workload, size, trace)]
        print(f"{workload} size={size} trace={trace}: "
              f"{len(next(iter(by_name.values())))} runs, "
              f"{failed}/{attempted} ops failed")
        for name, values in sorted(by_name.items()):
            if any(values):     # layers this workload never calls stay silent
                print(_line(name, values))
        if not trace:
            for kind, walls in sorted(op_walls[(workload, size)].items()):
                if walls:
                    print(_line(f"op[{kind}] (pooled)", walls))
    differ = sorted(k for k, v in digests.items() if len(v) > 1)
    print(f"output digests: {len(digests) - len(differ)} of {len(digests)} "
          "(workload, seed, size, op kind) groups agree across runs")
    for workload, seed, size, kind in differ:
        print(f"  differ: {workload} seed={seed} size={size} {kind}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
