"""graphsynth benchmark: one workload per fresh process.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; graphsynth is imported from
``src/``.  The run warms up on smoke-size inputs, times whole rounds of the
workload's ops for about ``--seconds``, checks every op's outputs after the
timed region, and prints one JSON object as the last line of standard
output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``op_s``, ``peak_rss_mb``, ``pass_ratio``).  ``op_s`` sums, over the
workload's timed op kinds, the median wall time of that kind's untraced
ops that passed their checks; the lines above the result give each kind's
time under its own name (``s1_s``, ``real_edge_s``, ...).
``peak_rss_mb`` is the process's peak resident memory through the first
round.  With
``--trace 1`` rounds alternate between untraced and traced, and the metrics
are the per-layer self times and counters per traced round, the per-module
import times, and the tracing overhead.  A line starting with
``perfbench-record`` holds the full record (per-op times, digests, machine,
load average); the same record and the trace spans are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import env
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = {"full": 5, "smoke": 2}
IMPORTTIME_REPEATS = {"full": 3, "smoke": 1}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: reduced inputs for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_graphsynth():
    """Import graphsynth from this checkout's src/, never from elsewhere."""
    if not (SRC / "graphsynth" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no graphsynth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphsynth
    if Path(graphsynth.__file__).resolve().parent != SRC / "graphsynth":
        raise SystemExit(f"perfbench: imported graphsynth from {graphsynth.__file__}")


def high_percentile(values, beyond=10):
    """Highest percentile with at least ``beyond`` samples above it, as
    (percent, value), or None when it would not lie above the median."""
    xs = sorted(values)
    k = len(xs) - beyond - 1
    if k < len(xs) // 2:
        return None
    return (round(100.0 * (k + 1) / len(xs), 1), xs[k])


def warm_up(wl, work, seed) -> None:
    """Run each ``warm`` op once, untimed, on smoke-size inputs, so that lazy
    imports and first-call costs fall outside the timed ops.  An error here
    is left to the timed ops, which meet it again and count it."""
    warm = os.path.join(work, "warm-up")
    os.mkdir(warm)
    inputs = wl.prepare(warm, seed, "smoke")
    for spec in wl.round:
        if spec.warm:
            try:
                spec.run(inputs, os.path.join(warm, spec.kind))
            except Exception:
                pass


def run_ops(wl, inputs, work, seconds, trace, tracer, resolved):
    """Repeat whole rounds for about ``seconds``: another round starts only
    if, at the median round time so far, it would end less than half a
    round past the deadline.  Traced runs alternate untraced and traced
    rounds and decide after each pair."""
    ops, round_s = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = trace and rounds % 2 == 1
        t_round = time.perf_counter()
        for spec in wl.round:
            idx = len(ops)
            out = os.path.join(work, f"op{idx}")
            op = {"id": idx, "kind": spec.kind, "round": rounds, "traced": traced,
                  "error": None, "nondeterministic": False, "result": None}
            if traced:
                tracer.op = idx
                tracer.install(resolved)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                op["result"] = spec.run(inputs, out)
            except Exception as exc:  # an op failure is a measured outcome
                op["error"] = f"{type(exc).__name__}: {exc}"
                op["traceback"] = traceback.format_exc(limit=4)
            op["wall_s"] = time.perf_counter() - t0
            op["cpu_s"] = time.process_time() - c0
            op["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if traced:
                tracer.uninstall()
            ops.append(op)
        round_s.append(time.perf_counter() - t_round)
        rounds += 1
        if trace and rounds % 2:
            continue
        unit = statistics.median(round_s) * (2 if trace else 1)
        if time.perf_counter() - start + unit / 2 >= seconds:
            return ops


def check_ops(wl, inputs, ops) -> bool:
    """Check the outputs of every op that ran; returns whether all passed.

    An op whose outputs break a tolerance gets an error.  All ops of one
    kind share inputs, so an op whose data files differ from the first op
    of its kind is marked nondeterministic: it counts as failed, but its
    outputs passed their checks, so it keeps its time and the run stays
    correct."""
    specs = {spec.kind: spec for spec in wl.round}
    cache, digests, correct = {}, {}, True
    for op in ops:
        if op["error"]:
            continue
        spec = specs[op["kind"]]
        try:
            problems = spec.check(inputs, op["result"], cache)
            op["digest"] = spec.digest(op["result"])
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            op["error"], correct = "; ".join(problems), False
        elif op["digest"] != digests.setdefault(op["kind"], op["digest"]):
            op["nondeterministic"] = True
    return correct


def failed(op) -> bool:
    return bool(op["error"]) or op["nondeterministic"]


def summarize_ops(ops) -> dict:
    """Per op kind: attempted, failed, and the wall times of the untraced
    ops that passed their checks, with their median and high percentile."""
    by_kind = {}
    for op in ops:
        d = by_kind.setdefault(op["kind"], {"attempted": 0, "failed": 0, "wall_s": []})
        d["attempted"] += 1
        d["failed"] += failed(op)
        if not op["error"] and not op["traced"]:
            d["wall_s"].append(op["wall_s"])
    for d in by_kind.values():
        d["median_s"] = statistics.median(d["wall_s"]) if d["wall_s"] else None
        d["high_percentile"] = high_percentile(d["wall_s"])
    return by_kind


def trace_metrics(ops, tracer, breakdown) -> dict:
    """Per-layer metrics per traced round, the tracing overhead (traced over
    untraced wall time; the run has as many rounds of each) and coverage
    (span self time over traced wall time)."""
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    rounds = len({op["round"] for op in traced})
    totals = tracing.layer_totals(tracer.spans, tracer.counts, [op["id"] for op in traced])
    metrics = {name: value / rounds for name, value in totals.items()}
    self_by_op = {}
    for span, self_s in zip(tracer.spans, tracing.self_times(tracer.spans)):
        self_by_op[span.op] = self_by_op.get(span.op, 0.0) + self_s
    for op in traced:
        op["span_self_s"] = self_by_op.get(op["id"], 0.0)
    traced_wall = sum(op["wall_s"] for op in traced)
    metrics["trace.overhead"] = traced_wall / sum(op["wall_s"] for op in untraced)
    metrics["trace.coverage"] = sum(self_by_op.values()) / traced_wall
    metrics.update(breakdown)
    return metrics


def named_lines(kinds, setup_s, peak_rss_mb, attempted, n_failed) -> list:
    """The end-to-end metrics by the names the op kinds give them
    (``s1_s``, ``real_edge_s``, ...), for the log above the result line."""
    lines = [f"setup_s {setup_s:.4f} s (median of fresh imports)",
             f"peak_rss_mb {peak_rss_mb:.1f} MB",
             f"fail_ratio {n_failed / attempted:.4f} ratio ({n_failed} of {attempted} ops)"]
    for kind, d in kinds.items():
        if d["median_s"] is None:
            lines.append(f"{kind}_s not reported: none of {d['attempted']} ops passed")
            continue
        hp = d["high_percentile"]
        tail = f", p{hp[0]:g} {hp[1]:.4f} s" if hp else ""
        lines.append(f"{kind}_s {d['median_s']:.4f} s (median of {len(d['wall_s'])}"
                     f"{tail}; {d['failed']} of {d['attempted']} ops failed)")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    import_graphsynth()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size,
              "loadavg_before": os.getloadavg(), "machine": env.machine_record(ROOT)}

    tracer, resolved, breakdown = tracing.Tracer(), None, {}
    if args.trace:
        resolved = tracing.resolve_wraps()
        runs = [env.import_breakdown(SRC) for _ in range(IMPORTTIME_REPEATS[args.size])]
        breakdown = {name: statistics.median(r.get(name, 0.0) for r in runs)
                     for name in env.setup_metric_names()}
        record["import_breakdown_runs"] = runs
    else:
        record["setup_runs_s"] = env.time_imports(SRC, SETUP_REPEATS[args.size])

    work = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = wl.prepare(str(work), args.seed, args.size)
        warm_up(wl, str(work), args.seed)
        ops = run_ops(wl, inputs, str(work), args.seconds, args.trace, tracer, resolved)
        # A verb runs once per process, so memory is read after the first
        # round; later rounds raise the peak by heap fragmentation alone.
        peak_rss_mb = max(op["maxrss_mb"] for op in ops if op["round"] == 0)
        correct = check_ops(wl, inputs, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops)
    n_failed = sum(map(failed, ops))
    kinds = summarize_ops(ops)
    untimed = [k for k in wl.timed if kinds[k]["median_s"] is None]
    if untimed:
        metrics, units = {}, {}
    elif args.trace:
        metrics = trace_metrics(ops, tracer, breakdown)
        units = {name: ("s" if name.endswith("_s") else
                        "ratio" if name.startswith("trace.") else "count")
                 for name in metrics}
    else:
        metrics = {"setup_s": statistics.median(record["setup_runs_s"]),
                   "op_s": sum(kinds[k]["median_s"] for k in wl.timed),
                   "peak_rss_mb": peak_rss_mb,
                   "pass_ratio": (attempted - n_failed) / attempted}
        units = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}
        for line in named_lines(kinds, metrics["setup_s"], peak_rss_mb, attempted,
                                n_failed):
            print(line)

    record.update({
        "loadavg_after": os.getloadavg(), "correct": correct,
        "deterministic": not any(op["nondeterministic"] for op in ops),
        "attempted": attempted, "failed": n_failed, "kinds": kinds, "metrics": metrics,
        "ops": [{k: v for k, v in op.items() if k != "result"} for op in ops]})
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    print("perfbench-record " + json.dumps(record, sort_keys=True))
    if untimed:
        print(f"perfbench: no untraced {'/'.join(untimed)} op passed; nothing to time",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": n_failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
