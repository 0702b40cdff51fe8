"""Tests of the benchmark itself: span arithmetic, metric names, the wrap
list, and a seconds-long smoke run of every workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import env  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_self_time_on_hand_built_tree():
    # root [0,10] has children a [1,4] and b [5,9]; a has child c [2,3];
    # d [6,8] is a child of b, e [20,21] is a second root
    spans = [Span("root", 0.0, 10.0, -1, 0), Span("a", 1.0, 4.0, 0, 0),
             Span("c", 2.0, 3.0, 1, 0), Span("b", 5.0, 9.0, 0, 0),
             Span("d", 6.0, 8.0, 3, 0), Span("e", 20.0, 21.0, -1, 1)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 2.0, 1.0])
    # the self times of one op add up to its root span
    assert sum(self_times(spans)[:5]) == pytest.approx(10.0)


def test_self_time_clips_overlapping_children():
    spans = [Span("p", 0.0, 4.0, -1, 0), Span("x", 1.0, 3.0, 0, 0),
             Span("y", 2.0, 5.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_layer_totals_sum_over_traced_ops():
    spans = [Span("cli.main", 0.0, 2.0, -1, 0), Span("sampling.sample_graph", 0.5, 1.5, 0, 0),
             Span("cli.main", 3.0, 7.0, -1, 1), Span("cli.main", 8.0, 9.0, -1, 2)]
    totals = tracing.layer_totals(spans, {(0, "sampling.sample_graph.edges"): 10,
                                          (2, "sampling.sample_graph.edges"): 7}, [0, 1])
    assert totals["cli.main.self_s"] == pytest.approx(1.0 + 4.0)
    assert totals["sampling.sample_graph.self_s"] == pytest.approx(1.0)
    assert totals["sampling.sample_graph.edges"] == 10
    assert totals["netstats.centralities.self_s"] == 0.0


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names
    assert len(names) == len(set(names))


def test_per_layer_list_matches_the_tracer():
    produced = (tracing.layer_metric_names() + env.setup_metric_names()
                + ["trace.overhead", "trace.coverage"])
    assert [m["name"] for m in SPEC["per_layer"]] == produced


def test_wrap_list_resolves_on_this_tree():
    resolved = tracing.resolve_wraps()
    assert len(resolved) == len(tracing.WRAPS)


def test_unresolvable_wrap_is_a_hard_error(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPS", tracing.WRAPS + (
        tracing.Wrap("experiments", "no_such_function", "experiments", "experiments.x"),))
    with pytest.raises(LookupError):
        tracing.resolve_wraps()


def test_install_and_uninstall_restore_call_sites():
    from graphsynth import Constant, experiments, sampling
    before = (experiments.fit_logistic_stack, sampling.giant_fraction)
    tracer = Tracer()
    tracer.install(tracing.resolve_wraps())
    try:
        assert experiments.fit_logistic_stack is not before[0]
        g = sampling.sample_sparse_graph(Constant(1.0), 200, 2.0, 0)
        sampling.giant_fraction(g)
    finally:
        tracer.uninstall()
    assert (experiments.fit_logistic_stack, sampling.giant_fraction) == before
    assert [s.name for s in tracer.spans] == ["sampling.sample_sparse_graph",
                                              "sampling.giant_fraction"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == "1":
        assert result["metrics"]["cli.main.self_s"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] is True, proc.stdout[-2000:]
    record = json.loads(next(line for line in proc.stdout.splitlines()
                             if line.startswith("perfbench-record "))[17:])
    for op in record["ops"]:
        if op["error"]:
            # the one known failure: uniform_dyads' stacking design is
            # rank-deficient on the probe graph
            assert (op["kind"], "Gram eigenvalue" in op["error"]) == (
                "real_uniform", True), op["error"]
        if op["nondeterministic"]:
            # real's spectral agent fits differ from call to call
            assert workload == "real", op


def _op(kind, result, error=None):
    return {"kind": kind, "result": result, "error": error, "nondeterministic": False,
            "traced": False, "wall_s": 1.0}


def test_checks_fail_bad_outputs_and_mark_nondeterministic_repeats():
    check = lambda inputs, result, cache: [] if result >= 0 else ["neg"]  # noqa: E731
    wl = SimpleNamespace(round=tuple(SimpleNamespace(kind=k, check=check, digest=str)
                                     for k in "ab"))
    ops = [_op("a", 1), _op("a", 1), _op("a", 2), _op("a", -1), _op("b", 5),
           _op("a", None, "OpFailed: exit 2")]
    assert run.check_ops(wl, None, ops) is False
    assert [run.failed(op) for op in ops] == [False, False, True, True, False, True]
    assert ops[2]["nondeterministic"] and not ops[2]["error"]
    assert ops[3]["error"] == "neg"
    # a nondeterministic op that passed its checks keeps its time
    assert run.summarize_ops(ops)["a"]["wall_s"] == [1.0, 1.0, 1.0]
    assert run.check_ops(wl, None, ops[:3]) is True


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "synth", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
