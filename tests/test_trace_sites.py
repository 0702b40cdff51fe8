"""Every call site the benchmark's tracer wraps still holds the function it
expects, so a refactor that moves a wrapped call fails here, not only in
the benchmark's own suite."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_call_site_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    resolved = tracing.resolve_wraps()
    assert [w for _, w, _ in resolved] == list(tracing.WRAPS)
