"""Every name ``graphsynth`` exports has a reader outside its own definition.

A reader is a whole-word use of the name in the package's modules, the
demos, the benchmark harness or the acceptance suite, on any line other
than the name's own ``def`` or ``class`` line.  Unit tests do not count: a
name only they read is a writer nothing calls.  The allowlist names the
exports known to have no reader yet, and it can only shrink: a listed name
that gains a reader fails here until it is taken off the list.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphsynth"

UNREAD = {
    "edge_tilt_weights": "enumeration oracle for the edge-tilt tests",
    "stat_tilt_weights": "enumeration oracle for the statistic-tilt tests",
    "er_as_ergm": "enumeration oracle: ER as an edge-count exponential family",
    "ergm_stack_tilt": "log-linear pooling; no experiment verb runs it yet",
    "mixture_pmf": "mixture synthesis at enumeration scale; no experiment verb runs it yet",
    "polynomial_tilt_exponent_bracket": "heavy-tail bracket; no experiment verb checks it yet",
    "verify_tail_bracket": "heavy-tail bracket; no experiment verb checks it yet",
}


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def reader_lines() -> list[str]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += sorted((ROOT / "perfbench").rglob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return [line for p in files for line in p.read_text().splitlines()]


def test_every_export_has_a_reader_or_a_reason():
    lines = reader_lines()
    unread = set()
    for name in exported_names():
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unread.add(name)
    assert sorted(unread - UNREAD.keys()) == [], "exports with no reader"
    assert sorted(UNREAD.keys() - unread) == [], "allowlisted exports that now have a reader"
