"""Every public name of ``graphsynth`` has a reader: code that runs.

The public names are the public module-level functions and classes of the
package's modules, exported by ``__init__`` or not, and the public methods
and properties of those classes (``Class.method``).  A reader is an
``ast.Name`` or ``ast.Attribute`` load of the name, or an import alias of
it, in the package's modules outside the name's own definition, in the
demos or in the acceptance suite.  Docstrings, comments and annotations do
not run, so they read nothing; unit tests do not count either, since a
name only they read is a writer nothing calls.  A method matches any
attribute load of its name, whatever the object.

``UNREAD`` names the public names known to have no reader, and
``BENCHMARK_ONLY`` those whose only reader is the benchmark harness under
``perfbench/``, each with its reason.  Both can only shrink: a listed name
that gains a reader fails here until it is taken off its list.

The same holds one level down, for the parameters of public functions and
methods: every parameter with a default is passed by some call in those
readers, or it is an option nothing sets.  A call passes a parameter by
naming it as a keyword or by giving enough positional arguments to reach
it; a ``*args`` or ``**kwargs`` argument passes every parameter it could
reach.  Calls match on the callee's name, or on the name it aliases in an
import, as methods do above.  ``UNPASSED`` lists the parameters known to
be passed only by unit tests, and can only shrink.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphsynth"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
BENCHMARK = sorted((ROOT / "perfbench").rglob("*.py"))

UNREAD = {
    "stat_tilt_weights": "enumeration oracle for the statistic-tilt tests",
    "er_as_ergm": "enumeration oracle: ER as an edge-count exponential family",
    "ergm_stack_tilt": "log-linear pooling; no experiment verb runs it yet",
    "mixture_pmf": "mixture synthesis at enumeration scale; no experiment verb runs it yet",
    "polynomial_tilt_exponent_bracket": "heavy-tail bracket; no experiment verb checks it yet",
    "verify_tail_bracket": "heavy-tail bracket; no experiment verb checks it yet",
}

BENCHMARK_ONLY = {
    "centralities": "the graph workload's structure op; deleting it changes that workload",
    "Block.from_arrays": "builds the real workload's probe graphon; deleting it changes that workload",
}

UNPASSED = {
    "calibrate_moment.n": "ER calibration needs the vertex count; only unit tests calibrate an ER",
}


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def definitions() -> dict:
    """Public name -> (file, its definition's ``ast`` node)."""
    found = {}
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            assert node.name not in found, f"{node.name} is defined in two modules"
            found[node.name] = (path, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{node.name}.{item.name}"] = (path, item)
    assert set(exported_names()) <= found.keys(), \
        "exports defined outside the package's modules"
    return found


def outside(path: Path, line: int, definition) -> bool:
    """Whether ``line`` of ``path`` lies outside ``definition``, a
    (file, node) pair."""
    own, node = definition
    return not (path == own and node.lineno <= line <= node.end_lineno)


def reads(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every load and import alias in ``path``, annotations
    left out."""
    tree = ast.parse(path.read_text())
    annotations = set()
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.AST):
                annotations.update(map(id, ast.walk(ann)))
    out = []
    for node in ast.walk(tree):
        if id(node) in annotations:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.append((node.name, node.lineno))
    return out


def readers_of(files) -> dict:
    """Public name -> whether some load in ``files`` reads it."""
    defs = definitions()
    by_name = {}
    for key in defs:
        by_name.setdefault(key.rpartition(".")[2], []).append(key)
    read = dict.fromkeys(defs, False)
    for path in files:
        for name, line in reads(path):
            for key in by_name.get(name, ()):
                if outside(path, line, defs[key]):
                    read[key] = True
    return read


def unread_names() -> tuple[set, set]:
    """(names nothing reads, names only the benchmark reads)."""
    read, by_benchmark = readers_of(READERS), readers_of(BENCHMARK)
    unread = {key for key, r in read.items() if not r}
    return ({key for key in unread if not by_benchmark[key]},
            {key for key in unread if by_benchmark[key]})


def test_every_export_has_a_reader_or_a_reason():
    unread, _ = unread_names()
    assert sorted(unread - UNREAD.keys()) == [], "public names with no reader"
    assert sorted(UNREAD.keys() - unread) == [], "allowlisted names that now have a reader"


def test_benchmark_only_names_are_listed():
    _, only = unread_names()
    assert sorted(only - BENCHMARK_ONLY.keys()) == [], "public names only the benchmark reads"
    assert sorted(BENCHMARK_ONLY.keys() - only) == [], \
        "benchmark-only names that now have a reader, or none"


def defaulted_parameters(node: ast.FunctionDef, is_method: bool) -> dict:
    """Parameter name -> its position among the positional parameters
    (None for keyword-only ones), for every parameter with a default; a
    method's ``self`` or ``cls`` takes no position."""
    positional = node.args.posonlyargs + node.args.args
    if is_method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list):
        positional = positional[1:]
    out = {a.arg: i for i, a in enumerate(positional)
           if i >= len(positional) - len(node.args.defaults)}
    out.update({a.arg: None for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if d is not None})
    return out


def unpassed_parameters() -> set:
    """``name.parameter`` of every defaulted parameter of a public
    function or method that no call in the readers passes."""
    defs = definitions()
    params = {key: defaulted_parameters(node, "." in key) for key, (_, node) in defs.items()
              if isinstance(node, ast.FunctionDef) and key not in UNREAD}
    passed = {key: set() for key in params}
    for path in READERS:
        tree = ast.parse(path.read_text())
        # a call through an import alias calls the imported name
        aliases = {alias.asname: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for alias in node.names if alias.asname}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            callee = aliases.get(callee, callee)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            names = {kw.arg for kw in call.keywords}
            for key, wanted in params.items():
                if key.rpartition(".")[2] != callee or not outside(path, call.lineno, defs[key]):
                    continue
                passed[key].update(
                    name for name, pos in wanted.items()
                    if name in names or None in names
                    or (pos is not None and (starred or pos < len(call.args))))
    return {f"{key}.{name}" for key, wanted in params.items()
            for name in wanted if name not in passed[key]}


def test_every_defaulted_parameter_is_passed_or_listed():
    unpassed = unpassed_parameters()
    assert sorted(unpassed - UNPASSED.keys()) == [], "options that no reader sets"
    assert sorted(UNPASSED.keys() - unpassed) == [], "allowlisted parameters that are now passed"


def config_setters(path: Path, skip=()) -> set:
    """The string keys that ``path`` sets: dict keys, assigned subscript
    keys and call keywords, outside the line ranges of the nodes in
    ``skip``."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if any(s.lineno <= getattr(node, "lineno", 0) <= s.end_lineno for s in skip):
            continue
        if isinstance(node, ast.keyword):
            out.add(node.arg)
            continue
        keys = (node.keys if isinstance(node, ast.Dict)
                else [node.slice] if isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store) else [])
        out.update(k.value for k in keys
                   if isinstance(k, ast.Constant) and isinstance(k.value, str))
    return out


def test_every_config_field_is_set_by_a_run():
    """Every ``ExperimentConfig`` field is set by some reader other than a
    unit test: a key that only tests set is a value no run varies, and
    belongs in a module constant.  The package's own rule table and the
    class body name every field, so they set nothing here."""
    source = PACKAGE / "experiments.py"
    tree = ast.parse(source.read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig")
    rules = next(node for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "_CONFIG_RULES" for t in node.targets))
    fields = [item.target.id for item in cls.body if isinstance(item, ast.AnnAssign)]
    set_keys = config_setters(source, skip=(cls, rules))
    # the benchmark harness, without its own tests
    for path in READERS + [p for p in BENCHMARK if p.parent.name != "tests"]:
        if path != source:
            set_keys |= config_setters(path)
    assert [f for f in fields if f not in set_keys] == [], "config fields only tests set"
