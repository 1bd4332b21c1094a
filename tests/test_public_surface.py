"""Every function, class and method of the package is used by the package.

A module-level function or class, or a non-dunder method, that carries no
decorator must be referenced somewhere in ``src/mexfuse`` outside its own
body: by name, as an attribute, or in an import. Code kept only for tests
fails here; tests build what they need on the public ``tensor.node``.
Decorated definitions (properties, class methods, context managers, CLI
commands) are reached through their decorator and are not checked. The
names the benchmark wraps must exist too.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import mexfuse
from mexfuse.features import ProjectionMLP

SRC = Path(mexfuse.__file__).parent


def references(tree):
    """Names a tree refers to, with their counts."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
            if node.asname:
                out[node.asname] += 1
    return out


def checked_definitions(tree):
    """Undecorated module-level functions and classes, and their non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.decorator_list:
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.decorator_list
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        yield f"{node.name}.{item.name}", item


def unreferenced(src):
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(src.glob("*.py"))}
    everywhere = sum((references(t) for t in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for qualname, node in checked_definitions(tree):
            if everywhere[node.name] - references(node)[node.name] <= 0:
                out.append(f"{module}:{qualname}")
    return out


def test_no_definition_exists_only_for_tests():
    assert unreferenced(SRC) == []


def test_scan_flags_an_unused_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\n"
        "from b import used\n\n"
        "def unused(n):\n    return unused(n - 1) if n else used()\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.n = 0\n\n"
        "    def grow(self):\n        self.n += 1\n\n"
        "    @property\n    def size(self):\n        return self.n\n")
    (tmp_path / "b.py").write_text("def used():\n    return Box\n")
    assert unreferenced(tmp_path) == ["a.py:unused", "a.py:Box.grow"]


def calling_scopes(src, matches):
    """``module:qualname`` of every scope in ``src`` with a call for which
    ``matches(call)`` holds."""
    out = set()

    class Scan(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_scope(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_scope

        def visit_Call(self, node):
            if matches(node):
                out.add(f"{self.scope[0]}:{'.'.join(self.scope[1:])}")
            self.generic_visit(node)

    for path in sorted(src.glob("*.py")):
        Scan(path.stem).visit(ast.parse(path.read_text(), str(path)))
    return out


def callers(src, name):
    """``module:qualname`` of every scope in ``src`` that calls ``name`` or ``x.name``;
    ``name`` may be dotted, as in ``json.load``."""
    def matches(call):
        called = ast.unparse(call.func)
        return called == name or called.endswith("." + name)

    return calling_scopes(src, matches)


def passers(src, keyword, value=None, without=None):
    """``module:qualname`` of every scope in ``src`` with a call that passes
    ``keyword=`` (as the source text ``value``, when given) and not ``without=``."""
    def matches(call):
        given = {k.arg: ast.unparse(k.value) for k in call.keywords}
        return (keyword in given and value in (None, given[keyword])
                and without not in given)

    return calling_scopes(src, matches)


def test_every_product_is_counted_in_one_place():
    # the ledger counts multiply-adds in tensor.product; a direct kernel call
    # elsewhere would make a product the ledger never sees
    assert callers(SRC, "matmul2d") == {"tensor:product"}
    assert callers(SRC, "add_flops") == {"tensor:product"}


def test_composition_happens_in_one_place():
    # a pass without gradients scores through the one re-parameterised model;
    # a composition made anywhere else would be a second forward path
    assert callers(SRC, "then") == {"pipeline:ReferringModel.scoring_form"}


def maps_and_hidden_reads(src):
    """(module, positional operands, keywords) of each ``attention_map`` call in
    ``src``, and the modules that read an attribute named ``hidden``."""
    calls, reads = [], set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and \
                    ast.unparse(node.func).rpartition(".")[2] == "attention_map":
                calls.append((path.stem, len(node.args), [k.arg for k in node.keywords]))
            elif isinstance(node, ast.Attribute) and node.attr == "hidden":
                reads.add(path.stem)
    return calls, reads


def test_scoring_and_training_meet_the_same_maps():
    # every map is softmax(q k^T / sqrt(d)) of a query and its keys, made in
    # fusion's terms; no form of the model keeps terms as wide as a hidden layer
    calls, reads = maps_and_hidden_reads(SRC)
    assert calls and all(call == ("fusion", 2, []) for call in calls), calls
    assert reads == set()


def test_scan_finds_maps_and_hidden_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(p, q, k):\n    return T.attention_map(q, k, scale=2), p.hidden[0]\n")
    (tmp_path / "b.py").write_text("def g(q, k, hidden):\n    return attention_map(q, k, hidden)\n")
    assert maps_and_hidden_reads(tmp_path) == (
        [("a", 2, ["scale"]), ("b", 3, [])], {"a"})


def test_graph_recording_is_decided_in_node(tmp_path):
    # a node records a backward exactly when a parent requires a gradient, and
    # only trainable leaves require one: no mode or switch decides it
    (tmp_path / "a.py").write_text(
        "def node(d, ps, fn):\n    return T(d, requires_grad=True, _backward=fn)\n\n"
        "class L:\n"
        "    def init(self):\n        return T(0, requires_grad=True), T(1, requires_grad=x)\n")
    assert passers(tmp_path, "_backward") == {"a:node"}
    assert passers(tmp_path, "requires_grad", "True", without="_backward") == {"a:L.init"}
    assert passers(SRC, "_backward") == {"tensor:node"}
    assert passers(SRC, "requires_grad", "True", without="_backward") == \
        {"tensor:Linear.init", "pipeline:ReferringModel.load"}
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if re.search(r"\bno_grad\b|\bgrad_enabled\b", p.read_text())] == []


def test_a_projection_mlp_has_one_entry_point():
    # the benchmark wraps ProjectionMLP.__call__ alone; any other public
    # method would run an MLP that its tracer never sees
    methods = {name for name, value in vars(ProjectionMLP).items()
               if callable(value) and (name == "__call__" or not name.startswith("_"))}
    assert methods == {"__call__"}


def test_scan_finds_a_direct_call(tmp_path):
    (tmp_path / "a.py").write_text(
        "from k import matmul2d\n\n"
        "def product(a, b):\n    return k.matmul2d(a, b)\n\n"
        "class Op:\n"
        "    def run(self, a):\n"
        "        def bwd(g):\n            return matmul2d(g, a)\n"
        "        return bwd\n\n"
        "def read(fh):\n    return json.load(fh), json.loads('1'), Model.load(fh)\n")
    assert callers(tmp_path, "matmul2d") == {"a:product", "a:Op.run.bwd"}
    assert callers(tmp_path, "json.load") == {"a:read"}
    assert callers(tmp_path, "load") == {"a:read"}
    assert callers(tmp_path, "json.dump") == set()


def test_json_is_parsed_in_two_places():
    # every input file is read by config.read_json, or line by line by
    # pipeline._read_jsonl; both check each field against its kind
    assert callers(SRC, "json.load") == {"config:read_json"}
    assert callers(SRC, "json.loads") == {"pipeline:_read_jsonl"}


def test_a_missing_file_is_reported_by_its_reader():
    # a reader names a file it cannot open; a check before it would be a
    # second path to the same exit
    assert callers(SRC, "os.path.exists") == callers(SRC, "os.path.isdir") == set()


def exception_classes(src):
    """``module:name`` of each module-level class in ``src`` whose base is named
    ``*Error`` or ``*Exception``, or is such a class of the same module."""
    out = set()
    for path in sorted(src.glob("*.py")):
        found = set()
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(b).endswith(("Error", "Exception")) or ast.unparse(b) in found
                    for b in node.bases):
                found.add(node.name)
        out |= {f"{path.stem}:{name}" for name in found}
    return out


# each exception class of the program, and what it is for; a bad input file,
# whichever it is, raises config.DataFileError, so a new class for one fails here
ERRORS = {
    "config:DataFileError": "an input file that is missing, unreadable or holds a bad field",
    "config:ConfigError": "a bad config value given as an override, not in a file",
    "tensor:DimensionError": "operands whose shapes do not fit",
    "tensor:DegenerateInputError": "an empty or zero-sized input",
    "tensor:ContractError": "a gradient of the wrong shape or dtype, or a non-scalar loss",
    "pipeline:TrainingError": "training whose weights diverged",
    "cli:InputError": "reports any of the above with exit code 2",
}


def test_one_exception_class_for_a_bad_input_file():
    assert exception_classes(SRC) == set(ERRORS)


def test_scan_finds_exception_classes(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Bad(ValueError):\n    pass\n\n"
        "class Worse(Bad):\n    pass\n\n"
        "class Exit(click.ClickException):\n    pass\n\n"
        "class Box:\n    pass\n")
    assert exception_classes(tmp_path) == {"a:Bad", "a:Worse", "a:Exit"}


# perfbench/tracing.py wraps program functions by name and calls some
# directly; a wrap whose target is gone leaves its per-layer metric reading
# 0 without an error, and a direct call to a missing function fails the
# call's metrics (their record says "unavailable"). These targets are gone
# from src, and the benchmark has yet to drop them.
TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"
KNOWN_ABSENT = {
    "mexfuse.fusion:fuse": "removed with the full fused stream",
    "mexfuse.fusion:st_pool": "removed with the full fused stream",
    "mexfuse.fusion:score": "removed with the full fused stream",
    "mexfuse.fusion:profile": "bench measures the pass score_all runs; the block-level "
                              "counts are tests/test_fusion.py::block_counts",
}


def benchmark_targets(source):
    """``module:qualname`` of each program function a benchmark file names in a
    ``"mexfuse.<module>:<name>"`` string, or calls through a name it imports
    from ``mexfuse`` (``fusion.profile(...)``, ``profile(...)``)."""
    targets = set(re.findall(r'"(mexfuse\.\w+:[\w.]+)"', source))
    tree = ast.parse(source)
    modules, functions = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "mexfuse":
            modules |= {a.asname or a.name: f"mexfuse.{a.name}" for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mexfuse."):
            functions |= {a.asname or a.name: f"{node.module}:{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name: a.name for a in node.names
                        if a.name.startswith("mexfuse.")}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            owner, _, name = ast.unparse(node.func).rpartition(".")
            if owner in modules:
                targets.add(f"{modules[owner]}:{name}")
            elif not owner and name in functions:
                targets.add(functions[name])
    return targets


def resolves(target):
    module, qualname = target.split(":")
    obj = importlib.import_module(module)
    try:
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except AttributeError:
        return False
    return True


def test_every_benchmark_wrap_target_resolves():
    targets = benchmark_targets(TRACING.read_text())
    assert len(targets) >= 10, targets
    assert {t for t in targets if not resolves(t)} == set(KNOWN_ABSENT)


def test_scan_finds_benchmark_calls():
    source = (
        "import mexfuse.tensor as T\n"
        "from mexfuse import fusion, pipeline as P\n"
        "from mexfuse.cli import main\n\n"
        "WRAPS = (\"mexfuse.features:ProjectionMLP.__call__\",)\n\n"
        "def run():\n"
        "    fusion.profile(1)\n"
        "    P.score_all()\n"
        "    T.node(main(), fusion)\n"
        "    other.profile(2)\n")
    assert benchmark_targets(source) == {
        "mexfuse.features:ProjectionMLP.__call__", "mexfuse.fusion:profile",
        "mexfuse.pipeline:score_all", "mexfuse.tensor:node", "mexfuse.cli:main"}
