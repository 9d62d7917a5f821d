"""Imports between trustprop modules only go down the layer order."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trustprop"

# vectorspace -> graph -> operators/gates -> propagation -> retrieval ->
# harness -> files/cli.  A module may import modules at its own layer or
# below; errors sits beneath everything, so any module may import it.
# The package __init__ re-exports the public names and is not layered.
LAYERS = {
    "errors": 0,
    "vectorspace": 1,
    "graph": 2,
    "operators": 3,
    "gates": 3,
    "propagation": 4,
    "retrieval": 5,
    "harness": 6,
    "files": 7,
    "cli": 7,
}


def _trustprop_imports(path):
    """Names of the trustprop modules that a source file imports."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("trustprop"):
                parts = node.module.split(".")[1:]
            elif node.level == 1:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            if parts:
                yield parts[0]
            else:  # from . import x
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "trustprop" and len(parts) > 1:
                    yield parts[1]


def test_imports_go_down_the_layers():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS), "every trustprop module needs a layer"
    upward = [
        f"{module} imports {target}"
        for module in sorted(modules)
        for target in _trustprop_imports(PACKAGE / f"{module}.py")
        if LAYERS[target] > LAYERS[module]
    ]
    assert upward == []


def _private_numeric_imports(path):
    """(line, dotted name) of each numpy or scipy import with a part starting with ``_``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            # from scipy.sparse import _sparsetools imports a private module too
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] in ("numpy", "scipy") and any(p.startswith("_") for p in parts):
                yield node.lineno, name


def test_no_private_numpy_or_scipy_module_is_imported():
    # Private modules (numpy._core, scipy.sparse._sparsetools) change
    # without notice between releases.
    private = [
        f"{path.stem}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _private_numeric_imports(path)
    ]
    assert private == []


ENGINE_INPUT_BUILDERS = {"build_domain_matrices", "build_negative_matrices", "centroids_from_agents"}


def _called_names(path):
    """Names of the functions and methods that a source file calls."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield node.func.id
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr


def test_only_propagation_builds_engine_inputs():
    # run() builds the domain matrices, flag matrix and centroids its config
    # needs, so no other module decides how to build them.
    builders = [
        f"{path.stem} calls {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "propagation"
        for name in _called_names(path)
        if name in ENGINE_INPUT_BUILDERS
    ]
    assert builders == []


def _negated_sort_keys(path):
    """Line numbers of ``sorted(..., key=lambda ...: (-x, ...))`` calls."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "sorted":
            for kw in node.keywords:
                body = kw.value.body if isinstance(kw.value, ast.Lambda) else None
                if (
                    kw.arg == "key"
                    and isinstance(body, ast.Tuple)
                    and body.elts
                    and isinstance(body.elts[0], ast.UnaryOp)
                    and isinstance(body.elts[0].op, ast.USub)
                ):
                    yield node.lineno


def test_score_orderings_go_through_ranked():
    # "score descending, id ascending" has one implementation,
    # retrieval.ranked; a sorted() keyed on a negated score is a second one.
    copies = [
        f"{path.stem}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _negated_sort_keys(path)
    ]
    assert copies == []


def _axis_norms(path):
    """Line numbers of ``linalg.norm`` calls given an ``axis``, by keyword or
    as the third positional argument."""
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "norm"
            and (
                isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "linalg"
                or isinstance(node.func.value, ast.Name) and node.func.value.id == "linalg"
            )
            and (any(kw.arg == "axis" for kw in node.keywords) or len(node.args) >= 3)
        ):
            yield node.lineno


def test_row_norms_go_through_vectorspace():
    # vectorspace.overflow_safe_norms is the one float64 rule for an L2 row
    # norm; a plain np.linalg.norm(x, axis=1) elsewhere overflows to inf
    # where the rule gives a finite norm.
    copies = [
        f"{path.stem}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "vectorspace"
        for line in _axis_norms(path)
    ]
    assert copies == []


def _json_parses(path):
    """(function, line) of each ``json``/``orjson`` ``loads`` or ``load`` call."""
    tree = ast.parse(path.read_text())
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner[node] = func.name  # walk reaches inner functions last
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("loads", "load")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("json", "orjson")
        ):
            yield owner.get(node, "<module>"), node.lineno
        if isinstance(node, ast.ImportFrom) and node.module in ("json", "orjson"):
            if any(alias.name in ("loads", "load") for alias in node.names):
                yield "<import>", node.lineno


def test_json_is_parsed_by_one_reader():
    # files._loads tries orjson and falls back to json.loads for what orjson
    # rejects; a second parser would skip that fallback or the error wrapping.
    parses = [
        f"{path.stem}.{func}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for func, line in _json_parses(path)
        if (path.stem, func) != ("files", "_loads")
    ]
    assert parses == []
    assert sorted(func for func, _ in _json_parses(PACKAGE / "files.py")) == ["_loads", "_loads"]


def _orjson_uses(path):
    """Line of each import of orjson and each ``orjson.<name>`` in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import) and any(
            alias.name.partition(".")[0] == "orjson" for alias in node.names
        ):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "orjson":
            yield node.lineno
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "orjson"
        ):
            yield node.lineno


def test_orjson_is_used_by_files_alone():
    # orjson spells some floats otherwise than json.dumps, and files spells
    # those again (_float_rows); the float-spelling contract stays in files.
    uses = [
        f"{path.stem}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "files"
        for line in _orjson_uses(path)
    ]
    assert uses == []
    assert list(_orjson_uses(PACKAGE / "files.py"))


def _enclosing_functions(tree):
    """Each node of ``tree`` mapped to the name of the innermost function around it."""
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner[node] = func.name  # walk reaches inner functions last
    return owner


def _loops(tree):
    """(loop node, the expression it iterates) for every for loop and comprehension."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node, node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield node, gen.iter


def test_files_builds_no_agent_or_edge_records():
    # The readers and center_corpus work on tables.  Records are built by the
    # tables' row accessor (in graph), and in files only by _record: the
    # queries reader and the second, per-line read of a block whose columns a
    # table reader rejects.
    tree = ast.parse((PACKAGE / "files.py").read_text())
    owner = _enclosing_functions(tree)
    built = [
        f"{owner.get(node, '<module>')}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("Agent", "Edge", "cls")
        and owner.get(node) != "_record"
    ]
    assert built == []
    # No replace() per record, except on queries, which have no table.
    per_record = [
        f"{owner.get(loop, '<module>')}:{call.lineno}"
        for loop, iterated in _loops(tree)
        if not (isinstance(iterated, ast.Name) and iterated.id == "queries")
        and not (isinstance(iterated, ast.Call) and any(
            isinstance(arg, ast.Name) and arg.id == "queries" for arg in iterated.args
        ))
        for call in ast.walk(loop)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id == "replace"
    ]
    assert per_record == []


def test_propagation_does_not_iterate_graph_agents():
    # graph.agents is a table: propagation reads its columns (.ids, .profile).
    tree = ast.parse((PACKAGE / "propagation.py").read_text())
    iterated = []
    for node, expr in _loops(tree):
        columns = {id(sub.value) for sub in ast.walk(expr) if isinstance(sub, ast.Attribute)}
        iterated += [
            node.lineno
            for sub in ast.walk(expr)
            if isinstance(sub, ast.Attribute) and sub.attr == "agents" and id(sub) not in columns
        ]
    assert iterated == []


def _hands_on(expr, name):
    """Whether ``expr`` uses ``name`` itself, not one of its columns or its length."""
    parts = set()
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Attribute):
            parts.add(id(sub.value))
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "len":
            parts.update(map(id, sub.args))
    return any(
        isinstance(sub, ast.Name) and sub.id == name and id(sub) not in parts
        for sub in ast.walk(expr)
    )


ITERATING_BUILTINS = {"dict", "enumerate", "filter", "iter", "list", "map", "set", "sorted",
                      "tuple", "zip"}


def test_retrieval_reads_agent_columns():
    # pipeline_search and precision_at_k turn agents into a table once and read
    # its columns: iterating a table, or an id -> record dict, builds one Agent
    # per row.
    tree = ast.parse((PACKAGE / "retrieval.py").read_text())
    iterated = [node.lineno for node, expr in _loops(tree) if _hands_on(expr, "agents")]
    iterated += [
        call.lineno
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id in ITERATING_BUILTINS
        and any(_hands_on(arg, "agents") for arg in call.args)
    ]
    assert iterated == []
    # {a.id: a for a in ...}: a dict whose values are the records iterated.
    by_id = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.DictComp) and isinstance(node.value, ast.Name)
        and any(isinstance(g.target, ast.Name) and g.target.id == node.value.id
                for g in node.generators)
    ]
    assert by_id == []
