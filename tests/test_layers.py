"""Imports between trustprop modules only go down the layer order."""

import ast
import dataclasses
import math
from pathlib import Path

import pytest

from trustprop.errors import ValidationError
from trustprop.files import corpus_spec, parse_config, propagation_config, weight_config

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


ROW_NORM_FUNCTIONS = {"overflow_safe_norms", "row_norms"}


def _norms_of_vectors(path):
    """Line numbers of ``overflow_safe_norms``/``row_norms`` calls whose
    first argument ends in ``.vectors``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        arg = node.args[0]
        if name in ROW_NORM_FUNCTIONS and isinstance(arg, ast.Attribute) and arg.attr == "vectors":
            yield node.lineno


def test_state_magnitudes_come_from_the_state():
    # ReputationState.magnitudes() keeps the norms of a read-only state, so
    # every read of one takes them once; a module that measures .vectors
    # itself takes them again on every call.
    copies = [
        f"{path.stem}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "propagation"
        for line in _norms_of_vectors(path)
    ]
    assert copies == []


def _csr_attribute_stores(path):
    """Line numbers of assignments to an attribute named ``data``,
    ``indices`` or ``indptr``, in any assignment form."""
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and node.attr in ("data", "indices", "indptr")
        ):
            yield node.lineno


def test_csr_matrices_come_from_the_scipy_constructor():
    # A CSR matrix put together by assigning its arrays skips the checks
    # scipy's constructor makes of their dtypes, shapes and bounds.
    stores = [
        f"{path.stem}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _csr_attribute_stores(path)
    ]
    assert stores == []


def _json_calls(path, names):
    """(function, line) of each ``json``/``orjson`` call of one of ``names``,
    or import of one."""
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
            and node.func.attr in names
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("json", "orjson")
        ):
            yield owner.get(node, "<module>"), node.lineno
        if isinstance(node, ast.ImportFrom) and node.module in ("json", "orjson"):
            if any(alias.name in names for alias in node.names):
                yield "<import>", node.lineno


def _json_imports(path):
    """Line of each import of the standard ``json`` module in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.partition(".")[0] == "json" for name in names):
            yield node.lineno


def test_json_is_parsed_by_one_reader():
    # files._loads is one orjson call, which reads only what files._dumps can
    # write; a second parser would accept other text, or skip the depth bound
    # and the error that names the file.
    imports = [
        f"{path.stem}:{line}" for path in sorted(PACKAGE.glob("*.py")) for line in _json_imports(path)
    ]
    assert imports == []
    names = ("loads", "load")
    parses = [
        f"{path.stem}.{func}"
        for path in sorted(PACKAGE.glob("*.py"))
        for func, _ in _json_calls(path, names)
    ]
    assert parses == ["files._loads"]


def test_json_is_written_by_one_writer():
    # files._dumps is one orjson call, which names a lone surrogate in a
    # ValidationError; a second writer would skip that, or spell floats and
    # text otherwise.
    names = ("dumps", "dump")
    writes = [
        f"{path.stem}.{func}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for func, line in _json_calls(path, names)
        if (path.stem, func) != ("files", "_dumps")
    ]
    assert writes == []
    assert [func for func, _ in _json_calls(PACKAGE / "files.py", names)] == ["_dumps"]


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
    # The JSON text of the package is written and read in files alone, by
    # _dumps and _loads, so how floats and text are spelled is decided there.
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


def _argsorts_naming(path, name):
    """Line numbers of ``argsort`` calls with an operand that names ``name``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "argsort":
            operands = [func.value, *node.args]
        elif isinstance(func, ast.Name) and func.id == "argsort":
            operands = list(node.args)
        else:
            continue
        operands += [kw.value for kw in node.keywords]
        if any(
            isinstance(sub, ast.Name) and sub.id == name
            or isinstance(sub, ast.Attribute) and sub.attr == name
            for operand in operands
            for sub in ast.walk(operand)
        ):
            yield node.lineno


def test_only_normalize_orders_positive_edges():
    # normalize puts the positive edges in receiver-major order, the one
    # edge order every engine reads; no other module sorts them again.
    sorts = [
        f"{path.stem}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "graph"
        for line in _argsorts_naming(path, "pos_receiver")
    ]
    assert sorts == []


def test_cli_verbs_share_one_skeleton():
    # One parent parser declares --config and --out for every verb, and main
    # loads the config once and hands it to the verb, so no verb grows its
    # own copy of either.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    declared = [
        arg.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        for arg in node.args
        if isinstance(arg, ast.Constant)
    ]
    assert declared.count("--config") == 1 and declared.count("--out") == 1
    loaders = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "load_config"
    }
    assert loaders == {"main"}


def _config_records(record):
    """``record`` and every config record nested in it."""
    yield record
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if dataclasses.is_dataclass(value):
            yield from _config_records(value)


def test_every_config_float_must_be_finite():
    # One rule for every float a config sets, in the records that take it
    # from a library caller as well as from the config file: inf, -inf and
    # NaN are rejected where the record is built.
    cfg = parse_config("propagation.operator = hybrid")
    roots = (propagation_config(cfg), weight_config(cfg), corpus_spec(cfg))
    checked = []
    for record in (r for root in roots for r in _config_records(root)):
        for f in dataclasses.fields(record):
            if "float" not in str(f.type):
                continue
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValidationError):
                    dataclasses.replace(record, **{f.name: bad})
            checked.append(f"{type(record).__name__}.{f.name}")
    assert {"PropagationConfig.epsilon", "KlGateConfig.lam", "OperatorKind.hybrid_gamma",
            "WeightConfig.payment_multiplier", "CorpusSpec.anisotropy"} <= set(checked)
