"""The output format lives in one module: the library returns exact values
and `dillab.cli` alone turns them into decimals, JSON fields and CSV rows.
This parses every module of the package and pins that layering."""

import ast
from pathlib import Path

import dillab

PACKAGE = Path(dillab.__file__).resolve().parent

RENDERER_METHODS = {"to_json_dict", "csv_row"}
OUTPUT_CONSTANTS = {
    "COVER_CSV_HEADER",
    "SANDWICH_CSV_HEADER",
    "LOWER_SOURCE",
    "UPPER_SOURCE",
    "NO_UPPER_SOURCE",
}


def _names(tree: ast.AST):
    """Every identifier a module defines, imports or reads."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def _modules() -> dict:
    return {path.stem: set(_names(ast.parse(path.read_text()))) for path in sorted(PACKAGE.glob("*.py"))}


def test_only_cli_renders_output():
    modules = _modules()
    assert "cli" in modules and "enclosures" in modules
    renderers = {stem for stem, names in modules.items() if names & RENDERER_METHODS}
    assert renderers <= {"cli"}
    constants = {stem for stem, names in modules.items() if names & OUTPUT_CONSTANTS}
    assert constants == {"cli"}
    # enclosures defines decimal_str and __init__ exports it; cli prints with it
    printers = {stem for stem, names in modules.items() if "decimal_str" in names}
    assert printers == {"cli", "enclosures", "__init__"}


def _scopes(tree: ast.AST, match, scope: str = ""):
    """The innermost function around every node that `match` accepts."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        if match(node):
            yield scope
        yield from _scopes(node, match, inner)


def _package_scopes(match) -> set:
    return {
        (path.stem, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in _scopes(ast.parse(path.read_text()), match)
    }


def test_only_intmatrix_renders_the_dense_view():
    # IntMatrix stores sparse rows; the dense `entries` tuple is rebuilt on
    # every access, so it is read only to print a matrix
    readers = _package_scopes(lambda node: isinstance(node, ast.Attribute) and node.attr == "entries")
    assert readers == {
        ("intmatrix", "__repr__"),
        ("intmatrix", "render_matrix_text"),
        ("intmatrix", "render_matrix_json"),
    }


def _row_vector_products(tree: ast.AST):
    """Every comprehension over `for j, m in ...` whose element indexes a
    sequence by j: an inline sparse-row times vector product."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            continue
        for gen in node.generators:
            target = gen.target
            if not (isinstance(target, ast.Tuple) and len(target.elts) == 2):
                continue
            column = target.elts[0]
            if isinstance(column, ast.Name) and any(
                isinstance(sub, ast.Subscript)
                and isinstance(sub.slice, ast.Name)
                and sub.slice.id == column.id
                for sub in ast.walk(node.elt)
            ):
                yield node


def test_only_intmatrix_multiplies_rows_by_a_vector():
    # the exact product is intmatrix._multiplier; intmatrix keeps only the
    # float product of its steer, which the exact kernel must not serve
    inline = ast.parse("w = [sum([m * v[j] for j, m in row]) for row in rows]")
    assert len(list(_row_vector_products(inline))) == 1
    owners = {
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if any(_row_vector_products(ast.parse(path.read_text())))
    }
    assert owners == {"intmatrix"}


def _calls_multiplier(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "_multiplier") or (
        isinstance(func, ast.Attribute) and func.attr == "_multiplier"
    )


def test_only_the_matrix_builds_its_product():
    # IntMatrix._times builds the product once per matrix; a second caller
    # would build it again on every call
    assert list(_scopes(ast.parse("def f(m):\n    return _multiplier(m.rows)"), _calls_multiplier)) == ["f"]
    assert _package_scopes(_calls_multiplier) == {("intmatrix", "_times")}


_DICT_WRITERS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _writes_dict(node: ast.AST) -> bool:
    """An assignment or deletion through `x.__dict__[...]`, or a call of one
    of its mutating methods."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
        return any(
            isinstance(t, ast.Subscript) and isinstance(t.value, ast.Attribute) and t.value.attr == "__dict__"
            for target in targets
            for t in ast.walk(target)
        )
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DICT_WRITERS
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "__dict__"
    )


def test_only_intmatrix_writes_a_matrix_dict():
    # the cached product, irreducibility and the count slot live in a
    # matrix's __dict__; only intmatrix may fill them
    sample = "m.__dict__['_times'] = f\nm.__dict__.update(a=1)\nx = m.__dict__.get('a')"
    assert len(list(_scopes(ast.parse(sample), _writes_dict))) == 2
    assert {stem for stem, _ in _package_scopes(_writes_dict)} == {"intmatrix"}


def _dense_power_or_column_route(node: ast.AST) -> bool:
    """An `@`, a call of mat_power, or a call that passes hi_target=."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, ast.MatMult)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "mat_power" or any(kw.arg == "hi_target" for kw in node.keywords)


def test_dense_powers_and_the_column_route_stay_out_of_the_library():
    # verify certifies the diagonal bound and the torus cap from their
    # lemmas; mat_power is the dense reference the tests compare against,
    # and hi_target serves the benchmark's column-route instance
    sample = "def f(m):\n    return mat_power(m, 2) @ m, pf_enclosure(m, hi_target=9)"
    assert list(_scopes(ast.parse(sample), _dense_power_or_column_route)) == ["f"] * 3
    assert _package_scopes(_dense_power_or_column_route) == {("intmatrix", "mat_power")}
