"""The output format lives in one module: the library returns exact values
and `dillab.cli` alone turns them into decimals, JSON fields and CSV rows.
This parses every module of the package and pins that layering."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    # the directed decimal printer is cli's _floor and _ceil; no name is left
    # for another module to print with
    printers = {stem for stem, names in modules.items() if names & {"decimal_str", "_floor", "_ceil"}}
    assert printers == {"cli"}


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


def _calls_parallel_map(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "parallel_map"


def test_only_the_case_driver_maps_cases():
    # every suite maps its cases through suites._map_cases, the one reader
    # of the (failure lines, value) pairs its case functions return
    sample = "def f(args):\n    return parallel_map(g, args), suites.parallel_map(g, args)"
    assert list(_scopes(ast.parse(sample), _calls_parallel_map)) == ["f"] * 2
    assert _package_scopes(_calls_parallel_map) == {("suites", "_map_cases")}


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
    # lemmas; the dense products and mat_power are the tests' reference
    # (tests/dense_reference.py), and hi_target serves the benchmark's
    # column-route instance, so the package has no `@` at all
    sample = "def f(m):\n    return mat_power(m, 2) @ m, pf_enclosure(m, hi_target=9)"
    assert list(_scopes(ast.parse(sample), _dense_power_or_column_route)) == ["f"] * 3
    assert _package_scopes(_dense_power_or_column_route) == set()


def _reads_rows(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "rows"


# this scope reads SandwichReport.rows, a table of bounds, not a matrix's;
# the CLI's table takes its rows one at a time from bounds._sandwich_rows
SANDWICH_ROW_READERS = {("suites", "_run_sandwich")}


def test_only_intmatrix_walks_a_matrix_rows():
    # every exact product over an IntMatrix goes through IntMatrix._times,
    # char_poly's Faddeev-LeVerrier included; outside intmatrix only the
    # subdivision, which splices one row, reads the sparse rows
    sample = "def f(m):\n    return [row for row in m.rows]"
    assert list(_scopes(ast.parse(sample), _reads_rows)) == ["f"]
    readers = {scope for scope in _package_scopes(_reads_rows) if scope[0] != "intmatrix"}
    assert SANDWICH_ROW_READERS <= readers
    assert readers - SANDWICH_ROW_READERS == {("transgraph", "subdivide_out_edge")}


def _calls_of(tree: ast.AST, attr: str) -> int:
    return sum(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == attr
        for node in ast.walk(tree)
    )


def test_each_matrix_is_checked_by_one_constructor():
    # IntMatrix(entries) checks; _of builds what is valid by construction;
    # from_rows is an alias that no module of the package calls
    assert _calls_of(ast.parse("m = IntMatrix.from_rows(rows)"), "from_rows") == 1
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert _calls_of(tree, "from_rows") == 0, path.stem
        assert "from_sparse" not in set(_names(tree)), path.stem
    static = {name for name, v in vars(dillab.IntMatrix).items() if isinstance(v, staticmethod)}
    assert static == {"from_rows", "_of"}


def _makes_a_float(node: ast.AST) -> bool:
    """A call of float() or a float literal."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"


def test_the_exact_oracle_holds_no_float():
    # in dilpoly only the float root that steers largest_root's bisection
    # makes a float; char_poly, the Sturm counts and the oracle's isolation
    # and comparison are integer arithmetic
    sample = "def f(p):\n    return float(p) + 1.0, int(p) + 1"
    assert list(_scopes(ast.parse(sample), _makes_a_float)) == ["f"] * 2
    makers = {scope for stem, scope in _package_scopes(_makes_a_float) if stem == "dilpoly"}
    assert makers == {"_float_root"}


POOL_PACKAGES = {"concurrent", "multiprocessing"}


def _imports_pool_stack(node: ast.AST) -> bool:
    """An import of concurrent or multiprocessing, or of anything under them."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    else:
        return False
    return any(name.split(".")[0] in POOL_PACKAGES for name in names)


def _enters_shared_pool(node: ast.AST) -> bool:
    if not isinstance(node, ast.With):
        return False
    calls = [item.context_expr for item in node.items if isinstance(item.context_expr, ast.Call)]
    return any(getattr(call.func, "id", getattr(call.func, "attr", None)) == "shared_pool" for call in calls)


def test_only_verify_opens_a_pool():
    # `verify --jobs` is the one worker setting: run_suite and the suites
    # map over whatever block the caller opened, and open none themselves
    sample = "def f():\n    with shared_pool(2):\n        pass\n    with suites.shared_pool(1), open(p):\n        pass"
    assert list(_scopes(ast.parse(sample), _enters_shared_pool)) == ["f", "f"]
    assert _package_scopes(_enters_shared_pool) == {("cli", "_cmd_verify")}


def test_the_pool_stack_is_imported_only_where_a_pool_opens():
    # a scope of "" is module level, which runs on `import dillab`
    sample = "import multiprocessing\ndef f():\n    from concurrent.futures import ProcessPoolExecutor"
    assert list(_scopes(ast.parse(sample), _imports_pool_stack)) == ["", "f"]
    assert _package_scopes(_imports_pool_stack) == {("suites", "ProcessPoolExecutor")}


def _modules_after(code: str) -> set:
    """The modules a fresh interpreter, started without site, holds after code.
    A package is among them whenever any of its submodules is."""
    script = f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n{code}\nprint(*sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


# what `dataclasses` would pull in; the package's records come from
# dillab._record, and suites takes Callable from collections.abc
RECORD_TOOLING = {"dataclasses", "inspect", "typing"}


def test_import_dillab_loads_neither_the_pool_stack_nor_json():
    loaded = _modules_after("import dillab\ndillab.log_enclosure(3)\ndillab.run_suite")
    assert "dillab.suites" in loaded
    assert loaded.isdisjoint(POOL_PACKAGES | {"json"} | RECORD_TOOLING)


def _submodules_after(code: str) -> set:
    return {name for name in _modules_after(code) if name.startswith("dillab.")}


def test_import_dillab_loads_no_submodule():
    assert _submodules_after("import dillab") == set()


def test_the_first_call_loads_only_its_home_module():
    loaded = _submodules_after("import dillab\ndillab.log_enclosure(3)")
    assert loaded == {"dillab.enclosures", "dillab.errors", "dillab._record"}


# every exported name, by the submodule that defines it
EXPORTS = {
    "enclosures": ("RatInterval", "interval_gap", "log_enclosure", "nth_root_enclosure"),
    "errors": (
        "AlphaOutOfRange",
        "DegreePreconditionViolated",
        "DillabError",
        "DomainError",
        "FixedPointOnCircle",
        "GenusMismatch",
        "NoDiagonalEntry",
        "NoSignChange",
        "NotIrreducible",
        "NotPairwiseOrthogonal",
        "ValidationFailed",
        "VertexOutOfRange",
    ),
    "intmatrix": (
        "IntMatrix",
        "PFEnclosure",
        "is_irreducible",
        "is_positive",
        "load_matrix",
        "parse_matrix_json",
        "parse_matrix_text",
        "pf_enclosure",
        "render_matrix_json",
        "render_matrix_text",
        "verify_diagonal_bound",
    ),
    "transgraph": (
        "dilatation_limit_check",
        "from_matrix",
        "path_count",
        "path_count_series",
        "subdivide_out_edge",
        "to_matrix",
    ),
    "dilpoly": (
        "IntPoly",
        "build_T",
        "build_Tm",
        "char_poly",
        "compare_largest_roots",
        "count_real_roots_above",
        "isolate_largest_real_root",
        "largest_root",
        "mu_compare",
        "verify_lroot",
    ),
    "families": ("CoverBoundReport", "TorusMatrixSpec", "cover_upper_bound", "torus_matrix", "verify_torus_bounds"),
    "bounds": (
        "kappa_upper_constant",
        "log_uniform_sample",
        "omega_constants",
        "sandwich_table",
        "theta",
        "thm34_lower",
    ),
    "lefschetz": (
        "HomologyClass",
        "LinearPlaneMap",
        "SympAction",
        "linear_index_oracle",
        "local_index",
        "multitwist_action",
        "symp_form",
    ),
    "suites": ("SUITES", "run_suite"),
}


def test_all_lists_the_exported_names_once():
    pinned = [name for names in EXPORTS.values() for name in names]
    assert len(pinned) == len(set(pinned)) == 63
    assert sorted(dillab.__all__) == sorted(pinned)
    assert "annotations" not in dillab.__all__
    assert not set(dillab.__all__) & {path.stem for path in PACKAGE.glob("*.py")}


def test_each_name_is_its_home_modules_object():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"dillab.{module}")
        for name in names:
            assert getattr(dillab, name) is getattr(home, name), name


def _references(tree: ast.AST):
    """Every identifier a module reads, as a name or an attribute; strings
    and docstrings do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_export_has_a_caller_outside_the_tests():
    # another library module reads each export, or perfbench, which calls
    # and traces by name, names it
    read = {
        name
        for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"
        for name in _references(ast.parse(path.read_text()))
    }
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    named = {word for path in bench.glob("*.py") for word in re.findall(r"\w+", path.read_text())}
    assert read and named
    assert [name for name in dillab.__all__ if name not in read | named] == []


def test_the_namespace_behaves_like_a_module():
    assert "__all__" in dir(dillab)
    assert set(dillab.__all__) <= set(dir(dillab))
    with pytest.raises(AttributeError, match="'nope'"):
        dillab.nope
    assert _submodules_after("import dillab\nassert dillab.suites is sys.modules['dillab.suites']") >= {"dillab.suites"}
    star = {}
    exec("from dillab import *", star)
    assert set(star) - {"__builtins__"} == set(dillab.__all__)


def _assigns_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)


def test_the_package_lists_its_public_names_once():
    # `_EXPORTS` in `__init__` is the one list of public names; a submodule's
    # other names are reached as dillab.<module>.<name>
    sample = "__all__ = []\n__all__ += ['x']\ndef f():\n    __all__: list = []\nprint(__all__)"
    assert list(_scopes(ast.parse(sample), _assigns_all)) == ["", "", "f"]
    assert _package_scopes(_assigns_all) == {("__init__", "")}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_the_version_is_declared_once():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(Path(__file__).resolve().parents[1] / "pyproject.toml")
    assert config["project"]["version"] == dillab.__version__


def _imports_dataclasses(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "dataclasses"


def test_no_module_imports_dataclasses():
    # each dataclass decorator compiles its methods on import; dillab._record
    # builds the same frozen records from closures
    sample = "import dataclasses\ndef f():\n    from dataclasses import dataclass"
    assert list(_scopes(ast.parse(sample), _imports_dataclasses)) == ["", "f"]
    assert _package_scopes(_imports_dataclasses) == set()


def test_a_serial_verify_loads_no_pool_stack():
    loaded = _modules_after('from dillab import cli\nassert cli.main(["verify", "--suite", "quartic-root", "--seed", "7"]) == 0')
    assert "json" in loaded
    assert loaded.isdisjoint(POOL_PACKAGES)


# the exceptions a refused input must not raise: a caller catches DillabError
NOT_A_REFUSAL = {"ValueError", "TypeError", "AssertionError", "KeyError"}


def _raises_a_builtin_refusal(node: ast.AST) -> bool:
    """A `raise` of one of NOT_A_REFUSAL, called or bare."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id in NOT_A_REFUSAL


def test_the_package_refuses_only_with_dillab_errors():
    # _record's TypeErrors mirror the ones Python raises for a bad call
    sample = "def f(x):\n    raise ValueError(x)\n\ndef g():\n    raise KeyError\n    raise DomainError('x')"
    assert list(_scopes(ast.parse(sample), _raises_a_builtin_refusal)) == ["f", "g"]
    raisers = {stem for stem, _ in _package_scopes(_raises_a_builtin_refusal)}
    assert raisers == {"_record"}


def test_main_exits_1_on_dillab_errors_alone():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    exit_1 = [
        handler
        for node in ast.walk(main)
        if isinstance(node, ast.Try)
        for handler in node.handlers
        if any(isinstance(s, ast.Return) and isinstance(s.value, ast.Constant) and s.value.value == 1 for s in handler.body)
    ]
    assert len(exit_1) == 1
    assert isinstance(exit_1[0].type, ast.Name) and exit_1[0].type.id == "DillabError"


def _own_nodes(func: ast.AST):
    """The nodes of a function's body, without those of the functions
    defined inside it."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _tests_a_parameter_for_int(test: ast.AST, func: ast.AST) -> bool:
    """Whether test compares `type(p) is not int` for one of func's own
    parameters p, or for a field self.<p> in a __post_init__."""
    args = func.args
    params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    for node in ast.walk(test):
        if not (
            isinstance(node, ast.Compare)
            and isinstance(node.ops[0], ast.IsNot)
            and isinstance(node.comparators[0], ast.Name)
            and node.comparators[0].id == "int"
            and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name)
            and node.left.func.id == "type"
        ):
            continue
        arg = node.left.args[0]
        if isinstance(arg, ast.Name) and arg.id in params:
            return True
        if func.name == "__post_init__" and isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name) and arg.value.id == "self":
            return True
    return False


def _inline_int_checks(tree: ast.AST):
    """Every function with an `if` that tests one of its own parameters for
    type int and raises in its body."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            isinstance(node, ast.If)
            and _tests_a_parameter_for_int(node.test, func)
            and any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt))
            for node in _own_nodes(func)
        ):
            yield func.name


def test_int_parameters_are_checked_by_one_helper():
    # a loop over entries and a check that does not raise are not parameter checks
    sample = (
        "def f(n):\n    if type(n) is not int or n < 1:\n        raise DomainError(n)\n"
        "def g(rows):\n    for x in rows:\n        if type(x) is not int:\n            raise DomainError(x)\n"
        "def h(x):\n    if type(x) is not int:\n        x = int(x)\n"
        "class C:\n    def __post_init__(self):\n        if type(self.g) is not int:\n            raise DomainError(self.g)\n"
    )
    assert set(_inline_int_checks(ast.parse(sample))) == {"f", "__post_init__"}
    checks = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _inline_int_checks(ast.parse(path.read_text()))
    }
    # the helper, and two checks that raise their own, more specific classes
    assert checks == {
        ("enclosures", "_require_int"),
        ("transgraph", "_check_vertex"),
        ("bounds", "thm34_lower"),
    }


# the members `record` generates as the one unchecked constructor, and the
# name the last hand-written one went by
RECORD_DOORS = {"_of", "_unchecked", "__reduce__"}


def _unchecked_doors(tree: ast.AST):
    """Every reference to `object.__new__`, and every member in RECORD_DOORS
    that a class body defines, as a def or an assignment."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "__new__":
            if isinstance(node.value, ast.Name) and node.value.id == "object":
                yield "object.__new__"
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [stmt.name]
                else:
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                yield from (f"{node.name}.{name}" for name in names if name in RECORD_DOORS)


def test_only_record_builds_a_value_unchecked():
    # every value either passed its constructor's checks or came from
    # record's generated _of, which pickle, copy and deepcopy also go through
    sample = (
        "new = object.__new__\n"
        "class C:\n    @staticmethod\n    def _of(rows):\n        return new(C)\n"
        "    __reduce__ = f\n    def keep(self):\n        return object.__new__(C)\n"
    )
    assert sorted(_unchecked_doors(ast.parse(sample))) == ["C.__reduce__", "C._of", "object.__new__", "object.__new__"]
    doors = {(path.stem, door) for path in sorted(PACKAGE.glob("*.py")) for door in _unchecked_doors(ast.parse(path.read_text()))}
    assert doors == {("_record", "object.__new__")}


def _record_classes():
    """The class definition of every @record class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list
            ):
                yield node


def _records() -> dict:
    """Every @record class of the package, by name: its fields and the
    source text of their annotations."""
    return {
        node.name: {stmt.target.id: ast.unparse(stmt.annotation) for stmt in node.body if isinstance(stmt, ast.AnnAssign)}
        for node in _record_classes()
    }


def test_a_bracket_is_a_rat_interval():
    # a root bracket, a log, a closed form: each is a RatInterval; a Perron
    # enclosure also carries the iteration that produced it
    records = _records()
    assert {name for name, fields in records.items() if {"lo", "hi"} <= fields.keys()} == {"RatInterval", "PFEnclosure"}
    assert len(records) == 15


def test_every_record_member_has_a_reader_outside_the_tests():
    """Each field, method and property a record defines is read as an
    attribute by a library module or by perfbench; a dunder is left out,
    since Python reads it by protocol. The check goes by name, so a member
    whose name another attribute shares passes it unread: so did
    PFEnclosure.rel_width (beside the rel_width option) and
    SandwichReport.g and .alpha, which were deleted, not caught here."""
    members = {(name, field) for name, fields in _records().items() for field in fields}
    for node in _record_classes():
        members |= {(node.name, stmt.name) for stmt in node.body if isinstance(stmt, ast.FunctionDef)}
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    paths = [*PACKAGE.glob("*.py"), *bench.glob("*.py")]
    read = {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Attribute)}
    unread = {f"{name}.{member}" for name, member in members if member not in read and not member.startswith("__")}
    assert unread == set()


# the only record fields that hold a bool; a failed check raises ValidationFailed instead
BOOL_FIELDS = {
    ("PFEnclosure", "steered"),  # route metadata: whether a float guess steered the iteration
    ("LimitCheckReport", "converged"),  # a measurement, not a certificate (ROADMAP item 4)
    # perfbench reads these; they go once it no longer does (ROADMAP item 13)
    ("LrootReport", "bound_holds"),
    ("LrootReport", "ineq1"),
    ("LrootReport", "ineq2"),
    ("LrootReport", "ineq3"),
    ("TorusBoundsReport", "irreducible"),
}


def test_a_failed_certificate_raises_instead_of_returning_a_flag():
    flags = {(name, field) for name, fields in _records().items() for field, ann in fields.items() if ann == "bool"}
    assert flags == BOOL_FIELDS
