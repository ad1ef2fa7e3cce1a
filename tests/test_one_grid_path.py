"""`transform` builds F(y, t - is) on a spatial grid in one function: `_field_on_grid`."""

import ast as python_ast
import pathlib

import emwave

# the lattice route reads the cone grid's lattice positions, the dense route
# calls the plane-wave sum; one function chooses between them
MARKERS = {"flat_indices", "_evaluate_many"}


def _marker_uses(path: pathlib.Path) -> dict[str, set[str]]:
    """For each marker, the names of the functions of one module that use it."""
    uses = {marker: set() for marker in MARKERS}
    for func in python_ast.walk(python_ast.parse(path.read_text())):
        if not isinstance(func, (python_ast.FunctionDef, python_ast.AsyncFunctionDef)):
            continue
        for node in python_ast.walk(func):
            if isinstance(node, python_ast.Constant):
                name = node.value  # grid.meta["flat_indices"]
            elif isinstance(node, python_ast.Attribute):
                name = node.attr  # fieldcore._evaluate_many(...)
            elif isinstance(node, python_ast.Name):
                name = node.id  # _evaluate_many(...)
            else:
                continue
            if name in MARKERS:
                uses[name].add(func.name)
    return uses


def test_one_function_puts_an_amplitude_on_the_spatial_grid():
    uses = _marker_uses(pathlib.Path(emwave.__file__).parent / "transform.py")
    assert uses == {"flat_indices": {"_field_on_grid"}, "_evaluate_many": {"_field_on_grid"}}, uses


def test_guard_sees_every_way_of_reading_the_markers(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def lattice(grid):\n"
        "    return grid.meta['flat_indices']\n"
        "def attribute(grid):\n"
        "    return grid.flat_indices\n"
        "def dense(amp, xs):\n"
        "    return _evaluate_many(amp, xs, 0.0)\n"
        "def qualified(amp, xs):\n"
        "    return fieldcore._evaluate_many(amp, xs, 0.0)\n"
    )
    assert _marker_uses(sample) == {
        "flat_indices": {"lattice", "attribute"},
        "_evaluate_many": {"dense", "qualified"},
    }


def _library_analyze_calls(path: pathlib.Path) -> set[str]:
    """The functions of one module that call `transform.analyze` or import it by name."""
    tree = python_ast.parse(path.read_text())
    callers = {  # from .transform import analyze
        f"import from {node.module}"
        for node in python_ast.walk(tree)
        if isinstance(node, python_ast.ImportFrom) and any(alias.name == "analyze" for alias in node.names)
    }
    for func in python_ast.walk(tree):
        if not isinstance(func, (python_ast.FunctionDef, python_ast.AsyncFunctionDef)):
            continue
        for node in python_ast.walk(func):
            if (
                isinstance(node, python_ast.Attribute)
                and node.attr == "analyze"
                and isinstance(node.value, python_ast.Name)
                and node.value.id == "transform"
            ):
                callers.add(func.name)  # transform.analyze(...)
    return callers


def test_the_command_line_never_holds_a_library_analysis():
    # every command streams its coefficients; transform.analyze holds the whole payload
    assert _library_analyze_calls(pathlib.Path(emwave.__file__).parent / "cli.py") == set()


def test_analyze_guard_sees_a_call_and_an_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .transform import analyze\n"
        "def norms(amp, ygrid, sgrid):\n"
        "    return transform.analyze(amp, ygrid, sgrid)\n"
        "def stream(amp, ygrid, sgrid):\n"
        "    return transform._analysis_stream(amp, ygrid, sgrid, 0.0)\n"
    )
    assert _library_analyze_calls(sample) == {"norms", "import from transform"}
