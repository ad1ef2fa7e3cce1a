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
