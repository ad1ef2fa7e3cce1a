"""The oracle module must share no code with the fast paths it checks."""

import ast as python_ast
import pathlib

import emwave.oracle


def test_oracle_imports_nothing_from_the_package():
    source = pathlib.Path(emwave.oracle.__file__).read_text()
    tree = python_ast.parse(source)
    offending = []
    for node in python_ast.walk(tree):
        if isinstance(node, python_ast.ImportFrom):
            if node.level > 0 or (node.module or "").split(".")[0] == "emwave":
                offending.append(python_ast.dump(node))
        elif isinstance(node, python_ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "emwave":
                    offending.append(python_ast.dump(node))
    assert not offending, f"oracle module imports package code: {offending}"


def test_oracle_uses_only_generic_numerics():
    source = pathlib.Path(emwave.oracle.__file__).read_text()
    tree = python_ast.parse(source)
    allowed = {"numpy", "dataclasses", "__future__"}
    roots = set()
    for node in python_ast.walk(tree):
        if isinstance(node, python_ast.ImportFrom):
            roots.add((node.module or "").split(".")[0])
        elif isinstance(node, python_ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
    assert roots <= allowed, f"unexpected oracle dependencies: {roots - allowed}"
