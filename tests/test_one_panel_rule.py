"""Every Gauss-Legendre rule of the fast paths comes from `grids.gauss_legendre_panels`."""

import ast as python_ast
import pathlib

import emwave

RULES = {"roots_legendre", "leggauss"}
# grids owns the panel rule; the oracle keeps its own rules
OWNERS = {"grids.py", "oracle.py"}


def _rule_uses(path: pathlib.Path) -> list[str]:
    """Names of Gauss-Legendre rule imports or references in one module."""
    found = []
    for node in python_ast.walk(python_ast.parse(path.read_text())):
        if isinstance(node, python_ast.ImportFrom):
            found += [alias.name for alias in node.names if alias.name in RULES]
        elif isinstance(node, python_ast.Attribute) and node.attr in RULES:
            found.append(node.attr)
    return found


def test_only_grids_and_oracle_build_gauss_legendre_rules():
    package = pathlib.Path(emwave.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name not in OWNERS)
    assert modules
    offending = {p.name: uses for p in modules if (uses := _rule_uses(p))}
    assert not offending, f"modules with their own Gauss-Legendre rule: {offending}"


def test_guard_sees_both_import_styles(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from scipy.special import roots_legendre\n"
        "import numpy as np\n"
        "x, w = np.polynomial.legendre.leggauss(4)\n"
    )
    assert _rule_uses(sample) == ["roots_legendre", "leggauss"]
