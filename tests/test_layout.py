"""Module layout: no module of the package reaches into a sibling's private names.

Every module under ``src/heavyagg`` is parsed; importing an underscore-prefixed
name from a sibling (``from .x import _name``) or reading one through a
sibling module (``x._name``) fails the test.  Dunder names are public.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heavyagg"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling_module(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "heavyagg"


def private_uses(path: Path) -> list[str]:
    """Lines of ``path`` that import or read a sibling module's private name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling_module(node):
            package_level = node.module in (None, "heavyagg")
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                elif package_level:
                    siblings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("heavyagg.") and alias.asname:
                    siblings.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_a_sibling_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [use for path in modules for use in private_uses(path)]
    assert not found, found


def test_checker_sees_both_forms(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from .shot_noise import _helper\nfrom . import pulses as pl\npl._kernel(1)\npl.__name__\n"
    )
    assert private_uses(src) == ["mod.py:1 imports _helper", "mod.py:3 reads pl._kernel"]
