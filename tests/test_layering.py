"""Module boundaries: no vanishlab module reaches into another's private
names.  A `_`-prefixed submodule such as `_linalg_modp` may be imported
whole; its own `_`-prefixed names, like every other module's, stay inside
it."""

import ast
from pathlib import Path

import vanishlab

PACKAGE = Path(vanishlab.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(source: str) -> list[str]:
    """'line: what' for each import or read of a `_`-prefixed name of
    another vanishlab module in one module's source."""
    tree = ast.parse(source)
    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("vanishlab")
        ):
            whole = node.module in (None, "vanishlab")  # submodules, package names
            for alias in node.names:
                if whole and alias.name in MODULES:
                    aliases.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{node.lineno}: import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("vanishlab.") and alias.asname:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_reaches_into_another_modules_private_names():
    reaches = {
        path.name: private_reaches(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in reaches.items() if found} == {}


def test_the_check_sees_private_imports_and_reads_but_not_submodules():
    source = (
        "from . import _linalg_modp as lin\n"
        "from . import __version__\n"
        "from .cyclotomic import Cyclo, _reduce_mod_cyclotomic\n"
        "import vanishlab.character_lab as cl\n"
        "lin.matmul(a, b, p)\n"
        "lin._residues(a, p)\n"
        "cl._distinct(v)\n"
        "table._private_field\n"
    )
    assert private_reaches(source) == [
        "3: import _reduce_mod_cyclotomic",
        "6: lin._residues",
        "7: cl._distinct",
    ]
