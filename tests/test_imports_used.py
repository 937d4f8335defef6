"""Every module under ``src/repro``, ``tests``, ``benchmarks`` and
``examples`` uses each name it imports.

No linter runs on this repository, so this scan is the check that keeps
unused imports out.  A name counts as used when some ``Name`` node in
the module reads it (annotations included) or the module's ``__all__``
lists it.  ``from __future__`` imports are directives, and the names a
package's ``__init__.py`` imports are its re-exports, so both are
skipped.  ``perfbench`` is not scanned: its runner imports
``repro.cli`` for its side effects on purpose.
"""

from __future__ import annotations

import ast
import pathlib
from typing import List

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = [ROOT / "src" / "repro", ROOT / "tests", ROOT / "benchmarks",
           ROOT / "examples"]


def _imported(tree: ast.Module) -> dict:
    """``{bound name: line}`` for every import in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def _used(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            for element in ast.walk(node.value):
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    used.add(element.value)
    return used


def unused_imports(source: str) -> List[tuple]:
    """``(line, name)`` of every imported name ``source`` never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return sorted(
        (line, name) for name, line in _imported(tree).items() if name not in used
    )


def test_every_imported_name_is_used():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in SCANNED
        for path in sorted(top.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


class TestScanner:
    def test_flags_each_unused_name(self):
        source = (
            "from __future__ import annotations\n"
            "import os, sys\n"
            "from typing import List, Optional\n"
            "def f(x: List[int]) -> int:\n"
            "    return os.getpid()\n"
        )
        assert unused_imports(source) == [(2, "sys"), (3, "Optional")]

    def test_dotted_and_aliased_imports(self):
        source = (
            "import os.path\n"
            "import json as j\n"
            "from collections import OrderedDict as OD\n"
            "os.path.join(j.dumps(OD()))\n"
        )
        assert unused_imports(source) == []
        assert unused_imports("import json as j\njson\n") == [(1, "j")]

    def test_all_counts_as_use(self):
        source = "from math import pi, tau\n__all__ = ['pi']\n__all__ += ('tau',)\n"
        assert unused_imports(source) == []
        assert unused_imports("from math import pi, tau\n__all__ = ['pi']\n") == [
            (1, "tau")
        ]

    def test_function_level_imports_are_checked(self):
        source = "def f():\n    from math import pi, e\n    return pi\n"
        assert unused_imports(source) == [(2, "e")]
