"""Declared-dependency guard.

Every third-party module the package imports must be a declared
runtime dependency in ``pyproject.toml``, and the CLI must import
without the heavy optional modules it defers.
"""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Import name -> distribution name, where the two differ.
DISTRIBUTION = {"yaml": "pyyaml"}


def _imported_top_levels() -> dict[str, set[str]]:
    """``{top-level module: {files}}`` over every import in src/repro,
    including the deferred ones inside functions."""
    found: dict[str, set[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                found.setdefault(top, set()).add(
                    str(path.relative_to(ROOT)))
    return found


def _declared_distributions() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    return {re.split(r"[<>=!~;\[ ]", spec, maxsplit=1)[0].lower()
            for spec in project["dependencies"]}


def test_every_third_party_import_is_declared():
    declared = _declared_distributions()
    undeclared = {
        top: sorted(files)
        for top, files in _imported_top_levels().items()
        if top not in sys.stdlib_module_names and top != "repro"
        and DISTRIBUTION.get(top, top).lower() not in declared
    }
    assert undeclared == {}


def test_runtime_dependencies_are_exactly_the_declared_three():
    assert _declared_distributions() == {"numpy", "scipy", "pyyaml"}


def test_cli_imports_without_deferred_modules():
    """``import repro.cli`` must not need networkx at all, nor pay for
    scipy.stats / scipy.optimize (imported where they are used)."""
    script = (
        "import sys\n"
        "for name in ('networkx', 'scipy.stats', 'scipy.optimize'):\n"
        "    sys.modules[name] = None\n"
        "import repro.cli\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert result.returncode == 0, result.stderr
