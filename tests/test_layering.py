"""Import layering: the cell vocabulary sits *below* the things that run cells.

``repro.campaigns`` is a client of the engine (grid expansion, dispatch,
result files), like the fuzzer and the SMR serving loop.  Nothing it is
built on may import it back — module-level or function-local — with one
documented exception: the batch kernel's late lookup of the scalar oracle,
which stays until the end-to-end benchmark's tracer stops rebinding
``execute_run`` in the runner's namespace (ROADMAP).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Packages that must not reach up into ``repro.campaigns``.
LOWER_PACKAGES = ("core", "scenarios", "engine", "fuzz", "smr")

#: ``(file relative to src/repro, imported module)`` pairs exempt from it.
ALLOWED = {("engine/batch/kernel.py", "repro.campaigns.runner")}


def imported_modules(source: str) -> Iterator[Tuple[int, str]]:
    """``(line, dotted module)`` for every import statement in ``source``,
    at any nesting depth (``from repro import x`` counts as ``repro.x``)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module == "repro":
                for alias in node.names:
                    yield node.lineno, f"repro.{alias.name}"
            else:
                yield node.lineno, node.module


def campaign_imports() -> List[Tuple[str, int, str]]:
    found = []
    for package in LOWER_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            for line, module in imported_modules(path.read_text("utf-8")):
                if module == "repro.campaigns" or module.startswith(
                    "repro.campaigns."
                ):
                    found.append((relative, line, module))
    return found


def test_scanner_sees_function_local_and_from_package_imports():
    source = (
        "import os\n"
        "def f():\n"
        "    from repro.campaigns.runner import execute_run\n"
        "    from repro import campaigns\n"
        "    import repro.campaigns.spec as spec\n"
    )
    modules = [module for _line, module in imported_modules(source)]
    assert "repro.campaigns.runner" in modules
    assert "repro.campaigns" in modules
    assert "repro.campaigns.spec" in modules


def test_nothing_below_campaigns_imports_it():
    offending = [
        f"{relative}:{line} imports {module}"
        for relative, line, module in campaign_imports()
        if (relative, module) not in ALLOWED
    ]
    assert offending == []


def test_the_one_exception_is_still_exactly_one_line():
    lines = {
        (relative, line)
        for relative, line, _module in campaign_imports()
        if relative == "engine/batch/kernel.py"
    }
    assert len(lines) == 1, "the allow-list entry is stale or has grown"
