"""Import layering: the cell vocabulary sits *below* the things that run cells.

``repro.campaigns`` is a client of the engine (grid expansion, dispatch,
result files), like the fuzzer and the SMR serving loop.  Nothing it is
built on may import it back — module-level or function-local — with one
documented exception: the batch kernel's late lookup of the scalar oracle,
which stays until the end-to-end benchmark's tracer stops rebinding
``execute_run`` in the runner's namespace (ROADMAP).

``core/`` sits lower still: it imports nothing from ``repro.engine`` (the
randomized adaptation hands assembly a marker and a seeding helper, it does
not assemble), and the *census of ways to run an instance* pins which files
call ``build_instance`` / ``run_instance`` at all — a new private assembly
path fails the test and has to argue for its entry.

The second half guards the *communication table*: what a comm kind means is
decided in ``scenarios/spec.py`` (normal form + facts) and turned into code
in one ``_bad_rule`` clause; schedulers, planner, array tier and fuzz
classifier read those, never the kind strings — and the ``Pcons`` stack is
a scheduler under the one kernel, not a run loop beside it.

The last half is the *reachability census*: every ``src/repro`` module is
imported from ``repro.cli`` or the algorithm registry, and every public
top-level name has a reader that is not a test — and so does every public
method and property of a reached public class.  It has no allow-list.
``PYTHONPATH=src python
tests/test_layering.py`` prints it: reached and unreached lines per module,
and every test-only name's and member's size.

The *option census* does the same for the command line: every option
``repro.cli.build_parser()`` accepts is set somewhere outside the tests
(CI and the scripts it runs, ``benchmarks/``, ``examples/``, a README
code block), or it waits on its allow-list for the ROADMAP item that
gives it one.
"""

from __future__ import annotations

import argparse
import ast
import re
import shutil
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

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


# ------------------------------------------------ one way to run an instance

#: Every file under ``src/repro`` (outside ``engine/``, which defines them)
#: that calls ``build_instance`` / ``run_instance``: the scenario layer, the
#: three executors that hold a compiled scenario, and one library
#: convenience (``AlgorithmSpec.run``).
ASSEMBLY_CALLERS = {
    "scenarios/compile.py",
    "campaigns/runner.py",
    "fuzz/classify.py",
    "smr/serve.py",
    "algorithms/registry.py",
}


def assembly_calls(source: str) -> Iterator[Tuple[int, str]]:
    """``(line, name)`` per call of ``build_instance`` / ``run_instance``,
    bare or attribute-qualified."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in ("build_instance", "run_instance"):
                yield node.lineno, name


def test_assembly_scanner_sees_bare_and_qualified_calls():
    source = (
        "from repro.engine import assembly\n"
        "def f(p, v):\n"
        "    return run_instance(assembly.build_instance(p, v), s)\n"
    )
    assert sorted(assembly_calls(source)) == [
        (3, "build_instance"), (3, "run_instance"),
    ]


def test_census_of_ways_to_run_an_instance():
    callers = set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith("engine/"):
            continue
        if any(assembly_calls(path.read_text("utf-8"))):
            callers.add(relative)
    assert callers == ASSEMBLY_CALLERS


def test_core_imports_nothing_from_the_engine():
    offending = [
        f"{path.relative_to(SRC).as_posix()}:{line} imports {module}"
        for path in sorted((SRC / "core").rglob("*.py"))
        for line, module in imported_modules(path.read_text("utf-8"))
        if module == "repro.engine" or module.startswith("repro.engine.")
    ]
    assert offending == []


# ------------------------------------------------- one communication table

#: Comm-kind and bad-behaviour names (the unambiguous ones: ``reliable`` and
#: ``silent`` also name other things) and where code may *compare* against
#: them: the spec itself, the one ``_bad_rule`` clause, the fuzz generators.
COMM_LITERALS = {"good-bad", "lossy", "async-prel", "drop", "partition", "silence"}
LITERAL_COMPARERS = {
    "scenarios/spec.py": None,  # anywhere in the file
    "scenarios/compile.py": {"_bad_rule"},
    "fuzz/space.py": None,
    "fuzz/shrink.py": None,
}
#: The only readers of ``comm.kind`` / ``.bad`` / ``.schedule`` outside the
#: spec: generators and shrinkers, which write specs rather than run them.
COMM_FIELD_READERS = {"fuzz/space.py", "fuzz/shrink.py"}


def _strings(node: ast.AST) -> Iterator[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for element in node.elts:
            yield from _strings(element)


def comm_literal_compares(source: str) -> Iterator[Tuple[int, str, str]]:
    """``(line, enclosing function, literal)`` per comparison against a
    comm-kind / bad-behaviour name."""

    def walk(node: ast.AST, function: str) -> Iterator[Tuple[int, str, str]]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                for text in _strings(operand):
                    if text in COMM_LITERALS:
                        yield node.lineno, function, text
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)

    yield from walk(ast.parse(source), "<module>")


def comm_field_reads(source: str) -> Iterator[int]:
    """Lines reading ``comm.kind`` / ``comm.bad`` / ``comm.schedule`` (also
    spelled ``<x>.comm.kind`` …)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in (
            "kind", "bad", "schedule"
        ):
            owner = node.value
            name = getattr(owner, "id", None) or getattr(owner, "attr", None)
            if name == "comm":
                yield node.lineno


def test_comm_scanners_see_what_they_guard():
    source = (
        "def f(comm, scenario):\n"
        "    if comm.kind == 'lossy' or scenario.comm.bad in ('drop', 'x'):\n"
        "        return comm.drop_prob\n"
    )
    assert sorted(comm_literal_compares(source)) == [
        (2, "f", "drop"), (2, "f", "lossy"),
    ]
    assert list(comm_field_reads(source)) == [2, 2]


def test_comm_names_are_compared_only_where_a_kind_becomes_code():
    offending = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        functions = LITERAL_COMPARERS.get(relative, set())
        for line, function, text in comm_literal_compares(
            path.read_text("utf-8")
        ):
            if functions is not None and function not in functions:
                offending.append(f"{relative}:{line} compares {text!r}")
    assert offending == []


def test_comm_fields_are_read_only_by_the_spec_and_the_generators():
    reads = [
        (path.relative_to(SRC).as_posix(), line)
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() != "scenarios/spec.py"
        for line in comm_field_reads(path.read_text("utf-8"))
    ]
    assert {relative for relative, _line in reads} <= COMM_FIELD_READERS, reads
    assert len(reads) <= 13, "the census of comm-kind reads has grown"


def test_the_pcons_stack_has_no_run_loop_of_its_own():
    """It is a scheduler under the one kernel: it neither drives processes
    (``.send`` / ``.receive``) nor assembles them."""
    tree = ast.parse((SRC / "network" / "stack.py").read_text("utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            assert node.func.attr not in ("send", "receive"), node.lineno
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        assert name != "GenericConsensusProcess", node.lineno
        if isinstance(node, ast.ImportFrom):
            assert "GenericConsensusProcess" not in {
                alias.name for alias in node.names
            }, node.lineno


# ------------------------------------------------ one crash-safe file layer

#: The one module that renames, fsyncs or appends to a file: every durable
#: file (checkpoint, findings corpus and journal, events sidecar) is built
#: on it.
DURABLE_FILE_LAYER = {"utils/jsonl.py"}


def durable_file_calls(source: str) -> Iterator[Tuple[int, str]]:
    """``(line, call)`` per ``os.replace`` / ``os.fsync`` call and per
    ``open`` (builtin or ``Path.open``) whose mode may be an append mode."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        owner = getattr(getattr(func, "value", None), "id", None)
        if owner == "os" and name in ("replace", "fsync"):
            yield node.lineno, f"os.{name}"
        elif name == "open" and owner != "os":
            # ``open(path, mode)`` or ``path.open(mode)``
            modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
            texts = [
                text for mode in modes for sub in ast.walk(mode)
                for text in _strings(sub)
            ]
            if any("a" in text for text in texts):
                yield node.lineno, "open(append)"


def test_durable_file_scanner_sees_what_it_guards():
    source = (
        "import os\n"
        "def f(p, append):\n"
        "    os.replace(p, p)\n"
        "    os.fsync(3)\n"
        "    open(p, 'ab')\n"
        "    p.open('a' if append else 'w', encoding='utf-8')\n"
        "    open(p, mode='a+b')\n"
        "    open(p, 'rb'), p.open('w'), open(p)\n"
    )
    assert sorted(durable_file_calls(source)) == [
        (3, "os.replace"), (4, "os.fsync"), (5, "open(append)"),
        (6, "open(append)"), (7, "open(append)"),
    ]


def test_census_of_durable_file_writers():
    callers = {
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if any(durable_file_calls(path.read_text("utf-8")))
    }
    assert callers == DURABLE_FILE_LAYER


# ------------------------------------------------------ reachability census

#: Where a command starts: the CLI, and the algorithm registry every
#: library entry point resolves names through.
ROOTS = ("repro.cli", "repro.algorithms.registry")

REPO = SRC.parent.parent
#: Outside ``src/``, what counts as a reader: the paper-claims table and the
#: end-to-end ruler, the examples, CI, the README's python blocks.
READER_DIRS = ("benchmarks", "examples")


def module_files(src: Path = SRC) -> Dict[str, Path]:
    """Dotted module name → file, for every module under ``src``."""
    modules = {}
    for path in sorted(src.rglob("*.py")):
        parts = (src.name, *path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def reached_modules(modules: Dict[str, Path], roots=ROOTS) -> Set[str]:
    """The static import closure of ``roots``.  Importing ``a.b.c`` runs
    ``a`` and ``a.b`` too, and ``from a import b`` imports module ``a.b``
    when there is one; ``src/`` has no relative or dynamic imports."""
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        name = stack.pop()
        if name in seen or name not in modules:
            continue
        seen.add(name)
        parts = name.split(".")
        stack += [".".join(parts[:i]) for i in range(1, len(parts))]
        source = modules[name].read_text("utf-8")
        stack += [module for _line, module in imported_modules(source)]
        stack += [
            f"{node.module}.{alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names
        ]
    return seen


def _referenced(node: ast.AST) -> Iterator[str]:
    """Every name ``node`` reads: a bare name, an attribute, an import, the
    name string of a ``getattr`` / ``hasattr``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                yield alias.name.rsplit(".", 1)[-1]
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id in ("getattr", "hasattr")
            and len(sub.args) > 1
            and isinstance(sub.args[1], ast.Constant)
            and isinstance(sub.args[1].value, str)
        ):
            yield sub.args[1].value


def module_references(source: str) -> Iterator[Tuple[Optional[str], str]]:
    """``(owner, name)`` per name read in a module: ``owner`` is the
    top-level ``def`` / ``class`` the read sits in, ``None`` for code that
    runs on import.  A module-level import is not a read (its use is), so an
    ``__init__`` re-export reads nothing; decorators and base classes run on
    import.  ``import x as y`` makes a read of ``y`` a read of ``x``."""
    tree = ast.parse(source)
    aliases = {
        alias.asname: alias.name.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname
    }
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            eager = [*stmt.decorator_list, *getattr(stmt, "bases", ())]
            owned = [n for n in ast.iter_child_nodes(stmt) if n not in eager]
            pairs = [(None, n) for n in eager] + [(stmt.name, n) for n in owned]
        else:
            pairs = [(None, stmt)]
        for owner, node in pairs:
            for name in _referenced(node):
                yield owner, name
                if name in aliases:
                    yield owner, aliases[name]


def definitions(source: str) -> Dict[str, int]:
    """Top-level ``def`` / ``class`` name → its length in lines."""
    return {
        stmt.name: stmt.end_lineno - stmt.lineno + 1
        for stmt in ast.parse(source).body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def ci_scripts(repo: Path = REPO) -> Tuple[str, List[Path]]:
    """``ci.yml``'s text and the repo scripts it runs (``python X.py``), a
    ``test_*.py`` file aside: a test is no reader, even one CI runs."""
    ci = (repo / ".github" / "workflows" / "ci.yml").read_text("utf-8")
    scripts = sorted({repo / script for script in re.findall(r"python3? ([\w/]+\.py)", ci)})
    return ci, [path for path in scripts if path.is_file() and not path.name.startswith("test_")]


def outside_readers(repo: Path = REPO) -> Set[str]:
    """Names read by what is not a test: benches, examples, CI and the
    scripts it runs, the README's python blocks and the console script."""
    ci, scripts = ci_scripts(repo)
    names = set(re.findall(r"[A-Za-z_]\w*", ci))
    for path in scripts + [
        path
        for directory in READER_DIRS
        for path in sorted((repo / directory).rglob("*.py"))
        if not path.name.startswith("test_")
    ]:
        names.update(_referenced(ast.parse(path.read_text("utf-8"))))
    readme = (repo / "README.md").read_text("utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        names.update(_referenced(ast.parse(block)))
    pyproject = (repo / "pyproject.toml").read_text("utf-8")
    names.update(re.findall(r'^\w+ = "[\w.]+:(\w+)"', pyproject, re.M))
    return names


def unread_names(
    sources: Dict[str, str], reached: Set[str], outside: Set[str]
) -> Dict[Tuple[str, str], int]:
    """``(module, name) → lines`` for every public top-level name of a
    reached module that no non-test code reads.  A read from inside a name
    counts once that name is read itself (a fixed point), so a helper only
    test-only names read is test-only too; a name does not read itself."""
    defined = {m: definitions(sources[m]) for m in sorted(reached)}
    owners_of: Dict[str, List[Tuple[str, str]]] = {}
    for module, names in defined.items():
        for name in names:
            owners_of.setdefault(name, []).append((module, name))
    edges: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
    live: Set[Tuple[str, str]] = set()
    for module in defined:
        for owner, name in module_references(sources[module]):
            for target in owners_of.get(name, ()):
                if owner is None:
                    live.add(target)
                elif target != (module, owner):
                    edges.setdefault((module, owner), set()).add(target)
    live.update(t for name in outside for t in owners_of.get(name, ()))
    frontier = list(live)
    while frontier:
        for target in edges.get(frontier.pop(), ()):
            if target not in live:
                live.add(target)
                frontier.append(target)
    return {
        (module, name): lines
        for module, names in defined.items()
        for name, lines in names.items()
        if not name.startswith("_") and (module, name) not in live
    }


def unread_members(
    sources: Dict[str, str], reached: Set[str], outside: Set[str]
) -> Dict[Tuple[str, str, str], int]:
    """``(module, class, member) → lines`` for every public method or
    property of a public class of a reached module whose name nothing but
    tests reads: no attribute, bare name or ``getattr`` string in ``src/``
    or ``outside`` uses it."""
    read = set(outside)
    for source in sources.values():
        read.update(_referenced(ast.parse(source)))
    return {
        (module, stmt.name, item.name): item.end_lineno - item.lineno + 1
        for module in sorted(reached)
        for stmt in ast.parse(sources[module]).body
        if isinstance(stmt, ast.ClassDef)
        and not stmt.name.startswith("_")
        for item in stmt.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
        and item.name not in read
    }


def census(src: Path = SRC) -> Tuple[
    Dict[str, str], Set[str], Dict[Tuple[str, str], int],
    Dict[Tuple[str, str, str], int],
]:
    """``(every module's source, the reached modules, test-only names,
    test-only members)``."""
    files = module_files(src)
    sources = {m: path.read_text("utf-8") for m, path in files.items()}
    reached = reached_modules(files)
    outside = outside_readers()
    return (
        sources,
        reached,
        unread_names(sources, reached, outside),
        unread_members(sources, reached, outside),
    )


def test_census_scanners_see_what_they_guard(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "sub" / "__init__.py").write_text("")
    (package / "main.py").write_text(
        "def run():\n"
        "    from pkg.sub import leaf\n"
        "    return leaf\n"
    )
    (package / "sub" / "leaf.py").write_text("")
    (package / "via.py").write_text("from pkg import sub\n")
    (package / "orphan.py").write_text("")
    modules = module_files(package)
    # a function-local import and ``from pkg.sub import leaf`` reach ``leaf``
    assert reached_modules(modules, ("pkg.main",)) == {
        "pkg", "pkg.main", "pkg.sub", "pkg.sub.leaf",
    }
    # ``from pkg import sub`` reaches the subpackage; the planted module is not
    assert reached_modules(modules, ("pkg.via",)) == {"pkg", "pkg.via", "pkg.sub"}
    assert "pkg.orphan" not in reached_modules(modules, ("pkg.main", "pkg.via"))

    sources = {
        "pkg": "from pkg.lib import exported\n__all__ = ['exported']\n",
        "pkg.lib": (
            "def exported():\n    '''helper() in a docstring is no read.'''\n"
            "def helper():\n    return helper()\n"
            "def caller():\n    return helper()\n"
            "def used_here():\n    pass\n"
            "TABLE = {'x': used_here}\n"
            "def local():\n    pass\n"
            "def planted():\n    return chained()\n"
            "def chained():\n    pass\n"
        ),
        "pkg.app": (
            "def main():\n"
            "    from pkg.lib import caller, local as renamed\n"
            "    return caller(), renamed()\n"
        ),
    }
    found = unread_names(sources, set(sources), outside={"main"})
    # a re-export, ``__all__``, a docstring and a self-call are no readers;
    # a name only a test-only name reads is test-only too
    assert set(found) == {
        ("pkg.lib", "exported"), ("pkg.lib", "planted"), ("pkg.lib", "chained"),
    }
    # a function-local import (renamed or not) and a same-module use read;
    # a name's size is its length in lines
    assert found[("pkg.lib", "planted")] == 2

    sources["pkg.model"] = (
        "class Host:\n"
        "    def by_attribute(self):\n        pass\n"
        "    def by_getattr(self):\n        pass\n"
        "    @property\n    def unread(self):\n        return 1\n"
        "    def _private(self):\n        pass\n"
        "class _Hidden:\n    def unseen(self):\n        pass\n"
        "def use(host):\n"
        "    return host.by_attribute(), getattr(host, 'by_getattr')\n"
    )
    members = unread_members(sources, set(sources), outside=set())
    # an attribute read or a getattr string reads a member; a private member
    # or one of a private class is not counted; a size is in lines
    assert members == {("pkg.model", "Host", "unread"): 2}


def test_census_reports_a_planted_module_name_and_member(tmp_path):
    src = tmp_path / "repro"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    (src / "planted.py").write_text("def orphan():\n    pass\n")
    with open(src / "smr" / "log.py", "a", encoding="utf-8") as handle:
        handle.write(
            "\n\ndef planted():\n    return PlantedHost\n"
            "\n\nclass PlantedHost:\n"
            "    def planted_member(self):\n        return 1\n"
        )
    sources, reached, names, members = census(src)
    assert set(sources) - reached == {"repro.planted"}
    assert set(names) == {
        ("repro.smr.log", "planted"), ("repro.smr.log", "PlantedHost"),
    }
    assert set(members) == {("repro.smr.log", "PlantedHost", "planted_member")}

    # A script ``ci.yml`` runs reads; a test file reads nothing, run by CI or not.
    repo = tmp_path / "repo"
    (repo / ".github" / "workflows").mkdir(parents=True)
    (repo / "tests").mkdir()
    (repo / ".github" / "workflows" / "ci.yml").write_text(
        "run: python tests/cells.py a\nrun: python tests/test_cells.py\nrun: python -m pytest\n"
    )
    (repo / "tests" / "cells.py").write_text("from repro.smr.log import by_cells\nby_cells()\n")
    for test in ("test_cells.py", "test_log.py"):
        (repo / "tests" / test).write_text("from repro.smr.log import by_test\nby_test()\n")
    (repo / "README.md").write_text("")
    (repo / "pyproject.toml").write_text("")
    sources = {"repro.smr.log": "def by_cells():\n    pass\n\n\ndef by_test():\n    pass\n"}
    found = unread_names(sources, set(sources), outside_readers(repo))
    assert set(found) == {("repro.smr.log", "by_test")}


def test_every_module_is_reachable():
    # No allow-list: a module no command imports is wired or deleted.
    sources, reached, _names, _members = census()
    assert set(sources) - reached == set()


def test_every_public_name_has_a_reader():
    # No allow-list: a name only tests read is deleted, not listed.
    _sources, _reached, names, _members = census()
    assert names == {}


def test_every_public_member_has_a_reader():
    # No allow-list: the paper-claim predicates are read by benchmarks/paper.py.
    _sources, _reached, _names, members = census()
    assert members == {}


# ------------------------------------------------------------ option census

def subcommands(
    parser: argparse.ArgumentParser,
) -> Dict[str, argparse.ArgumentParser]:
    """``name → parser`` of ``parser``'s subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def cli_options(parser: argparse.ArgumentParser) -> Set[str]:
    """Every long option of ``parser`` and of its subcommands, ``--help``
    aside."""
    options = {
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--")
    }
    for sub in subcommands(parser).values():
        options |= cli_options(sub)
    return options - {"--help"}


def option_setters(repo: Path = REPO) -> str:
    """The text an option counts as set in: ``ci.yml`` and the repo scripts
    it runs, every non-test script under ``READER_DIRS``, and every fenced
    block of the README."""
    ci, scripts = ci_scripts(repo)
    texts = [ci] + [script.read_text("utf-8") for script in scripts]
    for directory in READER_DIRS:
        for path in sorted((repo / directory).rglob("*.py")):
            if not path.name.startswith("test_"):
                texts.append(path.read_text("utf-8"))
    readme = (repo / "README.md").read_text("utf-8")
    texts += re.findall(r"```[^\n]*\n(.*?)```", readme, re.S)
    return "\n".join(texts)


def unread_options(options: Set[str], text: str) -> Set[str]:
    """The options ``text`` never spells as a whole word."""
    return {
        option
        for option in options
        if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text)
    }


def test_option_census_sees_what_it_guards():
    from repro.cli import build_parser

    parser = build_parser()
    fuzz_shrink = subcommands(subcommands(parser)["fuzz"])["shrink"]
    fuzz_shrink.add_argument("--planted-knob", type=int, default=1)
    options = cli_options(parser)
    # a sub-subcommand's option is seen; ``--help`` and ``-h`` are not options
    assert "--planted-knob" in options and "--budget" in options
    assert "--help" not in options and "-h" not in options
    # a longer option, or one glued to a word, does not spell it
    text = "fuzz run --batch-bytes 64 --seeds 3 x--budget\n--shrunk"
    assert unread_options({"--batch", "--seed", "--budget", "--shrunk"}, text) == {
        "--batch", "--seed", "--budget",
    }
    assert "--planted-knob" in unread_options(options, option_setters())


def test_every_option_has_a_setter():
    from repro.cli import build_parser

    assert unread_options(cli_options(build_parser()), option_setters()) == set()


def main() -> int:
    sources, reached, names, members = census()
    lines = {m: len(source.splitlines()) for m, source in sources.items()}
    for module in sorted(sources):
        state = "reached" if module in reached else "UNREACHED"
        print(f"{state:9} {lines[module]:5}  {module}")
    cut = sum(lines[m] for m in sources if m not in reached)
    print(f"{sum(lines.values()) - cut} lines reached, {cut} unreached")
    for (module, name), size in sorted(names.items()):
        print(f"test-only {size:5}  {module}.{name}")
    print(f"{sum(names.values())} lines in test-only names")
    for (module, cls, member), size in sorted(members.items()):
        print(f"test-only {size:5}  {module}.{cls}.{member}")
    print(f"{sum(members.values())} lines in test-only members")
    from repro.cli import build_parser

    options = cli_options(build_parser())
    for option in sorted(unread_options(options, option_setters())):
        print(f"unset option  {option}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
