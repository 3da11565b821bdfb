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


# ------------------------------------------------ one way to run an instance

#: Every file under ``src/repro`` (outside ``engine/``, which defines them)
#: that calls ``build_instance`` / ``run_instance``: the scenario layer, the
#: three executors that hold a compiled scenario, and two library
#: conveniences (``AlgorithmSpec.run``, the Pcons-stack wrapper).
ASSEMBLY_CALLERS = {
    "scenarios/compile.py",
    "campaigns/runner.py",
    "fuzz/classify.py",
    "smr/serve.py",
    "algorithms/registry.py",
    "network/stack.py",
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
