"""The package's modules import one another without a cycle, and only
``_forked`` starts processes."""

import ast
from pathlib import Path

import milnet

PACKAGE = Path(milnet.__file__).resolve().parent


def package_imports() -> dict[str, set[str]]:
    """Module name -> the package modules it imports, at any depth of its
    source (function-level imports included); ``__init__`` stands for the
    package itself."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for module in modules:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module and node.module.startswith("milnet"):
                    parts = node.module.split(".")[1:]
                elif node.level == 1:
                    parts = node.module.split(".") if node.module else []
                else:
                    continue
                if parts:
                    targets.add(parts[0])
                else:  # from . import a, b: modules, or names of the package
                    targets.update(a.name if a.name in modules else "__init__"
                                   for a in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == "milnet":
                        targets.add(parts[1] if len(parts) > 1 else "__init__")
        graph[module] = targets & modules
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle, as the modules along it, or None."""
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(module: str) -> list[str] | None:
        state[module] = 1
        path.append(module)
        for target in sorted(graph[module]):
            if state.get(target) == 1:
                return path[path.index(target):] + [target]
            if target not in state:
                cycle = visit(target)
                if cycle:
                    return cycle
        path.pop()
        state[module] = 2
        return None

    for module in sorted(graph):
        if module not in state:
            cycle = visit(module)
            if cycle:
                return cycle
    return None


def test_package_has_no_import_cycle():
    graph = package_imports()
    assert {"autodiff", "model", "_forked", "_kernels"} <= set(graph)
    # the modules that share the kernels import them
    assert all("_kernels" in graph[m] for m in ("autodiff", "model", "_forked"))
    cycle = find_cycle(graph)
    assert cycle is None, " -> ".join(cycle)


def test_finder_reports_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def process_starters(source: str) -> set[str]:
    """What a module's source uses to start processes: imports of
    ``multiprocessing``, imports or attributes named ``ProcessPoolExecutor``,
    and ``os.fork``, by attribute or import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names
                         if alias.name.split(".")[0] == "multiprocessing")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "multiprocessing":
                found.add(node.module)
            for alias in node.names:
                if alias.name == "ProcessPoolExecutor" or (
                        node.module == "os" and alias.name.startswith("fork")):
                    found.add(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Attribute):
            if node.attr == "ProcessPoolExecutor":
                found.add(node.attr)
            elif (node.attr.startswith("fork") and isinstance(node.value, ast.Name)
                  and node.value.id == "os"):
                found.add(f"os.{node.attr}")
    return found


def test_only_forked_starts_processes():
    starters = {path.stem: process_starters(path.read_text())
                for path in PACKAGE.glob("*.py")}
    assert starters.pop("_forked") >= {"multiprocessing", "concurrent.futures.ProcessPoolExecutor"}
    assert {module: found for module, found in starters.items() if found} == {}


def test_process_finder_sees_each_starter():
    assert process_starters("import multiprocessing.pool") == {"multiprocessing.pool"}
    assert process_starters("from multiprocessing import Pool") == {"multiprocessing"}
    assert process_starters("from concurrent.futures import ProcessPoolExecutor") == {
        "concurrent.futures.ProcessPoolExecutor"}
    assert process_starters("import concurrent.futures as cf\ncf.ProcessPoolExecutor()") == {
        "ProcessPoolExecutor"}
    assert process_starters("import os\nos.fork()") == {"os.fork"}
    assert process_starters("from os import fork") == {"os.fork"}
    # threads and fork hooks start no process
    assert process_starters(
        "import os\nfrom concurrent.futures import ThreadPoolExecutor\n"
        "os.register_at_fork(after_in_child=print)") == set()
