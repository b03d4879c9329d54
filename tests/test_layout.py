"""Static checks of the source tree: its imports (place, use, graph, what importing it
loads), its one degenerate-set refusal, the callers of its public functions, the
tracer and benchmark names and the CI workflow."""

import ast
import functools
import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "boltzmann_billiard"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def package_imports(name: str) -> set:
    """The package modules that module `name` imports, at any depth of its tree."""
    found = set()
    for node in ast.walk(parse(PACKAGE / f"{name}.py")):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import x, y
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("boltzmann_billiard."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("boltzmann_billiard."))
    return found & set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function(name):
    for fn in ast.walk(parse(PACKAGE / f"{name}.py")):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner = [node.lineno for node in ast.walk(fn)
                     if isinstance(node, (ast.Import, ast.ImportFrom))]
            assert not inner, f"{name}.py imports inside {getattr(fn, 'name', 'lambda')} at {inner}"


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__"])
def test_every_import_is_used(name):
    # __init__ imports to re-export; every other module imports only what it uses
    tree = parse(PACKAGE / f"{name}.py")
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{name}.py imports {sorted(imported - used)} and never uses them"


def test_import_graph_has_no_cycle():
    graph = {name: package_imports(name) for name in MODULES}
    done, path = set(), []

    def visit(name):
        if name in path:
            pytest.fail("import cycle: " + " -> ".join(path[path.index(name):] + [name]))
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in MODULES:
        visit(name)


IMPORT_FOOTPRINT = """
import sys
import numpy
base = set(sys.modules)  # numpy's own modules, logging among them if this numpy loads it
import boltzmann_billiard
print(sorted(set(sys.modules) - base))
import boltzmann_billiard.cli
print(sorted(set(sys.modules) - base))
"""


@functools.lru_cache(maxsize=None)
def import_footprint() -> tuple:
    """The modules a fresh interpreter loads after numpy for the package, then for its CLI."""
    env = {**os.environ, "PYTHONWARNINGS": "error", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return tuple(map(ast.literal_eval, done.stdout.splitlines()))


def test_import_loads_no_logging_or_exact_arithmetic():
    # the library computes and the CLI logs: after numpy, the package loads no logging, and
    # neither it nor the CLI loads fractions or decimal (selftest's fixture is two doubles)
    library, cli = import_footprint()
    assert sorted({"logging", "fractions", "decimal"}.intersection(library)) == []
    assert sorted({"fractions", "decimal"}.intersection(cli)) == []


def test_library_loads_no_csv_formatter():
    # the CSV formatter is the CLI's: Dekker's product, the one part of it the library
    # used, is levelset's, so importing the package leaves csvtext unloaded
    library, cli = import_footprint()
    assert "boltzmann_billiard.csvtext" not in library
    assert "boltzmann_billiard.csvtext" in cli
    assert [name for name in MODULES if "csvtext" in package_imports(name)] == ["cli"]


def test_levelset_computes_no_integral():
    # the class table and the curve data need no elliptic integral
    assert "elliptic" not in package_imports("levelset")


@pytest.mark.parametrize("name", ["elliptic", "levelset"])
def test_base_layers_import_only_errors(name):
    # the array kernels sit above these two, beside the scalar functions they repeat
    imports = package_imports(name)
    assert imports <= {"errors"}, f"{name}.py imports {sorted(imports)}"


def test_one_degenerate_set_refusal():
    # every function that needs a nondegenerate level set calls levelset._require_nondegenerate
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        sites += [(path.name, node.lineno) for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Raise)
                  and "degenerate level set" in ast.get_source_segment(text, node)]
    assert [name for name, _ in sites] == ["levelset.py"], sites


# the README's single-point API: documented for users, so it needs no caller in the tree
SINGLE_POINT_API = {"detect_period_direct", "i_fixed_point", "project_onto_level_set",
                    "reflect_at_wall"}


def references(path: pathlib.Path) -> set:
    """Names a file uses (loaded names, attributes, string literals), outside the def of each."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            found.update({node.id} - inside)
        elif isinstance(node, ast.Attribute):
            found.update({node.attr} - inside)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update({node.value} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(parse(path), frozenset())
    return found


def test_every_public_function_has_a_caller():
    # a public function is called by another package module, a script or the benchmark,
    # or is part of the documented single-point API
    package = importlib.import_module("boltzmann_billiard")
    functions = {name for name in package.__all__ if inspect.isfunction(getattr(package, name))}
    assert SINGLE_POINT_API <= functions
    files = [PACKAGE / f"{name}.py" for name in MODULES if name != "__init__"]
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*map(references, files))
    assert sorted(functions - used - SINGLE_POINT_API) == []


def tracer_table(name: str):
    """A module-level literal of perfbench/tracer.py, read without importing it."""
    for node in parse(ROOT / "perfbench" / "tracer.py").body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_tracer_names_exist():
    # the tracer wraps these by name; a missing one would only show in its smoke run
    for layer, names in tracer_table("LAYERS").items():
        module = importlib.import_module(f"boltzmann_billiard.{layer}")
        for fname in names:
            assert callable(getattr(module, fname, None)), f"{layer}.{fname}"
    for consumer in tracer_table("CONSUMERS"):
        importlib.import_module(f"boltzmann_billiard.{consumer}")
    assert callable(importlib.import_module("boltzmann_billiard.levelset").ConfigPoint.L)


def test_ci_runs_no_inline_python():
    # CI runs tier-1, the installed console script and the benchmark smoke run; a check
    # written as a python -c block in the workflow would be a second suite, so it goes here
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert re.findall(r"python3?\s+-c\b", workflow) == []


def resolve(dotted: str):
    """The module, or attribute of one, that a dotted name names; raises if there is none."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        parent, _, name = dotted.rpartition(".")
        return getattr(resolve(parent), name)


def test_benchmark_names_exist():
    # the benchmark's child process and its checks import these names of the package and
    # read attributes of them; a missing one would only show when the benchmark runs
    read = set()
    for path in (ROOT / "perfbench" / "child.py", ROOT / "perfbench" / "workloads.py"):
        nodes, bound = list(ast.walk(parse(path))), {}  # local name -> dotted name
        for node in nodes:
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name, a.name) for a in node.names if a.name == PACKAGE.name)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(PACKAGE.name):
                bound.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
        read.update(bound.values())
        read.update(f"{bound[node.value.id]}.{node.attr}" for node in nodes
                    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in bound)
    for dotted in read:
        resolve(dotted)
    assert {"boltzmann_billiard.cli.main", "boltzmann_billiard.cli.build_parser",
            "boltzmann_billiard.periods.find_periodic_locus",
            "boltzmann_billiard.periods.poncelet_check",
            "boltzmann_billiard.periods.empirical_rotation", "boltzmann_billiard.derive_params",
            "boltzmann_billiard.map_t", "boltzmann_billiard.sample_level_set",
            "boltzmann_billiard.elliptic._complete_K.cache_info"} <= read
    # child.py calls it after every timed run
    assert callable(resolve("boltzmann_billiard.elliptic._complete_K.cache_info"))
