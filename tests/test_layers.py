"""The declared layer order of ``src/repro``, and the scan that holds the tree to it.

``LAYERS`` is the one place the order is written.  Every ``repro``
import of every module must point down it: an import at top level, in
a function body or under ``TYPE_CHECKING``, and a module named in a
string (``importlib.import_module("repro.…")``, ``AXIS_MODULES``, a
backend entry's ``module=``) alike.  No import is deferred to get
round it, and the module graph has no cycle.  The planted cases put
one violation of each kind in a module the scan has not seen; a fresh
interpreter imports every package root first.
"""

import ast
import graphlib
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"

#: The layer order, lowest first, as ``(prefix, importers)`` rows.  A
#: module sits in the row of the longest prefix that names it among the
#: rows without importers, and may import its own row and the rows
#: below.  A row with importers takes no place in the order: it narrows
#: who may import it at all.
LAYERS = (
    ("repro", None),  # the root package imports nothing
    ("repro.utils", None),
    ("repro.spec", None),
    ("repro.machine", None),
    ("repro.linalg", None),
    ("repro.precond", None),
    ("repro.reliability", None),
    ("repro.comm", None),
    # The simulator is reached only through the front end (respawn,
    # revoke and epochs are LFLR's).
    ("repro.comm.simstate", ("repro.comm",)),
    ("repro.comm.sim", ("repro.comm", "repro.lflr")),
    ("repro.checkpoint", None),
    ("repro.krylov", None),
    ("repro.skeptical", None),
    ("repro.krylov.registry", None),  # names the skeptical solver
    ("repro.pde", None),
    ("repro.lflr", None),
    ("repro.rbsp", None),
    ("repro.experiments", None),
    ("repro.campaign", None),
    ("repro.axes", None),  # names campaign.executor among its axis modules
    ("repro.campaign.cli", None),
    ("repro.campaign.__main__", None),
)


def _within(module, package):
    return module == package or module.startswith(package + ".")


def _source_module(module):
    """Whether ``module`` is a module file or a package in ``src/``."""
    path = REPO_ROOT.joinpath("src", *module.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def _module_name(path):
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(tree):
    """``(line, module)`` for each ``repro`` module ``tree`` imports, at
    any depth (``n`` of ``from M import n`` included when it is a module
    itself), or names in a string that is exactly a module's name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names
                if _source_module(f"{node.module}.{alias.name}")
            ]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            names = [node.value] if parts[0] == "repro" and all(map(str.isidentifier, parts)) \
                and _source_module(node.value) else []
        else:
            continue
        yield from ((node.lineno, name) for name in names if name.split(".")[0] == "repro")


def _layer(module):
    """The index of ``module``'s row in the order."""
    rows = [i for i, (prefix, importers) in enumerate(LAYERS)
            if importers is None and _within(module, prefix)]
    return max(rows, key=lambda i: len(LAYERS[i][0]))


def _refusals(module, tree):
    """``(line, message)`` for each import of ``module`` (its source
    parsed as ``tree``) that the table refuses."""
    for line, imported in _imported_modules(tree):
        if not _source_module(imported):
            yield line, f"{imported} is no module in src/"
            continue
        if _layer(imported) > _layer(module):
            yield line, f"{imported} sits above {LAYERS[_layer(module)][0]}"
        for prefix, importers in LAYERS:
            if importers and _within(imported, prefix) and not any(
                _within(module, allowed) for allowed in importers
            ):
                yield line, f"only {', '.join(importers)} may import {prefix}"


def _import_graph():
    """``{module: modules it imports}`` over ``src/repro``; importing a
    module imports its packages too, and its own packages are left out
    (they are importing it)."""
    graph = {}
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        edges = graph[module] = set()
        for _, imported in _imported_modules(ast.parse(path.read_text(encoding="utf-8"))):
            parts = imported.split(".")
            for depth in range(1, len(parts) + 1):
                name = ".".join(parts[:depth])
                if not _within(module, name):
                    edges.add(name)
    return graph


def _cycle(graph):
    """One import cycle of ``graph`` (its modules, the first repeated
    last), or ``None`` when there is none."""
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as error:
        return error.args[1]
    return None


def test_every_import_points_down_the_declared_order():
    refused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refused += [(path.relative_to(SRC).as_posix(), line, message)
                    for line, message in _refusals(_module_name(path), tree)]
    assert refused == []


def test_the_module_graph_has_no_cycle():
    assert _cycle(_import_graph()) is None


def test_every_module_sits_in_a_declared_row_and_every_row_names_code():
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        assert module == "repro" or _layer(module) > 0, module
    for prefix, _ in LAYERS:
        assert _source_module(prefix), prefix


#: One violation per sub-check, on the line marked ``# <-``.
_PLANTED = {
    "top-level": ("repro.linalg.planted", "from repro.krylov.gmres import gmres  # <-\n"),
    "function-body": ("repro.krylov.engine.planted", """\
        def lane():
            from repro.skeptical.gmres_sdc import SdcLane  # <-
            return SdcLane
        """),
    "type-checking": ("repro.comm.planted", """\
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from repro.experiments.common import ExperimentSpec  # <-
        """),
    "importlib-string": ("repro.reliability.planted", """\
        import importlib

        executor = importlib.import_module("repro.campaign.executor")  # <-
        """),
    "module-name-constant": ("repro.comm.planted", """\
        ENTRIES = [
            dict(name="lflr", module="repro.lflr.manager", launcher="launch"),  # <-
        ]
        """),
    "init-reexport": ("repro.krylov", "from repro.krylov.registry import batch_solve  # <-\n"),
    "simstate": ("repro.pde.planted", "from repro.comm.simstate import VirtualClock  # <-\n"),
    "sim": ("repro.checkpoint.planted", "from repro.comm import sim  # <-\n"),
    "no-such-module": ("repro.utils.planted", "import repro.nothing_here  # <-\n"),
}


@pytest.mark.parametrize("case", sorted(_PLANTED))
def test_the_scan_refuses_each_planted_import(case):
    module, source = _PLANTED[case]
    lines = textwrap.dedent(source).splitlines()
    found = list(_refusals(module, ast.parse("\n".join(lines))))
    assert [line for line, _ in found] == [
        number for number, text in enumerate(lines, 1) if text.endswith("# <-")
    ]


def test_the_cycle_scan_finds_a_planted_back_edge():
    graph = _import_graph()
    graph["repro.reliability.region"].add("repro.reliability.registry")
    assert sorted(set(_cycle(graph))) == [
        "repro.reliability.models", "repro.reliability.region", "repro.reliability.registry",
    ]


def test_each_package_root_imports_first():
    """One fresh interpreter imports every package root and top-level
    module in turn, dropping ``repro.*`` from ``sys.modules`` between
    them, so a cycle that only an import order exposes fails."""
    roots = [
        _module_name(path) for path in sorted(SRC.rglob("*.py"))
        if path.name == "__init__.py" or path.parent == SRC
    ]
    script = textwrap.dedent("""\
        import importlib
        import sys

        for root in sys.argv[1:]:
            for name in [name for name in sys.modules if name.split(".")[0] == "repro"]:
                del sys.modules[name]
            print(root, flush=True)
            importlib.import_module(root)
        """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *roots],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout.splitlines()[-1:] + [done.stderr]
    assert done.stdout.split() == roots
