"""The repository lints itself: five rules over its sources and documents.

* ``determinism`` -- no global-state RNG, calendar clock or hash-order
  iteration in python (results must be pure functions of parameters and
  seed, and campaign code outside the driver tables must order what it
  lists);
* ``spec-strings`` -- every fault / precond / precision / chaos /
  backend spec quoted in python (entry-point arguments, axis keywords,
  sweep dict values, docstrings) or in markdown parses against the live
  axis declarations;
* ``doc-links`` -- every relative markdown link, every repo path
  quoted in a markdown code span, and every ``*.md`` name in a python
  module, class or function docstring names a file on disk;
* ``matmul-dispatch`` -- no ``@`` operator in the sequential kernel
  modules (``ndarray.dot`` reaches the same BLAS call with the same bits
  for less dispatch, which dominates at the sizes campaigns sweep).
* ``process-hazards`` -- every forked process in ``src/repro`` is a
  ``utils.child.Child`` (the one ``os.fork``) whose reads wait on a
  finite timeout, and no ``multiprocessing`` queue, pool or pipe exists
  to orphan a lock when a rank or worker is SIGKILLed.

Each rule is a plain function over one parsed file that yields
``(line, message)``.  ``TestSelfRun`` parses ``src/repro``, ``tests``,
``README.md`` and every document its links reach once and runs every
rule over them; the other tests plant one violation per check.  A python finding may be
suppressed by ``# repro: allow(<rule>)`` on its own line or the line
above, with a justification after it; nothing under ``src/`` carries
one, and a markdown finding is fixed.
"""

import ast
import functools
import importlib
import pathlib
import re
import textwrap
import time
from types import SimpleNamespace
from typing import Iterator, List, NamedTuple, Optional, Tuple

import pytest

from repro.axes import declared_axes
from test_layers import _within

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)\s*\)"
)

# Documents that record history rather than describe the tree: they
# quote the spec a parser now refuses and the file a change deleted.
HISTORY_DOCUMENTS = frozenset({"CHANGES.md", "ROADMAP.md"})


class Source(NamedTuple):
    """One linted file; ``tree`` is ``None`` for markdown."""

    root: pathlib.Path
    rel: str
    text: str
    tree: Optional[ast.AST]


class Finding(NamedTuple):
    path: str
    line: int
    message: str


def load(root: pathlib.Path, packages, documents) -> List[Source]:
    """Parse the python files under ``packages``; read ``documents``
    (markdown paths relative to ``root``)."""
    sources = []
    for package in packages:
        for path in sorted(package.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            rel = path.relative_to(root).as_posix()
            sources.append(Source(root, rel, text, ast.parse(text, rel)))
    for rel in documents:
        sources.append(Source(root, rel, (root / rel).read_text(encoding="utf-8"), None))
    return sources


def documentation(root: pathlib.Path) -> List[str]:
    """``README.md`` and every markdown file its relative links reach,
    transitively, as paths relative to ``root``."""
    root = root.resolve()
    found, pending = set(), [root / "README.md"]
    while pending:
        path = pending.pop()
        if path in found or not path.is_file():
            continue
        found.add(path)
        for target in _LINK_RE.findall(path.read_text(encoding="utf-8")):
            relative = target.split("#", 1)[0]
            if relative.endswith(".md") and "://" not in relative:
                linked = (path.parent / relative).resolve()
                if root in linked.parents:
                    pending.append(linked)
    return sorted(path.relative_to(root).as_posix() for path in found)


def allowed(lines: List[str], line: int, rule: str) -> bool:
    """Whether a suppression comment on ``line`` or the line above names ``rule``."""
    matches = (SUPPRESSION_RE.search(text) for text in lines[max(line - 2, 0):line])
    return any(m and rule in re.split(r"\s*,\s*", m.group(1)) for m in matches)


def findings(rule: str, sources) -> Tuple[List[Finding], List[Finding]]:
    """``(active, suppressed)`` findings of ``rule`` over ``sources``."""
    active, suppressed = [], []
    for source in sources:
        lines = source.text.splitlines()
        for line, message in sorted(set(RULES[rule](source))):
            waived = source.tree is not None and allowed(lines, line, rule)
            (suppressed if waived else active).append(Finding(source.rel, line, message))
    return active, suppressed


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


# ---------------------------------------------------------------------------
# Rule: determinism
# ---------------------------------------------------------------------------

# np.random attributes that build explicitly seeded streams.
_NP_RANDOM_OK = {"Generator", "default_rng", "SeedSequence", "BitGenerator",
                 "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64"}
_WALL_CLOCK_CALLS = {"time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
                     "datetime.today", "datetime.datetime.now", "datetime.datetime.utcnow",
                     "datetime.datetime.today", "date.today", "datetime.date.today"}
_LISTING_CALLS = {"os.listdir", "glob.glob", "glob.iglob", "os.scandir"}
_LISTING_METHODS = {"iterdir", "rglob", "glob"}


def _call_hazard(call: ast.Call, stamps, ordered) -> Optional[str]:
    name = dotted_name(call.func)
    if name is None:
        return None
    if name.startswith(("np.random.", "numpy.random.")):
        if name.rsplit(".", 1)[1] not in _NP_RANDOM_OK:
            return (f"global-state RNG call {name}(); seed an explicit Generator "
                    "(np.random.default_rng / reliability.seeding.derive_seed) instead")
    elif name.startswith("random."):
        return f"stdlib global-state RNG call {name}(); use an explicit numpy Generator instead"
    elif name in _WALL_CLOCK_CALLS:
        if call not in stamps:
            return (f"wall-clock read {name}(); use time.perf_counter / time.monotonic, "
                    "or pass it as an excluded-from-parity wall_time= metadata stamp")
    elif call in ordered:
        return None
    elif name in _LISTING_CALLS or (
        isinstance(call.func, ast.Attribute) and call.func.attr in _LISTING_METHODS
        and dotted_name(call.func.value) not in ("glob", "os")
    ):
        return (f"{name}() lists files in filesystem order; wrap it in sorted(...) "
                "for a deterministic sweep")
    return None


def determinism(source: Source) -> Iterator[Tuple[int, str]]:
    """Global-state RNG, calendar-clock reads, set-order iteration and
    unsorted directory listings.  A ``time.time()`` passed straight as a
    ``wall_time=`` keyword is the ledger's metadata stamp and allowed."""
    if source.tree is None:
        return
    nodes = list(ast.walk(source.tree))
    calls = [node for node in nodes if isinstance(node, ast.Call)]
    stamps = {kw.value for call in calls for kw in call.keywords if kw.arg == "wall_time"}
    ordered = {arg for call in calls if isinstance(call.func, ast.Name)
               and call.func.id in ("sorted", "frozenset", "set", "len") for arg in call.args}
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""])
            if any(m == "random" or m.startswith("random.") for m in modules):
                yield node.lineno, ("stdlib 'random' is global-state RNG; use an explicit "
                                    "numpy Generator seeded via reliability.seeding")
        elif isinstance(node, (ast.For, ast.comprehension)):
            it = node.iter
            is_set = isinstance(it, (ast.Set, ast.SetComp)) or (
                isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id in ("set", "frozenset"))
            if is_set and it not in ordered:
                yield getattr(node, "lineno", it.lineno), (
                    "iteration over a set draws hash order (randomized for strings); "
                    "iterate a sorted(...) or a tuple instead")
        elif isinstance(node, ast.Call):
            hazard = _call_hazard(node, stamps, ordered)
            if hazard:
                yield node.lineno, hazard


# ---------------------------------------------------------------------------
# Rule: spec-strings
# ---------------------------------------------------------------------------

# A doc token must look like KIND:NAME=VALUE[,...] (optionally
# "+"-composed) before it is dispatched to a parser.
_DOC_TOKEN_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*:[^:\s]*=")
_BACKTICK_RE = re.compile(r"`([^`\n]+)`")
_QUOTED_RE = re.compile(r'"([^"\s]+)"')


def _callable_name(func) -> str:
    """How source code spells a call of ``func``: ``f`` or ``Class.method``."""
    owner = getattr(func, "__self__", None)
    return f"{owner.__name__}.{func.__name__}" if isinstance(owner, type) else func.__name__


@functools.lru_cache(maxsize=None)
def _axis_tables() -> SimpleNamespace:
    """Spelled call name / keyword or dict key / spec kind -> axis name,
    and axis name -> its ``resolve``, read off the axis declarations."""
    tables = SimpleNamespace(resolve={}, calls={}, keys={}, kinds={})
    for axis in declared_axes():
        if axis.spec is None:
            continue
        tables.resolve[axis.name] = axis.resolve
        for func in (axis.resolve, axis.spec.parse, *axis.entry_points):
            tables.calls[_callable_name(func)] = axis.name
        tables.keys.update(dict.fromkeys(axis.keywords, axis.name))
        for kind in axis.spec.KINDS:
            tables.kinds.setdefault(kind, axis.name)  # "none" is every axis's identity
    return tables


def _direct_strings(node: ast.AST) -> Iterator[Tuple[str, int]]:
    """String literals that *are* the value: constants, literal
    collections and conditional branches flow into the parsers verbatim;
    dict keys and helper-call arguments inside the value do not."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value, node.lineno
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for element in node.elts:
            yield from _direct_strings(element)
    elif isinstance(node, ast.IfExp):
        yield from _direct_strings(node.body)
        yield from _direct_strings(node.orelse)
    elif isinstance(node, ast.BoolOp):
        for value in node.values:
            yield from _direct_strings(value)


def _doc_specs(text: str) -> Iterator[Tuple[str, str]]:
    """``(axis, token)`` of the spec-shaped tokens in backtick spans and
    double quotes whose kind an axis declares; ``...`` or ``…`` marks a
    grammar sketch, not a concrete spec."""
    spans = [m.group(1) for m in _BACKTICK_RE.finditer(text)]
    spans.extend(m.group(1) for m in _QUOTED_RE.finditer(text))
    for span in spans:
        for token in [span.strip().strip('"'), *(m.group(1) for m in _QUOTED_RE.finditer(span))]:
            if _DOC_TOKEN_RE.match(token) and "..." not in token and "…" not in token:
                axis = _axis_tables().kinds.get(token.split(":", 1)[0].split("+", 1)[0].lower())
                if axis:
                    yield axis, token


def _quoted_specs(source: Source) -> Iterator[Tuple[str, str, int, str]]:
    """``(axis, text, line, context)`` of every spec ``source`` quotes."""
    tables = _axis_tables()
    if source.tree is None:
        if source.rel not in HISTORY_DOCUMENTS:
            for lineno, line in enumerate(source.text.splitlines(), start=1):
                for axis, token in _doc_specs(line):
                    yield axis, token, lineno, "documentation"
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and node.args:
                tail = name.split(".")
                # Bare names and dotted access, "FaultSpec.parse" included.
                axis = tables.calls.get(tail[-1]) or tables.calls.get(".".join(tail[-2:]))
                if axis:
                    for text, line in _direct_strings(node.args[0]):
                        yield axis, text, line, f"argument of {name}"
            for keyword in node.keywords:
                if keyword.arg in tables.keys:
                    for text, line in _direct_strings(keyword.value):
                        yield tables.keys[keyword.arg], text, line, f"{keyword.arg}= keyword"
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value in tables.keys:
                    for text, line in _direct_strings(value):
                        yield tables.keys[key.value], text, line, f"{key.value!r} dict entry"
        elif isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            docstring = ast.get_docstring(node, clean=False)
            for axis, token in _doc_specs(docstring or ""):
                yield axis, token, node.body[0].lineno, "docstring example"


def spec_strings(source: Source) -> Iterator[Tuple[int, str]]:
    """Every quoted spec is one its axis's own ``resolve`` accepts."""
    for axis, text, line, context in _quoted_specs(source):
        try:
            _axis_tables().resolve[axis](text)
        except (ValueError, TypeError) as exc:
            yield line, f"invalid {axis} spec {text!r} ({context}): {exc}"


# ---------------------------------------------------------------------------
# Rule: doc-links
# ---------------------------------------------------------------------------

# Every "](target)", not whole "[text](target)" links: link text may
# itself hold brackets (badges), which would wave a dangling target by.
_LINK_RE = re.compile(r"\]\(([^)\s]+)\)")
# A fenced block, or an inline span (which may wrap, but not across a
# blank line).
_CODE_RE = re.compile(
    r"^[ \t]*```.*?^[ \t]*```[ \t]*$|`(?:[^`\n]|\n(?![ \t]*\n))+`",
    re.MULTILINE | re.DOTALL,
)
_PATH_RE = re.compile(
    r"(?<![\w./-])(?:src|tests|benchmarks|scripts|examples)/[\w./*?<>{}\[\]$…-]+"
)
_EXTENSION_RE = re.compile(r"\.[A-Za-z0-9]+$")
_PLACEHOLDER_CHARS = frozenset("*?<>{}[]$…")
# A document name in a docstring, repo-relative; not part of a URL.
_DOCUMENT_RE = re.compile(r"(?<![\w./:-])[\w./-]+\.md\b")
_DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def doc_links(source: Source) -> Iterator[Tuple[int, str]]:
    """Relative links resolve, and so do repo paths quoted as code
    (globs and placeholders aside; history documents and the ledger's
    archive quote what no longer exists) and the documents python
    docstrings name."""
    if source.tree is not None:
        for node in ast.walk(source.tree):
            if isinstance(node, _DOCSTRING_OWNERS) and ast.get_docstring(node) is not None:
                doc = node.body[0].value
                for match in _DOCUMENT_RE.finditer(doc.value):
                    if not (source.root / match.group()).is_file():
                        line = doc.lineno + doc.value.count("\n", 0, match.start())
                        yield line, f"docstring names a missing document -> {match.group()}"
        return
    text = source.text
    here = (source.root / source.rel).parent
    # A "](target)" inside code is not a link: drop code, keep line breaks.
    prose = _CODE_RE.sub(lambda m: "\n" * m.group().count("\n"), text)
    for lineno, line in enumerate(prose.splitlines(), start=1):
        for match in _LINK_RE.finditer(line):
            target = match.group(1)
            relative = target.split("#", 1)[0]
            if (relative and not target.startswith(("http://", "https://", "mailto:"))
                    and not (here / relative).exists()):
                yield lineno, f"dangling relative link -> {target}"
    if source.rel in HISTORY_DOCUMENTS or source.rel.startswith("benchmarks/ledger/"):
        return
    for code in _CODE_RE.finditer(text):
        for match in _PATH_RE.finditer(code.group()):
            token = match.group().rstrip(".")
            if (not _PLACEHOLDER_CHARS.intersection(token) and _EXTENSION_RE.search(token)
                    and not (source.root / token).exists()):
                line = text.count("\n", 0, code.start() + match.start()) + 1
                yield line, f"dangling file path -> {token}"


# ---------------------------------------------------------------------------
# Rule: matmul-dispatch
# ---------------------------------------------------------------------------

# The modules of the sequential Krylov step; the lockstep engine's
# stacked ``np.matmul(...)`` calls are calls, not operators, and stay.
SEQUENTIAL_KERNELS = frozenset({
    "repro/krylov/ops.py", "repro/linalg/blas.py", "repro/krylov/engine/core.py",
    "repro/krylov/engine/orthogonalize.py", "repro/krylov/engine/precondition.py",
    "repro/krylov/engine/cg.py", "repro/skeptical/gmres_sdc.py",
})


def matmul_dispatch(source: Source) -> Iterator[Tuple[int, str]]:
    """``a @ b`` and ``a @= b`` in a sequential kernel module."""
    if source.tree is None or source.rel.removeprefix("src/") not in SEQUENTIAL_KERNELS:
        return
    for node in ast.walk(source.tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, ("'@' costs more dispatch than ndarray.dot for the same BLAS "
                                "call and bits; write a.dot(b) on the sequential path")


def process_hazards(source: Source) -> Iterator[Tuple[int, str]]:
    """In ``src/``: ``os.fork`` outside ``utils/child.py``; ``multiprocessing``
    imported as anything but ``shared_memory`` or ``resource_tracker``; a
    ``.poll(`` that may wait forever (no timeout, ``None`` or a negative
    constant), the ``select.poll()`` constructor aside."""
    if source.tree is None or not source.rel.startswith("src/"):
        return
    forks_here = source.rel.endswith("repro/utils/child.py")
    for node in ast.walk(source.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.name if isinstance(node, ast.Import) else f"{node.module}.{alias.name}"
                if _within(name, "multiprocessing") and not any(
                    _within(name, f"multiprocessing.{ok}") for ok in ("shared_memory", "resource_tracker")
                ):
                    yield node.lineno, f"imports {name}"
                if name == "os.fork" and not forks_here:
                    yield node.lineno, "forks outside utils/child.py"
        elif isinstance(node, ast.Attribute) and node.attr == "fork":
            if isinstance(node.value, ast.Name) and node.value.id == "os" and not forks_here:
                yield node.lineno, "forks outside utils/child.py"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "poll"
              and not (isinstance(node.func.value, ast.Name) and node.func.value.id == "select")):
            timeout = [*node.args[:1], *(kw.value for kw in node.keywords if kw.arg == "timeout")]
            if not timeout or any(
                (isinstance(t, ast.Constant) and t.value is None)
                or (isinstance(t, ast.UnaryOp) and isinstance(t.op, ast.USub)
                    and isinstance(t.operand, ast.Constant))
                for t in timeout
            ):
                yield node.lineno, ".poll() without a finite timeout"


RULES = {"determinism": determinism, "doc-links": doc_links,
         "matmul-dispatch": matmul_dispatch, "process-hazards": process_hazards,
         "spec-strings": spec_strings}


def lint(tmp_path, files, rule):
    """Write fixture ``files`` under ``tmp_path``; ``rule``'s (active, suppressed)."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    documents = [path.relative_to(tmp_path).as_posix() for path in sorted(tmp_path.rglob("*.md"))]
    return findings(rule, load(tmp_path, [tmp_path], documents))


# ---------------------------------------------------------------------------
# Suppression grammar
# ---------------------------------------------------------------------------


class TestSuppressionGrammar:
    @pytest.mark.parametrize(
        "comment,expected",
        [
            ("# repro: allow(determinism)", {"determinism"}),
            ("#repro:allow(dtype-flow)", {"dtype-flow"}),
            ("x = 1  # repro: allow(a, b-c) -- why", {"a", "b-c"}),
            ("# repro: deny(determinism)", None),
            ("# allow(determinism)", None),
        ],
    )
    def test_regex(self, comment, expected):
        match = SUPPRESSION_RE.search(comment)
        if expected is None:
            assert match is None
        else:
            assert match is not None
            assert {p.strip() for p in match.group(1).split(",")} == expected

    def test_comment_covers_own_line_and_line_below(self):
        lines = ["x = 1  # repro: allow(some-rule)", "# repro: allow(other-rule)", "y = 2"]
        assert allowed(lines, 1, "some-rule")
        assert allowed(lines, 2, "some-rule")  # the line below line 1
        assert allowed(lines, 2, "other-rule")  # its own line
        assert allowed(lines, 3, "other-rule")  # the line below
        assert not allowed(lines, 4, "other-rule")
        assert not allowed(lines, 3, "some-rule")
        assert not allowed(lines, 1, "other-rule")


# ---------------------------------------------------------------------------
# Rule: determinism
# ---------------------------------------------------------------------------


class TestDeterminismRule:
    def test_global_numpy_rng_flagged(self, tmp_path):
        active, _ = lint(tmp_path, {"mod.py": """\
            import numpy as np

            def draw():
                return np.random.rand(4)

            def seeded():
                return np.random.default_rng(7).random(4)
            """}, "determinism")
        assert [f.line for f in active] == [4]
        assert "np.random.rand" in active[0].message

    def test_wall_clock_flagged_but_wall_time_keyword_allowed(self, tmp_path):
        active, _ = lint(tmp_path, {"mod.py": """\
            import time

            def stamp(record):
                record(wall_time=time.time())
                return time.time()
            """}, "determinism")
        assert [f.line for f in active] == [5]
        assert "wall-clock read" in active[0].message

    def test_stdlib_random_and_set_iteration_flagged(self, tmp_path):
        active, _ = lint(tmp_path, {"mod.py": """\
            import random

            def pick():
                out = [random.random()]
                for item in {"a", "b"}:
                    out.append(item)
                for item in sorted({"a", "b"}):
                    out.append(item)
                return out
            """}, "determinism")
        messages = sorted(f.message for f in active)
        assert len(messages) == 3
        assert "hash order" in messages[0]
        assert "stdlib 'random'" in messages[1]
        assert "random.random()" in messages[2]

    def test_unsorted_listing_flagged_sorted_accepted(self, tmp_path):
        active, _ = lint(tmp_path, {"mod.py": """\
            import glob

            def scan(pattern, root):
                unsorted_hits = glob.glob(pattern)
                ordered = sorted(glob.glob(pattern))
                children = list(root.iterdir())
                return unsorted_hits, ordered, children
            """}, "determinism")
        assert [f.line for f in active] == [4, 6]

    def test_suppression_comment_above(self, tmp_path):
        active, suppressed = lint(tmp_path, {"mod.py": """\
            import time

            def now():
                # repro: allow(determinism) -- ledger metadata only
                return time.time()
            """}, "determinism")
        assert active == []
        assert len(suppressed) == 1


# ---------------------------------------------------------------------------
# Rule: spec-strings
# ---------------------------------------------------------------------------


class TestSpecStringsRule:
    def test_invalid_keyword_spec_flagged(self, tmp_path):
        active, _ = lint(tmp_path, {"mod.py": """\
            def configure(solver):
                return solver.solve(precond="ilu")
            """}, "spec-strings")
        assert len(active) == 1
        assert "invalid precond spec 'ilu'" in active[0].message

    def test_entry_point_argument_and_docstring_flagged(self, tmp_path):
        active, _ = lint(tmp_path, {"mod.py": '''\
            def run(faults):
                """Try `bitflip:prob=0.5` first."""
                return resolve_faults("warpdrive:p=0.1")
            '''}, "spec-strings")
        assert [f.line for f in active] == [2, 3]
        assert "(docstring example)" in active[0].message
        assert "(argument of resolve_faults)" in active[1].message

    def test_valid_specs_pass(self, tmp_path):
        active, _ = lint(tmp_path, {"mod.py": """\
            def configure(solver):
                return solver.solve(
                    precond="ssor:omega=1.2",
                    faults="bitflip:p=0.02",
                    precision="fp32",
                    chaos="worker_crash:p=0.5",
                )

            SWEEP = {"preconds": ["jacobi", "poly:k=4"]}
            """}, "spec-strings")
        assert active == []

    def test_dict_literal_sweep_values_flagged(self, tmp_path):
        active, _ = lint(tmp_path, {
            "mod.py": 'SWEEP = {"faults": ["none", "warpdrive:p=0.1"]}\n',
        }, "spec-strings")
        assert len(active) == 1
        assert "warpdrive" in active[0].message

    def test_markdown_grammar_tables_validated(self, tmp_path):
        active, _ = lint(tmp_path, {
            "GRAMMAR.md": """\
            The smoke sweep uses `poly:k=4` everywhere.

            A stale example: `poly:q=4` no longer parses.

            Placeholders: `perturb:p=...,scale=...`, `perturb:p=…,scale=…`.
            """,
            # History may quote what the parsers refuse (a bug report).
            **dict.fromkeys(("CHANGES.md", "ROADMAP.md"), "`poly:q=4`\n"),
        }, "spec-strings")
        assert [(f.path, f.line) for f in active] == [("GRAMMAR.md", 3)]

    def test_every_watched_entry_point_is_a_real_callable(self):
        """The rule's tables are derived from the axis declarations.

        The hand-kept table they replace listed ``resolve_precisions``,
        a function that existed nowhere in the tree.
        """
        from repro.axes import AXIS_MODULES

        modules = [importlib.import_module(name) for name in AXIS_MODULES]
        calls = _axis_tables().calls
        assert {"resolve_faults", "FaultSpec.parse", "parse_precond",
                "resolve_preconds", "build_preconditioner", "parse_precision",
                "resolve_backend", "CommSpec.parse", "parse_chaos"} <= set(calls)
        assert "resolve_precisions" not in calls
        for name in calls:
            head, *rest = name.split(".")
            found = [functools.reduce(getattr, rest, getattr(module, head))
                     for module in modules if hasattr(module, head)]
            assert found and all(callable(func) for func in found), name

    def test_suppression(self, tmp_path):
        active, suppressed = lint(tmp_path, {"mod.py": """\
            def configure(solver):
                # repro: allow(spec-strings) -- negative fixture
                return solver.solve(precond="ilu")
            """}, "spec-strings")
        assert active == []
        assert len(suppressed) == 1


# ---------------------------------------------------------------------------
# Rule: doc-links
# ---------------------------------------------------------------------------


class TestDocLinksRule:
    def test_dangling_relative_link_flagged(self, tmp_path):
        active, _ = lint(tmp_path, {
            "DOC.md": """\
            [good](exists.md) and [external](https://example.com/x)
            [anchor](#section) and [sub](sub/other.md#part)
            [bad](missing.md)
            """,
            "exists.md": "ok\n",
            "sub/other.md": "ok\n",
        }, "doc-links")
        assert active == [("DOC.md", 3, "dangling relative link -> missing.md")]

    def test_quoted_path_to_a_missing_file_flagged(self, tmp_path):
        active, _ = lint(tmp_path, {
            "DOC.md": """\
            Run `scripts/present.sh`, then (see `scripts/present.sh::main`
            and `/elsewhere/scripts/gone.py`):

            ```bash
            python scripts/present.sh --out /tmp/x.json
            python benchmarks/gone.py --smoke
            ```
            """,
            "scripts/present.sh": "ok\n",
        }, "doc-links")
        assert [(f.line, f.message) for f in active] == [
            (6, "dangling file path -> benchmarks/gone.py")
        ]

    def test_globs_history_documents_and_quoted_links_not_flagged(self, tmp_path):
        gone = "`benchmarks/gone.py` and `[text](gone.md)`\n"
        active, _ = lint(tmp_path, {
            "DOC.md": "`benchmarks/bench_*.py`, `tests/goldens/<id>.txt`, "
                      "`src/pkg/`, `[text](gone.md)`\n",
            "CHANGES.md": gone,
            "benchmarks/ledger/README.md": gone,
        }, "doc-links")
        assert active == []

    def test_the_self_run_reads_what_the_readme_reaches(self, tmp_path):
        for rel, text in {
            "README.md": "[a](docs/A.md), [web](https://example.com/B.md), [up](../C.md)\n",
            "docs/A.md": "[b](../B.md#part) and [missing](gone.md)\n",
            "B.md": "[home](README.md)\n",
            "NOTES.md": "nothing links here\n",
        }.items():
            (tmp_path / rel).parent.mkdir(exist_ok=True)
            (tmp_path / rel).write_text(text, encoding="utf-8")
        assert documentation(tmp_path) == ["B.md", "README.md", "docs/A.md"]


    def test_docstring_naming_a_missing_document_flagged(self, tmp_path):
        active, _ = lint(tmp_path, {
            "pkg/mod.py": '''\
            """See NOTES.md and https://example.com/WEB.md."""

            NOTE = "GONE.md in a string is not a docstring"


            class Thing:
                """Documented in docs/THING.md,
                and in GONE.md."""
            ''',
            "NOTES.md": "ok\n",
            "docs/THING.md": "ok\n",
        }, "doc-links")
        assert [(f.path, f.line, f.message) for f in active] == [
            ("pkg/mod.py", 8, "docstring names a missing document -> GONE.md")
        ]


class TestMatmulDispatchRule:
    def test_operator_flagged_in_a_kernel_module_only(self, tmp_path):
        body = """\
            import numpy as np

            def step(rows, w, stack, v):
                h = rows.dot(w)
                w = w - h @ rows
                many = np.matmul(stack, v)
                return w, h, many
            """
        active, _ = lint(tmp_path, {"src/repro/krylov/ops.py": body,
                                    "src/repro/krylov/engine/batch.py": body},
                         "matmul-dispatch")
        assert [(f.path, f.line) for f in active] == [("src/repro/krylov/ops.py", 5)]


# ---------------------------------------------------------------------------
# Rule: process-hazards
# ---------------------------------------------------------------------------


class TestProcessHazardsRule:
    # One planted module per case, and the one hazard found on its last line.
    @pytest.mark.parametrize("planted, hazard", [
        ("import os\npid = os.fork()\n", "forks outside utils/child.py"),
        ("from os import fork\n", "forks outside utils/child.py"),
        ("import multiprocessing\n", "imports multiprocessing"),
        ("from multiprocessing import shared_memory, Queue\n", "imports multiprocessing.Queue"),
        ("conn.poll()\n", ".poll() without a finite timeout"),
        ("conn.poll(None)\n", ".poll() without a finite timeout"),
        ("poller.poll(timeout=-1)\n", ".poll() without a finite timeout"),
    ], ids=["fork", "fork-import", "multiprocessing", "queue", "poll-untimed", "poll-none",
            "poll-negative"])
    def test_each_hazard_flagged(self, tmp_path, planted, hazard):
        active, _ = lint(tmp_path, {"src/repro/campaign/planted.py": planted}, "process-hazards")
        assert [(f.line, f.message) for f in active] == [(planted.count("\n"), hazard)]

    def test_bounded_waits_and_the_one_fork_pass(self, tmp_path):
        planted = """\
            import multiprocessing.resource_tracker
            import select
            from multiprocessing import shared_memory

            def wait(conn, timeout):
                poller = select.poll()
                return conn.poll(0.5), poller.poll(timeout * 1000.0), conn.poll(timeout=0)
            """
        files = {"src/repro/campaign/planted.py": planted,
                 "src/repro/utils/child.py": "import os\nos.fork()\n",
                 "tests/test_planted.py": "import multiprocessing\n"}
        assert lint(tmp_path, files, "process-hazards") == ([], [])


# ---------------------------------------------------------------------------
# Self-run: the repository passes its own lint
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def self_run():
    """One pass: every file parsed once, every rule run over all of them."""
    started = time.perf_counter()
    sources = load(REPO_ROOT, [REPO_ROOT / "src" / "repro", REPO_ROOT / "tests"],
                   documentation(REPO_ROOT))
    results = {rule: findings(rule, sources) for rule in RULES}
    return SimpleNamespace(sources=sources, results=results,
                           elapsed=time.perf_counter() - started)


class TestSelfRun:
    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_rule_finds_nothing(self, self_run, rule):
        active, _ = self_run.results[rule]
        assert active == [], "\n".join(f"{f.path}:{f.line}: {f.message}" for f in active)

    def test_repo_tree_is_clean(self, self_run):
        # src/repro needs no waiver at all; the suppressions left are the
        # tests' deliberate negative fixtures.
        assert [s.rel for s in self_run.sources
                if s.rel.startswith("src/") and SUPPRESSION_RE.search(s.text)] == []
        # The whole pass must stay fast: >10s means a rule started
        # executing real work.
        assert self_run.elapsed < 10.0
