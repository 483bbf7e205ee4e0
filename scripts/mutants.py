#!/usr/bin/env python3
"""Mutation kill matrix: which planted faults in the declared targets
the tier-1 suite catches.

A measurement beside ``scripts/verify.sh``, not a gate and not part of
tier-1.  Stdlib only; no flags::

    python3 scripts/mutants.py                    # every declared target
    python3 scripts/mutants.py spec.py comm/base.py   # only these targets

Four stages, all on a ``git archive`` of the working tree (tracked and
untracked files that ``.gitignore`` does not exclude), each run in a
fresh scratch copy with no ``.hypothesis`` or ``.pytest_cache``:

1. **Clean pass.**  Tier-1 once, recording each test's seconds; a test
   that fails here is never selected.
2. **Trace pass.**  Tier-1 once under ``sys.settrace`` and
   ``threading.settrace``, recording which tests execute each line of
   each target; a forked child (executor worker, shmem rank) writes
   what it traced when it leaves by ``os._exit``, one killed by a
   signal does not.
3. **Mutants.**  Six ``ast`` operators over every target
   (:data:`OPERATORS`); docstrings, ``__all__`` and ``TYPE_CHECKING``
   blocks are never mutated.  A mutant's selection is the tests that
   executed its lines; a module- or class-level site takes every test
   that executed the target, a default or decorator the tests of its
   function, and a line no test executed (code only a killed child
   runs, or dead code) every test file that imports the target.
4. **Runs.**  ``pytest -x`` on the selection, fastest tests first, in
   its own session with a timeout of 3x the selection's clean seconds;
   the whole process group is SIGKILLed when it ends, at most two
   mutants run at once, and shared-memory segments the runs leave
   behind are removed at the end.

Reading the matrix: a mutant is ``killed`` (a test failed, with the
first failing test named), ``timeout`` (counted as killed: the suite
did not finish) or ``survived`` (every selected test passed: either a
test is missing, the mutated code is not needed, or the mutant is
equivalent).  The table gives the kill rate per target; survivors
follow, one per line as ``target:line operator: before -> after``.
Everything lands in ``.mutants/`` (git-ignored): ``matrix.json``, and
per ``src``/``tests`` pair the clean and trace passes and the results
so far, so an interrupted run resumes where it stopped (an edit
elsewhere, say to the docs, keeps them).

Also a pytest plugin (``-p mutants`` with ``scripts/`` on the path):
``MUTANTS_OUT`` names the JSON file it writes (per-test seconds, the
first failure, and with ``MUTANTS_TRACE=1`` the per-line coverage).
"""

from __future__ import annotations

import ast
import importlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set

REPO = Path(__file__).resolve().parents[1]
OUT = REPO / ".mutants"

#: The declared targets, relative to ``src/repro``.
TARGETS = (
    "comm/simstate.py",
    "comm/base.py",
    "campaign/store.py",
    "campaign/executor.py",
    "spec.py",
    "krylov/engine/cg.py",
    "reliability/region.py",
)

OPERATORS = ("compare", "negate", "boolop", "constant", "return", "delete")
PARALLEL = 2
TIMEOUT_FACTOR = 3.0
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro-"

_FLIP = {
    ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_DELETABLE = (ast.Expr, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Raise,
              ast.Delete, ast.Break, ast.Continue)


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------
class Mutant(NamedTuple):
    """One splice of ``source[start:end]`` (byte offsets) by ``text``."""

    target: str
    operator: str
    line: int
    end_line: int
    start: int
    end: int
    before: str
    text: str
    #: ``"line"`` (select by its lines), ``"def"`` (by its function's
    #: body, lines ``scope``) or ``"module"`` (every test of the target).
    anchor: str
    scope: tuple

    @property
    def key(self) -> str:
        return f"{self.target}:{self.line}:{self.operator}:{self.before}->{self.text}"

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.text.encode() + source[self.end:]


def _is_docstring(node: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _is_type_checking(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
        or isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _binds_all(node: ast.AST) -> bool:
    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
    return isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def mutants(target: str, source: bytes) -> List[Mutant]:
    """Every mutant of ``source`` (the file ``target``), in source order."""
    tree = ast.parse(source)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found: Dict[tuple, Mutant] = {}

    def span(node):
        return (starts[node.lineno - 1] + node.col_offset,
                starts[node.end_lineno - 1] + node.end_col_offset)

    def emit(operator, node, text, anchor, scope):
        start, end = span(node)
        before = source[start:end].decode()
        if text != before:
            mutant = Mutant(target, operator, node.lineno, node.end_lineno,
                            start, end, before, text, anchor, scope)
            found.setdefault((start, end, text), mutant)

    def visit(node, anchor, scope):
        if _is_type_checking(node) or _binds_all(node) or isinstance(node, ast.JoinedStr):
            return
        where = (anchor, scope)
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                flipped = ast.Compare(node.left, list(node.ops), node.comparators)
                flipped.ops[i] = _FLIP[type(op)]()
                emit("compare", node, ast.unparse(flipped), *where)
        elif isinstance(node, ast.BoolOp):
            other = ast.Or() if isinstance(node.op, ast.And) else ast.And()
            emit("boolop", node, f"({ast.unparse(ast.BoolOp(other, node.values))})", *where)
        elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)):
            for shift in (1, -1):
                emit("constant", node, repr(node.value + shift), *where)
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            test = node.test
            start, end = span(test)
            emit("negate", test, f"not ({source[start:end].decode()})", *where)
        if isinstance(node, ast.Return) and node.value is not None and not (
                isinstance(node.value, ast.Constant) and node.value.value is None):
            emit("return", node, "return None", *where)
        if isinstance(node, _DELETABLE) and not _is_docstring(node):
            emit("delete", node, "pass", *where)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            lines = (body[0].lineno, node.end_lineno)
            for child in (*getattr(node, "decorator_list", ()), node.args, getattr(node, "returns", None)):
                if child is not None:
                    visit(child, "def", lines)
            for child in body:
                if not _is_docstring(child):
                    visit(child, "line", ())
            return
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if not _is_docstring(child):
                    visit(child, anchor, scope)
            for child in (*node.decorator_list, *node.bases, *node.keywords):
                visit(child, anchor, scope)
            return
        for child in ast.iter_child_nodes(node):
            if not (isinstance(child, ast.expr_context) or _is_docstring(child)):
                visit(child, anchor, scope)

    for node in tree.body:
        if not _is_docstring(node):
            visit(node, "module", ())
    return sorted(found.values(), key=lambda m: (m.start, m.end, OPERATORS.index(m.operator), m.text))


# ----------------------------------------------------------------------
# pytest plugin: per-test seconds, first failure, per-line coverage
# ----------------------------------------------------------------------
class _Recorder:
    def __init__(self, trace: bool):
        self.current: Optional[str] = None
        self.seconds: Dict[str, float] = {}
        self.failed: List[str] = []
        self.lines: Dict[str, Dict[int, Set[str]]] = {}
        self.files = {str(Path.cwd() / "src" / "repro" / t): t for t in TARGETS}
        if trace:
            threading.settrace(self._global)
            sys.settrace(self._global)
            os.register_at_fork(after_in_child=self._follow_fork)

    def _follow_fork(self) -> None:
        """In a forked child (executor worker, shmem rank), which leaves by
        ``os._exit``: write what it traced to a file of its own first."""
        leave = os._exit

        def dump_and_exit(code):
            try:
                self.dump(f"{os.environ['MUTANTS_OUT']}.{os.getpid()}")
            finally:
                leave(code)

        os._exit = dump_and_exit

    def _global(self, frame, event, arg):
        target = self.files.get(frame.f_code.co_filename)
        if target is None or self.current is None:
            return None
        lines = self.lines.setdefault(target, {})
        test = self.current

        def local(frame, event, arg):
            if event == "line":
                lines.setdefault(frame.f_lineno, set()).add(test)
            return local

        return local

    def dump(self, path: str) -> None:
        sys.settrace(None)
        threading.settrace(None)
        for child in Path(path).parent.glob(Path(path).name + ".*"):
            for target, by_line in json.loads(child.read_text())["lines"].items():
                mine = self.lines.setdefault(target, {})
                for n, tests in by_line.items():
                    mine.setdefault(int(n), set()).update(tests)
        lines = {t: {n: sorted(tests) for n, tests in by_line.items()}
                 for t, by_line in self.lines.items()}
        Path(path).write_text(json.dumps(
            {"seconds": self.seconds, "failed": self.failed, "lines": lines}))


_RECORDER: Optional[_Recorder] = None


def pytest_configure(config):
    global _RECORDER
    if os.environ.get("MUTANTS_OUT"):
        _RECORDER = _Recorder(os.environ.get("MUTANTS_TRACE") == "1")


def pytest_runtest_logstart(nodeid, location):
    if _RECORDER is not None:
        _RECORDER.current = nodeid


def pytest_runtest_logfinish(nodeid, location):
    if _RECORDER is not None:
        _RECORDER.current = None


def pytest_runtest_logreport(report):
    if _RECORDER is not None:
        seconds = _RECORDER.seconds
        seconds[report.nodeid] = seconds.get(report.nodeid, 0.0) + report.duration
        if report.failed and report.nodeid not in _RECORDER.failed:
            _RECORDER.failed.append(report.nodeid)


def pytest_collectreport(report):
    if _RECORDER is not None and report.failed:
        _RECORDER.failed.append(f"collect:{report.nodeid}")


def pytest_sessionfinish(session, exitstatus):
    if _RECORDER is not None:
        _RECORDER.dump(os.environ["MUTANTS_OUT"])


# ----------------------------------------------------------------------
# Scratch trees and runs
# ----------------------------------------------------------------------
def working_tree_id() -> str:
    """The git tree of the working tree as ``git add -A`` would stage it,
    built in a private index so the real one is untouched."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git = dict(cwd=REPO, env=env, check=True, capture_output=True, text=True)
        subprocess.run(["git", "read-tree", "HEAD"], **git)
        subprocess.run(["git", "add", "-A"], **git)
        return subprocess.run(["git", "write-tree"], **git).stdout.strip()


class Tree:
    """A ``git archive`` of one git tree, extracted once; each run gets a
    fresh copy of it (hard links, so a patch replaces the file)."""

    def __init__(self, tree_id: str):
        self.id = tree_id
        #: What the clean and trace passes depend on: ``src`` and ``tests``.
        self.suite = "-".join(
            subprocess.run(["git", "rev-parse", f"{tree_id}:{part}"], cwd=REPO, check=True,
                           capture_output=True, text=True).stdout[:8] for part in ("src", "tests"))
        self._base = tempfile.TemporaryDirectory(prefix="repro-mutants-")
        self.base = Path(self._base.name)
        tar = subprocess.run(["git", "archive", "--format=tar", tree_id],
                             cwd=REPO, check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(self.base, filter="data")

    def close(self) -> None:
        self._base.cleanup()

    def source(self, target: str) -> bytes:
        return (self.base / "src" / "repro" / target).read_bytes()

    def run(self, args: List[str], timeout: float, patch: Optional[Mutant] = None,
            trace: bool = False, server: Optional["ForkServer"] = None) -> dict:
        """``pytest args`` in a fresh copy (with ``patch`` applied), in a
        fresh interpreter or forked by ``server``: the plugin's record plus
        ``exit`` (the pytest status, ``None`` on timeout) and ``wall``."""
        with tempfile.TemporaryDirectory(prefix="repro-mutant-") as root:
            shutil.copytree(self.base, root, copy_function=os.link, dirs_exist_ok=True)
            if patch is not None:
                path = Path(root, "src", "repro", patch.target)
                source = path.read_bytes()
                path.unlink()
                path.write_bytes(patch.apply(source))
            Path(root, "args.txt").write_text("\n".join(args) + "\n")
            record = os.path.join(root, "record.json")
            env = dict(PYTHONPATH=os.pathsep.join([os.path.join(root, "src"),
                                                   os.path.join(root, "scripts")]),
                       PYTHONDONTWRITEBYTECODE="1", MUTANTS_OUT=record,
                       MUTANTS_TRACE="1" if trace else "0")
            command = ["-q", "-p", "mutants", "-p", "no:cacheprovider", "--tb=no", "@args.txt"]
            started = time.monotonic()
            if server is None:
                proc = subprocess.Popen([sys.executable, "-m", "pytest", *command], cwd=root,
                                        env=dict(os.environ, **env), start_new_session=True,
                                        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                pid, finished = proc.pid, _wait(lambda: proc.poll() is not None, started + timeout)
            else:
                pid = server.start(root, command, env)
                finished = _wait(lambda: _gone(pid), started + timeout)
            try:
                os.killpg(pid, signal.SIGKILL)  # the leader and whatever it forked
            except ProcessLookupError:
                pass
            if server is None:
                proc.wait()
                status = proc.returncode if finished else None
            else:
                exit_file = Path(root, "exit")
                status = int(exit_file.read_text()) if finished and exit_file.exists() else (
                    -9 if finished else None)
            wall = time.monotonic() - started
            try:
                result = json.loads(Path(record).read_text())
            except (OSError, ValueError):
                result = {"seconds": {}, "failed": [], "lines": {}}
        return dict(result, exit=status, wall=wall)


def _wait(done, deadline: float) -> bool:
    """Whether ``done()`` turns true (polled) before ``deadline``."""
    while not done():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
    return True


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


#: The suite's third-party imports, paid once by the fork server.
PRELOAD = ("numpy", "scipy.sparse", "pytest", "hypothesis", "hypothesis.strategies")


class ForkServer:
    """One interpreter that has imported :data:`PRELOAD` forks each
    mutant's pytest (never ``repro``, which each copy imports afresh)."""

    def __init__(self):
        code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
                "import mutants; mutants._serve()")
        self.proc = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, start_new_session=True)
        self.lock = threading.Lock()

    def start(self, root: str, args: List[str], env: Dict[str, str]) -> int:
        """The pid of a forked ``pytest args`` in ``root``, in its own session."""
        with self.lock:
            self.proc.stdin.write(json.dumps([root, args, env]) + "\n")
            self.proc.stdin.flush()
            return int(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _serve() -> None:
    """The fork server's loop: one request line in, one child pid out."""
    for name in PRELOAD:
        try:
            importlib.import_module(name)
        except ImportError:
            pass
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)  # children reap themselves
    for line in sys.stdin:
        root, args, env = json.loads(line)
        pid = os.fork()
        if pid == 0:
            code = 3
            try:
                signal.signal(signal.SIGCHLD, signal.SIG_DFL)
                os.setsid()
                devnull = os.open(os.devnull, os.O_RDWR)
                for fd in (0, 1, 2):
                    os.dup2(devnull, fd)
                os.chdir(root)
                os.environ.update(env)
                sys.path[:0] = env["PYTHONPATH"].split(os.pathsep)
                sys.dont_write_bytecode = True
                import pytest

                code = int(pytest.main(args))
            finally:
                Path(root, "exit").write_text(str(code))
                os._exit(code)
        print(pid, flush=True)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
_IMPORT = re.compile(r"^\s*(?:from\s+(repro[\w.]*)\s+import\s+([\w, ()]+)|import\s+(repro[\w.]*))",
                     re.M)


def importers(tree: Tree, target: str) -> List[str]:
    """Test files that import ``target``'s module directly."""
    module = "repro." + target[:-3].replace("/", ".")
    found = []
    for path in sorted((tree.base / "tests").glob("test_*.py")):
        for base, names, plain in _IMPORT.findall(path.read_text()):
            names = [n.strip(" ()") for n in names.split(",")]
            if plain == module or base == module or any(f"{base}.{n}" == module for n in names):
                found.append(f"tests/{path.name}")
                break
    return found


def selection(mutant: Mutant, lines: Dict[str, List[str]], static: List[str],
              seconds: Dict[str, float]) -> List[str]:
    """The tests (node ids, fastest first) or test files run on ``mutant``."""
    if mutant.anchor == "module":
        tests = {t for ts in lines.values() for t in ts}
    else:
        first, last = (mutant.line, mutant.end_line) if mutant.anchor == "line" else mutant.scope
        tests = {t for n in range(first, last + 1) for t in lines.get(str(n), ())}
    tests = {t for t in tests if t in seconds}
    if not tests:
        return list(static)
    return sorted(tests, key=lambda t: (seconds[t], t))


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _pass(tree: Tree, name: str, trace: bool) -> dict:
    path = OUT / f"{name}-{tree.suite}.json"
    if path.exists():
        return json.loads(path.read_text())
    print(f"{name} pass of tier-1 ...", flush=True)
    result = tree.run(["tests"], timeout=3600.0, trace=trace)
    path.write_text(json.dumps(result))
    print(f"  {len(result['seconds'])} tests in {result['wall']:.1f} s, "
          f"{len(result['failed'])} failed: {result['failed'][:5]}", flush=True)
    return result


def _shm_segments() -> Set[str]:
    try:
        return {p.name for p in SHM_DIR.iterdir() if p.name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def run_mutant(tree: Tree, server: ForkServer, mutant: Mutant, tests: List[str],
               clean: dict, startup: float, extra: List[str] = ()) -> dict:
    """One mutant's row: ``killed``, ``timeout`` or ``survived``, its
    first failing test, the tests run and the seconds taken."""
    seconds = clean["seconds"]
    files = [t for t in tests if "::" not in t]
    budget = startup + sum(s for t, s in seconds.items()
                           if t in tests or t.split("::")[0] in files)
    timeout = TIMEOUT_FACTOR * budget
    result = tree.run(["-x", *extra, *tests], timeout=timeout, patch=mutant, server=server)
    status = result["exit"]
    # Any failing status is a kill (4: the conftest itself no longer
    # imports); 5 means no test ran, which measures nothing.
    outcome = ("timeout" if status is None else "survived" if status == 0
               else "killed" if result["failed"] or status != 5 else "error:no tests ran")
    return dict(_row(mutant, outcome, tests), killer=(result["failed"] or [None])[0],
                wall=round(result["wall"], 2), timeout=round(timeout, 1))


def _row(mutant: Mutant, outcome: str, tests: List[str]) -> dict:
    return {"key": mutant.key, "target": mutant.target, "operator": mutant.operator,
            "line": mutant.line, "before": mutant.before, "text": mutant.text,
            "outcome": outcome, "killer": None, "tests": len(tests),
            "files": sorted({t.split("::")[0] for t in tests})}


def measure(tree: Tree, targets: List[str]) -> dict:
    """The kill matrix of ``targets`` at ``tree`` (resuming from ``OUT``)."""
    begun = time.monotonic()
    clean = _pass(tree, "clean", trace=False)
    broken = set(clean["failed"])
    clean["seconds"] = {t: s for t, s in clean["seconds"].items() if t not in broken}
    traced = _pass(tree, "trace", trace=True)

    jobs = []
    for target in targets:
        static = importers(tree, target)
        lines = traced["lines"].get(target, {})
        for mutant in mutants(target, tree.source(target)):
            jobs.append((mutant, selection(mutant, lines, static, clean["seconds"])))
    results_path = OUT / f"results-{tree.suite}.jsonl"
    done = {}
    if results_path.exists():
        for line in results_path.read_text().splitlines():
            row = json.loads(line)
            done[row["key"]] = row
    for mutant, tests in jobs:
        if not tests:  # no test executes or imports it: it survives unrun
            done[mutant.key] = _row(mutant, "survived", tests)
    todo = [(m, s) for m, s in jobs if m.key not in done]
    print(f"{len(jobs)} mutants over {len(targets)} targets; {len(jobs) - len(todo)} done, "
          f"{len(todo)} to run", flush=True)

    lock = threading.Lock()
    shm_before = _shm_segments()
    server = ForkServer()

    def one(job):
        row = run_mutant(tree, server, job[0], job[1], clean, startup)
        with lock:
            done[row["key"]] = row
            with results_path.open("a") as out:
                out.write(json.dumps(row) + "\n")
            if row["outcome"] == "survived":
                print(f"  survived {row['target']}:{row['line']} {row['operator']}: "
                      f"{row['before']!r} -> {row['text']!r}", flush=True)
        return row

    try:
        startup = tree.run(["--co", "tests"], timeout=600.0, server=server)["wall"]
        with ThreadPoolExecutor(PARALLEL) as pool:
            for i, _ in enumerate(pool.map(one, todo), 1):
                if i % 50 == 0:
                    print(f"  {i}/{len(todo)} in {time.monotonic() - begun:.0f} s", flush=True)
    finally:
        server.close()
        for name in _shm_segments() - shm_before:
            try:
                (SHM_DIR / name).unlink()
            except OSError:
                pass
    return {"tree": tree.id, "targets": targets, "clean_failed": sorted(broken),
            "clean_wall": round(clean["wall"], 1), "seconds": round(time.monotonic() - begun, 1),
            "mutants": [done[m.key] for m, _ in jobs]}


def report(matrix: dict) -> None:
    """Print the kill rate per target, then every survivor."""
    rows = matrix["mutants"]
    print(f"\n{'target':<24}{'mutants':>8}{'killed':>8}{'timeout':>8}{'survived':>9}{'rate':>7}")
    for target in matrix["targets"]:
        mine = [r for r in rows if r["target"] == target]
        counts = {o: sum(r["outcome"] == o for r in mine) for o in ("killed", "timeout", "survived")}
        rate = (counts["killed"] + counts["timeout"]) / max(len(mine), 1)
        print(f"{target:<24}{len(mine):>8}{counts['killed']:>8}{counts['timeout']:>8}"
              f"{counts['survived']:>9}{rate:>7.1%}")
    for r in rows:
        if r["outcome"] not in ("killed", "timeout"):
            print(f"{r['outcome']:<9} {r['target']}:{r['line']} {r['operator']}: "
                  f"{r['before']!r} -> {r['text']!r}")
    print(f"\n{len(rows)} mutants in {matrix['seconds']:.0f} s")


def main(argv: List[str]) -> int:
    unknown = [a for a in argv if a not in TARGETS]
    if unknown:
        print(f"not declared targets: {unknown}; declared: {', '.join(TARGETS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tree = Tree(working_tree_id())
    print(f"tree {tree.id[:12]}", flush=True)
    try:
        matrix = measure(tree, [t for t in TARGETS if not argv or t in argv])
    finally:
        tree.close()
    (OUT / "matrix.json").write_text(json.dumps(matrix, indent=1))
    report(matrix)
    print(f"matrix in {OUT / 'matrix.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
