"""Rule ``process-safety`` -- no IPC constructs that wedge under kill.

PR 6's supervised executor exists because of one diagnosed hazard: a
``multiprocessing.Queue`` shared between killable workers wedges
silently when a worker dies holding the queue's writer lock
(SIGKILL / ``os._exit`` mid-feeder-write orphans the lock and starves
every sibling's result delivery).  The executor's design rules --
per-worker duplex pipes, multiplexed with a bounded
``connection.wait`` -- are enforced statically here so the hazard
cannot be reintroduced by a future backend or a quick script.

Flagged, in files that import :mod:`multiprocessing`:

* ``Queue()`` construction (module-level, aliased, or on a context
  object): killable workers plus a shared queue is exactly the
  orphaned-writer-lock wedge; use one duplex Pipe per worker;
* ``Pool()`` construction: bare pools bypass the SupervisedExecutor's
  timeouts, retries, checksums and ledger;
* unbounded blocking reads: zero-argument ``Connection.recv()``,
  ``poll(None)`` / ``poll(timeout=None)``, and
  ``multiprocessing.connection.wait(...)`` without a ``timeout=`` --
  a supervisor blocked forever on a dead worker's pipe is a hang, not
  a recovery.  The ``poll`` check also runs in files that import
  :mod:`select`, where it covers the ``select.poll`` object's ways of
  waiting forever: no timeout at all, or a negative one.

``recv()`` directly after a readiness ``wait()``/``poll()`` is the
sanctioned pattern and gets an explicit ``# repro: allow(...)`` at its
two call sites in the executor.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.analysis.core import Finding, Rule, SourceFile, dotted_name

__all__ = ["ProcessSafetyRule"]


def _imports(tree: ast.AST, package: str) -> bool:
    """Whether the file imports ``package`` or one of its submodules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m == package or m.startswith(package + ".") for m in modules):
            return True
    return False


def _connection_wait_aliases(tree: ast.AST) -> Set[str]:
    """Local names bound to ``multiprocessing.connection.wait``."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "") == "multiprocessing.connection":
                for alias in node.names:
                    if alias.name == "wait":
                        aliases.add(alias.asname or alias.name)
    return aliases


class ProcessSafetyRule(Rule):
    id = "process-safety"
    title = "no shared queues, bare pools, or unbounded IPC blocking"
    rationale = (
        "a queue shared with killable workers orphans its writer lock on "
        "SIGKILL and silently wedges siblings (the PR 6 incident); "
        "supervision requires per-worker pipes and bounded waits"
    )

    def check_file(self, source: SourceFile, ctx) -> Iterable[Finding]:
        tree = source.tree
        if tree is None:
            return []
        uses_mp = _imports(tree, "multiprocessing")
        if not uses_mp and not _imports(tree, "select"):
            return []
        wait_aliases = _connection_wait_aliases(tree)
        findings: List[Finding] = []

        def report(node: ast.AST, message: str) -> None:
            findings.append(
                Finding(
                    rule=self.id,
                    path=source.rel,
                    line=node.lineno,
                    message=message,
                )
            )

        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func) or ""
            attr = name.rsplit(".", 1)[-1]

            if attr == "poll":
                if _blocks_forever(node, name):
                    report(
                        node,
                        ".poll() with no, a None or a negative timeout "
                        "blocks forever on a dead peer; pass a finite "
                        "timeout",
                    )
            elif not uses_mp:
                continue
            elif attr in ("Queue", "SimpleQueue", "JoinableQueue"):
                report(
                    node,
                    f"{name}() shared with killable workers orphans its "
                    "writer lock on SIGKILL and wedges sibling results "
                    "(the PR 6 hazard); use one duplex Pipe per worker "
                    "via SupervisedExecutor",
                )
            elif attr == "Pool":
                report(
                    node,
                    f"{name}() bypasses SupervisedExecutor (no timeouts, "
                    "retries, checksums or failure ledger); route work "
                    "through repro.campaign.executor instead",
                )
            elif attr == "recv" and not node.args and not node.keywords:
                report(
                    node,
                    ".recv() with no prior readiness check blocks forever "
                    "on a dead peer; gate it behind a bounded "
                    "connection.wait()/poll() first",
                )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in wait_aliases
                and not any(kw.arg == "timeout" for kw in node.keywords)
                and len(node.args) < 2
            ):
                report(
                    node,
                    "multiprocessing.connection.wait() without timeout= "
                    "blocks forever when every watched worker is dead; "
                    "pass a finite timeout",
                )
        return findings


def _blocks_forever(node: ast.Call, name: str) -> bool:
    """Whether a ``.poll`` call may wait without bound.

    ``None`` or a negative constant does on every poller, no timeout at
    all on a ``select.poll`` object (``select.poll()`` only builds one).
    """
    candidates = list(node.args[:1]) + [
        kw.value for kw in node.keywords if kw.arg == "timeout"
    ]
    if not candidates:
        return isinstance(node.func, ast.Attribute) and name != "select.poll"
    return any(
        (isinstance(c, ast.Constant) and c.value is None)
        or (
            isinstance(c, ast.UnaryOp)
            and isinstance(c.op, ast.USub)
            and isinstance(c.operand, ast.Constant)
        )
        for c in candidates
    )
