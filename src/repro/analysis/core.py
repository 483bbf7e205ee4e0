"""Data model of the static-analysis layer.

The analysis pass is built from three small pieces:

* :class:`Finding` -- one rule violation at one location;
* :class:`SourceFile` -- a lazily-parsed python file plus its
  ``# repro: allow(<rule-id>)`` suppression map; and
* :class:`Rule` -- the base class every analyzer subclasses.

A finding is either fixed or suppressed inline with a justification;
nothing is grandfathered.  Markdown has no suppression comments, so a
finding in a ``*.md`` file is always fixed.

Suppression grammar: a comment ``# repro: allow(rule-id)`` (several
ids comma-separated) silences findings of those rules on its own line
and on the line directly below it -- so both trailing comments and
comment-above-the-statement styles work::

    conn.recv()  # repro: allow(process-safety) -- reads follow wait()

    # repro: allow(determinism) -- ledger timestamps are metadata
    stamp = time.time()

Suppressions are deliberate, reviewable markers: the self-run test
fails the moment a suppressed line loses its comment.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional

__all__ = [
    "Finding",
    "SourceFile",
    "Rule",
    "SUPPRESSION_RE",
    "dotted_name",
]

# ``# repro: allow(rule-a, rule-b)`` -- optional free-text justification
# after the closing parenthesis is encouraged and ignored.
SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*allow\(\s*([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)\s*\)"
)

@dataclass(frozen=True)
class Finding:
    """One rule violation: its rule, file, 1-based line and message."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class SourceFile:
    """One python file under analysis: text, AST and suppression map."""

    def __init__(self, path: pathlib.Path, rel: str, text: Optional[str] = None):
        self.path = pathlib.Path(path)
        self.rel = rel
        if text is None:
            text = self.path.read_text(encoding="utf-8")
        self.text = text
        self.lines = text.splitlines()
        self._tree: Optional[ast.AST] = None
        self._parse_error: Optional[SyntaxError] = None
        self._suppressions: Optional[Dict[int, FrozenSet[str]]] = None

    # -- AST -----------------------------------------------------------
    @property
    def tree(self) -> Optional[ast.AST]:
        """The parsed module, or ``None`` on a syntax error.

        Unparseable files produce a dedicated ``parse-error`` finding
        from the runner rather than crashing the pass.
        """
        if self._tree is None and self._parse_error is None:
            try:
                self._tree = ast.parse(self.text)
            except SyntaxError as exc:
                self._parse_error = exc
        return self._tree

    @property
    def parse_error(self) -> Optional[SyntaxError]:
        self.tree
        return self._parse_error

    # -- suppressions --------------------------------------------------
    @property
    def suppressions(self) -> Dict[int, FrozenSet[str]]:
        """1-based line -> rule ids a comment on that line allows."""
        if self._suppressions is None:
            found: Dict[int, FrozenSet[str]] = {}
            for lineno, line in enumerate(self.lines, start=1):
                match = SUPPRESSION_RE.search(line)
                if match:
                    ids = frozenset(
                        part.strip() for part in match.group(1).split(",")
                    )
                    found[lineno] = ids
            self._suppressions = found
        return self._suppressions

    def allows(self, line: int, rule_id: str) -> bool:
        """Whether a finding of ``rule_id`` at ``line`` is suppressed.

        A suppression comment covers its own line and the line below,
        so it works both trailing a statement and on its own line above
        one.
        """
        for source_line in (line, line - 1):
            ids = self.suppressions.get(source_line)
            if ids and rule_id in ids:
                return True
        return False


class Rule:
    """Base class of every analyzer.

    Subclasses set ``id``/``title``/``rationale`` and override one (or
    both) of the check hooks.  ``check_file`` runs once per python
    file; ``check_project`` runs once per pass with the full context
    (for rules over markdown files or cross-file contracts).  Both
    yield raw :class:`Finding` objects; the runner applies suppression
    comments afterwards.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""

    @property
    def name(self) -> str:
        """The registry key (:class:`repro.spec.Registry` indexes by name)."""
        return self.id

    def check_file(self, source: SourceFile, ctx) -> Iterable[Finding]:
        return ()

    def check_project(self, ctx) -> Iterable[Finding]:
        return ()


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
