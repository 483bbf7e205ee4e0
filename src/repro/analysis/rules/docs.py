"""Rule ``doc-links`` -- no dangling relative links or file paths in tracked *.md.

Consolidates the ad-hoc checker that used to live inline in
``scripts/verify.sh`` into the lint pass, so a moved or renamed
document fails the same gate (and the same report) as every other
finding.

External links (``http://``, ``https://``, ``mailto:``) and pure
``#anchor`` references are skipped; relative targets must exist on
disk.  Anchors on relative targets are checked for file existence
only, and a ``](target)`` inside code is not a link.  The regex
matches every ``](target)`` rather than whole ``[text](target)`` links
on purpose: link text may itself contain brackets (badges,
``[![CI](img)](url)``), and a checker that skips those waves dangling
targets through.

Repo-relative file paths written as code -- a token starting ``src/``,
``tests/``, ``benchmarks/``, ``scripts/`` or ``examples/`` and ending
in a file extension, in an inline backtick span or a fenced block --
must exist too: a quoted command outlives the script it runs just as a
link outlives its target.  Tokens with glob or placeholder characters
are skipped, and so are the documents that record history rather than
describe the tree (``CHANGES.md``, ``ROADMAP.md``, ``ISSUE.md``) and
everything under ``benchmarks/ledger/``.
"""

from __future__ import annotations

import re
from typing import Iterable, List

from repro.analysis.core import Finding, Rule

__all__ = ["DocLinksRule"]

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
_HISTORY_DOCUMENTS = frozenset({"CHANGES.md", "ROADMAP.md", "ISSUE.md"})


class DocLinksRule(Rule):
    id = "doc-links"
    title = "relative markdown links and quoted file paths resolve to files on disk"
    rationale = (
        "README/ARCHITECTURE/CAMPAIGNS cross-reference heavily; a dangling "
        "link or a command naming a deleted script is doc rot the reader "
        "hits before any test would"
    )

    def check_project(self, ctx) -> Iterable[Finding]:
        findings: List[Finding] = []
        for path in ctx.markdown_files():
            rel = ctx.rel(path)
            text = path.read_text(encoding="utf-8")
            # A ``](target)`` inside code is not a link: drop code,
            # keeping its line breaks.
            prose = _CODE_RE.sub(lambda m: "\n" * m.group().count("\n"), text)
            for lineno, line in enumerate(prose.splitlines(), start=1):
                for match in _LINK_RE.finditer(line):
                    target = match.group(1)
                    if target.startswith(("http://", "https://", "mailto:", "#")):
                        continue
                    relative = target.split("#", 1)[0]
                    if not relative:
                        continue
                    if not (path.parent / relative).exists():
                        findings.append(
                            Finding(
                                rule=self.id,
                                path=rel,
                                line=lineno,
                                message=f"dangling relative link -> {target}",
                            )
                        )
            if rel in _HISTORY_DOCUMENTS or rel.startswith("benchmarks/ledger/"):
                continue
            for code in _CODE_RE.finditer(text):
                for match in _PATH_RE.finditer(code.group()):
                    token = match.group().rstrip(".")
                    if (
                        _PLACEHOLDER_CHARS.intersection(token)
                        or not _EXTENSION_RE.search(token)
                        or (ctx.repo_root / token).exists()
                    ):
                        continue
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=rel,
                            line=text.count("\n", 0, code.start() + match.start()) + 1,
                            message=f"dangling file path -> {token}",
                        )
                    )
        return findings
