"""The analysis driver: walk files, run rules, apply suppressions.

:func:`run_analysis` is the single entry point both the CLI and the
self-run test use: it collects python files under the requested paths,
runs the given rules, then filters raw findings through the
in-source ``# repro: allow(...)`` comments.  The report keeps both
buckets (active / suppressed) so the CLI can show what was tolerated,
not just what failed.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.core import Finding, Rule, SourceFile

__all__ = ["AnalysisContext", "AnalysisReport", "run_analysis", "find_repo_root"]

# Directories never descended into when collecting python files.
_SKIP_DIRS = {"__pycache__", ".git", "node_modules", ".hypothesis"}

# Markers that identify the repository root when walking upwards from
# the analyzed paths (project rules need it to reach *.md files and
# the experiments package regardless of which subtree was requested).
_ROOT_MARKERS = ("ROADMAP.md", "setup.py", ".git")

def find_repo_root(start: pathlib.Path) -> pathlib.Path:
    """Nearest ancestor of ``start`` carrying a repo-root marker."""
    start = start.resolve()
    candidates = [start] if start.is_dir() else [start.parent]
    for current in candidates:
        for ancestor in (current, *current.parents):
            if any((ancestor / marker).exists() for marker in _ROOT_MARKERS):
                return ancestor
    return candidates[0]


@dataclass
class AnalysisContext:
    """Everything a rule may look at during one pass."""

    root: pathlib.Path
    repo_root: pathlib.Path
    sources: List[SourceFile] = field(default_factory=list)

    def rel(self, path: pathlib.Path) -> str:
        """Repo-root-relative posix path (falls back to absolute)."""
        try:
            return path.resolve().relative_to(self.repo_root).as_posix()
        except ValueError:
            return path.resolve().as_posix()

    def markdown_files(self) -> List[pathlib.Path]:
        """Tracked ``*.md`` files under the repo root (sorted)."""
        found = []
        for path in sorted(self.repo_root.rglob("*.md")):
            if any(
                part.startswith(".") or part in _SKIP_DIRS
                for part in path.relative_to(self.repo_root).parts
            ):
                continue
            found.append(path)
        return found


@dataclass
class AnalysisReport:
    """Outcome of one pass, split by how each finding was handled."""

    findings: List[Finding]
    suppressed: List[Finding]
    files_scanned: int
    rules_run: List[str]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.findings


def _collect_python_files(paths: Sequence[pathlib.Path]) -> List[pathlib.Path]:
    files: List[pathlib.Path] = []
    for path in paths:
        path = pathlib.Path(path)
        if path.is_file():
            if path.suffix == ".py":
                files.append(path)
            continue
        for found in sorted(path.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in found.parts):
                continue
            files.append(found)
    # De-duplicate while keeping deterministic order.
    seen = set()
    unique = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def run_analysis(
    paths: Sequence,
    rules: Sequence[Rule],
    repo_root: Optional[pathlib.Path] = None,
) -> AnalysisReport:
    """Run ``rules`` over the python files under ``paths``.

    Findings suppressed by ``# repro: allow(<rule-id>)`` comments are
    filtered out of :attr:`AnalysisReport.findings` but kept in their
    own bucket for reporting.
    """
    started = time.perf_counter()
    path_objs = [pathlib.Path(p) for p in paths]
    if not path_objs:
        raise ValueError("run_analysis needs at least one path")
    if repo_root is None:
        repo_root = find_repo_root(path_objs[0])
    ctx = AnalysisContext(root=path_objs[0], repo_root=pathlib.Path(repo_root))

    sources_by_rel: Dict[str, SourceFile] = {}
    for path in _collect_python_files(path_objs):
        rel = ctx.rel(path)
        sources_by_rel[rel] = SourceFile(path, rel)
    ctx.sources = list(sources_by_rel.values())

    raw: List[Finding] = []
    for source in ctx.sources:
        if source.parse_error is not None:
            raw.append(
                Finding(
                    rule="parse-error",
                    path=source.rel,
                    line=source.parse_error.lineno or 1,
                    message=f"file does not parse: {source.parse_error.msg}",
                )
            )
            continue
        for rule in rules:
            raw.extend(rule.check_file(source, ctx))
    for rule in rules:
        raw.extend(rule.check_project(ctx))

    active: List[Finding] = []
    suppressed: List[Finding] = []
    # Two extraction routes may surface the same token (e.g. a quoted
    # string inside a backtick span); report each location once.
    unique = {(f.rule, f.path, f.line, f.message): f for f in raw}
    for finding in sorted(
        unique.values(), key=lambda f: (f.path, f.line, f.rule, f.message)
    ):
        source = sources_by_rel.get(finding.path)
        if source is not None and source.allows(finding.line, finding.rule):
            suppressed.append(finding)
        else:
            active.append(finding)

    return AnalysisReport(
        findings=active,
        suppressed=suppressed,
        files_scanned=len(ctx.sources),
        rules_run=[rule.id for rule in rules],
        elapsed=time.perf_counter() - started,
    )
