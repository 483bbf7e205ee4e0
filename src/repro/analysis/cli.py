"""``python -m repro.analysis`` -- list rules, run the pass.

Commands::

    python -m repro.analysis list
    python -m repro.analysis run [PATH ...]

``run`` applies every registered rule and defaults to ``src/repro``
resolved against the repository root.  Exit status: 0 when no active
(non-suppressed) finding remains, 1 otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from repro.analysis.registry import default_rule_registry
from repro.analysis.runner import find_repo_root, run_analysis

__all__ = ["main"]


def _cmd_list(args: argparse.Namespace) -> int:
    registry = default_rule_registry()
    width = max(len(rule.id) for rule in registry)
    print(f"registered analysis rules ({len(registry)}):")
    for rule in registry:
        print(f"{rule.id:<{width}}  {rule.title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    repo_root = find_repo_root(
        pathlib.Path(args.paths[0]) if args.paths else pathlib.Path.cwd()
    )
    paths = [pathlib.Path(p) for p in args.paths] or [repo_root / "src" / "repro"]
    for path in paths:
        if not path.exists():
            print(f"error: no such path {path}", file=sys.stderr)
            return 2

    report = run_analysis(paths, list(default_rule_registry()), repo_root=repo_root)
    for finding in report.findings:
        print(finding.render())
    status = "FAIL" if report.findings else "OK"
    print(
        f"analysis {status}: {len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed, "
        f"{report.files_scanned} files, "
        f"{len(report.rules_run)} rules, "
        f"{report.elapsed:.2f}s"
    )
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="repo-native static analysis over the repro invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list registered rules")
    list_cmd.set_defaults(func=_cmd_list)

    run_cmd = sub.add_parser("run", help="run the analysis pass")
    run_cmd.add_argument(
        "paths", nargs="*", help="files/directories to scan (default: src/repro)"
    )
    run_cmd.set_defaults(func=_cmd_run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
