"""Rule ``spec-strings`` -- every quoted spec must parse today.

Fault, preconditioner, precision, chaos and communicator-backend
configurations travel as compact spec strings
(``"bitflip:p=0.02,bits=52..62"``, ``"shmem:procs=8"``); campaigns,
drivers, docstrings and the CAMPAIGNS.md grammar tables all quote
them.  A renamed kind or parameter silently turns those strings into
runtime failures (or, worse, into docs describing a grammar the
parsers no longer accept).  This rule extracts every such literal and
validates it against the *live* axis declarations
(:func:`repro.axes.declared_axes`), so spec drift fails at lint time.
Which calls, keywords and kinds belong to which axis is read off those
declarations -- this module keeps no table of its own.

Collected from python sources:

* literal arguments of each axis's entry points (its ``resolve``, its
  further ``entry_points`` and ``<SpecClass>.parse`` -- e.g.
  ``resolve_faults`` / ``FaultSpec.parse`` / ``parse_precond`` /
  ``ChaosSpec.parse`` / ``resolve_backend``);
* literal values of each axis's keywords (``faults=`` / ``precond=`` /
  ``precision=`` / ``chaos=`` / ``backend=``) in any call;
* literal values under the same names as keys of dict literals (the
  builtin campaign sweeps: ``"faults"`` / ``"preconds"`` /
  ``"precisions"`` ...);
* spec-shaped tokens in docstrings.

Collected from markdown: backtick spans and double-quoted tokens in
every tracked ``*.md`` file whose leading segment names a known spec
kind and that carries at least one ``name=value`` parameter.  The
documents that record history (``CHANGES.md``, ``ROADMAP.md``, the
open work item) are skipped: a bug report quotes the spec it refuses.

A string is valid when the axis's own ``resolve`` accepts it, so bare
registry names (``"bitflip_mantissa"``, ``"poly2"``, ``"fp32_fp16"``),
kinds, parameter names and parameter values are all checked by exactly
the code the runtime uses.
"""

from __future__ import annotations

import ast
import functools
import re
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.core import Finding, Rule, SourceFile, dotted_name
from repro.analysis.rules.docs import _HISTORY_DOCUMENTS

__all__ = ["SpecStringsRule"]

# A doc token must look like KIND:NAME=VALUE[,...] (optionally
# "+"-composed) before we bother dispatching it to a parser.
_DOC_TOKEN_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*:[^:\s]*=")
_BACKTICK_RE = re.compile(r"`([^`\n]+)`")
_QUOTED_RE = re.compile(r'"([^"\s]+)"')


def _callable_name(func: Callable) -> str:
    """How source code spells a call of ``func``: ``f`` or ``Class.method``."""
    owner = getattr(func, "__self__", None)
    if isinstance(owner, type):
        return f"{owner.__name__}.{func.__name__}"
    return func.__name__


class _AxisTables:
    """The rule's lookup tables, derived once from the axis declarations."""

    def __init__(self) -> None:
        from repro.axes import declared_axes

        self._resolve: Dict[str, Callable] = {}
        #: spelled call name / keyword or dict key / spec kind -> axis name.
        self.calls: Dict[str, str] = {}
        self.keys: Dict[str, str] = {}
        self.kinds: Dict[str, str] = {}
        for axis in declared_axes():
            if axis.spec is None:
                continue
            self._resolve[axis.name] = axis.resolve
            for func in (axis.resolve, axis.spec.parse, *axis.entry_points):
                self.calls[_callable_name(func)] = axis.name
            for key in axis.keywords:
                self.keys[key] = axis.name
            for kind in axis.spec.KINDS:
                # First declaration wins ("none" is every axis's identity).
                self.kinds.setdefault(kind, axis.name)

    def validate(self, flavour: str, text: str) -> Optional[str]:
        """``None`` when ``text`` is a valid ``flavour`` spec, else why not."""
        try:
            self._resolve[flavour](text)
        except (ValueError, TypeError) as exc:
            return str(exc)
        return None


@functools.lru_cache(maxsize=None)
def _tables() -> _AxisTables:
    return _AxisTables()


def _direct_strings(node: ast.AST) -> Iterable[Tuple[str, int]]:
    """String literals that *are* the value (not merely inside it).

    Walking every descendant would misread dict keys and helper-call
    arguments (``params.pop("faults", ...)``, ``{"kind": ...}``) as
    spec strings; only constants, literal collections and conditional
    branches actually flow into the parsers verbatim.
    """
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


class SpecStringsRule(Rule):
    id = "spec-strings"
    title = (
        "quoted fault/precond/precision/chaos/backend specs parse "
        "against live registries"
    )
    rationale = (
        "spec strings in campaigns, drivers and docs are executable "
        "configuration; drift against the registries must fail at lint "
        "time, not mid-sweep"
    )

    # -- python sources ------------------------------------------------
    def check_file(self, source: SourceFile, ctx) -> Iterable[Finding]:
        if "analysis" in source.rel.split("/"):
            # The analyzers' own tables quote key names ("faults",
            # "precond") as data about the grammar, not as specs.
            return []
        tree = source.tree
        if tree is None:
            return []
        tables = _tables()
        findings: List[Finding] = []

        def check(flavour: str, text: str, line: int, context: str) -> None:
            error = tables.validate(flavour, text)
            if error is not None:
                findings.append(
                    Finding(
                        rule=self.id,
                        path=source.rel,
                        line=line,
                        message=(
                            f"invalid {flavour} spec {text!r} ({context}): {error}"
                        ),
                    )
                )

        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                flavour = None
                if name is not None:
                    tail = name.split(".")
                    # Match both bare names and dotted access, incl.
                    # "FaultSpec.parse" via its last two segments.
                    flavour = tables.calls.get(tail[-1]) or tables.calls.get(
                        ".".join(tail[-2:])
                    )
                if flavour and node.args:
                    for text, line in _direct_strings(node.args[0]):
                        check(flavour, text, line, f"argument of {name}")
                for keyword in node.keywords:
                    key_flavour = tables.keys.get(keyword.arg or "")
                    if key_flavour:
                        for text, line in _direct_strings(keyword.value):
                            check(
                                key_flavour, text, line,
                                f"{keyword.arg}= keyword",
                            )
            elif isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and key.value in tables.keys
                    ):
                        for text, line in _direct_strings(value):
                            check(
                                tables.keys[key.value], text, line,
                                f"{key.value!r} dict entry",
                            )
            elif isinstance(
                node,
                (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                docstring = ast.get_docstring(node, clean=False)
                if docstring:
                    body = node.body[0]
                    base_line = getattr(body, "lineno", 1)
                    for token in _doc_tokens(docstring):
                        flavour = _token_flavour(token, tables)
                        if flavour:
                            check(flavour, token, base_line, "docstring example")
        return findings

    # -- markdown ------------------------------------------------------
    def check_project(self, ctx) -> Iterable[Finding]:
        tables = _tables()
        findings: List[Finding] = []
        for path in ctx.markdown_files():
            rel = ctx.rel(path)
            if rel in _HISTORY_DOCUMENTS:
                continue
            text = path.read_text(encoding="utf-8")
            for token, line in _doc_tokens_with_lines(text):
                flavour = _token_flavour(token, tables)
                if flavour is None:
                    continue
                error = tables.validate(flavour, token)
                if error is not None:
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=rel,
                            line=line,
                            message=(
                                f"invalid {flavour} spec {token!r} "
                                f"(documentation): {error}"
                            ),
                        )
                    )
        return findings


def _doc_tokens(text: str) -> List[str]:
    """Spec-shaped candidate tokens in free-form documentation text."""
    tokens: List[str] = []
    spans = [m.group(1) for m in _BACKTICK_RE.finditer(text)]
    spans.extend(m.group(1) for m in _QUOTED_RE.finditer(text))
    for span in spans:
        candidates = [span.strip().strip('"')]
        candidates.extend(m.group(1) for m in _QUOTED_RE.finditer(span))
        for candidate in candidates:
            # "..." (or "…") marks a schematic placeholder
            # ("bitflip:p=...") -- a grammar sketch, not a concrete spec.
            if _DOC_TOKEN_RE.match(candidate) and not (
                "..." in candidate or "…" in candidate
            ):
                tokens.append(candidate)
    return tokens


def _doc_tokens_with_lines(text: str) -> List[Tuple[str, int]]:
    found: List[Tuple[str, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for token in _doc_tokens(line):
            found.append((token, lineno))
    return found


def _token_flavour(token: str, tables: _AxisTables) -> Optional[str]:
    """Dispatch a doc token to a flavour by its leading kind, if known."""
    kind = token.split(":", 1)[0].split("+", 1)[0].lower()
    return tables.kinds.get(kind)
