"""Named rule registry: the analyzers, indexed like every other axis.

Every analyzer registers here under a stable kebab-case id; the CLI
``list`` command and the ``--rules`` filter read this table.  Adding a
rule is: subclass :class:`repro.analysis.core.Rule` in a module under
``repro/analysis/rules/``, then add it to :func:`_builtin_rules`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.core import Rule
from repro.spec import Registry

__all__ = ["RuleRegistry", "default_rule_registry", "rule_names", "resolve_rules"]


def _builtin_rules() -> List[Rule]:
    # Imported lazily so `import repro.analysis` stays cheap and rule
    # modules may import heavier subsystems (registries, executor).
    from repro.analysis.rules.determinism import DeterminismRule
    from repro.analysis.rules.docs import DocLinksRule
    from repro.analysis.rules.drivers import DriverContractRule
    from repro.analysis.rules.dtype import DtypeFlowRule
    from repro.analysis.rules.process_safety import ProcessSafetyRule
    from repro.analysis.rules.specs import SpecStringsRule

    return [
        DeterminismRule(),
        SpecStringsRule(),
        DriverContractRule(),
        DtypeFlowRule(),
        ProcessSafetyRule(),
        DocLinksRule(),
    ]


class RuleRegistry(Registry[Rule]):
    """Index of analyzer instances, keyed by rule id (``Rule.name``)."""

    NOUN = "analysis rule"
    builtin = staticmethod(_builtin_rules)

    def add(self, rule: Rule) -> None:
        if not rule.id:
            raise ValueError(f"rule {type(rule).__name__} has no id")
        super().add(rule)


#: The process-wide registry over the built-in ruleset.
default_rule_registry = RuleRegistry.default


def rule_names() -> List[str]:
    return default_rule_registry().names()


def resolve_rules(spec: Optional[str]) -> List[Rule]:
    """Resolve a comma-separated id list (``None`` -> every rule)."""
    registry = default_rule_registry()
    if spec is None:
        return list(registry)
    return [registry.get(part.strip()) for part in spec.split(",") if part.strip()]
