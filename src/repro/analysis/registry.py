"""Named rule registry: the analyzers, indexed like every other axis.

Every analyzer registers here under a stable kebab-case id; the CLI's
``list`` and ``run`` commands read this table.  Adding a
rule is: subclass :class:`repro.analysis.core.Rule` in a module under
``repro/analysis/rules/``, then add it to :func:`_builtin_rules`.
"""

from __future__ import annotations

from typing import List

from repro.analysis.core import Rule
from repro.spec import Registry

__all__ = ["RuleRegistry", "default_rule_registry"]


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

