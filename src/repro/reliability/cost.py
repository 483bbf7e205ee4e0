"""Reliability cost model.

Making computation "more reliable than the bulk reliability of the
underlying system" costs something: instruction replication, TMR,
hardened cores.  The SRP argument only needs a first-order model of
that cost: a multiplier on reliable flops.  With it the model answers
the question the paper poses implicitly -- *how much cheaper is an
execution that keeps most of its work unreliable* -- which is what
:meth:`repro.reliability.region.Region.cost_summary` and experiment E6
report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_non_negative, check_positive

__all__ = ["ReliabilityCostModel"]


@dataclass
class ReliabilityCostModel:
    """First-order cost multiplier for reliable compute.

    Attributes
    ----------
    reliable_compute_factor:
        Cost multiplier of a reliable flop relative to an unreliable
        one.  TMR corresponds to ~3 (plus voting); instruction
        duplication ~2; hardened-but-slower cores somewhere in between.
    unreliable_compute_cost:
        Baseline cost per unreliable flop (arbitrary units; 1.0 by
        default so returned costs are in "unreliable flop equivalents").
    """

    reliable_compute_factor: float = 3.0
    unreliable_compute_cost: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.reliable_compute_factor, "reliable_compute_factor")
        check_positive(self.unreliable_compute_cost, "unreliable_compute_cost")

    def execution_cost(self, reliable_flops: float, unreliable_flops: float) -> float:
        """Total compute cost of a run split into reliable and unreliable flops."""
        check_non_negative(reliable_flops, "reliable_flops")
        check_non_negative(unreliable_flops, "unreliable_flops")
        return self.unreliable_compute_cost * (
            unreliable_flops + self.reliable_compute_factor * reliable_flops
        )

    def speedup_vs_all_reliable(
        self, reliable_flops: float, unreliable_flops: float
    ) -> float:
        """How much cheaper selective reliability is than all-reliable."""
        selective = self.execution_cost(reliable_flops, unreliable_flops)
        everything = self.execution_cost(reliable_flops + unreliable_flops, 0.0)
        if selective == 0.0:
            return 1.0
        return everything / selective
