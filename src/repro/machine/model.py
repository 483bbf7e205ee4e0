"""The machine model.

A :class:`MachineModel` converts abstract work descriptions (flops,
bytes moved, messages sent) into virtual seconds.  It is deliberately
simple -- the alpha-beta communication model plus a scalar flop rate --
because that is the level of abstraction at which the paper (and the
pipelined-Krylov literature it cites) reasons about scalability.

All the resilient-algorithm layers are written against this model, so
an experiment can re-run the same algorithm on "machines" with
different latency, bandwidth, noise intensity or reliability by just
passing a different model instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.machine.noise import NoiseModel, NoNoise
from repro.utils.validation import check_positive, check_non_negative

__all__ = ["MachineModel"]


@dataclass
class MachineModel:
    """Parameters of the simulated machine.

    Attributes
    ----------
    flop_rate:
        Sustained floating-point rate of one rank, in flop/s.
    latency:
        Point-to-point message latency ``alpha`` in seconds.
    bandwidth:
        Point-to-point bandwidth in bytes/s (the ``1/beta`` of the
        alpha-beta model).
    collective_latency_factor:
        Multiplier applied to the ``alpha * ceil(log2 P)`` term of tree
        collectives; >1 models software overhead of the collective
        implementation.
    noise:
        Performance-variability model applied to compute intervals.
    checkpoint_bandwidth:
        Bandwidth to stable storage per rank (bytes/s), used by the
        checkpoint/restart cost model.
    restart_overhead:
        Fixed time (seconds) to relaunch a failed job under global CPR.
    local_recovery_overhead:
        Fixed time (seconds) for LFLR to spawn a replacement process
        and re-establish communication.
    """

    flop_rate: float = 1.0e9
    latency: float = 1.0e-6
    bandwidth: float = 1.0e9
    collective_latency_factor: float = 1.0
    noise: NoiseModel = field(default_factory=NoNoise)
    checkpoint_bandwidth: float = 1.0e8
    restart_overhead: float = 30.0
    local_recovery_overhead: float = 0.5

    def __post_init__(self) -> None:
        check_positive(self.flop_rate, "flop_rate")
        check_non_negative(self.latency, "latency")
        check_positive(self.bandwidth, "bandwidth")
        check_positive(self.collective_latency_factor, "collective_latency_factor")
        check_positive(self.checkpoint_bandwidth, "checkpoint_bandwidth")
        check_non_negative(self.restart_overhead, "restart_overhead")
        check_non_negative(self.local_recovery_overhead, "local_recovery_overhead")
        if not isinstance(self.noise, NoiseModel):
            raise TypeError("noise must be a NoiseModel instance")

    # ------------------------------------------------------------------
    # Compute costs
    # ------------------------------------------------------------------
    def compute_time(self, flops: float, *, rank: Optional[int] = None) -> float:
        """Virtual seconds needed for ``flops`` floating point operations.

        The noise model may add a variability term; passing the rank
        lets rank-correlated noise models behave consistently.
        """
        if not 0.0 <= flops < math.inf:  # NaN fails it too; the helper raises
            check_non_negative(flops, "flops")
        base = flops / self.flop_rate
        return base + self.noise.sample(base, rank=rank)

    # ------------------------------------------------------------------
    # Communication costs (single message)
    # ------------------------------------------------------------------
    def message_time(self, n_bytes: float) -> float:
        """Alpha-beta cost of one point-to-point message."""
        check_non_negative(n_bytes, "n_bytes")
        return self.latency + n_bytes / self.bandwidth

    # ------------------------------------------------------------------
    # Resilience-related costs
    # ------------------------------------------------------------------
    def checkpoint_time(self, n_bytes_per_rank: float) -> float:
        """Time for every rank to write ``n_bytes_per_rank`` to stable storage."""
        check_non_negative(n_bytes_per_rank, "n_bytes_per_rank")
        return n_bytes_per_rank / self.checkpoint_bandwidth

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def ideal(cls) -> "MachineModel":
        """A noise-free machine with negligible latency (for unit tests)."""
        return cls(latency=0.0, noise=NoNoise())

    @classmethod
    def leadership_class(cls, noise: Optional[NoiseModel] = None) -> "MachineModel":
        """Parameters loosely resembling a leadership-class machine."""
        return cls(
            flop_rate=2.0e10,
            latency=1.0e-6,
            bandwidth=1.0e10,
            collective_latency_factor=1.5,
            noise=noise if noise is not None else NoNoise(),
        )
