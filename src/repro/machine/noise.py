"""Performance-variability (noise) models.

Section II-B of the paper argues that the first observable impact of
decreasing hardware reliability is *performance variability*: error
detection and correction in hardware and system software keeps the
machine functionally correct but makes nominally equal work take
unequal time.  Coupled with frequent synchronous collectives this
destroys scalability.

The noise models here add a stochastic term to each compute interval:

* :class:`NoNoise` -- the idealized reliable digital machine.
* :class:`EccStallNoise` -- stalls of fixed length occurring at a
  Poisson rate proportional to the interval length, modelling ECC
  correction events whose frequency grows as hardware reliability
  drops.

Models are seeded explicitly so experiments are reproducible.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_non_negative

__all__ = ["NoiseModel", "NoNoise", "EccStallNoise"]


class NoiseModel:
    """Base class for per-operation noise models."""

    def sample(self, base_time: float, *, rank: Optional[int] = None) -> float:
        """Return the extra delay added to an operation of length ``base_time``."""
        raise NotImplementedError

    def mean_overhead(self, base_time: float) -> float:
        """Expected extra delay for an operation of length ``base_time``.

        Used by the analytic scaling models, which need expectations
        rather than samples.
        """
        raise NotImplementedError


class NoNoise(NoiseModel):
    """The reliable digital machine: zero variability."""

    def sample(self, base_time: float, *, rank: Optional[int] = None) -> float:
        return 0.0

    def mean_overhead(self, base_time: float) -> float:
        return 0.0


class EccStallNoise(NoiseModel):
    """Stalls whose *rate* grows with the length of the interval.

    Models error detection/correction events: during an interval of
    length ``base_time`` the hardware performs ECC corrections at rate
    ``event_rate`` (events per second), each costing ``stall`` seconds.
    This is the mechanism the paper identifies: as reliability drops,
    correction events become more frequent and manifest as variability.
    """

    def __init__(
        self,
        event_rate: float,
        stall: float,
        rng: Union[None, int, np.random.Generator] = None,
    ):
        self.event_rate = check_non_negative(event_rate, "event_rate")
        self.stall = check_non_negative(stall, "stall")
        self._rng = as_generator(rng)

    def sample(self, base_time: float, *, rank: Optional[int] = None) -> float:
        check_non_negative(base_time, "base_time")
        if self.event_rate == 0.0 or self.stall == 0.0 or base_time == 0.0:
            return 0.0
        events = int(self._rng.poisson(self.event_rate * base_time))
        return events * self.stall

    def mean_overhead(self, base_time: float) -> float:
        return self.event_rate * base_time * self.stall
