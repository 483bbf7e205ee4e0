"""Fault schedules.

A *schedule* decides **when** faults happen; the injectors in
:mod:`repro.reliability.injector` decide **what** gets corrupted.  Schedules
are expressed either in virtual time (seconds of the machine model) or
in abstract "ticks" (solver iterations, time steps) -- the schedule
itself does not care which, it is just a monotone coordinate.

Three concrete schedules cover the experiments:

* :class:`DeterministicSchedule` -- faults at explicitly listed ticks
  (used for targeted studies: "flip bit b of element i at iteration
  k").
* :class:`PoissonSchedule` -- faults arrive as a Poisson process with
  a given rate, the standard model for soft-error arrivals.
* :class:`BernoulliPerCallSchedule` -- every injection opportunity
  independently fires with probability *p* (the model used by the
  FT-GMRES paper for unreliable inner solves).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_non_negative, check_probability

__all__ = [
    "FaultSchedule",
    "DeterministicSchedule",
    "PoissonSchedule",
    "BernoulliPerCallSchedule",
    "NeverSchedule",
]


class FaultSchedule:
    """Abstract base class for fault schedules.

    Subclasses implement :meth:`due`, which is called by injectors at
    each injection opportunity with the current coordinate and returns
    the number of faults to inject at that opportunity.
    """

    def due(self, now: float) -> int:
        """Return how many faults are due at coordinate ``now``."""
        raise NotImplementedError


class NeverSchedule(FaultSchedule):
    """A schedule that never fires (useful as a fault-free control)."""

    def due(self, now: float) -> int:  # noqa: ARG002 - signature fixed by base
        return 0


class DeterministicSchedule(FaultSchedule):
    """Faults at an explicit, sorted list of coordinates.

    Each listed coordinate fires exactly once, the first time ``due``
    is called with ``now`` greater than or equal to it.

    Parameters
    ----------
    times:
        Iterable of coordinates (need not be sorted; duplicates mean
        multiple faults at the same coordinate).
    """

    def __init__(self, times: Iterable[float]):
        self._times: List[float] = sorted(float(t) for t in times)
        for t in self._times:
            check_non_negative(t, "fault time")
        self._cursor = 0

    def due(self, now: float) -> int:
        count = 0
        while self._cursor < len(self._times) and self._times[self._cursor] <= now:
            count += 1
            self._cursor += 1
        return count


class PoissonSchedule(FaultSchedule):
    """Poisson-process fault arrivals with a fixed rate.

    Parameters
    ----------
    rate:
        Expected number of faults per unit of the schedule coordinate
        (e.g. faults per second of virtual time, or faults per solver
        iteration).
    rng:
        Seed or generator.
    horizon:
        Optional upper bound on the coordinate; arrival times are
        pre-sampled up to the horizon.  If omitted, arrivals are
        sampled lazily as ``due`` advances.
    """

    def __init__(
        self,
        rate: float,
        rng: Union[None, int, np.random.Generator] = None,
        *,
        horizon: Optional[float] = None,
    ):
        self.rate = check_non_negative(rate, "rate")
        self._rng = as_generator(rng)
        self._next: Optional[float] = None
        self._deterministic: Optional[DeterministicSchedule] = None
        if horizon is not None and self.rate > 0:
            check_non_negative(horizon, "horizon")
            arrivals: List[float] = []
            t = 0.0
            while True:
                t += float(self._rng.exponential(1.0 / self.rate))
                if t > horizon:
                    break
                arrivals.append(t)
            self._deterministic = DeterministicSchedule(arrivals)

    def _sample_next(self, start: float) -> float:
        return start + float(self._rng.exponential(1.0 / self.rate))

    def due(self, now: float) -> int:
        if self.rate == 0:
            return 0
        if self._deterministic is not None:
            return self._deterministic.due(now)
        count = 0
        if self._next is None:
            self._next = self._sample_next(0.0)
        while self._next <= now:
            count += 1
            self._next = self._sample_next(self._next)
        return count


class BernoulliPerCallSchedule(FaultSchedule):
    """Each injection opportunity fires independently with probability p.

    The coordinate passed to :meth:`due` is ignored; this schedule
    models "every unreliable operation has a probability p of being
    corrupted", which is how selective-reliability studies typically
    parameterize the unreliable regime.
    """

    def __init__(
        self,
        probability: float,
        rng: Union[None, int, np.random.Generator] = None,
        *,
        max_faults: Optional[int] = None,
    ):
        self.probability = check_probability(probability, "probability")
        self._rng = as_generator(rng)
        self.max_faults = max_faults
        self._fired = 0

    def due(self, now: float) -> int:  # noqa: ARG002 - coordinate ignored
        if self.max_faults is not None and self._fired >= self.max_faults:
            return 0
        if float(self._rng.random()) < self.probability:
            self._fired += 1
            return 1
        return 0
