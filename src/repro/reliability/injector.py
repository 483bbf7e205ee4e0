"""Array-level fault injection.

:class:`ScheduledInjector` is the one schedule loop of the array
injectors: it asks a
:class:`~repro.reliability.schedule.FaultSchedule` how many faults are
due (when), corrupts one random victim element per fault, and records
every injected fault once, as a :class:`FaultEvent` in its
:attr:`~ScheduledInjector.events`.  :class:`ArrayInjector` flips a
random bit of the victim (what);
:class:`~repro.reliability.models.PerturbationInjector` overwrites or
scales it.  The unreliable regions of :mod:`repro.reliability` use
them; they corrupt whatever array they are handed (the caller is the
one declaring it unreliable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from repro.reliability.bitflip import flip_bit_array, max_bit_index, relative_perturbation
from repro.reliability.schedule import FaultSchedule, NeverSchedule
from repro.utils.rng import as_generator

__all__ = ["ArrayInjector", "FaultEvent", "ScheduledInjector"]


@dataclass(frozen=True)
class FaultEvent:
    """A single injected fault.

    Attributes
    ----------
    kind:
        ``"bitflip"``, ``"value"`` (direct overwrite), or
        ``"process"`` (hard failure).
    target:
        Name of the corrupted object (e.g. ``"arnoldi_basis"``,
        ``"inner_solution"``, ``"rank"``).
    location:
        Element index, rank number, or other location information.
    bit:
        Flipped bit position for bit flips, else ``None``.
    time:
        Virtual time or iteration number at which the fault occurred.
    magnitude:
        Relative perturbation caused by the fault (``inf`` for
        non-finite corruption), when meaningful.
    """

    kind: str
    target: str
    location: Any = None
    bit: Optional[int] = None
    time: Optional[float] = None
    magnitude: Optional[float] = None


class ScheduledInjector:
    """The schedule loop shared by the array injectors.

    Subclasses supply :meth:`_corrupt`, the per-victim step; the
    schedule, the :attr:`events` record and :attr:`n_injected` live
    here once.
    """

    def __init__(self, schedule, rng, target):
        self.schedule = schedule if schedule is not None else NeverSchedule()
        self._rng = as_generator(rng)
        self.target = target
        self.events: List[FaultEvent] = []

    def maybe_inject(self, array: np.ndarray, now: float = 0.0) -> np.ndarray:
        """Possibly corrupt ``array`` in place, according to the schedule.

        Returns the (possibly corrupted) array for call-chaining.  The
        array must be float64 or float32 and writable, in any memory
        layout; zero-size arrays are passed through untouched.
        """
        arr = np.asarray(array)
        n_faults = self.schedule.due(now)
        if n_faults == 0 or arr.size == 0:
            return arr
        for _ in range(n_faults):
            self.events.append(self._corrupt(arr, now))
        return arr

    def _corrupt(self, arr: np.ndarray, now: float) -> FaultEvent:
        """Corrupt one random element of ``arr``; the event describing it."""
        raise NotImplementedError

    @property
    def n_injected(self) -> int:
        """Number of faults injected so far through this injector."""
        return len(self.events)


class ArrayInjector(ScheduledInjector):
    """Schedule-driven random bit-flip injector for float arrays.

    Parameters
    ----------
    schedule:
        Decides at each opportunity how many faults to inject.
        Defaults to :class:`NeverSchedule` (fault-free).
    rng:
        Seed or generator for victim-element and bit selection.
    bit_range:
        Inclusive range of bit positions to flip; ``None`` means the
        full width of the target dtype (0..63 for float64, 0..31 for
        float32).  An explicit range is clamped to the dtype width when
        a float32 array comes through, so float64-centric specs like
        ``bits=52..62`` keep hitting the high (large-error) bits
        instead of erroring.
    target:
        Label attached to the fault events (useful when one injector
        guards one named data structure).
    """

    def __init__(
        self,
        schedule: Optional[FaultSchedule] = None,
        rng: Union[None, int, np.random.Generator] = None,
        *,
        bit_range: Optional[Tuple[int, int]] = None,
        target: str = "array",
    ):
        super().__init__(schedule, rng, target)
        self.bit_range = bit_range

    def _corrupt(self, arr: np.ndarray, now: float) -> FaultEvent:
        # The historical draw order (victim index, then bit), so
        # existing fault streams replay bit for bit.
        flat_index = int(self._rng.integers(0, arr.size))
        max_bit = max_bit_index(arr.dtype)
        low, high = self.bit_range if self.bit_range is not None else (0, max_bit)
        low, high = min(int(low), max_bit), min(int(high), max_bit)
        bit = int(self._rng.integers(low, high + 1))
        original = float(arr.flat[flat_index])
        flip_bit_array(arr, flat_index, bit, inplace=True)
        corrupted = float(arr.flat[flat_index])
        return FaultEvent(
            kind="bitflip", target=self.target, location=flat_index, bit=bit,
            time=now, magnitude=relative_perturbation(original, corrupted),
        )
