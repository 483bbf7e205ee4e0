"""Shared utilities for the :mod:`repro` toolkit.

The utilities layer is intentionally dependency-light (NumPy only) and
is used by every other subpackage:

* :mod:`repro.utils.rng` -- reproducible random-number stream factory.
* :mod:`repro.utils.validation` -- argument-checking helpers with
  consistent error messages.
* :mod:`repro.utils.timing` -- the kernel time/call counters behind
  ``SolveResult.info["kernels"]``.
* :mod:`repro.utils.tables` -- plain-text table formatting used by the
  experiment and benchmark drivers so the reproduced "tables" print in
  a uniform layout.
* :mod:`repro.utils.logging` -- a tiny structured event log used by
  fault injectors and resilience managers.
* :mod:`repro.utils.serialization` -- JSON normalization used by the
  campaign result store and scenario keys.
* :mod:`repro.utils.child` -- the one forked-child lifecycle (start,
  framed channel, stop, reap) of campaign workers and shmem ranks.
"""

from repro.utils.rng import RngFactory
from repro.utils.tables import Table
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_probability,
    check_in,
    check_array_1d,
)
from repro.utils.logging import EventLog, Event
from repro.utils.serialization import jsonify

__all__ = [
    "RngFactory",
    "jsonify",
    "Table",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in",
    "check_array_1d",
    "EventLog",
    "Event",
]
