"""The declared axes, in listing order.

Each axis module ends in one :class:`repro.spec.Axis` record named
``AXIS``; this is the one place that names them all.  Whatever iterates
axes -- ``python -m repro.campaign list``, the ``spec-strings``
lint and the contract in ``tests/test_axis_contract.py`` -- iterates
:func:`declared_axes`, so adding an axis is: declare its kinds table,
its entries and its ``AXIS``, then add the module here.
"""

from __future__ import annotations

import importlib
from typing import Tuple

from repro.spec import Axis

__all__ = ["AXIS_MODULES", "declared_axes"]

AXIS_MODULES = (
    "repro.krylov.registry",
    "repro.reliability.registry",
    "repro.precond.registry",
    "repro.reliability.precision",
    "repro.comm.registry",
    "repro.campaign.executor",
)


def declared_axes() -> Tuple[Axis, ...]:
    """Every declared axis (imports the axis modules on first use)."""
    return tuple(importlib.import_module(name).AXIS for name in AXIS_MODULES)
