"""Experiment drivers.

One module per experiment (E1-E10); each exposes a
``run(**params)`` function returning an :class:`ExperimentResult` whose
table is exactly what the corresponding benchmark prints, plus a
module-level :class:`ExperimentSpec` named ``SPEC`` describing the
driver to the campaign registry (id, tags, smoke/golden parameter
sets).  The drivers are deliberately parameterized so the benchmarks
can run a quick configuration while the tables in ``tests/goldens/``
pin a fuller one.  A result's ``parameters`` are derived from ``run``'s
signature (:func:`~repro.experiments.common.records_parameters`); a
driver supplies only the values it resolves from ``None``.

:func:`iter_driver_modules` is the discovery entry point used by
:mod:`repro.campaign.registry`: it yields every module in this package
that implements the driver protocol (``SPEC`` + ``run``), so adding an
``e11_*.py`` module with both automatically makes it sweepable.
"""

from __future__ import annotations

import importlib
import pkgutil
from typing import Iterator

from repro.experiments.common import ExperimentResult, ExperimentSpec

__all__ = ["ExperimentResult", "ExperimentSpec", "iter_driver_modules"]


def iter_driver_modules() -> Iterator[object]:
    """Yield every experiment driver module in this package.

    A *driver module* is any submodule defining both a module-level
    ``SPEC`` (:class:`ExperimentSpec`) and a callable ``run``.  Modules
    are yielded in sorted module-name order, so discovery is
    deterministic.
    """
    package = importlib.import_module(__name__)
    for info in sorted(pkgutil.iter_modules(package.__path__), key=lambda m: m.name):
        if info.ispkg:
            continue
        module = importlib.import_module(f"{__name__}.{info.name}")
        spec = getattr(module, "SPEC", None)
        if isinstance(spec, ExperimentSpec) and callable(getattr(module, "run", None)):
            yield module
