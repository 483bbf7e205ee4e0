"""Auto-discovering registry of experiment drivers.

The registry scans :mod:`repro.experiments` for modules implementing
the driver protocol -- a module-level
:class:`~repro.experiments.common.ExperimentSpec` named ``SPEC`` plus a
``run(**params) -> ExperimentResult`` callable -- and indexes them by
experiment id ("E1") and short name ("sdc_detection"), both
case-insensitive.  Everything the campaign layer knows about an
experiment flows through here; nothing is hard-wired to ten drivers,
so an ``e11_*.py`` module that implements the protocol is swept
automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Mapping, Optional, Tuple

from repro.experiments import iter_driver_modules
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSpec,
    run_signature,
)
from repro.spec import Registry

__all__ = ["RegisteredExperiment", "ExperimentRegistry", "default_registry"]


@dataclass(frozen=True)
class RegisteredExperiment:
    """One discovered driver: its spec, module and ``run`` callable.

    ``run_batch``, when the driver module provides it, runs several
    compatible scenarios (same parameters except ``seed``) in lockstep:
    ``run_batch(params_list) -> List[ExperimentResult]``, bit-identical
    to per-scenario ``run()`` calls.  The campaign runner's batch mode
    groups scenarios onto it; drivers without one always run
    scenario-at-a-time.

    The names ``run()`` accepts are read off its signature once, here,
    when the driver is registered; resolving a scenario against the
    driver is then dict and set lookups.
    """

    spec: ExperimentSpec
    module: str
    run: Callable[..., ExperimentResult]
    run_batch: Optional[Callable[..., List[ExperimentResult]]] = None
    _accepted: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    _accepted_set: FrozenSet[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        accepted = tuple(
            p.name
            for p in run_signature(self.run).parameters.values()
            if p.kind in (p.KEYWORD_ONLY, p.POSITIONAL_OR_KEYWORD)
        )
        object.__setattr__(self, "_accepted", accepted)
        object.__setattr__(self, "_accepted_set", frozenset(accepted))

    @property
    def experiment(self) -> str:
        return self.spec.experiment

    @property
    def name(self) -> str:
        return self.spec.name

    def row(self) -> tuple:
        return (
            self.experiment,
            self.name,
            ",".join(self.spec.tags),
            ",".join(self._accepted),
            self.spec.title,
        )

    def accepts(self, param: str) -> bool:
        return param in self._accepted_set

    def validate_params(self, params: Mapping[str, object]) -> None:
        """Raise ``ValueError`` on parameters ``run()`` does not accept."""
        unknown = sorted(set(params) - self._accepted_set)
        if unknown:
            raise ValueError(
                f"{self.experiment} ({self.name}) does not accept parameters "
                f"{unknown}; accepted: {list(self._accepted)}"
            )


def _discovered_drivers() -> List[RegisteredExperiment]:
    return [
        RegisteredExperiment(
            spec=module.SPEC,
            module=module.__name__,
            run=module.run,
            run_batch=getattr(module, "run_batch", None),
        )
        for module in iter_driver_modules()
    ]


class ExperimentRegistry(Registry[RegisteredExperiment]):
    """Index of discovered drivers, keyed twice: by id and by short name.

    The shared lookup (``get`` by either key in any case, ``in``, the
    process-wide default) is :class:`repro.spec.Registry`'s; what the
    double key changes is declared here -- ``add`` files a driver under
    both keys, and listing, length and the known-set of the lookup
    error go by experiment id.
    """

    NOUN = "experiment"
    COLUMNS = ("experiment", "name", "tags", "parameters", "title")
    builtin = staticmethod(_discovered_drivers)

    def __init__(self, drivers: Optional[List[RegisteredExperiment]] = None):
        self._drivers: List[RegisteredExperiment] = []
        super().__init__(drivers)

    def add(self, driver: RegisteredExperiment) -> None:
        """Register a driver under its experiment id and short name."""
        for key in (driver.experiment.lower(), driver.name.lower()):
            existing = self._by_name.get(key)
            if existing is not None and existing.module != driver.module:
                raise ValueError(
                    f"duplicate experiment key {key!r}: "
                    f"{existing.module} vs {driver.module}"
                )
            self._by_name[key] = driver
        self._drivers.append(driver)
        self._drivers.sort(key=lambda d: d.experiment)

    def names(self) -> List[str]:
        """Sorted experiment ids ("E1" ... )."""
        return [d.experiment for d in self._drivers]

    def __iter__(self):
        return iter(self._drivers)

    def __len__(self) -> int:
        return len(self._drivers)


#: The process-wide registry over :mod:`repro.experiments`.
default_registry = ExperimentRegistry.default
