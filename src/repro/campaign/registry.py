"""Auto-discovering registry of experiment drivers.

The registry scans :mod:`repro.experiments` for modules implementing
the driver protocol -- a module-level
:class:`~repro.experiments.common.ExperimentSpec` named ``SPEC`` plus a
``run(**params) -> ExperimentResult`` callable -- and indexes them by
experiment id ("E1") and short name ("sdc_detection"), both
case-insensitive.  Everything the campaign layer knows about an
experiment flows through here; nothing is hard-wired to seven drivers,
so an ``e8_*.py`` module that implements the protocol is swept
automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.experiments import iter_driver_modules
from repro.experiments.common import (
    ExperimentResult,
    ExperimentSpec,
    run_signature,
)

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
    def supports_batch(self) -> bool:
        return self.run_batch is not None

    @property
    def experiment(self) -> str:
        return self.spec.experiment

    @property
    def name(self) -> str:
        return self.spec.name

    def accepted_params(self) -> Tuple[str, ...]:
        """Names of the keyword parameters ``run()`` accepts, in signature order."""
        return self._accepted

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


class ExperimentRegistry:
    """Index of discovered drivers, keyed by id and by short name."""

    def __init__(self, drivers: Optional[List[RegisteredExperiment]] = None):
        if drivers is None:
            drivers = [
                RegisteredExperiment(
                    spec=module.SPEC,
                    module=module.__name__,
                    run=module.run,
                    run_batch=getattr(module, "run_batch", None),
                )
                for module in iter_driver_modules()
            ]
        self._by_key: Dict[str, RegisteredExperiment] = {}
        self._drivers: List[RegisteredExperiment] = []
        for driver in drivers:
            self.add(driver)

    def add(self, driver: RegisteredExperiment) -> None:
        """Register a driver under its experiment id and short name."""
        for key in (driver.experiment.lower(), driver.name.lower()):
            existing = self._by_key.get(key)
            if existing is not None and existing.module != driver.module:
                raise ValueError(
                    f"duplicate experiment key {key!r}: "
                    f"{existing.module} vs {driver.module}"
                )
            self._by_key[key] = driver
        self._drivers.append(driver)
        self._drivers.sort(key=lambda d: d.experiment)

    def get(self, key: str) -> RegisteredExperiment:
        """Look up by id ("E1") or name ("sdc_detection"), any case."""
        try:
            return self._by_key[key.lower()]
        except KeyError:
            known = ", ".join(d.experiment for d in self._drivers)
            raise KeyError(f"unknown experiment {key!r} (known: {known})") from None

    def __contains__(self, key: str) -> bool:
        return key.lower() in self._by_key

    def __iter__(self):
        return iter(self._drivers)

    def __len__(self) -> int:
        return len(self._drivers)

    def experiments(self) -> List[str]:
        """Sorted experiment ids ("E1" ... )."""
        return [d.experiment for d in self._drivers]


_DEFAULT: Optional[ExperimentRegistry] = None


def default_registry() -> ExperimentRegistry:
    """The process-wide registry over :mod:`repro.experiments`."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ExperimentRegistry()
    return _DEFAULT
