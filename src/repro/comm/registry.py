"""Named communicator-backend registry: the backend axis.

Mirrors :mod:`repro.reliability.registry`: each entry names one
backend under a stable key, so experiment drivers, the campaign CLI
and the conformance suite resolve backends *by spec* (``"sim"``,
``"shmem:procs=8"``) instead of hard-wiring a runtime.

:func:`resolve_backend` is the one resolution entry point: it accepts
a compact spec string, a dict, a :class:`~repro.comm.spec.CommSpec`
or ``None`` (the default ``"sim"``), and returns the registry entry
bound to that spec, ready to :meth:`~BoundBackend.launch` SPMD
functions under the uniform launch contract::

    values = resolve_backend("shmem:procs=4").launch(my_rank_func)
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Union

from repro.comm.spec import CommSpec
from repro.spec import Axis, Registry

__all__ = [
    "RegisteredBackend",
    "BoundBackend",
    "BackendRegistry",
    "default_backend_registry",
    "resolve_backend",
    "AXIS",
]


@dataclass(frozen=True)
class RegisteredBackend:
    """One named communicator backend.

    Attributes
    ----------
    name:
        Stable registry key, identical to the spec kind (``"sim"``,
        ``"shmem"``).
    title:
        One-line human description for listings.
    module:
        Dotted module path holding the launcher (imported lazily, so
        resolving a backend imports neither the simulator nor shmem).
    launcher:
        Attribute name of the launch callable in ``module``.
    """

    name: str
    title: str
    module: str
    launcher: str

    @property
    def spec(self) -> CommSpec:
        """The spec the name stands for: the kind, no parameters."""
        return CommSpec(self.name)

    def row(self) -> tuple:
        return (self.name, self.title)

    def bind(self, spec: CommSpec) -> "BoundBackend":
        """Pair this entry with a concrete parameterization."""
        return BoundBackend(self, spec)


@dataclass(frozen=True)
class BoundBackend:
    """A registry entry bound to one :class:`CommSpec`.

    The object experiment drivers actually hold: it knows the rank
    count and timeouts the spec requested, and exposes the uniform
    launch contract.
    """

    entry: RegisteredBackend
    spec: CommSpec

    @property
    def procs(self) -> int:
        return self.spec.procs

    def launch(
        self,
        func: Callable[..., Any],
        *args: Any,
        n_ranks: Optional[int] = None,
        machine=None,
        failure_plan=None,
        faults=None,
        fault_seed: Optional[int] = None,
        **kwargs: Any,
    ) -> List[Any]:
        """Run ``func(comm, *args, **kwargs)`` on every rank.

        Returns the per-rank return values in rank order (``None`` for
        ranks killed by an injected hard fault).  ``n_ranks`` defaults
        to the spec's ``procs``; the spec's ``timeout`` parameter becomes
        the launcher's ``timeout``.  ``failure_plan`` is a
        :class:`~repro.reliability.process.FailurePlan` or ``None``;
        fault specs go through ``faults``
        (:func:`~repro.comm.base.resolve_job_faults`).
        """
        launch = getattr(importlib.import_module(self.entry.module), self.entry.launcher)
        timeout = self.spec.get("timeout")
        if timeout is not None:
            kwargs.setdefault("timeout", float(timeout))
        return launch(
            n_ranks if n_ranks is not None else self.procs,
            func,
            *args,
            machine=machine,
            failure_plan=failure_plan,
            faults=faults,
            fault_seed=fault_seed,
            **kwargs,
        )


def _builtin_backends() -> List[RegisteredBackend]:
    return [
        RegisteredBackend(
            name="sim",
            title="Deterministic simulated runtime (threads + virtual clock)",
            module="repro.comm.sim",
            launcher="run_spmd",
        ),
        RegisteredBackend(
            name="shmem",
            title="Shared-memory multiprocess runtime (forked ranks + pipes)",
            module="repro.comm.shmem",
            launcher="launch_shmem",
        ),
    ]


class BackendRegistry(Registry[RegisteredBackend]):
    """Index of named communicator backends."""

    NOUN = "communicator backend"
    COLUMNS = ("backend", "title")
    builtin = staticmethod(_builtin_backends)


#: The process-wide registry of built-in backends.
default_backend_registry = BackendRegistry.default


def resolve_backend(
    value: Union[None, str, dict, CommSpec, BoundBackend],
) -> BoundBackend:
    """Resolve anything backend-shaped into a ready :class:`BoundBackend`.

    ``None`` resolves to the default ``"sim"`` backend; strings, dicts
    and :class:`CommSpec` objects are parsed
    (:meth:`repro.spec.Axis.parse`) and looked up by kind.
    """
    if isinstance(value, BoundBackend):
        return value
    spec = AXIS.parse(value)
    return default_backend_registry().get(spec.kind).bind(spec)


AXIS = Axis(
    name="comm",
    spec=CommSpec,
    registry=default_backend_registry,
    resolve=resolve_backend,
    keywords=("backend",),
    identity="sim",
)
