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

Entries stay *registered* even when the environment cannot run them
(``mpi4py`` without the package): listings and persisted specs remain
stable across machines, and only ``launch`` fails -- loudly, with
:class:`~repro.comm.errors.BackendUnavailableError`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.comm.errors import BackendUnavailableError
from repro.comm.spec import CommSpec
from repro.spec import Axis, Registry

__all__ = [
    "RegisteredBackend",
    "BoundBackend",
    "BackendRegistry",
    "default_backend_registry",
    "backend_names",
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
        ``"shmem"``, ``"mpi4py"``).
    title:
        One-line human description for listings.
    ordered_reduction:
        Whether reductions combine contributions in ascending-rank
        order, left to right.  Backends sharing this flag produce
        **bit-identical** reduction results; against backends without
        it, differential gates must compare under norm tolerances.
    module:
        Dotted module path holding the launcher (imported lazily, so
        listing backends never imports e.g. ``mpi4py``).
    launcher:
        Attribute name of the launch callable in ``module``.
    checker:
        Optional attribute name of an availability probe in ``module``
        returning ``(ok, reason)``; ``None`` means always available.
    """

    name: str
    title: str
    ordered_reduction: bool
    module: str
    launcher: str
    checker: Optional[str] = None

    def available(self) -> Tuple[bool, str]:
        """Whether this backend can run here, plus the reason when not."""
        if self.checker is None:
            return True, ""
        probe = getattr(importlib.import_module(self.module), self.checker)
        return probe()

    def row(self) -> tuple:
        ok, reason = self.available()
        return (self.name, self.ordered_reduction,
                "yes" if ok else f"no ({reason})", self.title)

    def _launch_callable(self) -> Callable[..., List[Any]]:
        ok, reason = self.available()
        if not ok:
            raise BackendUnavailableError(self.name, reason)
        return getattr(importlib.import_module(self.module), self.launcher)

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
    def name(self) -> str:
        return self.entry.name

    @property
    def ordered_reduction(self) -> bool:
        return self.entry.ordered_reduction

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
        to the spec's ``procs``; the spec's ``watchdog``/``timeout``
        parameter becomes the backend's per-wait bound.
        """
        launch = self.entry._launch_callable()
        timeout = self.spec.get("timeout", self.spec.get("watchdog"))
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
            ordered_reduction=True,
            module="repro.comm.sim",
            launcher="launch_sim",
        ),
        RegisteredBackend(
            name="shmem",
            title="Shared-memory multiprocess runtime (forked ranks + pipes)",
            ordered_reduction=True,
            module="repro.comm.shmem",
            launcher="launch_shmem",
        ),
        RegisteredBackend(
            name="mpi4py",
            title="Real MPI via mpi4py (requires mpiexec; import-gated)",
            ordered_reduction=False,
            module="repro.comm.mpi",
            launcher="launch_mpi",
            checker="mpi4py_available",
        ),
    ]


class BackendRegistry(Registry[RegisteredBackend]):
    """Index of named communicator backends."""

    NOUN = "communicator backend"
    COLUMNS = ("backend", "ordered_reduction", "available", "title")
    builtin = staticmethod(_builtin_backends)


#: The process-wide registry of built-in backends.
default_backend_registry = BackendRegistry.default


def backend_names() -> List[str]:
    """Sorted names of all registered backends."""
    return default_backend_registry().names()


def resolve_backend(
    value: Union[None, str, dict, CommSpec, BoundBackend],
) -> BoundBackend:
    """Resolve anything backend-shaped into a ready :class:`BoundBackend`.

    ``None`` resolves to the default ``"sim"`` backend; strings, dicts
    and :class:`CommSpec` objects are parsed and looked up by kind.
    """
    if isinstance(value, BoundBackend):
        return value
    spec = CommSpec.parse(value if value is not None else "sim")
    return default_backend_registry().get(spec.kind).bind(spec)


AXIS = Axis(
    name="comm",
    spec=CommSpec,
    registry=default_backend_registry,
    resolve=resolve_backend,
    keywords=("backend",),
    identity="sim",
)
