"""Declarative, serializable communicator-backend specifications.

A :class:`CommSpec` names one backend *kind* plus its parameters, and
is the unit of the backend axis exactly as :class:`FaultSpec` is for
faults: every experiment driver's ``backend=`` parameter, every
campaign backend axis and every registry entry is a ``CommSpec`` (or
something :meth:`CommSpec.parse` can turn into one).

Three interchangeable wire forms (the shared
:class:`repro.spec.KindSpec` ones), in the single-kind grammar of
:mod:`repro.spec`::

    SPEC  := KIND [ ":" NAME "=" VALUE ("," NAME "=" VALUE)* ]

* **compact strings** -- ``"sim"``, ``"shmem:procs=8"``;
* **dicts** -- ``{"kind": "shmem", "params": {"procs": 8}}`` -- the
  form the JSONL result store persists (``"params"`` is always written);
* **CommSpec objects** -- what the registry consumes.

Unlike fault specs there is no ``"+"`` composition: a job runs on
exactly one communicator.  Parsing and formatting round-trip exactly,
so backend specs are usable as campaign scenario-key material.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.spec import KindSpec

__all__ = ["CommSpec", "COMM_KINDS"]

#: Known backend kinds and the parameter names each accepts.  ``procs``
#: (a positive rank count) is meaningful everywhere; the shared-memory
#: backend also takes a per-operation ``timeout``.
COMM_KINDS: Dict[str, frozenset] = {
    "sim": frozenset({"procs"}),
    "shmem": frozenset({"procs", "timeout"}),
}


class CommSpec(KindSpec):
    """One declarative communicator-backend configuration.

    Attributes
    ----------
    kind:
        Backend kind (``"sim"``, ``"shmem"``), one of
        :data:`COMM_KINDS`.
    params:
        Backend parameters (scalars), e.g. ``procs`` for the default
        rank count.
    """

    NOUN = "communicator backend"
    KINDS = COMM_KINDS
    PARAM_ERROR = "backend {kind!r} does not accept parameter {name!r} (allowed: {allowed})"

    def _check_values(self, params: Dict[str, Any]) -> None:
        for name, value in params.items():
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if name == "procs":
                if not number or isinstance(value, float) or value <= 0:
                    raise ValueError(
                        f"procs must be a positive integer, got {value!r}"
                    )
            elif not number or value <= 0:
                raise ValueError(
                    f"{name} must be a positive number, got {value!r}"
                )

    def to_dict(self) -> dict:
        """JSON-friendly dict form; ``"params"`` is written even when empty."""
        return {"kind": self.kind, "params": dict(self.params)}

    @property
    def procs(self) -> int:
        """The rank count this spec requests (default 4)."""
        return int(self.params.get("procs", 4))
