"""Declarative, serializable fault specifications.

A :class:`FaultSpec` names one fault model *kind* plus its parameters,
and is the unit of the reliability layer's declarative API: every
experiment driver's ``faults=`` parameter, every campaign fault axis
and every registry entry is a ``FaultSpec`` (or something
:meth:`FaultSpec.parse` can turn into one).

Three interchangeable wire forms exist:

* **compact strings** -- ``"bitflip:p=1e-4,target=matvec"`` -- the form
  campaigns sweep and humans type;
* **dicts** -- ``{"kind": "bitflip", "params": {"p": 1e-4}}`` -- the
  form the JSONL result store persists;
* **FaultSpec objects** -- what the models consume.

The string grammar is the shared one of :mod:`repro.spec` (full manual
in CAMPAIGNS.md); this axis is one of the two that compose with ``"+"``.
What the fault axis declares: its kinds with the parameter names each
model reads (:data:`FAULT_KINDS`), the ``compose`` kind among them --
:class:`~repro.spec.KindSpec` does the composing.

Examples: ``"none"``, ``"bitflip:p=0.02,bits=52..62"``,
``"proc_fail:times=1.5;3.0,ranks=1;2"``,
``"bitflip:p=0.05+proc_fail:mtbf=3600,horizon=7200"``.

Parsing and formatting round-trip exactly (floats use ``repr``), which
is what makes fault specs usable as campaign scenario-key material.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.spec import COMPOSE_KIND, KindSpec

__all__ = ["FaultSpec", "FAULT_KINDS", "compose"]

#: kind -> the parameter names its model class in
#: :mod:`repro.reliability.models` reads.
FAULT_KINDS: Dict[str, Tuple[str, ...]] = {
    "none": (),
    "bitflip": ("p", "rate", "times", "horizon", "max_faults", "bits", "target"),
    "perturb": ("p", "rate", "times", "horizon", "max_faults", "value", "scale", "target"),
    "msg_corrupt": ("p", "bits"),
    "proc_fail": ("times", "ranks", "rank", "mtbf", "mtbf_years", "model", "shape",
                  "horizon", "max_failures"),
    "basis_bitflip": ("bits",),
    COMPOSE_KIND: (),
}


class FaultSpec(KindSpec):
    """One declarative fault-model configuration.

    Attributes
    ----------
    kind:
        Fault-model kind, one of :data:`FAULT_KINDS`.
    params:
        Model parameters (values are scalars or tuples of scalars).
    children:
        Component specs for ``kind == "compose"``; empty otherwise.
    """

    NOUN = "fault"
    KINDS = FAULT_KINDS


#: Compose several fault specs into one, flattening nested compositions.
compose = FaultSpec.compose
