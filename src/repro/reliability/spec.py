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
model reads (:data:`FAULT_KINDS`) and the ``compose`` kind with its
``children``.

Examples: ``"none"``, ``"bitflip:p=0.02,bits=52..62"``,
``"proc_fail:times=1.5;3.0,ranks=1;2"``,
``"bitflip:p=0.05+proc_fail:mtbf=3600,horizon=7200"``.

Parsing and formatting round-trip exactly (floats use ``repr``), which
is what makes fault specs usable as campaign scenario-key material.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple, Union

from repro.spec import KindSpec, split_composed

__all__ = ["FaultSpec", "FAULT_KINDS", "compose"]

COMPOSE_KIND = "compose"

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


@dataclass(frozen=True)
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

    children: Tuple["FaultSpec", ...] = ()

    NOUN = "fault"
    KINDS = FAULT_KINDS

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        super().__post_init__()

    def _check_values(self, params: Dict[str, Any]) -> None:
        if self.kind == COMPOSE_KIND:
            if len(self.children) < 2:
                raise ValueError("compose specs need at least two children")
            if params:
                raise ValueError("compose specs take no parameters of their own")
        elif self.children:
            raise ValueError(f"only {COMPOSE_KIND!r} specs may have children")

    @classmethod
    def _parse_string(cls, text: str) -> "FaultSpec":
        parse_single = super()._parse_string
        return compose(*map(parse_single, split_composed(text, cls._label())))

    def to_string(self) -> str:
        if self.kind == COMPOSE_KIND:
            return "+".join(child.to_string() for child in self.children)
        return super().to_string()

    def to_dict(self) -> dict:
        data = super().to_dict()
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSpec":
        if {"kind", "children"} <= set(data) <= {"kind", "params", "children"}:
            children = tuple(cls.from_dict(child) for child in data["children"])
            return cls(str(data["kind"]), dict(data.get("params") or {}), children)
        return super().from_dict(data)

    def with_params(self, **overrides: Any) -> "FaultSpec":
        if self.kind == COMPOSE_KIND:
            raise ValueError(
                "cannot override parameters of a compose spec; "
                "override its children instead"
            )
        return super().with_params(**overrides)


def compose(*specs: Union[str, Mapping, FaultSpec]) -> FaultSpec:
    """Compose several fault specs into one (``kind="compose"``).

    Nested compositions are flattened, so
    ``compose(a, compose(b, c))`` equals ``compose(a, b, c)``.
    """
    children = []
    for spec in specs:
        parsed = FaultSpec.parse(spec)
        if parsed.kind == COMPOSE_KIND:
            children.extend(parsed.children)
        else:
            children.append(parsed)
    if not children:
        raise ValueError("compose() needs at least one spec")
    if len(children) == 1:
        return children[0]
    return FaultSpec(COMPOSE_KIND, {}, tuple(children))
