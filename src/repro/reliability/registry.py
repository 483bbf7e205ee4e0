"""Named fault-model registry: the fault axis campaigns sweep.

Mirrors :mod:`repro.krylov.registry`: each entry names one declarative
:class:`~repro.reliability.spec.FaultSpec` under a stable key, so
drivers, campaigns and the CLI resolve fault models *by name* -- or by
inline spec string -- and sweep solver x policy x fault grids without
constructing injectors by hand.

:func:`resolve_faults` is the one resolution entry point used across
the toolkit: it accepts a registry name, a compact spec string, a dict,
a :class:`FaultSpec` or an already-built model, applies optional
parameter overrides, and returns the ready
:class:`~repro.reliability.models.FaultModel`; :func:`unreliable` is the
SRP :class:`~repro.reliability.region.Region` of such a model.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Mapping, Union

from repro.reliability.models import FaultModel, build_model
from repro.reliability.region import Region
from repro.reliability.seeding import fault_stream
from repro.reliability.spec import FaultSpec
from repro.spec import Axis, RegisteredSpec, Registry

__all__ = [
    "RegisteredFaultModel",
    "FaultRegistry",
    "default_fault_registry",
    "resolve_faults",
    "unreliable",
    "AXIS",
]


class RegisteredFaultModel(RegisteredSpec):
    """One named fault-model configuration."""

    def build(self, **overrides) -> FaultModel:
        """Instantiate the model, with optional parameter overrides."""
        spec = self.spec.with_params(**overrides) if overrides else self.spec
        return build_model(spec)


def _builtin_models() -> List[RegisteredFaultModel]:
    spec = FaultSpec.parse

    return [
        RegisteredFaultModel(
            name="none",
            spec=spec("none"),
            title="Fault-free control",
        ),
        RegisteredFaultModel(
            name="bitflip",
            spec=spec("bitflip:p=0.02"),
            title="Per-operation Bernoulli bit flip, any bit",
        ),
        RegisteredFaultModel(
            name="bitflip_mantissa",
            spec=spec("bitflip:p=0.02,bits=0..51"),
            title="Bernoulli bit flip restricted to mantissa bits",
        ),
        RegisteredFaultModel(
            name="bitflip_exponent",
            spec=spec("bitflip:p=0.02,bits=52..62"),
            title="Bernoulli bit flip restricted to exponent bits",
        ),
        RegisteredFaultModel(
            name="basis_bitflip",
            spec=spec("basis_bitflip:bits=0..63"),
            title="Targeted single flip in the newest Krylov basis vector",
        ),
        RegisteredFaultModel(
            name="sdc_value",
            spec=spec("perturb:p=0.01,scale=1000.0"),
            title="SDC value perturbation (scale one element x1e3)",
        ),
        RegisteredFaultModel(
            name="msg_corrupt",
            spec=spec("msg_corrupt:p=0.001"),
            title="Per-send message payload corruption",
        ),
        RegisteredFaultModel(
            name="proc_fail",
            spec=spec("proc_fail:mtbf=3600.0"),
            title="Exponential (memoryless) process failures",
        ),
        RegisteredFaultModel(
            name="proc_fail_weibull",
            spec=spec("proc_fail:mtbf=3600.0,model=weibull,shape=0.7"),
            title="Weibull process failures (infant-mortality hazard)",
        ),
    ]


class FaultRegistry(Registry[RegisteredFaultModel]):
    """Index of named fault-model configurations."""

    NOUN = "fault model"
    COLUMNS = ("fault_model", "spec", "title")
    builtin = staticmethod(_builtin_models)


#: The process-wide registry of named fault models.
default_fault_registry = FaultRegistry.default


@lru_cache(maxsize=256)
def _parse_string(text: str) -> FaultSpec:
    """:meth:`FaultSpec.parse` of a compact string, once per string.

    Strings and specs are both immutable (a spec's ``params`` is a
    read-only view), so every caller may share the one parse.
    """
    return FaultSpec.parse(text)


def resolve_faults(
    value: Union[None, str, Mapping, FaultSpec, FaultModel],
    **overrides,
) -> FaultModel:
    """Resolve anything fault-shaped into a ready :class:`FaultModel`.

    ``None`` resolves to the fault-free model.  Strings are looked up
    in the registry first; anything else is parsed as a compact spec
    string.  ``overrides`` merge into the spec's parameters (``None``
    values are ignored), so drivers can forward optional arguments
    like ``bits=bit_range`` without clobbering explicit spec values.
    """
    if isinstance(value, FaultModel):
        return value.with_params(**overrides) if overrides else value
    if value is None:
        value = "none"
    if isinstance(value, str) and value in default_fault_registry():
        return default_fault_registry().get(value).build(**overrides)
    spec = _parse_string(value) if isinstance(value, str) else FaultSpec.parse(value)
    if overrides:
        spec = spec.with_params(**overrides)
    return build_model(spec)


def unreliable(faults="none", *, seed=None, name="unreliable") -> Region:
    """An unreliable region for a fault spec.

    ``faults`` is anything :func:`resolve_faults` accepts -- a registry
    name, a compact spec string, a dict or a built model.  The injector
    draws from the canonical fault stream of ``(seed, name)``.
    """
    return Region(resolve_faults(faults).injector(fault_stream(seed, name)))


AXIS = Axis(
    name="fault",
    spec=FaultSpec,
    registry=default_fault_registry,
    resolve=resolve_faults,
    keywords=("faults",),
    identity="none",
)
