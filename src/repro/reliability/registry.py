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

from typing import List, Mapping, Union

from repro.reliability.models import FaultModel, build_model
from repro.reliability.region import Region
from repro.reliability.seeding import fault_stream
from repro.reliability.spec import FaultSpec
from repro.spec import Axis, RegisteredSpec, Registry

__all__ = [
    "FaultRegistry",
    "default_fault_registry",
    "resolve_faults",
    "unreliable",
    "AXIS",
]


def _builtin_models() -> List[RegisteredSpec]:
    spec = FaultSpec.parse

    return [
        RegisteredSpec(
            name="none",
            spec=spec("none"),
            title="Fault-free control",
        ),
        RegisteredSpec(
            name="bitflip",
            spec=spec("bitflip:p=0.02"),
            title="Per-operation Bernoulli bit flip, any bit",
        ),
        RegisteredSpec(
            name="bitflip_mantissa",
            spec=spec("bitflip:p=0.02,bits=0..51"),
            title="Bernoulli bit flip restricted to mantissa bits",
        ),
        RegisteredSpec(
            name="bitflip_exponent",
            spec=spec("bitflip:p=0.02,bits=52..62"),
            title="Bernoulli bit flip restricted to exponent bits",
        ),
        RegisteredSpec(
            name="basis_bitflip",
            spec=spec("basis_bitflip:bits=0..63"),
            title="Targeted single flip in the newest Krylov basis vector",
        ),
        RegisteredSpec(
            name="sdc_value",
            spec=spec("perturb:p=0.01,scale=1000.0"),
            title="SDC value perturbation (scale one element x1e3)",
        ),
        RegisteredSpec(
            name="msg_corrupt",
            spec=spec("msg_corrupt:p=0.001"),
            title="Per-send message payload corruption",
        ),
        RegisteredSpec(
            name="proc_fail",
            spec=spec("proc_fail:mtbf=3600.0"),
            title="Exponential (memoryless) process failures",
        ),
        RegisteredSpec(
            name="proc_fail_weibull",
            spec=spec("proc_fail:mtbf=3600.0,model=weibull,shape=0.7"),
            title="Weibull process failures (infant-mortality hazard)",
        ),
    ]


class FaultRegistry(Registry[RegisteredSpec]):
    """Index of named fault-model configurations."""

    NOUN = "fault model"
    COLUMNS = ("fault_model", "spec", "title")
    builtin = staticmethod(_builtin_models)


#: The process-wide registry of named fault models.
default_fault_registry = FaultRegistry.default


def resolve_faults(
    value: Union[None, str, Mapping, FaultSpec, FaultModel],
    **overrides,
) -> FaultModel:
    """Resolve anything fault-shaped into a ready :class:`FaultModel`.

    ``None`` resolves to the fault-free model, a registered name to its
    entry's spec, anything else through :meth:`repro.spec.Axis.parse`.
    ``overrides`` merge into the spec's parameters (``None`` values are
    ignored), so drivers can forward optional arguments like
    ``bits=bit_range`` without clobbering explicit spec values.
    """
    if isinstance(value, FaultModel):
        return value.with_params(**overrides) if overrides else value
    spec = AXIS.parse(value)
    return build_model(spec.with_params(**overrides) if overrides else spec)


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
