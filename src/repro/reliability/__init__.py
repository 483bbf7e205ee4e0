"""The unified reliability layer: declarative fault models for every layer.

The paper's premise is that future systems expose applications to soft
faults (silent data corruption) and hard faults (process loss), and its
thesis is that the response is *algorithmic and composable*.  This
subpackage makes the fault side of that thesis first-class: one
declarative :class:`FaultSpec` model, one named-model registry, and one
capability surface (:class:`FaultModel`) consumed uniformly by the
solver engine's resilience policies, the SRP region, the simulated
MPI runtime and every experiment driver -- so the fault axis is named,
serializable and sweepable exactly like the solver axis.

Quick tour::

    from repro import reliability

    model = reliability.resolve_faults("bitflip:p=1e-4,bits=52..62")
    with reliability.unreliable(model, seed=7) as region:
        y = region.operator(A.matvec, flops_per_call=2 * A.nnz)(x)

    combo = reliability.resolve_faults(
        reliability.compose("bitflip:p=0.02", "proc_fail:mtbf=3600"))
    hard = combo.component("proc_fail")   # -> the process-failure model

FaultSpec string forms (the sweepable wire format; full grammar in
:mod:`repro.spec` and CAMPAIGNS.md)::

    none                                  # the fault-free control
    bitflip:p=0.02,bits=52..62            # Bernoulli exponent-bit flips
    bitflip:rate=0.5,horizon=100          # Poisson arrivals up to t=100
    bitflip:p=0.5,max_faults=3            # Bernoulli schedule, capped
    perturb:p=0.01,scale=1000.0           # SDC value perturbation
    msg_corrupt:p=0.001                   # per-send payload corruption
    proc_fail:mtbf=3600,horizon=7200      # sampled process failures
    proc_fail:times=1.5;3.0,ranks=1;2     # explicit failure plan
    basis_bitflip:bits=0..63              # targeted Krylov-basis flip
    bitflip:p=0.05+proc_fail:mtbf=3600    # "+" composes soft + hard

Every form round-trips exactly through ``FaultSpec.parse`` /
``to_string`` / ``to_dict``, and resolves through
:func:`resolve_faults` (registry name, spec string, dict, ``FaultSpec``
or built model in; ready :class:`FaultModel` out).  The sibling axes
follow the same pattern: :mod:`repro.krylov.registry` for solvers and
:mod:`repro.precond` for preconditioners (whose
:meth:`Region.preconditioner` wrap runs only ``M^{-1} v`` unreliably --
selective reliability).

Module map (mechanism -> declarative layer):

* :mod:`~repro.reliability.bitflip` -- IEEE-754 bit manipulation.
* :mod:`~repro.reliability.schedule` -- deterministic / Poisson /
  Bernoulli fault schedules.
* :mod:`~repro.reliability.injector` -- the array injectors' shared
  schedule loop, the bit-flip :class:`ArrayInjector` and the one
  :class:`FaultEvent` record each injector keeps per injected fault.
* :mod:`~repro.reliability.process` -- process-failure (MTBF) models
  and replayable :class:`FailurePlan`.
* :mod:`~repro.reliability.region` -- the SRP :class:`Region` (injector,
  precision, cost model) and its ``reliable()`` constructor.
* :mod:`~repro.reliability.cost` -- the reliability cost model.
* :mod:`~repro.reliability.spec` -- declarative, serializable
  :class:`FaultSpec` (compact-string / dict round-trip).
* :mod:`~repro.reliability.models` -- :class:`FaultModel` capability
  surface over the mechanisms above: ``injector``,
  ``message_corruptor`` and ``iteration_hook`` take a generator,
  ``environment`` and ``failure_plan`` a scenario seed.
* :mod:`~repro.reliability.registry` -- named fault models,
  :func:`resolve_faults` and the ``unreliable()`` region of a fault spec.
* :mod:`~repro.reliability.precision` -- :class:`PrecisionSpec` and the
  named precision registry (the fourth sweepable axis).
* :mod:`~repro.reliability.seeding` -- the per-scenario seed
  derivation shared with the campaign runner.
"""

from repro.reliability.bitflip import (
    bits_of,
    flip_bit_array,
    flip_bit_float64,
    flip_random_bit,
    relative_perturbation,
)
from repro.reliability.schedule import (
    BernoulliPerCallSchedule,
    DeterministicSchedule,
    FaultSchedule,
    NeverSchedule,
    PoissonSchedule,
)
from repro.reliability.injector import ArrayInjector, FaultEvent
from repro.reliability.process import (
    ExponentialFailureModel,
    FailurePlan,
    ProcessFailureModel,
    WeibullFailureModel,
    system_mtbf,
)
from repro.reliability.region import Region, reliable
from repro.reliability.cost import ReliabilityCostModel
from repro.reliability.spec import FaultSpec, compose
from repro.reliability.models import (
    BasisBitflipFaults,
    BitflipFaults,
    CompositeFaults,
    FaultCapabilityError,
    FaultModel,
    MessageCorruptionFaults,
    MessageCorruptor,
    NoFaults,
    PerturbationFaults,
    PerturbationInjector,
    ProcessFaults,
    build_model,
)
from repro.reliability.registry import (
    FaultRegistry,
    default_fault_registry,
    resolve_faults,
    unreliable,
)
from repro.reliability.precision import (
    PrecisionRegistry,
    PrecisionSpec,
    default_precision_registry,
    parse_precision,
)
from repro.reliability.seeding import derive_fault_seed, derive_seed, fault_stream

__all__ = [
    # bit-level primitives
    "bits_of",
    "flip_bit_float64",
    "flip_bit_array",
    "flip_random_bit",
    "relative_perturbation",
    # schedules
    "FaultSchedule",
    "DeterministicSchedule",
    "PoissonSchedule",
    "BernoulliPerCallSchedule",
    "NeverSchedule",
    # injectors
    "ArrayInjector",
    "FaultEvent",
    "PerturbationInjector",
    "MessageCorruptor",
    # process failures
    "ProcessFailureModel",
    "ExponentialFailureModel",
    "WeibullFailureModel",
    "FailurePlan",
    "system_mtbf",
    # SRP
    "Region",
    "unreliable",
    "reliable",
    "ReliabilityCostModel",
    # declarative layer
    "FaultSpec",
    "compose",
    "FaultModel",
    "FaultCapabilityError",
    "NoFaults",
    "BitflipFaults",
    "PerturbationFaults",
    "MessageCorruptionFaults",
    "ProcessFaults",
    "BasisBitflipFaults",
    "CompositeFaults",
    "build_model",
    "FaultRegistry",
    "default_fault_registry",
    "resolve_faults",
    # precision (the fourth axis)
    "PrecisionSpec",
    "PrecisionRegistry",
    "default_precision_registry",
    "parse_precision",
    # seeding
    "derive_seed",
    "derive_fault_seed",
    "fault_stream",
]
