"""Fault models: the runtime side of declarative fault specs.

A :class:`FaultModel` turns a :class:`~repro.reliability.spec.FaultSpec`
into the concrete machinery the rest of the toolkit consumes --
injectors, selective-reliability regions, failure plans, message
corruptors and engine iteration hooks -- through one capability
surface, so drivers never construct injectors by hand:

============================  ===========================================
capability                    consumed by
============================  ===========================================
``injector(rng, target=)``    array injectors: ``unreliable()``'s and E10's
                              :class:`~repro.reliability.region.Region`,
                              E6's all-unreliable baseline
``environment(seed=)``        SRP solvers / operator-wrapping experiments
                              (E3, E6, E8, E9): an unreliable ``Region``
``failure_plan(seed=)``       :mod:`repro.comm` launchers, LFLR/CPR
                              experiments (E4, E7)
``message_corruptor(rng)``    :class:`repro.comm.sim.Comm` send paths
``iteration_hook(rng, at=)``  the solver engines' per-iteration hook (E1)
============================  ===========================================

``injector``, ``message_corruptor`` and ``iteration_hook`` draw from
the generator they are handed; a caller that names its stream passes
:func:`repro.reliability.seeding.fault_stream` ``(seed, name)``, so the
same scenario seed draws the same fault sequence at every entry point.
``environment`` and ``failure_plan`` take the scenario seed and keep
their per-kind stream inside the model.

Models a given kind does not support raise
:class:`FaultCapabilityError` -- e.g. asking a process-failure model
for an array injector is a programming error, not an empty schedule.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type, Union

import numpy as np

from repro.reliability.bitflip import (
    flip_bit_array,
    flip_bit_float64,
    flip_random_bit,
    relative_perturbation,
)
from repro.reliability.injector import ArrayInjector, FaultEvent, ScheduledInjector
from repro.reliability.process import (
    ExponentialFailureModel,
    FailurePlan,
    WeibullFailureModel,
)
from repro.reliability.schedule import (
    BernoulliPerCallSchedule,
    DeterministicSchedule,
    FaultSchedule,
    NeverSchedule,
    PoissonSchedule,
)
from repro.reliability.region import Region
from repro.reliability.seeding import fault_stream
from repro.reliability.spec import COMPOSE_KIND, FaultSpec
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability

__all__ = [
    "FaultModel",
    "FaultCapabilityError",
    "NoFaults",
    "BitflipFaults",
    "PerturbationFaults",
    "MessageCorruptionFaults",
    "ProcessFaults",
    "BasisBitflipFaults",
    "CompositeFaults",
    "PerturbationInjector",
    "MessageCorruptor",
    "MODEL_KINDS",
    "build_model",
]

_SECONDS_PER_YEAR = 365.25 * 24 * 3600.0


class FaultCapabilityError(TypeError):
    """A fault model was asked for a capability its kind does not have."""


def _bit_range(spec: FaultSpec) -> Optional[Tuple[int, int]]:
    """The spec's ``bits=LO..HI`` with ``0 <= LO <= HI <= 63``, or None."""
    bits = spec.get("bits")
    if bits is None:
        return None
    if not (
        isinstance(bits, tuple) and len(bits) == 2
        and all(type(bit) is int for bit in bits)
        and 0 <= bits[0] <= bits[1] <= 63
    ):
        raise ValueError(f"bits must be LO..HI with 0 <= LO <= HI <= 63, got {bits!r}")
    return bits


class FaultModel:
    """Base fault model: a validated spec plus the capability surface."""

    kind = ""

    def __init__(self, spec: FaultSpec):
        if spec.kind != self.kind:
            raise ValueError(
                f"{type(self).__name__} cannot model kind {spec.kind!r}"
            )
        self.spec = spec
        _bit_range(spec)
        for cap in ("max_faults", "max_failures"):
            value = spec.get(cap)
            if value is not None and not (type(value) is int and value >= 1):
                raise ValueError(
                    f"{cap} must be an integer >= 1 (zero faults is spelled "
                    f"'none'), got {value!r}"
                )
        self._validate()

    def _validate(self) -> None:
        """Subclass hook: raise on malformed parameters."""

    # -- generic surface ----------------------------------------------
    @property
    def is_null(self) -> bool:
        """Whether this model never injects anything."""
        return False

    @property
    def probability(self) -> float:
        """Per-opportunity fault probability (0.0 when not applicable)."""
        return 0.0

    @property
    def bits(self) -> Optional[Tuple[int, int]]:
        """Inclusive bit-position range for bit-level models, else None."""
        return _bit_range(self.spec)

    def components(self) -> List["FaultModel"]:
        """The leaf models (just ``self`` for non-composite kinds)."""
        return [self]

    def component(self, kind: str) -> Optional["FaultModel"]:
        """The first leaf component of the given kind, or ``None``."""
        for model in self.components():
            if model.kind == kind:
                return model
        return None

    def soft_component(self) -> Optional["FaultModel"]:
        """The first component able to corrupt in-memory data, or ``None``.

        The one definition of "soft fault" the experiment drivers share:
        a shared fault axis may mix soft components (bit flips, value
        perturbations) with hard ones (process failures, message
        corruption); drivers that corrupt operators or kernel results
        consume exactly this component and run clean when there is none.
        """
        if self.is_null:
            return None
        for kind in ("bitflip", "perturb"):
            component = self.component(kind)
            if component is not None and not component.is_null:
                return component
        return None

    def with_params(self, **overrides) -> "FaultModel":
        """A new model of the same kind with parameter overrides.

        ``None`` overrides are ignored, so optional driver arguments
        can be forwarded verbatim.
        """
        return build_model(self.spec.with_params(**overrides))

    def describe(self) -> str:
        """The compact spec-string form (stable, parseable)."""
        return self.spec.to_string()

    # -- capabilities (unsupported by default) ------------------------
    def _unsupported(self, capability: str) -> FaultCapabilityError:
        return FaultCapabilityError(
            f"fault model kind {self.kind!r} has no {capability!r} capability"
        )

    def injector(self, rng, *, target=None):
        raise self._unsupported("injector")

    def environment(self, *, seed=None, cost_model=None) -> Region:
        raise self._unsupported("environment")

    def failure_plan(self, *, n_ranks=None, horizon=None, seed=None) -> FailurePlan:
        raise self._unsupported("failure_plan")

    def message_corruptor(self, rng):
        raise self._unsupported("message_corruptor")

    def iteration_hook(self, rng, *, at):
        raise self._unsupported("iteration_hook")


class NoFaults(FaultModel):
    """The fault-free control (kind ``"none"``)."""

    kind = "none"

    @property
    def is_null(self) -> bool:
        return True

    def injector(self, rng, *, target=None) -> ArrayInjector:
        return ArrayInjector(NeverSchedule(), rng, target=target or "array")

    def environment(self, *, seed=None, cost_model=None) -> Region:
        return Region(cost_model=cost_model)

    def failure_plan(self, *, n_ranks=None, horizon=None, seed=None) -> FailurePlan:
        return FailurePlan.none()


class _ScheduledFaults(FaultModel):
    """Shared when-axis handling: ``p`` | ``rate`` | ``times``.

    ``max_faults`` caps the Bernoulli ``p`` schedule and ``horizon``
    bounds the Poisson ``rate`` schedule; neither is accepted where it
    would be dropped.  A spec with no when-axis is the fault-free
    template whose ``p`` a driver's sweep fills in (E6), so it may
    carry ``max_faults``.
    """

    def _validate(self) -> None:
        params = self.spec.params
        given = [k for k in ("p", "rate", "times") if k in params]
        if len(given) > 1:
            raise ValueError(
                f"fault spec {self.describe()!r} mixes {given}; give exactly "
                f"one of p (Bernoulli), rate (Poisson) or times (deterministic)"
            )
        if "max_faults" in params and given not in ([], ["p"]):
            raise ValueError(
                f"fault spec {self.describe()!r}: max_faults= caps the "
                f"Bernoulli p= schedule only"
            )
        if "horizon" in params and given != ["rate"]:
            raise ValueError(
                f"fault spec {self.describe()!r}: horizon= bounds the "
                f"Poisson rate= schedule only"
            )
        if "p" in params:
            check_probability(float(params["p"]), "p")

    @property
    def probability(self) -> float:
        return float(self.spec.get("p", 0.0))

    def _schedule(self, rng: np.random.Generator) -> FaultSchedule:
        """The spec's when-axis, drawing from ``rng``."""
        if not isinstance(rng, np.random.Generator):
            # A seed would seed the schedule and the victim draws alike.
            raise TypeError(f"injector needs a numpy Generator, got {type(rng).__name__}")
        params = self.spec.params
        if "times" in params:
            times = params["times"]
            if not isinstance(times, tuple):
                times = (times,)
            return DeterministicSchedule(times)
        if "rate" in params:
            return PoissonSchedule(
                float(params["rate"]), rng=rng, horizon=params.get("horizon")
            )
        if "p" in params:
            return BernoulliPerCallSchedule(
                float(params["p"]), rng=rng, max_faults=params.get("max_faults")
            )
        return NeverSchedule()

    @property
    def is_null(self) -> bool:
        params = self.spec.params
        if "times" in params:
            return False
        if "rate" in params:
            return float(params["rate"]) == 0.0
        return float(params.get("p", 0.0)) == 0.0


class BitflipFaults(_ScheduledFaults):
    """IEEE-754 bit flips in arrays passing through a region.

    Parameters: one of ``p``/``rate``/``times`` (when), plus ``bits``
    (inclusive bit-position range, default all 64), ``max_faults``
    (Bernoulli cap) and ``target`` (event label).
    """

    kind = "bitflip"

    def injector(self, rng, *, target=None) -> ArrayInjector:
        # One shared generator drives schedule and victim selection, in
        # that construction order -- the exact legacy wiring of the E6
        # all-unreliable baseline, so spec-driven runs replay old draws.
        return ArrayInjector(
            self._schedule(rng), rng, bit_range=self.bits,
            target=target or self.spec.get("target", "array"),
        )

    def environment(self, *, seed=None, cost_model=None) -> Region:
        # The SRP stream: schedule and victims from as_generator(seed)
        # itself (not a named fault stream), as FT-GMRES always drew.
        injector = self.injector(
            as_generator(seed), target=self.spec.get("target", "srp_unreliable")
        )
        return Region(injector, cost_model=cost_model)


class PerturbationInjector(ScheduledInjector):
    """Schedule-driven value corruption (overwrite or scale).

    The non-bit-flip SDC primitive: when the schedule fires, one random
    element of the array is either overwritten with ``value`` or
    multiplied by ``scale``.  It shares
    :class:`~repro.reliability.injector.ScheduledInjector`'s schedule
    loop with :class:`~repro.reliability.injector.ArrayInjector`, so it
    slots into a :class:`~repro.reliability.region.Region` unchanged.
    """

    def __init__(self, schedule, rng, *, value=None, scale=None, target="array"):
        if (value is None) == (scale is None):
            raise ValueError("give exactly one of value= or scale=")
        super().__init__(schedule, rng, target)
        self.value = value
        self.scale = scale

    def _corrupt(self, arr: np.ndarray, now: float) -> FaultEvent:
        index = int(self._rng.integers(0, arr.size))
        # arr.flat assigns through any memory layout (reshape(-1)
        # would corrupt a throw-away copy of non-contiguous views).
        original = float(arr.flat[index])
        corrupted = (
            float(self.value) if self.value is not None
            else original * float(self.scale)
        )
        arr.flat[index] = corrupted
        return FaultEvent(
            kind="value", target=self.target, location=index, bit=None,
            time=now, magnitude=relative_perturbation(original, corrupted),
        )


class PerturbationFaults(_ScheduledFaults):
    """SDC value perturbation (kind ``"perturb"``).

    Parameters: one of ``p``/``rate``/``times``, plus exactly one of
    ``value`` (overwrite the victim element) or ``scale`` (multiply
    it), and ``target``.
    """

    kind = "perturb"

    def _validate(self) -> None:
        super()._validate()
        has_value = "value" in self.spec.params
        has_scale = "scale" in self.spec.params
        if has_value == has_scale:
            raise ValueError(
                f"perturb spec {self.describe()!r} needs exactly one of "
                f"value= or scale="
            )

    def injector(self, rng, *, target=None) -> PerturbationInjector:
        return PerturbationInjector(
            self._schedule(rng), rng,
            value=self.spec.get("value"), scale=self.spec.get("scale"),
            target=target or self.spec.get("target", "array"),
        )

    def environment(self, *, seed=None, cost_model=None) -> Region:
        return Region(
            self.injector(fault_stream(seed, "injector")), cost_model=cost_model
        )


class MessageCorruptor:
    """Per-send Bernoulli bit corruption of message payloads.

    Applied by :class:`repro.comm.sim.Comm` to the already-copied
    payload, so sender-side state is never corrupted -- this models a
    faulty interconnect, not faulty memory.  When a send is hit, one
    uniformly chosen corruptible leaf of the payload gets a single bit
    flip: float64 ndarrays (corrupted in place, including inside
    containers), bare Python floats, and floats inside dicts/lists
    (rewritten in the copied container).  Floats inside tuples are
    skipped (tuples are immutable); non-float payloads pass through.
    """

    def __init__(self, probability: float, rng, *, bits=None):
        self.probability = check_probability(probability, "probability")
        self._rng = as_generator(rng)
        self.bits = bits
        self.n_corrupted = 0

    def _collect_leaves(self, obj, setter, leaves) -> None:
        """Gather (victim, write-back) pairs: float64 arrays are
        corrupted in place (no write-back); floats need their
        container's setter (``None`` only for a bare float payload,
        which the caller handles via the return value)."""
        if isinstance(obj, np.ndarray):
            if obj.dtype == np.float64 and obj.size > 0:
                leaves.append((obj, None))
        elif isinstance(obj, bool):
            pass
        elif isinstance(obj, float):
            leaves.append((obj, setter))
        elif isinstance(obj, dict):
            for key in obj:
                self._collect_leaves(
                    obj[key], lambda v, _o=obj, _k=key: _o.__setitem__(_k, v), leaves
                )
        elif isinstance(obj, list):
            for index, item in enumerate(obj):
                self._collect_leaves(
                    item, lambda v, _o=obj, _i=index: _o.__setitem__(_i, v), leaves
                )
        elif isinstance(obj, tuple):
            # Tuples are immutable: only their in-place-corruptible
            # (array/container) members are reachable.
            for item in obj:
                if isinstance(item, (np.ndarray, dict, list, tuple)):
                    self._collect_leaves(item, None, leaves)

    def __call__(self, payload, dest: int = -1, tag: int = 0):
        if self.probability <= 0.0 or float(self._rng.random()) >= self.probability:
            return payload
        leaves: list = []
        self._collect_leaves(payload, None, leaves)
        if not leaves:
            return payload
        victim, setter = leaves[int(self._rng.integers(0, len(leaves)))]
        if isinstance(victim, np.ndarray):
            flip_random_bit(victim, self._rng, bit_range=self.bits, inplace=True)
        else:
            low, high = self.bits if self.bits is not None else (0, 63)
            corrupted = flip_bit_float64(victim, int(self._rng.integers(low, high + 1)))
            if setter is not None:
                setter(corrupted)
            else:
                payload = corrupted
        self.n_corrupted += 1
        return payload


class MessageCorruptionFaults(_ScheduledFaults):
    """Message corruption on the simulated interconnect (``"msg_corrupt"``).

    Parameters: ``p`` (per-send corruption probability) and ``bits``.
    """

    kind = "msg_corrupt"

    def message_corruptor(self, rng) -> MessageCorruptor:
        return MessageCorruptor(self.probability, rng, bits=self.bits)


class ProcessFaults(FaultModel):
    """Hard process failures (kind ``"proc_fail"``).

    Parameters: either explicit ``times``/``ranks`` pairs, or a
    sampled plan via ``mtbf`` (seconds) or ``mtbf_years`` with
    ``model`` = ``exponential`` (default) or ``weibull`` (plus its
    ``shape``, refused with the exponential model), bounded by
    ``horizon`` and ``max_failures``.  A single
    ``rank`` parameter marks the victim rank for experiments that kill
    exactly one block (e.g. E5).
    """

    kind = "proc_fail"

    def _validate(self) -> None:
        params = self.spec.params
        if "times" in params and not ("ranks" in params or "rank" in params):
            raise ValueError("proc_fail with times= also needs ranks= (or rank=)")
        if "mtbf" in params and "mtbf_years" in params:
            raise ValueError("give mtbf= or mtbf_years=, not both")
        model = params.get("model", "exponential")
        if model not in ("exponential", "weibull"):
            raise ValueError(f"unknown failure model {model!r}")
        if "shape" in params and model != "weibull":
            raise ValueError(
                f"proc_fail spec {self.describe()!r}: shape= shapes the "
                f"Weibull model only; give it with model=weibull"
            )

    @property
    def mtbf(self) -> Optional[float]:
        """Per-node MTBF in seconds, if parameterized that way."""
        if "mtbf" in self.spec.params:
            return float(self.spec.params["mtbf"])
        if "mtbf_years" in self.spec.params:
            return float(self.spec.params["mtbf_years"]) * _SECONDS_PER_YEAR
        return None

    @property
    def rank(self) -> Optional[int]:
        """The single victim rank, when specified."""
        rank = self.spec.get("rank")
        return int(rank) if rank is not None else None

    @property
    def is_null(self) -> bool:
        return False

    def _interarrival_model(self):
        if self.spec.get("model", "exponential") == "weibull":
            return WeibullFailureModel(
                self.mtbf, shape=float(self.spec.get("shape", 0.7))
            )
        return ExponentialFailureModel(self.mtbf)

    def failure_plan(self, *, n_ranks=None, horizon=None, seed=None) -> FailurePlan:
        params = self.spec.params
        if "times" in params:
            times = params["times"]
            if not isinstance(times, tuple):
                times = (times,)
            ranks = params.get("ranks", params.get("rank"))
            if not isinstance(ranks, tuple):
                ranks = (ranks,) * len(times)
            if len(ranks) != len(times):
                raise ValueError("times= and ranks= must have equal lengths")
            return FailurePlan(list(zip(times, ranks)))
        if self.mtbf is None:
            raise ValueError(
                f"proc_fail spec {self.describe()!r} samples a plan but has "
                f"neither times= nor mtbf=/mtbf_years="
            )
        horizon = horizon if horizon is not None else params.get("horizon")
        if n_ranks is None or horizon is None:
            raise ValueError(
                "sampling a failure plan needs n_ranks and a horizon "
                "(pass them, or put horizon= in the spec)"
            )
        return FailurePlan.sample(
            self._interarrival_model(),
            int(n_ranks),
            float(horizon),
            rng=fault_stream(seed, "proc_fail"),
            max_failures=params.get("max_failures"),
        )


class BasisBitflipFaults(FaultModel):
    """Targeted bit flip in the newest Krylov basis vector.

    The controlled-injection model of experiment E1: at the iteration
    the caller names (``iteration_hook(rng, at=)``), flip one uniformly
    chosen bit (within ``bits``) of one uniformly chosen element of the
    newest Arnoldi basis vector.
    Exposed as an engine iteration hook so it composes with any
    Arnoldi-type solver through the resilience-policy surface.
    """

    kind = "basis_bitflip"

    @property
    def bits(self) -> Tuple[int, int]:
        return _bit_range(self.spec) or (0, 63)

    def iteration_hook(self, rng, *, at):
        """A hook injecting one flip at iteration ``at``.

        The draw order (bit first, victim index at fire time) is the
        historical E1 order, so spec-driven campaigns replay the seed
        goldens bit-for-bit.
        """
        low, high = self.bits
        flip_bit = int(rng.integers(low, high + 1))
        fire_at = int(at)
        done = False

        def hook(state):
            nonlocal done
            if done or state.total_iteration != fire_at:
                return
            target = np.asarray(state.basis[state.inner + 1])
            if target.size == 0:
                return
            index = int(rng.integers(0, target.size))
            flip_bit_array(target, index, flip_bit, inplace=True)
            done = True

        # The engines' ``fire_at`` contract: no call at other iterations.
        hook.fire_at = fire_at
        return hook


class CompositeFaults(FaultModel):
    """Several fault models acting together (kind ``"compose"``).

    Capability calls delegate to the first component that supports
    them, so e.g. ``bitflip:p=0.05+proc_fail:mtbf=3600`` hands its
    bit-flip half to operator wrappers and its process-failure half to
    the simulated runtime.
    """

    kind = COMPOSE_KIND

    def __init__(self, spec: FaultSpec):
        super().__init__(spec)
        self._children = [build_model(child) for child in spec.children]

    @property
    def is_null(self) -> bool:
        return all(child.is_null for child in self._children)

    @property
    def probability(self) -> float:
        for child in self._children:
            if child.probability:
                return child.probability
        return 0.0

    @property
    def bits(self) -> Optional[Tuple[int, int]]:
        for child in self._children:
            if child.bits is not None:
                return child.bits
        return None

    def components(self) -> List[FaultModel]:
        return list(self._children)

    def _delegate(self, capability: str, *args, **kwargs):
        # Null components must not shadow active ones: "none" supports
        # the injector, environment and failure-plan capabilities as
        # working no-ops, so composing it first
        # (e.g. compose(control, extra)) would otherwise silently
        # disable the rest.  Null children only serve when nothing
        # active supports the capability.
        candidates = [c for c in self._children if not c.is_null] or self._children
        for child in candidates:
            try:
                return getattr(child, capability)(*args, **kwargs)
            except FaultCapabilityError:
                continue
        raise self._unsupported(capability)

    def injector(self, rng, *, target=None):
        return self._delegate("injector", rng, target=target)

    def environment(self, *, seed=None, cost_model=None) -> Region:
        return self._delegate("environment", seed=seed, cost_model=cost_model)

    def failure_plan(self, *, n_ranks=None, horizon=None, seed=None):
        return self._delegate(
            "failure_plan", n_ranks=n_ranks, horizon=horizon, seed=seed
        )

    def message_corruptor(self, rng):
        return self._delegate("message_corruptor", rng)

    def iteration_hook(self, rng, *, at):
        return self._delegate("iteration_hook", rng, at=at)


MODEL_KINDS: Dict[str, Type[FaultModel]] = {
    cls.kind: cls
    for cls in (
        NoFaults,
        BitflipFaults,
        PerturbationFaults,
        MessageCorruptionFaults,
        ProcessFaults,
        BasisBitflipFaults,
        CompositeFaults,
    )
}


def build_model(spec: Union[str, dict, FaultSpec]) -> FaultModel:
    """Instantiate the fault model a spec describes."""
    spec = FaultSpec.parse(spec)  # rejects unknown kinds
    return MODEL_KINDS[spec.kind](spec)
