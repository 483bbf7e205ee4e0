"""Tests for the declarative reliability layer.

Covers the :class:`FaultSpec` wire formats (property-based string/dict
round-trips), the fault-model registry contract, the capability
surface of every model kind, the ``unreliable()``/``reliable()``
domain context managers, the simulator's spec resolution, old-vs-new
injection parity for the E1/E6/E8 drivers and fault-model composition
under FT-GMRES.  (The
registry contract every axis shares is ``tests/test_axis_contract.py``.)
"""

from __future__ import annotations

import copy
import inspect
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability import (
    BernoulliPerCallSchedule,
    BitflipFaults,
    FailurePlan,
    FaultCapabilityError,
    FaultSpec,
    MessageCorruptor,
    NoFaults,
    PerturbationInjector,
    Region,
    build_model,
    compose,
    default_fault_registry,
    derive_fault_seed,
    derive_seed,
    fault_stream,
    reliable,
    resolve_faults,
    unreliable,
)
from repro.reliability.injector import ArrayInjector, ScheduledInjector
from repro.reliability.models import MODEL_KINDS
from repro.reliability.spec import FAULT_KINDS
from repro.utils.rng import RngFactory


# ---------------------------------------------------------------------------
# FaultSpec wire formats
# ---------------------------------------------------------------------------

# Words the scalar parser claims for itself; bare-name values must not
# collide with them (or with numeric literals like "inf").
_RESERVED = {"true", "false", "none", "null", "inf", "infinity", "nan"}

_names = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True).filter(
    lambda s: s.lower() not in _RESERVED
)
_scalars = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    _names,
)
_int_pairs = st.tuples(st.integers(0, 63), st.integers(0, 63))
_int_lists = st.lists(
    st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=5
).map(tuple)
_values = st.one_of(_scalars, _int_pairs, _int_lists)


def _param_maps(kind):
    """Parameter maps over the names ``kind`` declares."""
    names = FAULT_KINDS[kind]
    if not names:
        return st.just({})
    return st.dictionaries(st.sampled_from(names), _values, max_size=5)


_kinds = st.sampled_from(
    ["none", "bitflip", "perturb", "msg_corrupt", "proc_fail", "basis_bitflip"]
)
_kind_params = _kinds.flatmap(lambda kind: st.tuples(st.just(kind), _param_maps(kind)))


class TestFaultSpec:
    def test_parse_string(self):
        spec = FaultSpec.parse("bitflip:p=1e-4,bits=52..62,target=matvec")
        assert spec.kind == "bitflip"
        assert spec.params["p"] == 1e-4
        assert spec.params["bits"] == (52, 62)
        assert spec.params["target"] == "matvec"

    def test_parse_typed_values(self):
        spec = FaultSpec.parse(
            "proc_fail:times=1.5;3.0,ranks=1;2,model=weibull,max_failures=4,"
            "shape=true,horizon=none"
        )
        assert spec.params["times"] == (1.5, 3.0)
        assert spec.params["ranks"] == (1, 2)
        assert spec.params["model"] == "weibull"
        assert spec.params["max_failures"] == 4
        assert spec.params["shape"] is True
        assert spec.params["horizon"] is None

    def test_parse_is_case_and_space_tolerant(self):
        assert FaultSpec.parse("BitFlip: p = 0.5") == FaultSpec.parse("bitflip:p=0.5")

    def test_parse_compose_string(self):
        spec = FaultSpec.parse("bitflip:p=0.05+proc_fail:mtbf=3600.0")
        assert spec.kind == "compose"
        assert [child.kind for child in spec.children] == ["bitflip", "proc_fail"]
        assert FaultSpec.parse(spec.to_string()) == spec

    def test_parse_idempotent_on_spec_and_dict(self):
        spec = FaultSpec.parse("bitflip:p=0.1")
        assert FaultSpec.parse(spec) is spec
        assert FaultSpec.parse({"kind": "bitflip", "p": 0.1}) == spec

    def test_params_are_read_only_and_round_trip(self):
        spec = FaultSpec.parse("bitflip:p=0.05,bits=52..62+perturb:value=1.0")
        for part in (spec, *spec.children):
            with pytest.raises(TypeError):
                part.params["p"] = 1.0
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert copy.deepcopy(spec) == spec
        assert spec.children[0].with_params(p=0.5).params["p"] == 0.5

    def test_resolve_parses_a_spec_string_once(self, monkeypatch):
        text = "bitflip:bits=50..51,p=0.0625"
        calls = []
        parse = FaultSpec.parse.__func__
        monkeypatch.setattr(
            FaultSpec, "parse",
            classmethod(lambda cls, value: calls.append(value) or parse(cls, value)),
        )
        first, second = resolve_faults(text), resolve_faults(text)
        assert first is not second and first.spec is second.spec
        assert calls.count(text) <= 1  # 0 when an earlier test resolved it
        assert resolve_faults(text, p=0.5).spec.params["p"] == 0.5
        assert resolve_faults(text).spec.params["p"] == 0.0625

    def test_malformed_strings_raise(self):
        for text in ("", "bitflip:p", "bitflip:=1", "a+", "bad kind:x=1"):
            with pytest.raises(ValueError):
                FaultSpec.parse(text)

    def test_compose_requires_two_children(self):
        with pytest.raises(ValueError):
            FaultSpec("compose", {}, ())
        single = compose("bitflip:p=0.1")
        assert single.kind == "bitflip"

    def test_compose_flattens(self):
        nested = compose("bitflip:p=0.1", compose("perturb:value=1.0", "proc_fail:rank=1"))
        assert [c.kind for c in nested.children] == ["bitflip", "perturb", "proc_fail"]

    def test_single_element_lists_round_trip(self):
        spec = FaultSpec("proc_fail", {"times": (1.5,), "ranks": (1,)})
        assert spec.to_string() == "proc_fail:ranks=1;,times=1.5;"
        assert FaultSpec.parse(spec.to_string()) == spec
        with pytest.raises(ValueError):
            FaultSpec("bitflip", {"times": ()}).to_string()

    def test_with_params_drops_none_overrides(self):
        spec = FaultSpec.parse("bitflip:p=0.1")
        assert spec.with_params(bits=None) == spec
        assert spec.with_params(bits=(52, 62)).params["bits"] == (52, 62)

    def test_unknown_kind_rejected_by_build(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            build_model("warp_core_breach:p=1.0")

    @pytest.mark.parametrize(
        "text, offender",
        [
            ("bitflip:prob=0.5", "prob"),  # was a fault-free control
            ("proc_fail:mtbf=10,horizon=5,modle=weibull", "modle"),  # was exponential
            ("basis_bitflip:bit=3", "bit"),
            ("basis_bitflip:at=6", "at"),  # ran at E1's inject_at
        ],
    )
    def test_misspelt_parameter_refused(self, text, offender):
        with pytest.raises(ValueError, match=f"does not take parameter '{offender}'"):
            resolve_faults(text)

    @given(kind_params=_kind_params)
    @settings(max_examples=150, deadline=None)
    def test_string_round_trip(self, kind_params):
        spec = FaultSpec(*kind_params)
        assert FaultSpec.parse(spec.to_string()) == spec

    @given(kind_params=_kind_params)
    @settings(max_examples=150, deadline=None)
    def test_dict_round_trip(self, kind_params):
        spec = FaultSpec(*kind_params)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    @given(
        left=_param_maps("bitflip").map(lambda p: FaultSpec("bitflip", p)),
        right=_param_maps("proc_fail").map(lambda p: FaultSpec("proc_fail", p)),
    )
    @settings(max_examples=50, deadline=None)
    def test_compose_round_trip(self, left, right):
        spec = compose(left, right)
        assert FaultSpec.parse(spec.to_string()) == spec
        assert FaultSpec.from_dict(spec.to_dict()) == spec


# ---------------------------------------------------------------------------
# Registry entries and resolution (the shared lookup / round-trip
# contract is tests/test_axis_contract.py)
# ---------------------------------------------------------------------------


class TestFaultRegistry:
    def test_expected_names_present(self):
        names = default_fault_registry().names()
        for name in ("none", "bitflip", "bitflip_exponent", "basis_bitflip",
                     "sdc_value", "msg_corrupt", "proc_fail"):
            assert name in names

    def test_resolve_by_name_spec_dict_and_model(self):
        by_name = resolve_faults("bitflip_exponent")
        by_spec = resolve_faults("bitflip:p=0.02,bits=52..62")
        by_dict = resolve_faults({"kind": "bitflip", "p": 0.02, "bits": (52, 62)})
        assert by_name.spec == by_spec.spec == by_dict.spec
        assert resolve_faults(by_name) is by_name
        assert isinstance(resolve_faults(None), NoFaults)

    def test_resolve_overrides_merge(self):
        model = resolve_faults("bitflip", p=0.5, bits=(0, 51))
        assert model.probability == 0.5
        assert model.bits == (0, 51)
        # None overrides keep the named default.
        assert resolve_faults("bitflip", p=None).probability == 0.02


# ---------------------------------------------------------------------------
# Model capabilities
# ---------------------------------------------------------------------------


class TestFaultModels:
    def test_bitflip_injector_corrupts(self):
        model = resolve_faults("bitflip:p=1.0,bits=52..62")
        injector = model.injector(np.random.default_rng(7))
        data = np.ones(16)
        injector.maybe_inject(data, now=0.0)
        assert injector.n_injected == 1
        assert np.sum(data != 1.0) == 1

    def test_bitflip_injector_matches_legacy_wiring(self):
        # Spec-driven wiring must replay the historical draw order:
        # Bernoulli schedule and victim selection share one generator.
        from repro.reliability.injector import ArrayInjector
        from repro.reliability.schedule import BernoulliPerCallSchedule

        rng_a = RngFactory(11).spawn("x")
        rng_b = RngFactory(11).spawn("x")
        legacy = ArrayInjector(
            schedule=BernoulliPerCallSchedule(0.3, rng=rng_a), rng=rng_a,
            target="plain_matvec",
        )
        modern = resolve_faults("bitflip:p=0.3").injector(
            rng_b, target="plain_matvec"
        )
        data_a, data_b = np.arange(1.0, 33.0), np.arange(1.0, 33.0)
        for now in range(40):
            legacy.maybe_inject(data_a, now=float(now))
            modern.maybe_inject(data_b, now=float(now))
        assert legacy.n_injected == modern.n_injected > 0
        np.testing.assert_array_equal(data_a, data_b)

    def test_perturb_injector_overwrite_and_scale(self):
        overwrite = PerturbationInjector(
            BernoulliPerCallSchedule(1.0, rng=1), 0, value=123.0
        )
        data = np.zeros(4)
        overwrite.maybe_inject(data)
        assert 123.0 in data

        scale = resolve_faults("perturb:p=1.0,scale=1000.0").injector(
            np.random.default_rng(2)
        )
        data = np.full(4, 2.0)
        scale.maybe_inject(data)
        assert np.sum(data == 2000.0) == 1

    def test_perturb_requires_exactly_one_of_value_scale(self):
        with pytest.raises(ValueError):
            build_model("perturb:p=0.1")
        with pytest.raises(ValueError):
            build_model("perturb:p=0.1,value=1.0,scale=2.0")

    def test_proc_fail_explicit_times(self):
        plan = resolve_faults("proc_fail:times=1.5;3.0,ranks=2;1").failure_plan()
        assert [(f.time, f.rank) for f in plan] == [(1.5, 2), (3.0, 1)]

    def test_proc_fail_sampled_plan_is_seed_deterministic(self):
        model = resolve_faults("proc_fail:mtbf=10.0")
        plan_a = model.failure_plan(n_ranks=4, horizon=50.0, seed=5)
        plan_b = model.failure_plan(n_ranks=4, horizon=50.0, seed=5)
        assert [(f.time, f.rank) for f in plan_a] == [(f.time, f.rank) for f in plan_b]
        assert len(plan_a) > 0

    def test_proc_fail_needs_parameters_to_sample(self):
        with pytest.raises(ValueError, match="samples a plan"):
            resolve_faults("proc_fail:rank=1").failure_plan(n_ranks=4, horizon=1.0)

    def test_message_corruptor_only_touches_float_arrays(self):
        corruptor = MessageCorruptor(1.0, rng=3)
        payload = np.ones(8)
        corruptor(payload)
        assert corruptor.n_corrupted == 1
        assert np.sum(payload != 1.0) == 1
        assert corruptor("hello") == "hello"
        assert corruptor(5) == 5

    @pytest.mark.parametrize("spec, name", [
        ("bitflip:p=1,max_faults=-1", "max_faults"),  # fired nothing, yet not null
        ("bitflip:p=1,max_faults=1.5", "max_faults"),  # fired twice
        ("proc_fail:mtbf=1,horizon=10,max_failures=-1", "max_failures"),  # dropped one
        ("msg_corrupt:p=1,bits=70..80", "bits"),  # failed at the first send
        ("bitflip:p=1,bits=5", "bits"),
        ("basis_bitflip:bits=5", "bits"),
        ("msg_corrupt:p=1,bits=5", "bits"),
    ])
    def test_caps_and_bit_ranges_are_refused_when_resolved(self, spec, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            resolve_faults(spec)

    def test_capability_errors_are_loud(self):
        with pytest.raises(FaultCapabilityError):
            resolve_faults("proc_fail:mtbf=1.0").injector(np.random.default_rng(0))
        with pytest.raises(FaultCapabilityError):
            resolve_faults("bitflip:p=0.1").failure_plan(n_ranks=2)

    def test_composite_delegation(self):
        model = resolve_faults("bitflip:p=0.05,bits=52..62+proc_fail:times=1.0,rank=1")
        assert model.probability == 0.05
        assert model.bits == (52, 62)
        assert [c.kind for c in model.components()] == ["bitflip", "proc_fail"]
        assert model.component("proc_fail").rank == 1
        assert len(model.failure_plan()) == 1
        assert not model.is_null
        env = model.environment(seed=3)
        assert env.faults_injected() == 0

    def test_soft_component_selection(self):
        assert resolve_faults("bitflip:p=0.1").soft_component().kind == "bitflip"
        assert resolve_faults("sdc_value").soft_component().kind == "perturb"
        assert resolve_faults("proc_fail:mtbf=1.0").soft_component() is None
        assert resolve_faults("none").soft_component() is None
        # A zero-rate bitflip component does not count as a soft fault.
        combo = resolve_faults("bitflip:p=0.0+proc_fail:times=1.0,rank=1")
        assert combo.soft_component() is None

    def test_e2_honors_perturbation_specs(self):
        from repro.campaign.registry import default_registry

        result = default_registry().get("E2").run(
            sizes=(8,), n_trials=3, faults="perturb:p=1.0,scale=1000.0",
        )
        # Large value perturbations must be detected by the checksums
        # (they are injected as perturbations, not as bit flips).
        assert result.summary["matmul_8_detection"] == 1.0
        assert result.parameters["faults"] == "perturb:p=1.0,scale=1000.0"

    def test_environment_honors_max_faults_and_target(self):
        model = resolve_faults("bitflip:p=1.0,max_faults=1,target=net")
        region = model.environment(seed=1)
        identity = region.preconditioner(None)
        for _ in range(5):
            identity(np.ones(8))
        assert region.faults_injected() == 1
        assert region.injector.target == "net"

    def test_perturb_injector_handles_non_contiguous_views(self):
        injector = resolve_faults("perturb:p=1.0,value=123.0").injector(
            np.random.default_rng(2)
        )
        base = np.zeros((4, 4))
        view = base.T[:, :3]  # non-contiguous
        injector.maybe_inject(view)
        assert injector.n_injected == 1
        assert np.sum(base == 123.0) == 1

    def test_null_components_do_not_shadow_active_ones(self):
        # compose(control, extra): the "none" child supports the injector
        # and failure-plan capabilities as no-ops and must not win the
        # delegation.
        combo = resolve_faults("none+proc_fail:times=1.5,rank=1")
        assert len(combo.failure_plan()) == 1
        injector = resolve_faults("none+bitflip:p=1.0").injector(np.random.default_rng(1))
        data = np.ones(8)
        injector.maybe_inject(data)
        assert injector.n_injected == 1

    def test_null_model(self):
        model = resolve_faults("none")
        assert model.is_null
        assert model.probability == 0.0
        data = np.ones(4)
        model.injector(np.random.default_rng(1)).maybe_inject(data)
        np.testing.assert_array_equal(data, 1.0)
        assert len(model.failure_plan()) == 0


# ---------------------------------------------------------------------------
# The declared capability surface (a new option is a diff of this table)
# ---------------------------------------------------------------------------

#: capability or injector class -> the parameters a caller sets.
FAULT_SURFACE = {
    "injector": ("rng", "target"),
    "environment": ("seed", "cost_model"),
    "failure_plan": ("n_ranks", "horizon", "seed"),
    "message_corruptor": ("rng",),
    "iteration_hook": ("rng", "at"),
    "ScheduledInjector": ("schedule", "rng", "target"),
    "ArrayInjector": ("schedule", "rng", "bit_range", "target"),
    "PerturbationInjector": ("schedule", "rng", "value", "scale", "target"),
}

_CAPABILITIES = ("injector", "environment", "failure_plan", "message_corruptor",
                 "iteration_hook")


def _gen():
    return np.random.default_rng(0)


def _parameters(callable_) -> tuple:
    return tuple(name for name in inspect.signature(callable_).parameters if name != "self")


class TestDeclaredFaultSurface:
    @pytest.mark.parametrize("model_class", sorted(MODEL_KINDS.values(), key=lambda c: c.kind))
    def test_every_model_takes_the_declared_parameters(self, model_class):
        assert {cap: _parameters(getattr(model_class, cap)) for cap in _CAPABILITIES} == {
            cap: FAULT_SURFACE[cap] for cap in _CAPABILITIES
        }
        assert not hasattr(model_class, "schedule")

    def test_every_injector_takes_the_declared_parameters(self):
        for injector_class in (ScheduledInjector, ArrayInjector, PerturbationInjector):
            assert _parameters(injector_class) == FAULT_SURFACE[injector_class.__name__]

    @pytest.mark.parametrize("surface, keyword", [
        *[("injector", keyword) for keyword in ("seed", "name", "session")],
        *[(capability, keyword) for capability in ("message_corruptor", "iteration_hook")
          for keyword in ("seed", "name")],
        ("ArrayInjector", "session"),
        ("PerturbationInjector", "session"),
    ])
    def test_a_removed_keyword_is_refused(self, surface, keyword):
        build = {
            "injector": lambda **kw: resolve_faults("bitflip:p=1.0").injector(_gen(), **kw),
            "message_corruptor":
                lambda **kw: resolve_faults("msg_corrupt:p=1.0").message_corruptor(_gen(), **kw),
            "iteration_hook":
                lambda **kw: resolve_faults("basis_bitflip").iteration_hook(_gen(), at=1, **kw),
            "ArrayInjector": lambda **kw: ArrayInjector(**kw),
            "PerturbationInjector":
                lambda **kw: PerturbationInjector(None, _gen(), value=1.0, **kw),
        }[surface]
        with pytest.raises(TypeError, match=keyword):
            build(**{keyword: 1})

    @pytest.mark.parametrize("spec", ["bitflip:p=1.0", "perturb:p=1.0,value=0.0"])
    def test_an_injector_is_handed_a_generator_not_a_seed(self, spec):
        with pytest.raises(TypeError, match="Generator"):
            resolve_faults(spec).injector(7)

    @pytest.mark.parametrize("spec, reason", [
        ("bitflip:rate=5.0,max_faults=3", "max_faults= caps"),  # ran uncapped
        ("bitflip:times=1;2;3;4;5,max_faults=2", "max_faults= caps"),  # all 5 fired
        ("perturb:rate=1.0,max_faults=1,scale=2.0", "max_faults= caps"),
        ("bitflip:p=1.0,horizon=2", "horizon= bounds"),  # fired on every call
        ("bitflip:times=1,horizon=2", "horizon= bounds"),
        ("perturb:horizon=2,value=0.0", "horizon= bounds"),
        ("proc_fail:mtbf=10,shape=0.5", "shape= shapes"),  # the exponential plan
        ("proc_fail:mtbf=10,model=exponential,shape=0.5", "shape= shapes"),
    ])
    def test_a_parameter_the_model_would_drop_is_refused(self, spec, reason):
        with pytest.raises(ValueError, match=reason):
            resolve_faults(spec)

    def test_horizon_and_shape_act_where_they_are_taken(self):
        def injected(calls):
            injector = resolve_faults("bitflip:rate=5.0,horizon=2").injector(_gen())
            for now in range(1, calls + 1):
                injector.maybe_inject(np.ones(4), now=float(now))
            return injector.n_injected

        def plan(spec):
            return [(f.time, f.rank)
                    for f in resolve_faults(spec).failure_plan(n_ranks=3, horizon=50, seed=4)]

        assert 0 < injected(2) == injected(10)
        assert plan("proc_fail:mtbf=10,model=weibull,shape=0.5") != plan(
            "proc_fail:mtbf=10,model=weibull"
        )


#: A spec of every model kind -> the capabilities it supports and the
#: type each hands out; the rest raise FaultCapabilityError.  A composite
#: supports what its active children do.
CAPABILITY_MATRIX = {
    "none": {"injector": ArrayInjector, "environment": Region,
             "failure_plan": FailurePlan},
    "bitflip:p=0.1": {"injector": ArrayInjector, "environment": Region},
    "perturb:p=0.1,scale=2.0": {"injector": PerturbationInjector, "environment": Region},
    "msg_corrupt:p=0.1": {"message_corruptor": MessageCorruptor},
    "proc_fail:times=1.0,rank=1": {"failure_plan": FailurePlan},
    "basis_bitflip": {"iteration_hook": object},
    "bitflip:p=0.1+msg_corrupt:p=0.1": {
        "injector": ArrayInjector, "environment": Region,
        "message_corruptor": MessageCorruptor,
    },
    "basis_bitflip+proc_fail:times=1.0,rank=1": {
        "failure_plan": FailurePlan, "iteration_hook": object,
    },
}

_CAPABILITY_CALLS = {
    "injector": lambda model: model.injector(_gen()),
    "environment": lambda model: model.environment(seed=1),
    "failure_plan": lambda model: model.failure_plan(n_ranks=2, horizon=10.0, seed=1),
    "message_corruptor": lambda model: model.message_corruptor(_gen()),
    "iteration_hook": lambda model: model.iteration_hook(_gen(), at=3),
}


class TestCapabilityMatrix:
    def test_the_matrix_covers_every_kind(self):
        kinds = {build_model(spec).kind for spec in CAPABILITY_MATRIX}
        assert kinds == set(MODEL_KINDS)

    @pytest.mark.parametrize("spec", list(CAPABILITY_MATRIX))
    def test_a_model_supports_exactly_its_capabilities(self, spec):
        model = resolve_faults(spec)
        supported = CAPABILITY_MATRIX[spec]
        for capability, call in _CAPABILITY_CALLS.items():
            if capability in supported:
                handed_out = call(model)
                assert isinstance(handed_out, supported[capability])
                if capability == "iteration_hook":
                    assert callable(handed_out)
                continue
            with pytest.raises(FaultCapabilityError) as refused:
                call(model)
            assert repr(model.kind) in str(refused.value)
            assert repr(capability) in str(refused.value)


class TestSeeding:
    def test_derive_seed_matches_campaign_runner(self):
        from repro.campaign.runner import derive_seed as runner_derive_seed

        assert runner_derive_seed is derive_seed
        assert derive_seed(2013, "abc") == derive_seed(2013, "abc")
        assert derive_seed(2013, "abc") != derive_seed(2013, "abd")

    def test_fault_stream_matches_driver_idiom(self):
        # The E8 idiom: RngFactory(seed).spawn("faults/<name>") -- the
        # canonical stream must be bit-identical so direct calls and
        # campaign runs draw the same fault sequences.
        direct = RngFactory(2013).spawn("faults/gmres")
        canonical = fault_stream(2013, "gmres")
        assert direct.integers(0, 2**31 - 1) == canonical.integers(0, 2**31 - 1)
        assert derive_fault_seed(2013, "gmres") == int(
            RngFactory(2013).spawn("faults/gmres").integers(0, 2**31 - 1)
        )


# ---------------------------------------------------------------------------
# Domain context managers
# ---------------------------------------------------------------------------


class TestDomains:
    def test_unreliable_domain_corrupts_and_counts(self):
        with unreliable("bitflip:p=1.0", seed=3) as domain:
            data = domain.preconditioner(None)(np.ones(8))
            assert domain.faults_injected() == 1
            assert np.sum(data != 1.0) == 1

    def test_reliable_domain_never_corrupts(self):
        with reliable() as domain:
            data = domain.preconditioner(None)(np.ones(8))
            np.testing.assert_array_equal(data, 1.0)
            assert domain.faults_injected() == 0

    @pytest.mark.parametrize("stage", ["operator", "preconditioner"])
    @pytest.mark.parametrize("spec, expected", [
        ("bitflip:times=1;2;3", 3),
        ("bitflip:rate=5.0", 66),
        ("bitflip:p=1.0", 10),
    ])
    def test_time_based_spec_fires_on_a_wrapped_stage(self, stage, spec, expected):
        # A stage applied outside any inner solve is one phase of the
        # region's clock, so time-based schedules see time pass.
        with unreliable(spec, seed=1) as domain:
            apply = getattr(domain, stage)(np.copy)
            for _ in range(10):
                apply(np.ones(8))
            assert domain.now == 10.0
            assert domain.faults_injected() == expected

    def test_domain_operator_under_a_registered_solver(self):
        from repro.krylov.registry import default_solver_registry
        from repro.linalg.matgen import poisson_2d

        matrix = poisson_2d(6)
        b = np.ones(matrix.n_rows)
        with unreliable("bitflip:p=0.3,bits=0..20", seed=5) as domain:
            operator = domain.operator(matrix.matvec, flops_per_call=2.0 * matrix.nnz)
            result = default_solver_registry().get("gmres").solve(
                operator, b, tol=1e-8, restart=20, maxiter=200
            )
            assert domain.faults_injected() > 0
            assert domain.flops > 0
            assert result.iterations > 0


# ---------------------------------------------------------------------------
# simulated-runtime integration
# ---------------------------------------------------------------------------


class TestSimmpiFaultSpecs:
    def test_coerce_failure_plan_from_spec(self):
        from repro.comm.base import resolve_job_faults

        plan = resolve_job_faults(4, faults="proc_fail:times=0.5;1.5,ranks=1;2")[0]
        assert [(f.time, f.rank) for f in plan] == [(0.5, 1), (1.5, 2)]
        assert len(resolve_job_faults(4, None)[0]) == 0
        assert len(resolve_job_faults(4, faults="bitflip:p=0.5")[0]) == 0
        existing = FailurePlan.single(1.0, 0)
        assert resolve_job_faults(4, existing)[0] is existing
        both = resolve_job_faults(4, existing, faults="proc_fail:times=0.5,ranks=1")
        assert both[0] is existing

    @pytest.mark.parametrize("spec", ["bitflip:p=0.5", "proc_fail:times=0.5,ranks=1"])
    def test_a_spec_given_as_failure_plan_is_refused(self, spec):
        # One route per fault: a spec goes through faults=.  Given as
        # failure_plan, "bitflip:p=0.5" used to become an empty plan and
        # run the job as a fault-free control.
        from repro.comm.base import resolve_job_faults
        from repro.comm.sim import SimRuntime, run_spmd

        with pytest.raises(TypeError, match="faults="):
            resolve_job_faults(4, spec)
        with pytest.raises(TypeError, match="faults="):
            SimRuntime(4, failure_plan=spec)
        with pytest.raises(TypeError, match="faults="):
            run_spmd(2, lambda comm: comm.rank, failure_plan=spec)

    def test_runtime_resolves_composite_faults(self):
        from repro.comm.sim import SimRuntime

        runtime = SimRuntime(
            4, faults="bitflip:p=0.5+proc_fail:times=0.25;0.75,ranks=1;2"
        )
        assert [(f.time, f.rank) for f in runtime.failure_plan] == [
            (0.25, 1), (0.75, 2),
        ]

    def test_message_corruption_is_deterministic(self):
        from repro.comm.sim import run_spmd

        def program(comm):
            if comm.rank == 0:
                comm.send(np.ones(64), dest=1)
                return 0.0
            return float(np.sum(comm.recv(source=0)))

        first = run_spmd(2, program, faults="msg_corrupt:p=1.0,bits=0..20",
                         fault_seed=3)
        second = run_spmd(2, program, faults="msg_corrupt:p=1.0,bits=0..20",
                          fault_seed=3)
        clean = run_spmd(2, program)
        assert first[1] == second[1]
        assert first[1] != clean[1] == 64.0


# ---------------------------------------------------------------------------
# Old-vs-new injection parity (E1 / E6 / E8)
# ---------------------------------------------------------------------------


def _comparable(result, drop=("faults",)):
    summary = {k: v for k, v in result.summary.items() if k not in drop}
    return result.table.render(), summary


@pytest.mark.parametrize(
    "experiment,legacy_params,spec_params",
    [
        # E1: default targeted basis flip vs the explicit registry name.
        (
            "E1",
            {"grid": 8, "n_trials": 2, "inject_at": 5, "seed": 2013},
            {"grid": 8, "n_trials": 2, "inject_at": 5, "seed": 2013,
             "faults": "basis_bitflip"},
        ),
        # E6: default any-bit Bernoulli flips vs the explicit name.
        (
            "E6",
            {"grid": 8, "fault_probabilities": (0.0, 0.05), "n_trials": 1,
             "outer_maxiter": 20, "inner_maxiter": 10, "seed": 2013},
            {"grid": 8, "fault_probabilities": (0.0, 0.05), "n_trials": 1,
             "outer_maxiter": 20, "inner_maxiter": 10, "seed": 2013,
             "faults": "bitflip"},
        ),
        # E8: the golden configuration expressed as a fault spec.
        (
            "E8",
            {"grid": 8, "policy": "skeptical", "fault_probability": 0.02,
             "bit_range": (52, 62), "seed": 2013},
            {"grid": 8, "policy": "skeptical", "seed": 2013,
             "faults": "bitflip:p=0.02,bits=52..62"},
        ),
    ],
)
def test_spec_driven_injection_matches_legacy(experiment, legacy_params, spec_params):
    """The declarative fault axis replays the legacy wiring bit-for-bit."""
    from repro.campaign.registry import default_registry

    driver = default_registry().get(experiment)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        legacy = driver.run(**legacy_params)
        modern = driver.run(**spec_params)
    legacy_table, legacy_summary = _comparable(legacy)
    modern_table, modern_summary = _comparable(modern)
    assert modern_table == legacy_table
    assert modern_summary == legacy_summary


# ---------------------------------------------------------------------------
# Composition: bit flips + process failure under FT-GMRES
# ---------------------------------------------------------------------------


class TestComposition:
    SPEC = "bitflip:p=0.05,bits=0..51+proc_fail:times=1.0,rank=1"

    def test_composite_round_trips(self):
        spec = FaultSpec.parse(self.SPEC)
        assert FaultSpec.parse(spec.to_string()) == spec
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_bitflip_half_drives_ft_gmres(self):
        from repro.campaign.registry import default_registry

        result = default_registry().get("E8").run(
            grid=6, solvers=("ft_gmres",), policy="none",
            faults=self.SPEC, seed=2013,
        )
        row = result.table.rows[0]
        assert row[0] == "ft_gmres"
        assert result.summary["faults"] == FaultSpec.parse(self.SPEC).to_string()
        # The unreliable inner domain actually saw bit flips.
        assert result.summary["total_faults_injected"] > 0

    def test_proc_fail_half_drives_the_runtime(self):
        from repro.comm.sim import SimRuntime

        runtime = SimRuntime(4, faults=self.SPEC)
        assert [(f.time, f.rank) for f in runtime.failure_plan] == [(1.0, 1)]


class TestSharedFaultAxisDegradation:
    """One fault axis swept over many experiments must not crash any of
    them: drivers extract the component they consume and run fault-free
    when none applies."""

    _SMALL = {
        "E1": dict(grid=8, n_trials=1, inject_at=5),
        "E2": dict(sizes=(8,), n_trials=2),
        "E3": dict(grid=8, rank_counts=(16,), iterations=5),
        "E4": dict(n_ranks=4, n_global=32, n_steps=15),
        "E5": dict(n_points=64, steps_before_failure=5, coarsening_factors=(2,)),
        "E6": dict(grid=8, fault_probabilities=(0.05,), n_trials=1,
                   outer_maxiter=12, inner_maxiter=8),
        "E7": dict(node_counts=(1000,)),
        "E8": dict(grid=6, solvers=("gmres", "ft_gmres")),
    }

    @pytest.mark.parametrize("experiment", sorted(_SMALL))
    def test_every_driver_accepts_any_fault_kind(self, experiment):
        from repro.campaign.registry import default_registry

        driver = default_registry().get(experiment)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for spec in (
                "bitflip:p=0.02,bits=52..62",
                "proc_fail:times=0.0001;,ranks=1;",
                "bitflip:p=0.02+proc_fail:times=0.0001;,ranks=1;",
            ):
                result = driver.run(faults=spec, **self._SMALL[experiment])
                assert result.table.rows

    def test_e1_degrades_bitflip_to_basis_flip_and_ignores_proc_fail(self):
        from repro.campaign.registry import default_registry

        driver = default_registry().get("E1")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            degraded = driver.run(grid=8, n_trials=1, inject_at=5,
                                  faults="bitflip:p=0.02", seed=2013)
            faultfree = driver.run(grid=8, n_trials=1, inject_at=5,
                                   faults="proc_fail:mtbf=1.0", seed=2013)
        # The recorded axis value is the *requested* spec (matching the
        # other drivers), even though E1 consumes a degraded component.
        assert degraded.parameters["faults"] == "bitflip:p=0.02"
        assert faultfree.parameters["faults"] == "proc_fail:mtbf=1.0"
        # Fault-free: nothing is ever detected or silently corrupted.
        assert all(
            faultfree.summary[key] == 0
            for key in faultfree.summary
            if key.endswith("_detection_rate") or key.endswith("_sdc_rate")
        )

    def test_e6_strips_a_pinned_when_axis_before_the_rate_sweep(self):
        from repro.campaign.registry import default_registry

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = default_registry().get("E6").run(
                grid=8, fault_probabilities=(0.05,), n_trials=1,
                outer_maxiter=12, inner_maxiter=8,
                faults="bitflip:times=1;2,bits=52..62", seed=2013,
            )
        # (a 2-element times list renders in range form; it parses back
        # to the identical tuple)
        assert result.parameters["faults"] == "bitflip:bits=52..62,times=1..2"

    def test_e4_exercises_message_corruption(self):
        from repro.campaign.registry import default_registry

        driver = default_registry().get("E4")
        corrupted = driver.run(
            n_ranks=4, n_global=32, n_steps=15,
            faults="msg_corrupt:p=1.0,bits=40..62", seed=2013,
        )
        clean = driver.run(n_ranks=4, n_global=32, n_steps=15, seed=2013)
        # Heavily corrupted halo exchanges must break the exact-match
        # correctness of the fault-free LFLR row.
        assert clean.summary["correct_0"] is True
        assert corrupted.summary["correct_0"] is False

    def test_e4_runs_fault_free_under_a_soft_fault_spec(self):
        from repro.campaign.registry import default_registry

        result = default_registry().get("E4").run(
            n_ranks=4, n_global=32, n_steps=15, faults="bitflip:p=0.02",
        )
        assert len(result.table.rows) == 1  # just the fault-free reference
        assert result.summary["correct_0"] is True

    def test_e8_ft_gmres_gets_the_perturbation_environment(self):
        from repro.campaign.registry import default_registry

        result = default_registry().get("E8").run(
            grid=6, solvers=("ft_gmres",), policy="none",
            faults="perturb:p=0.5,scale=1000.0", seed=2013,
        )
        # The injected faults must be value perturbations, not the
        # bit flips ft_gmres's internal environment would produce.
        assert result.summary["total_faults_injected"] > 0
        from repro.reliability import resolve_faults

        model = resolve_faults("perturb:p=0.5,scale=1000.0")
        from repro.reliability.models import PerturbationInjector

        region = model.environment(seed=1)
        assert isinstance(region.injector, PerturbationInjector)

    @pytest.mark.parametrize("spec", [
        "bitflip:p=0.5,bits=52..62,max_faults=1",
        "bitflip:times=0,bits=52..62",
    ])
    def test_e8_ft_gmres_gets_the_whole_bitflip_spec(self, spec):
        # The cap and the explicit schedule reach ft_gmres's inner region
        # as they reach gmres's operator (p and bits alone used to).
        from repro.campaign.registry import default_registry

        result = default_registry().get("E8").run(
            grid=6, solvers=("gmres", "ft_gmres"), policy="none", faults=spec,
        )
        assert {row[0]: row[4] for row in result.table.rows} == {
            "gmres": 1, "ft_gmres": 1,
        }

    def test_e6_ft_gmres_honours_max_faults(self):
        # One capped fault: the all-unreliable baseline converges, so
        # FT-GMRES must too (it used to take ~100 uncapped flips).
        from repro.campaign.registry import default_registry

        result = default_registry().get("E6").run(
            grid=8, fault_probabilities=(0.5,), n_trials=1, outer_maxiter=20,
            inner_maxiter=10, faults="bitflip:bits=52..62,max_faults=1",
        )
        assert result.summary["plain_0.5_converged"] == 1.0
        assert result.summary["ftgmres_0.5_converged"] == 1.0


# ---------------------------------------------------------------------------
# Campaign integration
# ---------------------------------------------------------------------------


class TestCampaignFaultAxis:
    def test_solvers_campaign_sweeps_fault_specs(self):
        from repro.campaign.builtin import builtin_campaign

        scenarios = builtin_campaign("solvers")
        fault_values = {s.params["faults"] for s in scenarios}
        assert "none" in fault_values
        assert any(v.startswith("bitflip:") for v in fault_values)
        assert any(v.startswith("perturb:") for v in fault_values)
        # Spec strings must be stable scenario-key material.
        keys = {s.key for s in scenarios}
        assert len(keys) == len(scenarios)

    def test_runner_resolves_fault_scenarios(self):
        from repro.campaign.runner import CampaignRunner
        from repro.campaign.spec import Scenario

        runner = CampaignRunner(store=None)
        scenario = Scenario(
            "E8", {"grid": 6, "solvers": ("gmres",), "faults": "bitflip:p=0.02"}
        )
        resolved = runner.resolve(scenario)
        assert resolved.params["seed"] == derive_seed(2013, scenario.key)
        outcome = runner.run([scenario])[0]
        assert outcome.status == "completed"
        assert outcome.result["parameters"]["faults"] == "bitflip:p=0.02"

