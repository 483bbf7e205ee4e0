"""The one contract every declared axis and every registry obeys.

An axis is a declaration (:mod:`repro.spec`): a kinds table, a value
hook, a builtin list and an ``AXIS`` record.  What the
shared :class:`~repro.spec.KindSpec` and :class:`~repro.spec.Registry`
promise is checked here once, parametrized over
:func:`repro.axes.declared_axes` -- not per axis, and not in
``scripts/verify.sh``.  Axis-specific behaviour (compose flattening,
storage-vs-compute width, ``procs`` validation, chaos draws) stays in
the axis's own test file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import re

import pytest

from repro.axes import declared_axes
from repro.campaign.cli import main as campaign_main
from repro.campaign.registry import default_registry
from repro.krylov.registry import default_solver_registry
from repro.linalg import poisson_2d
from repro.precond import resolve_preconds
from repro.reliability.models import MODEL_KINDS
from repro.reliability.spec import FAULT_KINDS
from repro.spec import Registry

AXES = {axis.name: axis for axis in declared_axes()}
SPEC_AXES = [axis for axis in AXES.values() if axis.spec is not None]
REGISTRY_AXES = [axis for axis in AXES.values() if axis.registry is not None]
REGISTRIES = {axis.name: axis.registry() for axis in REGISTRY_AXES}
REGISTRIES["experiment"] = default_registry()

# Parameterized specs beyond the registered entries.
SAMPLES = {
    "fault": ["bitflip:p=1e-4,bits=52..62", "proc_fail:times=1.5;3.0,ranks=1;2",
              "bitflip:p=0.05+proc_fail:mtbf=3600.0"],
    "precond": ["ssor:omega=1.2", "bjacobi:bs=4"],
    "precision": ["fp32:storage=fp16", "fp64:storage=fp32"],
    "comm": ["sim:procs=2", "shmem:procs=8,timeout=2.5", "shmem:procs=4"],
    "chaos": ["worker_crash:p=0.1", "worker_hang:attempts=2,p=0.05,seconds=120.0",
              "worker_crash:p=0.1+result_corrupt:p=0.01"],
}

# An axis entry point that builds an entry, where ``resolve`` does not.
BUILDERS = {
    "solver": lambda name: default_solver_registry().get(name),
    "precond": lambda name: resolve_preconds(name, poisson_2d(6)),
}


def specs_of(axis):
    registered = [entry.spec for entry in axis.registry()] if axis.registry else []
    return registered + [axis.spec.parse(text) for text in SAMPLES[axis.name]]


def resolved_spec(axis, value) -> str:
    """``axis.resolve(value)`` as the canonical string of what it resolved to."""
    resolved = axis.resolve(value)
    return str(getattr(resolved, "spec", resolved))


@pytest.fixture(scope="module")
def listing():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert campaign_main(["list"]) == 0
    return out.getvalue()


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", list(REGISTRIES))
class TestRegistry:
    def test_shared_index(self, name):
        registry = REGISTRIES[name]
        assert isinstance(registry, Registry)
        assert type(registry).get is Registry.get
        assert type(registry).__contains__ is Registry.__contains__

    def test_case_insensitive_lookup(self, name):
        registry = REGISTRIES[name]
        assert len(registry) == len(list(registry)) == len(registry.names()) > 0
        for key in registry.names():
            assert registry.get(key.upper()) is registry.get(key)
            assert key in registry and key.upper() in registry

    def test_in_is_false_for_non_names(self, name):
        registry = REGISTRIES[name]
        assert None not in registry
        assert 7 not in registry
        assert "no-such-entry" not in registry

    def test_unknown_name_lists_known(self, name):
        registry = REGISTRIES[name]
        with pytest.raises(KeyError) as raised:
            registry.get("no-such-entry")
        message = str(raised.value)
        assert f"unknown {registry.NOUN} 'no-such-entry'" in message
        for known in registry.names():
            assert known in message

    def test_duplicates_refused(self, name):
        registry = REGISTRIES[name]
        fresh = type(registry)(list(registry))
        assert fresh is not registry and fresh.names() == registry.names()
        entry = next(iter(registry))
        if name == "experiment":
            # Keyed by id and name: the same module may re-register,
            # another module claiming the key may not.
            entry = dataclasses.replace(entry, module="somewhere.else")
        with pytest.raises(ValueError, match="duplicate"):
            fresh.add(entry)

    def test_default_is_singleton(self, name):
        registry = REGISTRIES[name]
        assert type(registry).default() is registry


@pytest.mark.parametrize("axis", REGISTRY_AXES, ids=lambda axis: axis.name)
class TestEntries:
    def test_listed_in_campaign_list(self, axis, listing):
        registry = axis.registry()
        assert f"registered {registry.NOUN}s ({len(registry)})" in listing
        for entry in registry:
            assert re.search(rf"^{re.escape(entry.name)} ", listing, re.M), entry.name
            assert len(entry.row()) == len(registry.COLUMNS)

    def test_builds(self, axis):
        build = BUILDERS.get(axis.name, axis.resolve)
        for entry in axis.registry():
            built = build(entry.name)
            assert (built is None) == (axis.name == "precond" and entry.spec.kind == "none")


@pytest.mark.parametrize(
    "axis", [a for a in REGISTRY_AXES if a.resolve is not None], ids=lambda axis: axis.name
)
def test_names_resolve_through_entry_point(axis):
    for entry in axis.registry():
        expected = entry.spec.to_string()
        assert resolved_spec(axis, entry.name) == expected
        assert resolved_spec(axis, entry.name.upper()) == expected


def test_experiments_listed_in_campaign_list(listing):
    registry = default_registry()
    assert f"registered experiments ({len(registry)})" in listing
    for driver in registry:
        assert re.search(rf"^{driver.experiment} +{driver.name} ", listing, re.M)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("axis", SPEC_AXES, ids=lambda axis: axis.name)
class TestSpecs:
    def test_round_trips(self, axis):
        cls = axis.spec
        for spec in specs_of(axis):
            assert cls.parse(spec) is spec
            text, data = spec.to_string(), spec.to_dict()
            assert str(spec) == text
            assert cls.parse(text) == spec and cls.parse(text).to_string() == text
            assert cls.from_dict(data) == spec and cls.from_dict(data).to_dict() == data
            assert cls.parse(data) == spec
            assert resolved_spec(axis, text) == text

    def test_one_string_form(self, axis):
        """Kinds are case-folded, parameters sorted -- on every axis."""
        for spec in specs_of(axis):
            reversed_params = dict(reversed(list(spec.params.items())))
            again = type(spec)(spec.kind.upper(), reversed_params, spec.children)
            assert again == spec
            assert again.to_string() == spec.to_string()
            assert again.to_dict() == spec.to_dict()
            assert list(again.params) == sorted(spec.params)
            shouted = spec.to_string().replace(spec.kind, spec.kind.upper(), 1)
            assert axis.spec.parse(shouted) == spec

    def test_loose_dict_form(self, axis):
        for spec in specs_of(axis):
            if spec.children:
                continue
            loose = {"kind": spec.kind, **spec.params}
            assert axis.spec.from_dict(loose) == spec
            assert axis.spec.parse(loose).to_string() == spec.to_string()

    def test_with_params_and_get(self, axis):
        for spec in specs_of(axis):
            if not spec.params:
                continue
            name, value = next(iter(spec.params.items()))
            assert spec.get(name) == value and spec.get("no_such", 3) == 3
            assert spec.with_params(**{name: None}) == spec
            assert spec.with_params(**{name: value}) == spec
            assert type(spec.with_params()) is type(spec)

    def test_unknown_kind_refused(self, axis):
        for attempt in (lambda: axis.spec("no_such_kind"),
                        lambda: axis.spec.parse("no_such_kind:x=1"),
                        lambda: axis.resolve("no_such_kind:x=1")):
            with pytest.raises(ValueError) as raised:
                attempt()
            message = str(raised.value)
            assert f"unknown {axis.spec.NOUN} kind 'no_such_kind'" in message
            for kind in axis.spec.KINDS:
                assert repr(kind) in message

    def test_unknown_param_refused(self, axis):
        for kind, allowed in axis.spec.KINDS.items():
            with pytest.raises(ValueError) as raised:
                axis.spec(kind, {"no_such_param": 1})
            message = str(raised.value)
            assert "no_such_param" in message and repr(kind) in message
            for name in allowed:
                assert repr(name) in message

    def test_malformed_refused(self, axis):
        for text in ("", ":x=1", "no_such_kind:x"):
            with pytest.raises(ValueError):
                axis.spec.parse(text)
        with pytest.raises(ValueError, match="'kind'"):
            axis.spec.from_dict({"params": {}})
        with pytest.raises(TypeError, match=f"cannot parse a {axis.spec.NOUN} spec"):
            axis.spec.parse(3.5)

    def test_none_is_identity(self, axis):
        assert axis.identity in axis.spec.KINDS
        assert resolved_spec(axis, None) == axis.identity
        assert resolved_spec(axis, axis.identity) == axis.identity


# ---------------------------------------------------------------------------
# Declared differences and the defects the hand-rolled copies had drifted into
# ---------------------------------------------------------------------------
class TestDifferences:
    def test_comm_loose_dict_form(self):
        spec = AXES["comm"].spec.parse({"kind": "sim", "procs": 2})
        assert spec.to_string() == "sim:procs=2"
        assert spec.procs == 2

    def test_comm_specs_canonical(self):
        parse = AXES["comm"].spec.parse
        one, other = parse("shmem:timeout=3,procs=2"), parse("shmem:procs=2,timeout=3")
        assert one == other and hash(one) == hash(other)
        assert one.to_string() == other.to_string() == "shmem:procs=2,timeout=3"
        assert parse("SIM:procs=2") == parse("sim:procs=2")

    def test_comm_dict_always_writes_params(self):
        assert AXES["comm"].spec.parse("sim").to_dict() == {"kind": "sim", "params": {}}

    def test_fault_dict_lists_and_children(self):
        parse = AXES["fault"].spec.parse
        assert parse("bitflip:bits=52..62").to_dict() == {
            "kind": "bitflip", "params": {"bits": [52, 62]}
        }
        composed = parse("bitflip:p=0.05+proc_fail:mtbf=3600.0")
        assert composed.to_dict() == {
            "kind": "compose",
            "children": [
                {"kind": "bitflip", "params": {"p": 0.05}},
                {"kind": "proc_fail", "params": {"mtbf": 3600.0}},
            ],
        }

    def test_plus_composes_faults_and_chaos_only(self):
        assert AXES["fault"].resolve("bitflip:p=0.05+proc_fail:mtbf=3600.0").kind == "compose"
        chaos = AXES["chaos"].resolve("worker_crash:p=0.1+result_corrupt:p=0.01")
        assert chaos.kind == "compose"
        assert [(f.kind, dict(f.params)) for f in chaos.children] == [
            ("worker_crash", {"p": 0.1}), ("result_corrupt", {"p": 0.01}),
        ]
        for name in ("precond", "precision", "comm"):
            axis = AXES[name]
            with pytest.raises(ValueError):
                axis.spec.parse(f"{axis.identity}+{axis.identity}")

    def test_fault_kinds_match_model_classes(self):
        assert set(FAULT_KINDS) == set(MODEL_KINDS)
        # Every kind declares its names; only the fault-free control and
        # the composition take none of their own.
        assert all(isinstance(allowed, tuple) for allowed in FAULT_KINDS.values())
        assert {kind for kind, allowed in FAULT_KINDS.items() if not allowed} == {
            "none", "compose",
        }

    def test_solver_axis_has_no_spec(self):
        solver = AXES["solver"]
        assert solver.spec is None and solver.resolve is None
        assert "gmres" in solver.registry()
