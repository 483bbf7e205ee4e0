"""Tests for the campaign subsystem (spec, registry, store, runner, CLI).

The sweep-mechanics tests are property-based (Hypothesis): expansion
cardinality and key uniqueness must hold for arbitrary axis shapes, not
just the examples the built-in campaigns happen to use.
"""

from __future__ import annotations

import ast
import copy
import importlib
import inspect
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.axes import declared_axes
from repro.campaign import spec as spec_module
from repro.campaign.builtin import builtin_campaign, builtin_campaign_names
from repro.campaign.cli import main as cli_main
from repro.campaign.executor import FailureLedger
from repro.campaign.registry import RegisteredExperiment, default_registry
from repro.campaign.runner import CampaignRunner, derive_seed
from repro.campaign.spec import Scenario, Sweep, scenario_key
from repro.campaign.store import ResultStore, StoreRecord
from repro.experiments.common import ExperimentResult, ExperimentSpec


# ----------------------------------------------------------------------
# Hypothesis strategies: small axis dictionaries with hashable values.
# ----------------------------------------------------------------------
_value = st.one_of(st.integers(-100, 100), st.floats(allow_nan=False, allow_infinity=False, width=32))
_axis_name = st.sampled_from(["alpha", "beta", "gamma", "delta"])


def _axes(min_len=1, max_len=4, equal_lengths=False):
    def build(draw):
        names = draw(st.lists(_axis_name, min_size=1, max_size=3, unique=True))
        if equal_lengths:
            n = draw(st.integers(min_len, max_len))
            lengths = {name: n for name in names}
        else:
            lengths = {name: draw(st.integers(min_len, max_len)) for name in names}
        return {
            name: draw(
                st.lists(_value, min_size=lengths[name], max_size=lengths[name],
                         unique=True)
            )
            for name in names
        }

    return st.composite(lambda draw: build(draw))()


class TestSweepExpansion:
    @settings(max_examples=50, deadline=None)
    @given(axes=_axes())
    def test_grid_cardinality_and_uniqueness(self, axes):
        sweep = Sweep("E7", axes=axes, mode="grid")
        scenarios = sweep.expand()
        expected = int(np.prod([len(v) for v in axes.values()]))
        assert len(scenarios) == expected
        # Unique axis values => pairwise-distinct scenarios and keys.
        keys = {s.key for s in scenarios}
        assert len(keys) == expected

    @settings(max_examples=50, deadline=None)
    @given(axes=_axes(equal_lengths=True))
    def test_zip_cardinality_and_uniqueness(self, axes):
        sweep = Sweep("E7", axes=axes, mode="zip")
        scenarios = sweep.expand()
        expected = len(next(iter(axes.values())))
        assert len(scenarios) == expected
        assert len({s.key for s in scenarios}) == expected

    @settings(max_examples=30, deadline=None)
    @given(axes=_axes())
    def test_grid_covers_every_combination(self, axes):
        scenarios = Sweep("E7", axes=axes).expand()
        seen = {tuple(sorted(s.params.items())) for s in scenarios}
        assert len(seen) == len(scenarios)
        for name, values in axes.items():
            assert {s.params[name] for s in scenarios} == set(values)

    def test_zip_pairs_positionally(self):
        scenarios = Sweep("E7", axes={"node_mtbf_years": (1.0, 5.0),
                                      "checkpoint_time": (60.0, 300.0)},
                          mode="zip").expand()
        assert [(s.params["node_mtbf_years"], s.params["checkpoint_time"])
                for s in scenarios] == [(1.0, 60.0), (5.0, 300.0)]

    def test_zip_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Sweep("E7", axes={"a": (1, 2), "b": (1, 2, 3)}, mode="zip")

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            Sweep("E7", axes={"a": ()})

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            Sweep("E7", mode="product")

    def test_no_axes_yields_base_scenario(self):
        scenarios = Sweep("E7", base={"node_counts": (10,)}, tag="t").expand()
        assert len(scenarios) == 1
        assert scenarios[0].params == {"node_counts": (10,)}
        assert scenarios[0].tag == "t"


class TestScenarioKey:
    def test_insertion_order_independent(self):
        a = scenario_key("E1", {"grid": 10, "n_trials": 3})
        b = scenario_key("E1", {"n_trials": 3, "grid": 10})
        assert a == b

    def test_container_flavour_independent(self):
        assert scenario_key("E2", {"sizes": (8, 16)}) == scenario_key(
            "E2", {"sizes": [8, 16]}
        )

    def test_case_insensitive_experiment(self):
        assert scenario_key("e1", {}) == scenario_key("E1", {})

    def test_distinct_params_distinct_keys(self):
        assert scenario_key("E1", {"grid": 10}) != scenario_key("E1", {"grid": 12})
        assert scenario_key("E1", {"grid": 10}) != scenario_key("E2", {"grid": 10})

    def test_key_is_stable_across_processes(self):
        # Pinned literal: the key is SHA-256 of canonical JSON, so it
        # must never depend on the process (PYTHONHASHSEED) or the
        # library version.  If this changes, every existing result
        # store silently loses its memoization -- bump knowingly.
        assert scenario_key("E1", {"grid": 10, "seed": 2013}) == (
            scenario_key("E1", {"seed": 2013, "grid": 10})
        )
        assert len(scenario_key("E1", {})) == 16
        int(scenario_key("E1", {}), 16)  # hex

    @settings(max_examples=50, deadline=None)
    @given(axes=_axes())
    def test_key_matches_scenario_property(self, axes):
        params = {k: v[0] for k, v in axes.items()}
        assert Scenario("E3", params).key == scenario_key("E3", params)

    def test_params_are_read_only(self):
        source = {"grid": 8, "solvers": ("gmres", "cg")}
        scenario = Scenario("E8", source)
        key = scenario.key
        with pytest.raises(TypeError):
            scenario.params["grid"] = 10
        with pytest.raises(TypeError):
            del scenario.params["grid"]
        # The view is of a private copy: the caller's dict is not aliased.
        source["grid"] = 10
        assert scenario.params["grid"] == 8 and scenario.key == key
        # Everything that reads params keeps working on the view.
        assert scenario.params == {"grid": 8, "solvers": ("gmres", "cg")}
        assert dict(scenario.params) == {"grid": 8, "solvers": ("gmres", "cg")}
        assert scenario == Scenario("e8", dict(scenario.params))
        assert scenario.describe() == "grid=8, solvers=('gmres', 'cg')"
        assert spec_module.canonical_json(scenario.params) == (
            '{"grid":8,"solvers":["gmres","cg"]}'
        )
        changed = scenario.with_params(grid=10)
        assert changed.params["grid"] == 10 and scenario.params["grid"] == 8

    @pytest.mark.parametrize("clone", [
        lambda s: pickle.loads(pickle.dumps(s)),
        copy.deepcopy,
        copy.copy,
    ], ids=["pickle", "deepcopy", "copy"])
    @pytest.mark.parametrize("memoised", [False, True])
    def test_copies_preserve_key(self, clone, memoised):
        scenario = Scenario("E9", {"preconds": ["none", "ssor"], "seed": 3}, "t")
        if memoised:
            scenario.key
        twin = clone(scenario)
        assert twin is not scenario and twin == scenario
        assert twin.key == scenario.key == scenario_key("E9", scenario.params)
        assert twin.tag == "t"
        with pytest.raises(TypeError):
            twin.params["seed"] = 4

    def test_key_computed_once_per_object(self, monkeypatch):
        calls = []

        def spy(experiment, params):
            calls.append(experiment)
            return scenario_key(experiment, params)

        monkeypatch.setattr(spec_module, "scenario_key", spy)
        scenario = Scenario("E1", {"grid": 8})
        assert calls == []  # lazily: construction hashes nothing
        assert scenario.key == scenario.key == scenario_key("E1", {"grid": 8})
        assert len(calls) == 1
        assert scenario.with_params(grid=9).key == scenario_key("E1", {"grid": 9})
        assert len(calls) == 2 and scenario.key == scenario_key("E1", {"grid": 8})

    def test_derive_seed_stable_and_distinct(self):
        key_a = scenario_key("E1", {"grid": 10})
        key_b = scenario_key("E1", {"grid": 12})
        assert derive_seed(2013, key_a) == derive_seed(2013, key_a)
        assert derive_seed(2013, key_a) != derive_seed(2013, key_b)
        assert derive_seed(2013, key_a) != derive_seed(2014, key_a)


# One planted driver per case: what it changes of a conforming
# ``run``/``run_batch`` driver, and the one breach it then reports.
_RUN_CONTRACT_CASES = {
    "conforming": ({}, None),
    "id-prefix": ({"experiment": "E7"},
                  "experiment id 'E7' does not match the file-name prefix 'e2'"),
    "run-default": ({"run": lambda n: n}, "run parameter 'n' has no default"),
    "run-args": ({"run": lambda n=1, *extra: n}, "run takes *extra"),
    "run-kwargs": ({"run": lambda n=1, **extra: n}, "run takes **extra"),
    "batch-first": ({"run_batch": lambda items: items},
                    "run_batch takes 'items' first, not params_list"),
    "batch-default": ({"run_batch": lambda params_list, check: params_list},
                      "run_batch parameter 'check' has no default"),
    "bind-defaults": ({"namespace": ("_bind_defaults",)},
                      "a run_batch driver defines its own _bind_defaults"),
    "compatible": ({"namespace": ("_compatible",)},
                   "a run_batch driver defines its own _compatible"),
    "empty-claim": ({"claim": ""}, "SPEC.claim is empty"),
    "result-by-hand": (
        {"source": "def run(n=1):\n    return common.ExperimentResult('E2', CLAIM, table)\n"},
        "the module calls ExperimentResult( instead of SPEC.result",
    ),
}


class TestRegistry:
    def test_discovers_all_experiments(self):
        registry = default_registry()
        assert set(registry.names()) >= {f"E{i}" for i in range(1, 9)}

    def test_lookup_by_id_name_and_case(self):
        registry = default_registry()
        driver = registry.get("E1")
        assert registry.get("e1") is driver
        assert registry.get("sdc_detection") is driver
        assert "E1" in registry and "abft" in registry

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            default_registry().get("E99")

    def test_validate_params_rejects_unknown(self):
        driver = default_registry().get("E7")
        driver.validate_params({"node_counts": (10,)})
        with pytest.raises(ValueError, match="does not accept"):
            driver.validate_params({"bogus_knob": 1})

    def test_validate_params_error_text_is_pinned(self):
        # Byte for byte the message of the pre-memoisation registry:
        # unknown names sorted, accepted names as a list in signature order.
        with pytest.raises(ValueError) as caught:
            default_registry().get("e7").validate_params(
                {"zeta": 1, "bogus": 2, "faults": None}
            )
        assert str(caught.value) == (
            "E7 (efficiency) does not accept parameters ['bogus', 'zeta']; "
            "accepted: ['node_mtbf_years', 'node_counts', 'checkpoint_time', "
            "'restart_time', 'local_recovery_time', 'redundancy_overhead', "
            "'mtbf_sweep_hours', 'faults']"
        )

    def test_listed_params_follow_signature_order(self):
        for driver in default_registry():
            expected = [
                p.name
                for p in inspect.signature(driver.run).parameters.values()
                if p.kind in (p.KEYWORD_ONLY, p.POSITIONAL_OR_KEYWORD)
            ]
            assert listed_params(driver) == expected
            assert all(driver.accepts(name) for name in expected)
            assert not driver.accepts("bogus_knob")

    def test_hand_built_driver_parameter_kinds(self):
        def keyword_only(*, alpha=1, beta=2):
            return None

        def positional_or_keyword(alpha, beta=2, *rest, gamma=3):
            return None

        def open_ended(alpha=1, **extra):
            return None

        def positional_only(alpha, /, beta):
            return None

        def driver(run):
            return RegisteredExperiment(
                spec=ExperimentSpec("E99", "hand_built"), module=__name__, run=run
            )

        assert listed_params(driver(keyword_only)) == ["alpha", "beta"]
        mixed = driver(positional_or_keyword)
        assert listed_params(mixed) == ["alpha", "beta", "gamma"]
        assert mixed.accepts("gamma") and not mixed.accepts("rest")
        mixed.validate_params({"gamma": 1, "alpha": 2})
        # **kwargs does not widen the accepted set (nor does *args), and
        # positional-only parameters cannot be passed by a scenario.
        loose = driver(open_ended)
        assert listed_params(loose) == ["alpha"]
        assert not loose.accepts("extra") and not loose.accepts("anything")
        with pytest.raises(ValueError, match=r"\['anything'\]; accepted: \['alpha'\]"):
            loose.validate_params({"anything": 1})
        assert listed_params(driver(positional_only)) == ["beta"]
        assert driver(keyword_only) == driver(keyword_only)

    def test_specs_expose_smoke_and_golden(self):
        for driver in default_registry():
            driver.validate_params(driver.spec.smoke)
            driver.validate_params(driver.spec.golden)

    def test_drivers_keep_the_run_contract(self):
        for driver in default_registry():
            module = importlib.import_module(driver.module)
            breaches = _contract_breaches(driver, vars(module), inspect.getsource(module))
            assert breaches == [], driver.module

    @pytest.mark.parametrize("case", sorted(_RUN_CONTRACT_CASES))
    def test_the_run_contract_flags_each_breach(self, case):
        changes, breach = _RUN_CONTRACT_CASES[case]
        planted = {"experiment": "E2", "claim": "A planted claim.",
                   "run": lambda n=1: n,
                   "run_batch": lambda params_list, check=True: params_list,
                   "namespace": (),
                   "source": "def run(n=1):\n    return SPEC.result(table, {})\n",
                   **changes}
        driver = RegisteredExperiment(
            spec=ExperimentSpec(planted["experiment"], "planted", claim=planted["claim"]),
            module="repro.experiments.e2_planted",
            run=planted["run"], run_batch=planted["run_batch"],
        )
        breaches = _contract_breaches(
            driver, dict.fromkeys(planted["namespace"]), planted["source"]
        )
        assert breaches == ([breach] if breach else [])


def listed_params(driver) -> list:
    """The parameter column ``campaign list`` prints for a driver."""
    return driver.row()[3].split(",")


def _contract_breaches(driver, namespace, source):
    """What ``driver`` breaks of the protocol the runner calls it by
    (``namespace`` is its module's globals, ``source`` its text): a bare
    ``run()`` works and takes no ``*args``/``**kwargs``, the id is the
    file-name prefix, ``SPEC`` states a claim and builds every result,
    ``run_batch(params_list)`` needs nothing else, and default binding
    and grouping stay in ``experiments.common.run_batch_by_seed``."""
    breaches = []
    prefix = driver.module.rsplit(".", 1)[-1].split("_", 1)[0]
    if driver.experiment.lower() != prefix:
        breaches.append(
            f"experiment id {driver.experiment!r} does not match the file-name prefix {prefix!r}"
        )
    if not driver.spec.claim:
        breaches.append("SPEC.claim is empty")
    if any(
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ExperimentResult"
        for node in ast.walk(ast.parse(source))
    ):
        breaches.append("the module calls ExperimentResult( instead of SPEC.result")
    for param in inspect.signature(driver.run).parameters.values():
        if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            breaches.append(f"run takes {param}")
        elif param.default is param.empty:
            breaches.append(f"run parameter {param.name!r} has no default")
    if driver.run_batch is not None:
        first, *rest = inspect.signature(driver.run_batch).parameters.values()
        if first.name != "params_list":
            breaches.append(f"run_batch takes {first.name!r} first, not params_list")
        breaches.extend(
            f"run_batch parameter {param.name!r} has no default" for param in rest
            if param.default is param.empty
            and param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)
        )
        breaches.extend(
            f"a run_batch driver defines its own {name}"
            for name in ("_bind_defaults", "_compatible") if name in namespace
        )
    return breaches


# Second values of the names neither an axis declaration nor the type
# rule of ``_second_value`` reaches: choices and non-axis ``None``s.
_SECOND_VALUES = {
    ("E8", "policy"): "skeptical",
    ("E8", "bit_range"): (52, 62),
    ("E9", "target"): "operator",
    ("E10", "target"): "outer",
}


def _as_axis_value(value):
    """An axis parameter's value as the tuple of entries it names."""
    if isinstance(value, str):
        return (value,)
    return tuple(value) if isinstance(value, (list, tuple)) else value


def _second_value(driver, name, value):
    """A value of ``name`` other than ``value`` that ``driver.run`` accepts.

    An axis parameter takes the first declared entry (the axis identity,
    then the registry's names) that differs from ``value``; a number
    steps, a sequence loses its last entry (or repeats a lone one).
    """
    if (driver.experiment, name) in _SECOND_VALUES:
        return _SECOND_VALUES[driver.experiment, name]
    for axis in declared_axes():
        if name in axis.keywords or name == axis.name + "s":
            entries = [axis.identity] if axis.identity else []
            entries += axis.registry().names()
            return next(e for e in entries if _as_axis_value(e) != _as_axis_value(value))
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return 2 * value if value else 0.01
    if isinstance(value, tuple):
        return value[:-1] if len(value) > 1 else value * 2
    raise AssertionError(f"{driver.experiment}: no second value for {name}={value!r}")


class TestRecordedParameters:
    """A result is a function of its recorded parameters, by construction.

    At each driver's smoke parameters, the result records every name
    ``run`` accepts (``faults``/``backend`` only when given), changing
    any one of them changes what is recorded, and re-running with what
    was recorded reproduces the result byte for byte.  Every result,
    from ``run`` and from ``run_batch``, carries ``SPEC``'s id and claim.
    """

    @pytest.mark.parametrize("experiment", default_registry().names())
    def test_results_carry_the_spec(self, experiment):
        driver = default_registry().get(experiment)
        smoke = dict(driver.spec.smoke)
        results = [driver.run(**smoke)]
        if driver.run_batch is not None:
            results += driver.run_batch([smoke, {**smoke, "seed": 7}])
        assert {(result.experiment, result.claim) for result in results} == {
            (driver.spec.experiment, driver.spec.claim)
        }

    @pytest.mark.parametrize("experiment", default_registry().names())
    def test_every_accepted_name_is_recorded(self, experiment):
        driver = default_registry().get(experiment)
        smoke = dict(driver.spec.smoke)
        base = driver.run(**smoke)
        defaults = {
            name: param.default
            for name, param in inspect.signature(driver.run).parameters.items()
        }
        current = {**defaults, **smoke}
        assert set(base.parameters) == {
            name for name, value in current.items()
            if value is not None or name not in ("faults", "backend")
        }
        again = driver.run(**base.parameters)
        assert spec_module.canonical_json(again.to_dict()) == spec_module.canonical_json(
            base.to_dict()
        )
        for name, value in current.items():
            second = _second_value(driver, name, value)
            changed = driver.run(**{**smoke, name: second})
            assert changed.parameters[name] != base.parameters.get(name), (name, second)
            assert {k: v for k, v in changed.parameters.items() if k != name} == {
                k: v for k, v in base.parameters.items() if k != name
            }, name


def _fast_scenarios(n=3):
    """A few sub-millisecond E7 scenarios for runner tests."""
    return Sweep(
        "E7", axes={"node_mtbf_years": tuple(float(i + 1) for i in range(n))},
        tag="test",
    ).expand()


class TestResultStore:
    def test_round_trip(self, tmp_path):
        driver = default_registry().get("E7")
        result = driver.run(**driver.spec.smoke)
        path = tmp_path / "store.jsonl"
        store = ResultStore(str(path))
        record = store.append(
            "abc123", experiment="E7", tag="t", params={"x": 1},
            result=result, elapsed=0.5,
        )
        reloaded = ResultStore(str(path))
        assert reloaded.keys() == ["abc123"]
        got = reloaded.get("abc123")
        assert got.params == {"x": 1}
        assert got.elapsed == 0.5
        round_tripped = ExperimentResult.from_dict(got.result)
        assert round_tripped.experiment == "E7"
        assert round_tripped.table.render() == result.table.render()
        assert record.result == got.result

    def test_line_is_the_whole_record_dumped_and_splice_keeps_it(self):
        # The line a worker's canonical text is spliced into is the line
        # json.dumps writes for the whole record: floats, NaN, -0.0,
        # non-ASCII text and nested key order included.
        result = {"summary": {"z": -0.0, "a": float("nan"), "é": [1e-300, 2.5]},
                  "claim": "ε ≤ 1", "table": {"rows": [[1, None, True]]}}
        record = StoreRecord(key="k", experiment="E7", tag="tâg",
                             params={"b": [1, 2], "a": 0.1}, elapsed=0.25,
                             result=result)
        whole = json.dumps(
            {"key": "k", "experiment": "E7", "tag": "tâg", "params": record.params,
             "elapsed": 0.25, "result": result},
            sort_keys=True, separators=(",", ":"),
        )
        text = spec_module.canonical_json(result)
        assert record.to_json() == whole
        assert record.to_json(text) == whole
        assert StoreRecord.from_json(whole).to_json(text) == whole

    def test_append_is_idempotent(self, tmp_path):
        driver = default_registry().get("E7")
        result = driver.run(**driver.spec.smoke)
        path = tmp_path / "store.jsonl"
        store = ResultStore(str(path))
        store.append("k1", experiment="E7", tag="", params={}, result=result)
        size = path.stat().st_size
        store.append("k1", experiment="E7", tag="", params={}, result=result)
        assert path.stat().st_size == size
        assert len(store) == 1

    def test_partial_trailing_line_tolerated(self, tmp_path):
        driver = default_registry().get("E7")
        result = driver.run(**driver.spec.smoke)
        path = tmp_path / "store.jsonl"
        store = ResultStore(str(path))
        store.append("k1", experiment="E7", tag="", params={}, result=result)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "experiment": "E7", "trunc')
        # A trailing partial line (interrupted write) is benign: no
        # warning, unlike real data loss (see the mid-file tests).
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            reloaded = ResultStore(str(path))
        assert reloaded.keys() == ["k1"]

    def test_append_after_interrupted_write_is_not_lost(self, tmp_path):
        driver = default_registry().get("E7")
        result = driver.run(**driver.spec.smoke)
        path = tmp_path / "store.jsonl"
        store = ResultStore(str(path))
        store.append("k1", experiment="E7", tag="", params={}, result=result)
        store.append("k2", experiment="E7", tag="", params={}, result=result)
        good = path.read_bytes()
        # A run killed mid-append: the file ends in half a record.
        path.write_bytes(good + b'{"key": "k3", "experiment": "E7", "trunc')
        resumed = ResultStore(str(path))
        assert resumed.keys() == ["k1", "k2"]
        resumed.append("k3", experiment="E7", tag="", params={}, result=result)
        resumed.append("k4", experiment="E7", tag="", params={}, result=result)
        with pytest.warns(RuntimeWarning, match=r"line 3"):
            reloaded = ResultStore(str(path))
        assert reloaded.keys() == ["k1", "k2", "k3", "k4"]
        # The partial line stays (append-only), now reported mid-file.
        assert path.read_bytes().startswith(good + b'{"key": "k3", "experiment": "E7", "trunc\n{')
        assert b"\n\n" not in path.read_bytes()

    def test_clean_and_empty_files_gain_no_blank_line(self, tmp_path):
        driver = default_registry().get("E7")
        result = driver.run(**driver.spec.smoke)
        reference = tmp_path / "reference.jsonl"
        one_go = ResultStore(str(reference))
        for key in ("k1", "k2"):
            one_go.append(key, experiment="E7", tag="", params={}, result=result)
        # Appending to a clean file from a second instance, to an empty
        # file and to one in a directory that does not exist yet all
        # write exactly the bytes a single instance writes.
        resumed = tmp_path / "resumed.jsonl"
        ResultStore(str(resumed)).append(
            "k1", experiment="E7", tag="", params={}, result=result)
        ResultStore(str(resumed)).append(
            "k2", experiment="E7", tag="", params={}, result=result)
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        nested = tmp_path / "not" / "yet" / "there.jsonl"
        for path in (empty, nested):
            store = ResultStore(str(path))
            for key in ("k1", "k2"):
                store.append(key, experiment="E7", tag="", params={}, result=result)
        for path in (resumed, empty, nested):
            assert path.read_bytes() == reference.read_bytes()

    def test_directory_created_once_per_instance(self, tmp_path, monkeypatch):
        driver = default_registry().get("E7")
        result = driver.run(**driver.spec.smoke)
        made = []
        real_makedirs = os.makedirs

        def spy(path, *args, **kwargs):
            made.append(path)
            return real_makedirs(path, *args, **kwargs)

        monkeypatch.setattr(os, "makedirs", spy)
        store = ResultStore(str(tmp_path / "deep" / "store.jsonl"))
        assert made == []  # nothing is created before the first append
        for key in ("k1", "k2", "k3"):
            store.append(key, experiment="E7", tag="", params={}, result=result)
        assert made == [str(tmp_path / "deep")]
        assert len(ResultStore(store.path)) == 3

    def test_corrupt_midfile_line_warns_and_verifies(self, tmp_path):
        driver = default_registry().get("E7")
        result = driver.run(**driver.spec.smoke)
        path = tmp_path / "store.jsonl"
        store = ResultStore(str(path))
        store.append("k1", experiment="E7", tag="", params={}, result=result)
        # Corrupt the middle of the file, then append a valid record
        # after it: that is silent data loss, not an interrupted write.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{corrupt mid-file line}\n")
        store.append("k2", experiment="E7", tag="", params={}, result=result)
        with pytest.warns(RuntimeWarning, match=r"line 2"):
            reloaded = ResultStore(str(path))
        assert sorted(reloaded.keys()) == ["k1", "k2"]

class TestCampaignRunner:
    def test_runs_and_persists(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.jsonl"))
        outcomes = CampaignRunner(store).run(_fast_scenarios())
        assert [o.status for o in outcomes] == ["completed"] * 3
        assert len(store) == 3
        for outcome in outcomes:
            assert outcome.experiment_result().experiment == "E7"

    def test_seed_injected_deterministically(self):
        runner = CampaignRunner(base_seed=7)
        scenario = Scenario("E1", {"grid": 8})
        resolved = runner.resolve(scenario)
        assert resolved.params["seed"] == derive_seed(7, scenario.key)
        assert runner.resolve(scenario).params == resolved.params
        # A pinned seed is never overridden.
        pinned = runner.resolve(Scenario("E1", {"grid": 8, "seed": 5}))
        assert pinned.params["seed"] == 5
        # Drivers without a seed parameter are left alone.
        assert "seed" not in runner.resolve(Scenario("E7", {})).params

    @pytest.mark.parametrize("batch", [1, 0])
    def test_run_never_inspects_a_registered_driver(self, tmp_path, batch):
        # A fresh interpreter, so no earlier test can have built (and so
        # hidden) anything the campaign path would otherwise inspect.
        script = f"""
import inspect
import pytest
from repro.campaign.registry import default_registry
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import Scenario, Sweep
from repro.campaign.store import ResultStore

registry = default_registry()  # built (and inspected) before the spy

def forbidden(*args, **kwargs):
    raise AssertionError("inspect.signature called on the campaign path")

inspect.signature = forbidden
scenarios = Sweep("E7", axes={{"node_mtbf_years": (1.0, 2.0)}}).expand() + Sweep(
    "E1", axes={{"seed": (5, 6)}}, base=dict(grid=6, n_trials=1, inject_at=3)
).expand() + [Scenario("E8", dict(grid=6, solvers=("gmres",), policy="none"))]
path = {str(tmp_path / "s.jsonl")!r}
executed = CampaignRunner(ResultStore(path), registry=registry, batch={batch}).run(scenarios)
assert [o.status for o in executed] == ["completed"] * 5, [o.error for o in executed]
cached = CampaignRunner(ResultStore(path), registry=registry, batch={batch}).run(scenarios)
assert [o.status for o in cached] == ["cached"] * 5
assert [o.key for o in cached] == [o.key for o in executed]
with pytest.raises(ValueError, match="does not accept"):
    CampaignRunner(registry=registry).resolve(Scenario("E7", {{"bogus": 1}}))
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.path.dirname(__file__), "..", "src"),
                          env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_run_batch_does_not_reinspect(self, monkeypatch):
        registry = default_registry()
        inspected = []
        real_signature = inspect.signature

        def spy(obj, *args, **kwargs):
            inspected.append(obj)
            return real_signature(obj, *args, **kwargs)

        monkeypatch.setattr(inspect, "signature", spy)
        tiny = {
            "E1": dict(grid=6, n_trials=1, inject_at=3),
            "E8": dict(grid=6, solvers=("gmres",), policy="none"),
            "E9": dict(grid=6, solvers=("cg",), preconds=("jacobi",)),
            "E10": dict(grid=6, solvers=("cg",), precisions=("fp32",),
                        preconds=("none",)),
        }
        for experiment, params in tiny.items():
            driver = registry.get(experiment)
            lanes = [dict(params, seed=1), dict(params, seed=2)]
            first = driver.run_batch(lanes)
            second = driver.run_batch(lanes)
            assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
            assert driver.run not in inspected

    def test_keys_are_hashed_once_per_scenario(self, tmp_path, monkeypatch):
        calls = []

        def spy(experiment, params):
            calls.append(experiment)
            return scenario_key(experiment, params)

        monkeypatch.setattr(spec_module, "scenario_key", spy)
        n = 4
        path = str(tmp_path / "s.jsonl")
        unseeded = Sweep("E2", axes={"sizes": [(4 + i,) for i in range(n)]},
                         base=dict(n_trials=1)).expand()
        # Executing run: the unseeded key (seed derivation) and the
        # resolved key (store, ledger, outcome) -- each hashed once.
        executed = CampaignRunner(ResultStore(path)).run(unseeded)
        assert [o.status for o in executed] == ["completed"] * n
        assert len(calls) <= 2 * n
        # Cached re-run of scenarios that carry their seed: one hash
        # each on first use, none when the same objects come back.
        seeded = [Scenario(o.scenario.experiment, dict(o.scenario.params))
                  for o in executed]
        del calls[:]
        first = CampaignRunner(ResultStore(path)).run(seeded)
        assert [o.status for o in first] == ["cached"] * n
        assert len(calls) <= n
        del calls[:]
        again = CampaignRunner(ResultStore(path)).run(seeded)
        assert [o.key for o in again] == [o.key for o in executed]
        assert calls == []

    def test_resume_after_interrupted_write_stays_cached(self, tmp_path):
        path = tmp_path / "s.jsonl"
        scenarios = _fast_scenarios(3)
        CampaignRunner(ResultStore(str(path))).run(scenarios)
        ledger_path = FailureLedger.path_for(str(path))
        # Kill the first run in the middle of its third append, in the
        # store and in the ledger.
        for file in (str(path), ledger_path):
            with open(file, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines(keepends=True)
            assert len(lines) == 3
            with open(file, "w", encoding="utf-8") as handle:
                handle.write(lines[0] + lines[1] + lines[2][: len(lines[2]) // 2])
        resumed = CampaignRunner(ResultStore(str(path))).run(scenarios)
        assert [o.status for o in resumed] == ["cached", "cached", "completed"]
        with pytest.warns(RuntimeWarning, match="line 3"):
            store = ResultStore(str(path))
        assert len(store) == 3
        # The ledger's partial line is mid-file now too, and warns alike.
        with pytest.warns(RuntimeWarning, match="line 3"):
            rerun = CampaignRunner(store).run(scenarios)
        assert [o.status for o in rerun] == ["cached"] * 3
        # The ledger kept the resumed attempt's terminal record.
        with pytest.warns(RuntimeWarning, match="line 3"):
            outcomes = FailureLedger(ledger_path).outcomes()
        assert {o.key for o in resumed} == set(outcomes)
        assert outcomes[resumed[2].key].outcome == "completed"

    def test_unknown_param_rejected_at_resolve(self):
        with pytest.raises(ValueError, match="does not accept"):
            CampaignRunner().run([Scenario("E7", {"bogus": 1})])

    def test_driver_failure_reported_not_raised(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.jsonl"))
        # Valid parameter name, invalid value: the driver raises at run
        # time and the outcome carries the traceback.
        outcomes = CampaignRunner(store).run(
            [Scenario("E2", {"sizes": (0,), "n_trials": 1})] + _fast_scenarios(1)
        )
        assert outcomes[0].status == "failed"
        assert outcomes[0].error and "Traceback" in outcomes[0].error
        assert outcomes[1].status == "completed"
        assert len(store) == 1  # failures are not persisted


class TestBuiltinCampaigns:
    def test_names(self):
        assert builtin_campaign_names() == [
            "default", "precision", "precond", "replicas", "smoke", "solvers"
        ]
        with pytest.raises(KeyError):
            builtin_campaign("nope")

    @pytest.mark.parametrize(
        "name", ["smoke", "default", "solvers", "precond", "precision", "replicas"]
    )
    def test_shape(self, name):
        scenarios = builtin_campaign(name)
        # Acceptance: a meaningful sweep with unique keys (no silently
        # duplicated work).  The broad campaigns span >= 3 experiments;
        # the "solvers" campaign is the solver x policy x fault grid of
        # E8 (every scenario itself runs the whole solver registry) and
        # the "precond" campaign the solver x preconditioner x fault x
        # placement grid of E9 (solver and preconditioner axes swept
        # inside the driver).
        if name == "solvers":
            assert len(scenarios) >= 6
            assert {s.experiment for s in scenarios} == {"E8"}
            policies = {s.params["policy"] for s in scenarios}
            assert {"none", "guard", "skeptical"} <= policies
        elif name == "precond":
            assert len(scenarios) >= 5
            assert {s.experiment for s in scenarios} == {"E9"}
            targets = {s.params.get("target") for s in scenarios}
            assert {"precond", "operator"} <= targets
        elif name == "precision":
            assert len(scenarios) >= 4
            assert {s.experiment for s in scenarios} == {"E10"}
            targets = {s.params.get("target") for s in scenarios}
            assert {"inner", "outer"} <= targets
        else:
            assert len(scenarios) >= 12
            assert len({s.experiment for s in scenarios}) >= 3
        assert len({s.key for s in scenarios}) == len(scenarios)
        registry = default_registry()
        for scenario in scenarios:
            registry.get(scenario.experiment).validate_params(scenario.params)


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E7" in out and "smoke" in out

    def test_list_shows_parameters_in_signature_order(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for driver in default_registry():
            names = ",".join(
                p.name for p in inspect.signature(driver.run).parameters.values()
            )
            assert f" {names} " in out

    def test_list_campaign_scenarios(self, capsys):
        assert cli_main(["list", "smoke", "--experiment", "E7"]) == 0
        out = capsys.readouterr().out
        assert "E7" in out and "E1" not in out.split("scenarios)")[1]

    def test_run_report_cycle(self, tmp_path, capsys):
        store = str(tmp_path / "cli.jsonl")
        args = ["run", "smoke", "--experiment", "E7", "--workers", "1",
                "--store", store]
        assert cli_main(args) == 0
        first = capsys.readouterr().out
        assert "ran" in first and "0 failed" in first

        # Re-run: everything cached, store unchanged.
        assert cli_main(args) == 0
        second = capsys.readouterr().out
        assert "0 ran" in second and "cached" in second

        assert cli_main(["report", "--store", store]) == 0
        report = capsys.readouterr().out
        assert "campaign rollup" in report and "E7" in report

    def test_report_empty_store(self, tmp_path, capsys):
        assert cli_main(["report", "--store", str(tmp_path / "none.jsonl")]) == 0
        assert "no completed scenarios" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["run", "nope"], "unknown campaign 'nope'"),
        (["run", "smoke", "--experiment", "E99"], "unknown experiment 'E99'"),
        (["run", "smoke", "--workers", "0"], "workers must be >= 1"),
        (["run", "smoke", "--chaos", "worker_crash:q=1"], "does not take parameters"),
        (["run", "smoke", "--batch", "-1"], "batch must be >= 0"),
        (["run", "smoke", "--retries", "0"], "max_attempts must be >= 1"),
        (["run", "smoke", "--timeout", "-1"], "timeout must be positive"),
        (["run", "smoke", "--backoff", "-1"], "backoff must be >= 0"),
        (["list", "--experiment", "E99"], "unknown experiment 'E99'"),
        (["list", "nope"], "unknown campaign 'nope'"),
    ])
    def test_bad_input_is_a_usage_error(self, argv, message, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(CampaignRunner, "run", lambda runner, scenarios: ran.append(1))
        if argv[0] == "run":
            argv = [*argv, "--store", str(tmp_path / "bad.jsonl")]
        with pytest.raises(SystemExit) as exited:
            cli_main(argv)
        assert exited.value.code == 2
        assert ran == [] and sorted(tmp_path.iterdir()) == []
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: python -m repro.campaign")
        assert error.startswith("python -m repro.campaign: error: ") and message in error
