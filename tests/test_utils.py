"""Tests for repro.utils (rng, validation, tables, logging)."""

from __future__ import annotations

import collections
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    Event,
    EventLog,
    RngFactory,
    Table,
    check_array_1d,
    check_in,
    check_non_negative,
    check_positive,
    check_probability,
)
from repro.utils.rng import as_generator
from repro.utils.validation import check_integer


class TestRngFactory:
    def test_same_name_same_stream(self):
        a = RngFactory(7).spawn("x").standard_normal(5)
        b = RngFactory(7).spawn("x").standard_normal(5)
        assert np.array_equal(a, b)

    def test_different_names_differ(self):
        a = RngFactory(7).spawn("x").standard_normal(5)
        b = RngFactory(7).spawn("y").standard_normal(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngFactory(7).spawn("x").standard_normal(5)
        b = RngFactory(8).spawn("x").standard_normal(5)
        assert not np.array_equal(a, b)

    def test_order_independence(self):
        factory1 = RngFactory(3)
        _ = factory1.spawn("a")
        x1 = factory1.spawn("b").standard_normal(3)
        factory2 = RngFactory(3)
        x2 = factory2.spawn("b").standard_normal(3)
        assert np.array_equal(x1, x2)

    def test_as_generator_accepts_all_forms(self):
        assert isinstance(as_generator(None), np.random.Generator)
        assert isinstance(as_generator(3), np.random.Generator)
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_as_generator_rejects_bad_type(self):
        with pytest.raises(TypeError):
            as_generator("not a seed")


class TestValidation:
    def test_check_positive(self):
        assert check_positive(2.5, "x") == 2.5
        for bad in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                check_positive(bad, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0, "x") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "x")

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError):
                check_probability(bad, "p")

    def test_check_in(self):
        assert check_in("a", ("a", "b"), "mode") == "a"
        with pytest.raises(ValueError):
            check_in("c", ("a", "b"), "mode")

    def test_check_integer(self):
        assert check_integer(3, "n") == 3
        with pytest.raises(TypeError):
            check_integer(3.5, "n")
        with pytest.raises(TypeError):
            check_integer(True, "n")

    def test_check_array_1d(self):
        arr = check_array_1d([1, 2, 3], "v")
        assert arr.shape == (3,)
        with pytest.raises(ValueError):
            check_array_1d(np.zeros((2, 2)), "v")


class TestTable:
    def test_positional_rows_and_render(self):
        table = Table(["n", "err"], title="t")
        table.add_row(10, 0.5)
        text = table.render()
        assert "n" in text and "err" in text and "10" in text

    def test_named_rows(self):
        table = Table(["a", "b"])
        table.add_row(a=1, b=2)
        table.add_row(b=4, a=3)
        assert table.rows == [[1, 2], [3, 4]]

    def test_column_access(self):
        table = Table(["a", "b"])
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("b") == [2, 4]
        with pytest.raises(KeyError):
            table.column("c")

    def test_wrong_cell_count(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_unknown_named_column(self):
        table = Table(["a"])
        with pytest.raises(ValueError):
            table.add_row(b=2)

    def test_mixing_positional_and_named_rejected(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1, b=2)

    def test_bool_formatting(self):
        table = Table(["ok"])
        table.add_row(True)
        assert "yes" in table.render()

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table([])

    def test_to_dict_round_trip(self):
        table = Table(["n", "err", "ok"], title="demo", float_fmt=".6g")
        table.add_row(10, 0.5, True)
        table.add_row(20, 3.25e-4, False)
        data = table.to_dict()
        import json

        json.dumps(data)  # must be JSON-clean
        rebuilt = Table.from_dict(data)
        assert rebuilt.columns == table.columns
        assert rebuilt.title == table.title
        assert rebuilt.float_fmt == table.float_fmt
        assert rebuilt.rows == table.rows
        assert rebuilt.render() == table.render()

    def test_to_dict_normalizes_numpy_cells(self):
        table = Table(["x"])
        table.add_row(np.float64(1.5))
        table.add_row(np.int32(7))
        data = table.to_dict()
        assert data["rows"] == [[1.5], [7]]
        assert isinstance(data["rows"][0][0], float)
        assert isinstance(data["rows"][1][0], int)


def _jsonify_before_pr18(value):
    """``repro.utils.jsonify`` as it stood before PR 18 -- the oracle."""
    from typing import Mapping

    recurse = _jsonify_before_pr18
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [recurse(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): recurse(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [recurse(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((recurse(v) for v in value), key=repr)
    return str(value)


def _type_tree(value):
    if isinstance(value, dict):
        return {k: _type_tree(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_type_tree(v) for v in value]
    return type(value)


class _Pair(tuple):
    """A tuple subclass: must take the general path, same output."""


_JSONIFY_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.integers(min_value=-99, max_value=99).map(np.int32),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.floats(allow_nan=False).map(np.float64),
    st.booleans().map(np.bool_),
    st.lists(st.floats(allow_nan=False), max_size=4).map(np.array),
    st.frozensets(st.integers(min_value=0, max_value=9), max_size=3),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)
_JSONIFY_VALUES = st.recursive(
    _JSONIFY_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=3).map(_Pair),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=3).map(
            collections.OrderedDict
        ),
        st.dictionaries(st.text(max_size=4), inner, max_size=3).map(
            types.MappingProxyType
        ),
    ),
    max_leaves=12,
)


class TestJsonify:
    def test_scalars_and_containers(self):
        from repro.utils import jsonify

        assert jsonify({"a": (1, 2), "b": np.float64(0.5)}) == {"a": [1, 2], "b": 0.5}
        assert jsonify(np.arange(3)) == [0, 1, 2]
        assert jsonify({1: "x"}) == {"1": "x"}
        assert jsonify({True, False}) == [False, True]
        assert jsonify(np.bool_(True)) is True

    def test_mixed_type_set_serializes(self):
        from repro.utils import jsonify

        assert jsonify({1, "auto"}) == sorted([1, "auto"], key=repr)

    def test_unknown_objects_stringified(self):
        from repro.utils import jsonify

        class Weird:
            def __str__(self):
                return "weird"

        assert jsonify(Weird()) == "weird"

    def test_float_precision_preserved(self):
        import json

        from repro.utils import jsonify

        value = 0.1 + 0.2  # not exactly 0.3
        assert json.loads(json.dumps(jsonify(value))) == value

    @settings(max_examples=50, deadline=None)
    @given(value=_JSONIFY_VALUES)
    def test_container_fast_path_equals_the_old_body(self, value):
        """Exact ``dict``/``list``/``tuple`` first changes no output byte."""
        import json

        from repro.utils import jsonify

        new, old = jsonify(value), _jsonify_before_pr18(value)
        assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)
        assert _type_tree(new) == _type_tree(old)


class TestExperimentResult:
    def _result(self, **overrides):
        from repro.experiments.common import ExperimentResult

        table = Table(["a", "b"], title="t")
        table.add_row(1, 2.5)
        fields = dict(
            experiment="E1",
            claim="claim text",
            table=table,
            summary={"rate": 0.5, "ok": True},
            parameters={"grid": 10, "seed": 2013},
        )
        fields.update(overrides)
        return ExperimentResult(**fields)

    def test_to_dict_round_trip(self):
        import json

        result = self._result()
        data = result.to_dict()
        json.dumps(data)
        from repro.experiments.common import ExperimentResult

        rebuilt = ExperimentResult.from_dict(data)
        assert rebuilt.experiment == result.experiment
        assert rebuilt.claim == result.claim
        assert rebuilt.summary == result.summary
        assert rebuilt.parameters == result.parameters
        assert rebuilt.table.render() == result.table.render()
        assert rebuilt.render() == result.render()

    def test_round_trip_normalizes_tuples_and_numpy(self):
        from repro.experiments.common import ExperimentResult

        result = self._result(
            parameters={"sizes": (8, 16)}, summary={"rate": np.float64(0.25)}
        )
        rebuilt = ExperimentResult.from_dict(result.to_dict())
        assert rebuilt.parameters == {"sizes": [8, 16]}
        assert rebuilt.summary == {"rate": 0.25}
        assert isinstance(rebuilt.summary["rate"], float)

    def test_render_escapes_multiline_parameter_values(self):
        result = self._result(parameters={"note": "line1\nline2", "grid": 10})
        text = result.render()
        # The embedded newline must not produce a stray physical line.
        assert "line1\\nline2" in text
        for line in text.splitlines():
            assert not line.startswith("line2")

    def test_render_aligns_long_parameter_lists(self):
        params = {f"param_{i}": "v" * 20 for i in range(6)}
        result = self._result(parameters=params)
        text = result.render()
        lines = text.splitlines()
        assert "parameters:" in lines
        start = lines.index("parameters:")
        block = lines[start + 1 : start + 1 + len(params)]
        assert len(block) == len(params)
        # Keys are left-aligned to a common "=" column.
        eq_columns = {line.index("=") for line in block}
        assert len(eq_columns) == 1

    def test_render_escapes_multiline_summary_values(self):
        result = self._result(summary={"nested": "a\nb", "rate": 0.5})
        text = result.render()
        assert "a\\nb" in text

    def test_render_compact_when_short(self):
        text = self._result().render()
        assert "parameters: grid=10, seed=2013" in text
        assert "summary: ok=True, rate=0.5" in text


class TestEventLog:
    def test_record_and_select(self):
        log = EventLog()
        log.record("bitflip", rank=1, time=0.5, bit=3)
        log.record("recovery", rank=2)
        assert log.count("bitflip") == 1
        assert log.count(rank=2) == 1
        assert log.select("bitflip")[0].details["bit"] == 3

    def test_kinds_order(self):
        log = EventLog()
        log.record("a")
        log.record("b")
        log.record("a")
        assert log.kinds() == ["a", "b"]

    def test_event_matches(self):
        event = Event(kind="a", rank=3)
        assert event.matches(kind="a")
        assert event.matches(rank=3)
        assert not event.matches(kind="b")
        assert not event.matches(rank=1)
