"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.campaign.spec import Scenario, scenario_key
from repro.reliability.bitflip import flip_bit_array, flip_bit_float64
from repro.linalg.blas import back_substitution, back_substitution_many, givens_rotation
from repro.linalg.checksum import checked_matmul
from repro.comm.distributed import block_ranges
from repro.lflr.coarse import prolong_field, restrict_field
from repro.machine.efficiency import cpr_efficiency, daly_optimal_interval, lflr_efficiency
from repro.comm.ops import MAX, MIN, SUM
from repro.skeptical.checks import (
    finite_check,
    hessenberg_bound_check,
    monotonicity_check,
    orthogonality_check,
    residual_consistency_check,
)
from repro.skeptical.gmres_sdc import SdcChecks, SdcCohort

from conftest import csr_from_dense

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


class TestBitflipProperties:
    @given(value=finite_floats, bit=st.integers(0, 63))
    def test_flip_twice_is_identity(self, value, bit):
        once = flip_bit_float64(value, bit)
        twice = flip_bit_float64(once, bit)
        assert twice == value or (np.isnan(twice) and np.isnan(value))

    @given(value=st.floats(allow_nan=False, allow_infinity=False), bit=st.integers(0, 63))
    def test_flip_always_changes_the_pattern(self, value, bit):
        flipped = flip_bit_float64(value, bit)
        original_bits = np.float64(value).view(np.uint64)
        flipped_bits = np.float64(flipped).view(np.uint64)
        assert original_bits != flipped_bits

    @given(
        data=hnp.arrays(np.float64, st.integers(1, 30), elements=finite_floats),
        bit=st.integers(0, 63),
        seed=st.integers(0, 2**16),
    )
    def test_array_flip_touches_exactly_one_element(self, data, bit, seed):
        rng = np.random.default_rng(seed)
        index = int(rng.integers(0, data.size))
        corrupted = flip_bit_array(data, index, bit)
        same = corrupted.view(np.uint64) == data.view(np.uint64)
        assert same.sum() == data.size - 1


class TestCsrProperties:
    @given(
        dense=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            elements=st.floats(allow_nan=False, allow_infinity=False,
                               min_value=-100, max_value=100),
        )
    )
    @settings(max_examples=50)
    def test_dense_roundtrip_and_matvec(self, dense):
        matrix = csr_from_dense(dense)
        assert np.allclose(matrix.to_dense(), dense)
        x = np.ones(dense.shape[1])
        assert np.allclose(matrix.matvec(x), dense @ x)

    @given(
        dense=hnp.arrays(
            np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
            elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
        ),
        y_seed=st.integers(0, 1000),
    )
    @settings(max_examples=50)
    def test_rmatvec_is_transpose_matvec(self, dense, y_seed):
        matrix = csr_from_dense(dense)
        y = np.random.default_rng(y_seed).standard_normal(dense.shape[0])
        assert np.allclose(matrix.rmatvec(y), dense.T @ y)


class TestBlasProperties:
    @given(a=finite_floats, b=finite_floats)
    def test_givens_is_orthonormal_and_annihilates(self, a, b):
        c, s = givens_rotation(a, b)
        assert c * c + s * s == pytest.approx(1.0, abs=1e-12)
        assert abs(c * b - s * a) <= 1e-9 * max(abs(a), abs(b), 1.0)

    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 10_000),
    )
    def test_back_substitution_solves_triangular_systems(self, n, seed):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.standard_normal((n, n))) + (n + 1) * np.eye(n)
        rhs = rng.standard_normal(n)
        y = back_substitution(upper, rhs)
        assert np.allclose(upper[:n, :n] @ y, rhs, atol=1e-8)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        G=st.integers(1, 63), m=st.integers(1, 40), data=st.data(),
        scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**16),
        pivot=st.sampled_from([None, 0.0, -0.0, float("nan"), float("inf")]),
    )
    def test_back_substitution_many_is_the_per_lane_solve(self, G, m, data, scale, seed, pivot):
        # Cohort-shaped stacks: a (G, m+1, m) Hessenberg stack and a
        # step-major g table, read through the strided views the lockstep
        # cycle tail hands the kernel (a basic slice of slots, or a gather).
        rng = np.random.default_rng(seed)
        hess = rng.standard_normal((G, m + 1, m)) * scale
        table = rng.standard_normal((3 * m + 3, G)) * scale
        g = table[m : 2 * m + 1]
        k = data.draw(st.integers(1, m), label="k")
        slots = sorted(data.draw(st.sets(st.integers(0, G - 1), min_size=1), label="slots"))
        g[k - 1, slots[:: 2]] = -0.0  # signed zeros reach y through the division
        if pivot is not None:  # one lane's pivot is zero or not finite
            bad = data.draw(st.sampled_from(slots), label="bad lane")
            row = data.draw(st.integers(0, k - 1), label="pivot row")
            hess[bad, row, row] = pivot
        contiguous = slots == list(range(slots[0], slots[-1] + 1))
        upper = hess[slots[0] : slots[-1] + 1, :k, :k] if contiguous else hess[slots, :k, :k]
        rhs = g[:k, slots].T
        if pivot is not None:
            with pytest.raises(np.linalg.LinAlgError) as per_lane:
                back_substitution(hess[bad][:k, :k], g[:k, bad])
            with pytest.raises(np.linalg.LinAlgError) as stacked:
                back_substitution_many(upper, rhs)
            assert str(stacked.value) == str(per_lane.value)
            return
        ys = back_substitution_many(upper, rhs)
        for y_many, slot in zip(ys, slots):
            y = back_substitution(hess[slot][:k, :k], g[:k, slot])
            assert np.array_equal(y_many, y)
            assert np.array_equal(np.signbit(y_many), np.signbit(y))


class TestChecksumProperties:
    @given(
        n=st.integers(2, 10),
        seed=st.integers(0, 10_000),
        scale=st.floats(min_value=0.1, max_value=1e3),
    )
    @settings(max_examples=40)
    def test_single_corruption_always_detected_and_corrected(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))

        def corrupt(c):
            c = c.copy()
            c[i, j] += scale * (1.0 + abs(c[i, j]))
            return c

        product, report = checked_matmul(a, b, corrupt=corrupt, correct=True)
        assert report.corrected
        assert np.allclose(product, a @ b, atol=1e-6)

    @given(n=st.integers(2, 12), seed=st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_clean_product_never_flagged(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        _, report = checked_matmul(a, b)
        assert report.ok


class TestPartitionProperties:
    @given(n=st.integers(0, 500), blocks=st.integers(1, 32))
    def test_block_ranges_partition_exactly(self, n, blocks):
        ranges = block_ranges(n, blocks)
        assert len(ranges) == blocks
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        sizes = [stop - start for start, stop in ranges]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
            assert e1 == s2


class TestReduceOpProperties:
    @given(values=st.lists(st.integers(-1000, 1000), min_size=1, max_size=20))
    def test_sum_matches_python(self, values):
        assert SUM.reduce(list(values)) == sum(values)

    @given(values=st.lists(finite_floats, min_size=1, max_size=20))
    def test_min_max_bracket_all_values(self, values):
        low = MIN.reduce(list(values))
        high = MAX.reduce(list(values))
        assert low == min(values) and high == max(values)
        assert all(low <= v <= high for v in values)


class TestCoarseModelProperties:
    @given(
        n=st.integers(4, 128),
        factor=st.integers(1, 8),
        seed=st.integers(0, 1000),
    )
    def test_restrict_prolong_preserves_shape_and_constants(self, n, factor, seed):
        rng = np.random.default_rng(seed)
        constant = float(rng.uniform(-5, 5))
        field = np.full(n, constant)
        rebuilt = prolong_field(restrict_field(field, factor), n, factor)
        assert rebuilt.shape == (n,)
        assert np.allclose(rebuilt, constant)

    @given(n=st.integers(4, 64), factor=st.integers(1, 6))
    def test_restriction_reduces_size(self, n, factor):
        coarse = restrict_field(np.arange(float(n)), factor)
        assert coarse.size == int(np.ceil(n / factor))


class TestEfficiencyProperties:
    @given(
        checkpoint=st.floats(min_value=1.0, max_value=1e4),
        mtbf=st.floats(min_value=10.0, max_value=1e9),
    )
    def test_efficiencies_in_unit_interval(self, checkpoint, mtbf):
        assert 0.0 <= cpr_efficiency(checkpoint, mtbf) <= 1.0
        assert 0.0 <= lflr_efficiency(min(checkpoint, mtbf), mtbf) <= 1.0

    @given(
        checkpoint=st.floats(min_value=1.0, max_value=1e3),
        mtbf=st.floats(min_value=1e3, max_value=1e8),
    )
    def test_daly_interval_positive_and_bounded(self, checkpoint, mtbf):
        interval = daly_optimal_interval(checkpoint, mtbf)
        assert interval >= checkpoint * 0.99
        assert np.isfinite(interval)

    @given(mtbf=st.floats(min_value=100.0, max_value=1e7))
    def test_cpr_efficiency_monotone_in_checkpoint_cost(self, mtbf):
        cheap = cpr_efficiency(1.0, mtbf)
        expensive = cpr_efficiency(50.0, mtbf)
        assert cheap >= expensive - 1e-12


# ----------------------------------------------------------------------
# Scenario keys: memoised on the object, equal to the function
# ----------------------------------------------------------------------
_param_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
)
_param_value = st.recursive(
    _param_scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)
_param_dict = st.dictionaries(
    st.sampled_from(["grid", "solvers", "faults", "seed", "tol", "nested"]),
    _param_value, max_size=5,
)


def _as_lists(value):
    """The flavour a value comes back in from JSON: tuples become lists."""
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    return value


class TestScenarioKeyProperties:
    @settings(max_examples=100, deadline=None)
    @given(experiment=st.sampled_from(["E1", "e8", "E10"]), params=_param_dict)
    def test_key_is_the_function_of_experiment_and_params(self, experiment, params):
        scenario = Scenario(experiment, params)
        assert scenario.key == scenario_key(experiment, params)
        assert scenario.key == scenario.key  # the memoised read
        # Equal scenarios have equal keys, whatever the container flavour.
        twin = Scenario(experiment.upper(), _as_lists(params))
        assert twin.key == scenario.key
        same = Scenario(experiment, dict(params))
        assert same == scenario and same is not scenario and same.key == scenario.key

    @settings(max_examples=100, deadline=None)
    @given(params=_param_dict, overrides=_param_dict)
    def test_with_params_never_stales_a_key(self, params, overrides):
        scenario = Scenario("E8", params, tag="t")
        before = scenario.key
        derived = scenario.with_params(**overrides)
        merged = {**params, **overrides}
        assert derived is not scenario and derived.tag == "t"
        assert derived.params == merged
        assert derived.key == scenario_key("E8", merged)
        assert scenario.key == before == scenario_key("E8", params)


# ----------------------------------------------------------------------
# Skeptical checks: the fast paths against the formulations they replaced
# ----------------------------------------------------------------------
# The oracles below are the bodies the four array checks had before they
# were cut down to the minimum number of NumPy calls; each returns
# ``(passed, measure, threshold, cost_flops)``.


def _finite_oracle(array):
    arr = np.asarray(array)
    n_bad = int(np.size(arr) - np.count_nonzero(np.isfinite(arr)))
    return n_bad == 0, float(n_bad), 0.0, float(arr.size)


def _orthogonality_oracle(basis, n_vectors=None, tol=1e-8):
    basis = np.asarray(basis, dtype=np.float64)
    k = basis.shape[1] if n_vectors is None else int(n_vectors)
    k = min(k, basis.shape[1])
    if k == 0:
        return True, 0.0, tol, 0.0
    v = basis[:, :k]
    gram = v.T @ v
    defect = (
        float(np.max(np.abs(gram - np.eye(k))))
        if np.all(np.isfinite(gram))
        else float("inf")
    )
    passed = bool(np.isfinite(defect) and defect <= tol)
    return passed, defect, tol, 2.0 * basis.shape[0] * k * k


def _hessenberg_oracle(hessenberg, norm, n_columns=None, safety=2.0):
    h = np.asarray(hessenberg, dtype=np.float64)
    k = h.shape[1] if n_columns is None else int(n_columns)
    k = min(k, h.shape[1])
    if k == 0:
        return True, 0.0, safety * norm, 0.0
    window = h[: k + 1, :k]
    finite = np.isfinite(window)
    max_entry = float(np.max(np.abs(window[finite]))) if finite.any() else 0.0
    if not finite.all():
        max_entry = float("inf")
    threshold = safety * norm
    passed = bool(np.isfinite(max_entry) and max_entry <= threshold)
    return passed, max_entry, threshold, float(window.size)


def _monotonicity_oracle(history, allowed_increase=1.5, window=3):
    values = [float(v) for v in history]
    if len(values) < 2:
        return True, 0.0, allowed_increase, 0.0
    recent = values[-(window + 1):]
    if not all(np.isfinite(v) for v in recent):
        return False, float("inf"), allowed_increase, 0.0
    reference = min(recent[:-1])
    if reference <= 0.0:
        return True, 0.0, allowed_increase, 0.0
    ratio = recent[-1] / reference
    return bool(ratio <= allowed_increase), float(ratio), allowed_increase, 0.0


def _same_verdict(result, oracle):
    """Equal passed/threshold/cost_flops, and ``measure`` bit for bit."""
    passed, measure, threshold, cost_flops = oracle
    assert result.passed is passed
    assert np.float64(result.measure).view(np.uint64) == np.float64(measure).view(np.uint64)
    assert result.threshold == threshold
    assert result.cost_flops == cost_flops


# NaN, +-inf, -0.0 and subnormals included; a quarter of the entries are
# drawn from the specials alone so all-non-finite windows do occur.
_specials = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -2.2e-308, 1.7e308]
)
_any_float = st.one_of(st.floats(width=64), st.floats(-4.0, 4.0), _specials)
_only_nonfinite = st.sampled_from([float("nan"), float("inf"), float("-inf")])


def _matrices(rows, cols, elements=_any_float):
    return hnp.arrays(np.float64, st.tuples(rows, cols), elements=elements)


class TestSkepticalCheckFastPaths:
    @settings(max_examples=150, deadline=None)
    @given(
        array=st.one_of(
            hnp.arrays(np.float64, st.integers(0, 40), elements=_any_float),
            _matrices(st.integers(0, 6), st.integers(0, 6)),
            hnp.arrays(np.float64, st.integers(1, 8), elements=_only_nonfinite),
        )
    )
    def test_finite_check(self, array):
        _same_verdict(finite_check(array), _finite_oracle(array))
        strided = array[::2]  # a view, as the monitor's Hessenberg column is
        _same_verdict(finite_check(strided), _finite_oracle(strided))

    @settings(max_examples=150, deadline=None)
    @given(
        basis=st.one_of(
            _matrices(st.integers(0, 12), st.integers(0, 6)),
            _matrices(st.integers(1, 12), st.integers(1, 6), st.floats(-1.0, 1.0)),
        ),
        n_vectors=st.one_of(st.none(), st.integers(0, 8)),
        tol=st.sampled_from([1e-8, 1e-6, 0.5, 1e300]),
    )
    def test_orthogonality_check(self, basis, n_vectors, tol):
        with np.errstate(all="ignore"):
            result = orthogonality_check(basis, n_vectors, tol=tol)
            oracle = _orthogonality_oracle(basis, n_vectors, tol)
        _same_verdict(result, oracle)

    @settings(max_examples=150, deadline=None)
    @given(
        hessenberg=st.one_of(
            _matrices(st.integers(0, 8), st.integers(0, 7)),
            _matrices(st.integers(1, 8), st.just(1)),  # one-column Hessenberg
            _matrices(st.integers(1, 5), st.integers(1, 4), _only_nonfinite),
            _matrices(st.integers(1, 8), st.integers(1, 7), st.floats(-9.0, 9.0)),
        ),
        n_columns=st.one_of(st.none(), st.integers(0, 9)),
        norm=st.sampled_from([5e-324, 1.0, 7.5, 1e308]),
        safety=st.sampled_from([1.0, 2.0, 4.0]),
    )
    def test_hessenberg_bound_check(self, hessenberg, n_columns, norm, safety):
        with np.errstate(all="ignore"):
            result = hessenberg_bound_check(hessenberg, norm, n_columns, safety=safety)
            oracle = _hessenberg_oracle(hessenberg, norm, n_columns, safety)
        _same_verdict(result, oracle)
        # The solver's own call shape: a window of a larger work array.
        padded = np.full((hessenberg.shape[0] + 2, hessenberg.shape[1] + 3), 1e99)
        padded[: hessenberg.shape[0], : hessenberg.shape[1]] = hessenberg
        with np.errstate(all="ignore"):
            result = hessenberg_bound_check(padded, norm, n_columns, safety=safety)
            oracle = _hessenberg_oracle(padded, norm, n_columns, safety)
        _same_verdict(result, oracle)

    @settings(max_examples=200, deadline=None)
    @given(
        history=st.lists(
            st.one_of(_any_float, st.floats(1e-3, 1e3)), min_size=0, max_size=9
        ),
        window=st.integers(1, 12),  # often longer than the history
        allowed_increase=st.sampled_from([1.0, 1.5, 100.0]),
        as_array=st.booleans(),
    )
    def test_monotonicity_check(self, history, window, allowed_increase, as_array):
        seen = np.asarray(history, dtype=np.float64) if as_array else history
        _same_verdict(
            monotonicity_check(seen, allowed_increase=allowed_increase, window=window),
            _monotonicity_oracle(history, allowed_increase, window),
        )
        _same_verdict(monotonicity_check(seen), _monotonicity_oracle(history))

    @pytest.mark.parametrize("history", [[], [3.0], [3.0, float("nan")], [0.0, 1.0],
                                         [-0.0, 1.0], [5e-324, 1.0], [1.0, 1.5],
                                         [float("inf"), 1.0, 1.0, 1.0, 1.0]])
    def test_monotonicity_short_histories(self, history):
        for window in (1, 3, 50):
            _same_verdict(
                monotonicity_check(history, window=window),
                _monotonicity_oracle(history, window=window),
            )

    def test_degenerate_shapes(self):
        _same_verdict(orthogonality_check(np.zeros((5, 0))), _orthogonality_oracle(np.zeros((5, 0))))
        _same_verdict(orthogonality_check(np.zeros((0, 3))), _orthogonality_oracle(np.zeros((0, 3))))
        for shape in ((4, 0), (0, 3), (1, 1), (2, 1)):
            h = np.full(shape, 2.0)
            _same_verdict(hessenberg_bound_check(h, 1.0), _hessenberg_oracle(h, 1.0))
        all_bad = np.full((3, 2), np.nan)
        _same_verdict(hessenberg_bound_check(all_bad, 1.0), _hessenberg_oracle(all_bad, 1.0))
        _same_verdict(finite_check(np.zeros(0)), _finite_oracle(np.zeros(0)))


# ----------------------------------------------------------------------
# The default SDC check set: the one-lane walk and the cohort sweep against
# the monitor they replaced
# ----------------------------------------------------------------------


def _default_sdc_monitor(basis, hess, j, history, true_residual, observation, check_period):
    """The standard SkP check set for GMRES, observed once with the
    fail-stop response: the six check functions in registration order at
    their periods, stopping at the first failure.  ``basis`` holds the
    basis vectors as rows, ``history`` ends with this step's residual and
    ``observation`` is this observation's 1-based count.  Returns
    ``(observations, checks_run, check_flops, detections, failing
    CheckResult or None)``.

    Its periods (5, 10), Hessenberg safety factor (4.0, on a norm
    estimate of 1) and orthogonality tolerance (1e-6) are written out
    here, not read from :class:`SdcChecks`, so a change to one of the
    solver's constants shows as a mismatch."""
    checks = (
        (check_period, lambda: finite_check(basis[j + 1], name="finite_basis")),
        (check_period, lambda: finite_check(hess[: j + 2, j], name="finite_hessenberg")),
        (check_period, lambda: hessenberg_bound_check(hess, 1.0, n_columns=j + 1, safety=4.0)),
        (check_period, lambda: monotonicity_check(history)),
        (5, lambda: orthogonality_check(basis[: j + 2].T, tol=1e-6)),
        (10, lambda: residual_consistency_check(history[-1], true_residual())),
    )
    run, flops = 0, 0.0
    for period, check in checks:
        if observation % period:
            continue
        result = check()
        run += 1
        flops += result.cost_flops
        if not result.passed:
            return observation, run, flops, 1, result
    return observation, run, flops, 0, None


class _SweptLane:
    """A lane as the sweep sees it; its true residual is ``truth`` times the recurrence."""

    def __init__(self, checks, truth):
        self.checks = checks
        self.truth = truth

    def true_residual(self, j, residual):
        return residual * self.truth


_sdc_residual = st.one_of(
    st.floats(1e-3, 1e3), st.sampled_from([0.0, float("nan"), float("inf")])
)
_sdc_lane = st.fixed_dictionaries(
    {
        "skip_slot": st.booleans(),  # a non-SDC lane sits in the slot before
        # Up to 29 earlier observations: at the 10th, 20th and 30th the
        # cheap, orthogonality and consistency checks are all due.
        "observed": st.integers(0, 29),
        "check_period": st.integers(1, 3),
        "history": st.lists(_sdc_residual, max_size=6),
        "residual": _sdc_residual,
        "truth": st.sampled_from([1.0, 1.0 + 1e-9, 2.0, float("nan")]),
        # (array, row draw, column draw, value): NaN/+-inf/1e300, a
        # finite 100 that only the bound or the orthogonality check sees,
        # or a Hessenberg entry at and just past the bound 4.0; or a
        # basis row tilted towards the next by just under and over the
        # orthogonality tolerance 1e-6.
        "corrupt": st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(["basis", "hessenberg"]), st.integers(0, 99),
                st.integers(0, 99),
                st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e300, 100.0,
                                 4.0, float(np.nextafter(4.0, 5.0))]),
            ),
            st.tuples(
                st.just("tilt"), st.integers(0, 99), st.integers(0, 99),
                st.sampled_from([0.999999e-6, 1.000001e-6]),
            ),
        ),
        "seed": st.integers(0, 2**16),
    }
)


# Hessenberg and basis entries the in-place sweep must read as the walk
# does: non-finite, signed zeros, and magnitudes at and past the bound 4.0.
_window_entry = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1.0, -3.5, 4.0,
     float(np.nextafter(4.0, 5.0)), -float(np.nextafter(4.0, 5.0))]
)
_entries = st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99), _window_entry), max_size=6)
_window_lane = st.fixed_dictionaries(
    {
        "skip_slot": st.booleans(),
        "observed": st.integers(0, 29),
        "check_period": st.integers(1, 3),
        "history": st.lists(_sdc_residual, max_size=6),
        "residual": _sdc_residual,
        "truth": st.sampled_from([1.0, 2.0, float("nan")]),
        "zero_window": st.booleans(),
        "hess": _entries,
        "basis": _entries,
        "seed": st.integers(0, 2**16),
    }
)


class TestSdcSweepMatchesTheMonitor:
    M, N = 5, 8  # cycle dimension and vector length of the drawn states

    def _stacks(self, j, lanes):
        """The drawn lanes' slots, basis and Hessenberg stacks and residuals."""
        m, n = self.M, self.N
        slots = []
        for i, lane in enumerate(lanes):
            slots.append((slots[-1] + 1 if slots else 0) + lane["skip_slot"])
        basis = np.zeros((slots[-1] + 1, m + 1, n))
        hess = np.zeros((slots[-1] + 1, m + 1, m))
        residuals = [0.0] * (slots[-1] + 1)
        for lane, slot in zip(lanes, slots):
            rng = np.random.default_rng(lane["seed"])
            basis[slot] = np.linalg.qr(rng.standard_normal((n, m + 1)))[0].T
            hess[slot] = rng.uniform(-1.0, 1.0, (m + 1, m))
            residuals[slot] = lane["residual"]
            if lane["corrupt"] is not None:
                array, row, col, value = lane["corrupt"]
                if array == "tilt":  # one Gram entry off by ``value``
                    basis[slot, row % (j + 2)] += value * basis[slot, (row + 1) % (j + 2)]
                elif array == "basis":  # the newest row, or one the Gram reads
                    basis[slot, j + 1 if row % 2 else row % (j + 2), col % n] = value
                else:  # the Hessenberg window
                    hess[slot, row % (j + 2), col % (j + 1)] = value
        return slots, basis, hess, residuals

    @staticmethod
    def _lane(lane, slot, j, basis, hess, history, observed):
        """A swept lane holding the drawn history and count, and the default
        monitor's counters and failing check on a state with ``history``
        before this step's residual and ``observed`` observations."""
        swept = _SweptLane(SdcChecks(1.0, check_period=lane["check_period"]), lane["truth"])
        swept.checks.observations = lane["observed"]
        swept.checks.residual_history = list(lane["history"])
        residual = lane["residual"]
        with np.errstate(all="ignore"):
            expected = _default_sdc_monitor(
                basis[slot], hess[slot], j, [*history, residual],
                lambda: residual * lane["truth"], observed + 1, lane["check_period"],
            )
        return swept, expected

    @staticmethod
    def _same_counters(swept, expected, failed, built):
        assert set(failed) == {
            lane for (lane, _), (*_, failing) in zip(swept, expected) if failing is not None
        }
        for (lane, _), (observations, run, flops, detections, failing) in zip(swept, expected):
            checks = lane.checks
            assert checks.observations == observations
            assert checks.checks_run == run
            assert checks.check_flops == flops  # exact
            assert checks.detections == detections
            assert built.get(lane) == failing

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(j=st.integers(0, M - 1), lanes=st.lists(_sdc_lane, min_size=1, max_size=4))
    def test_sweep_equals_the_default_monitor(self, j, lanes):
        slots, basis, hess, residuals = self._stacks(j, lanes)
        swept, expected = [], []
        for lane, slot in zip(lanes, slots):
            one, reference = self._lane(
                lane, slot, j, basis, hess, lane["history"], lane["observed"]
            )
            swept.append((one, slot))
            expected.append(reference)

        with np.errstate(all="ignore"):
            walked = {
                lane: lane.checks.walk(lane, j, basis[slot], hess[slot], residuals[slot])
                for lane, slot in swept
            }
            failed = {lane: build for lane, build in walked.items() if build is not None}
            built = {lane: build() for lane, build in failed.items()}
        self._same_counters(swept, expected, failed, built)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(j=st.integers(0, M - 1), lanes=st.lists(_sdc_lane, min_size=1, max_size=4))
    def test_cohort_sweep_equals_the_default_monitor(self, j, lanes):
        # The same draws as a lockstep cohort holds them at step j: the
        # drawn history is carried from earlier cycles, the cycle's own j
        # residuals are rows of the cohort's table (finite: a lane leaves
        # at a non-finite one), and the lanes fold their counters in as
        # they leave after this step.
        slots, basis, hess, residuals = self._stacks(j, lanes)
        res = np.zeros((self.M + 1, len(residuals)))
        table = np.zeros((SdcCohort.ROWS, len(residuals)))
        swept, expected = [], []
        for lane, slot in zip(lanes, slots):
            # Earlier residuals at ratios to this one around the allowed 1.5.
            ratios = np.random.default_rng(lane["seed"]).choice(
                [0.5, 1.0, 1.4, 1.5, np.nextafter(1.5, 2.0), 1.6, 3.0], size=j
            )
            residual = lane["residual"]
            scale = residual if 0.0 < residual < np.inf else 1.0
            cycle = (scale / ratios).tolist()
            res[1 : j + 1, slot] = cycle
            res[j + 1, slot] = lane["residual"]
            one, reference = self._lane(
                lane, slot, j, basis, hess, [*lane["history"], *cycle], lane["observed"] + j
            )
            one.slot = slot
            swept.append((one, slot))
            expected.append(reference)

        cohort = SdcCohort(swept, table, res)
        with np.errstate(all="ignore"):
            failed = cohort.sweep(j, basis, hess, residuals)
            built = {lane: build() for lane, build in failed.items()}
        for lane, _ in swept:
            cohort.leave(lane, j + 1)
        self._same_counters(swept, expected, failed, built)
        for (lane, slot), drawn in zip(swept, lanes):
            history = [*drawn["history"], *res[1 : j + 2, slot].tolist()]
            assert np.array_equal(lane.checks.residual_history, history, equal_nan=True)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(j=st.integers(0, M - 1), lanes=st.lists(_window_lane, min_size=1, max_size=4))
    def test_in_place_sweep_equals_the_walk(self, j, lanes):
        # The cohort forms the Hessenberg bound as max and -min of the
        # window and the Gram defect in place on the leading slots' Grams;
        # on windows holding NaN, +-inf and -0.0 (a whole window of -0.0
        # too) every lane's verdict, failing check and counters must be
        # what the sequential walk gives on the same state.
        slots, basis, hess, residuals = self._stacks(j, [dict(lane, corrupt=None) for lane in lanes])
        res = np.zeros((self.M + 1, len(residuals)))
        table = np.zeros((SdcCohort.ROWS, len(residuals)))
        swept, walked = [], []
        for lane, slot in zip(lanes, slots):
            if lane["zero_window"]:
                hess[slot, : j + 2, : j + 1] = -0.0
            for row, col, value in lane["hess"]:
                hess[slot, row % (j + 2), col % (j + 1)] = value
            for row, col, value in lane["basis"]:
                basis[slot, row % (j + 2), col % self.N] = value
            cycle = [residuals[slot] if 0.0 < residuals[slot] < np.inf else 1.0] * j
            res[1 : j + 1, slot] = cycle
            res[j + 1, slot] = residuals[slot]
            pair = []
            for observed, history in ((lane["observed"], lane["history"]),
                                      (lane["observed"] + j, [*lane["history"], *cycle])):
                one = _SweptLane(SdcChecks(1.0, check_period=lane["check_period"]), lane["truth"])
                one.checks.observations, one.checks.residual_history = observed, list(history)
                one.slot = slot
                pair.append(one)
            swept.append((pair[0], slot))
            walked.append((pair[1], slot))

        cohort = SdcCohort(swept, table, res)
        with np.errstate(all="ignore"):
            failed = cohort.sweep(j, basis, hess, residuals)
            built = {lane: repr(build()) for lane, build in failed.items()}
            walks = [
                lane.checks.walk(lane, j, basis[slot], hess[slot], residuals[slot])
                for lane, slot in walked
            ]
            expected = [None if build is None else repr(build()) for build in walks]
        for (lane, _), (walk, _), failing in zip(swept, walked, expected):
            cohort.leave(lane, j + 1)
            assert built.get(lane) == failing
            ours, theirs = lane.checks, walk.checks
            assert (ours.observations, ours.checks_run, ours.detections) == (
                theirs.observations, theirs.checks_run, theirs.detections
            )
            assert ours.check_flops == theirs.check_flops  # exact
            assert np.array_equal(ours.residual_history, theirs.residual_history, equal_nan=True)
