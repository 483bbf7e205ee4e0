"""Tests for the mixed-precision layer (``repro.reliability.precision``).

Five contract surfaces, mirroring ``tests/test_precond.py``:

* :class:`PrecisionSpec` -- string/dict round-trips (hypothesis-driven),
  kind/storage validation, the ``is_default`` identity.
* The registry -- named precisions resolve, :func:`parse_precision`
  accepts every wire form, experiment lists drive the benchmark filter.
* Casting and domains -- ``cast_operator``/``cast_vector`` dtype
  contracts, reduced-precision :class:`Region` wrappers keeping the
  caller in fp64.
* fp64 parity -- ``precision="fp64"`` through every registered solver
  (and through ``batch_solve``) is bit-identical to the default path;
  the default path records no ``info["precision"]`` at all, which is
  what keeps every pre-E10 golden byte-identical.
* The selective-precision claim -- E10's executable form: a reduced-
  precision *inner* stage still reaches the fp64-accurate answer,
  while the same precision on the *whole* solve stalls at the fp32
  residual floor.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import e10_precision
from repro.krylov.registry import batch_solve, default_solver_registry
from repro.linalg import poisson_2d
from repro.reliability.precision import (
    PRECISION_KINDS,
    PrecisionSpec,
    cast_operator,
    cast_vector,
    default_precision_registry,
    parse_precision,
)
from repro.reliability.region import Region, RegionStage

REGISTRY = default_solver_registry()


def _problem(grid: int = 8, seed: int = 17):
    matrix = poisson_2d(grid)
    rng = np.random.default_rng(seed)
    return matrix, rng.standard_normal(matrix.n_rows)


def _solver_params(solver, tol: float = 1e-8) -> dict:
    if solver.name == "ft_gmres":
        return {"tol": tol, "outer_maxiter": 30, "inner_maxiter": 10}
    return {"tol": tol, "maxiter": 400}


# ---------------------------------------------------------------------------
# PrecisionSpec round-trips and validation
# ---------------------------------------------------------------------------

def _spec_strategy():
    def params_for(kind):
        # Valid storage dtypes are bounded above by the compute dtype.
        storages = {"fp64": ["fp16", "fp32", "fp64"], "fp32": ["fp16", "fp32"]}
        return st.fixed_dictionaries(
            {}, optional={"storage": st.sampled_from(storages[kind])}
        )

    return st.sampled_from(sorted(PRECISION_KINDS)).flatmap(
        lambda kind: params_for(kind).map(lambda p: PrecisionSpec(kind, p))
    )


class TestPrecisionSpec:
    @settings(max_examples=100, deadline=None)
    @given(_spec_strategy())
    def test_string_roundtrip_exact(self, spec):
        assert PrecisionSpec.parse(spec.to_string()) == spec

    @settings(max_examples=100, deadline=None)
    @given(_spec_strategy())
    def test_dict_roundtrip_exact(self, spec):
        assert PrecisionSpec.from_dict(spec.to_dict()) == spec

    def test_parse_examples(self):
        assert PrecisionSpec.parse("fp64") == PrecisionSpec("fp64")
        assert PrecisionSpec.parse("fp32").compute_dtype == np.float32
        spec = PrecisionSpec.parse("fp32:storage=fp16")
        assert spec.compute_dtype == np.float32
        assert spec.storage_dtype == np.float16
        assert spec.to_string() == "fp32:storage=fp16"

    def test_loose_dict_form(self):
        assert PrecisionSpec.from_dict({"kind": "fp32", "storage": "fp16"}) == (
            PrecisionSpec("fp32", {"storage": "fp16"})
        )

    def test_unknown_kind_rejected_with_known_kinds(self):
        with pytest.raises(ValueError, match="fp32"):
            PrecisionSpec("fp8")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="storage"):
            PrecisionSpec("fp32", {"sotrage": "fp16"})

    def test_unknown_storage_dtype_rejected(self):
        with pytest.raises(ValueError, match="fp16"):
            PrecisionSpec("fp32", {"storage": "bf16"})

    def test_storage_wider_than_compute_rejected(self):
        with pytest.raises(ValueError, match="wider"):
            PrecisionSpec("fp32", {"storage": "fp64"})

    def test_case_insensitive(self):
        spec = PrecisionSpec("FP32", {"storage": "FP16"})
        assert spec.kind == "fp32"
        assert spec.storage_dtype == np.float16

    def test_is_default_identity(self):
        assert PrecisionSpec("fp64").is_default
        assert PrecisionSpec("fp64", {"storage": "fp64"}).is_default
        assert not PrecisionSpec("fp64", {"storage": "fp32"}).is_default
        assert not PrecisionSpec("fp32").is_default


# ---------------------------------------------------------------------------
# Registry and parse_precision
# ---------------------------------------------------------------------------

class TestPrecisionRegistry:
    def test_names_cover_the_builtin_set(self):
        assert {"fp64", "fp32", "fp32_fp16"} <= set(default_precision_registry().names())

    def test_parse_precision_wire_forms(self):
        assert parse_precision(None) == PrecisionSpec("fp64")
        assert parse_precision("fp32_fp16") == PrecisionSpec.parse(
            "fp32:storage=fp16"
        )
        assert parse_precision("fp32:storage=fp16").storage_dtype == np.float16
        assert parse_precision({"kind": "fp32"}) == PrecisionSpec("fp32")
        spec = PrecisionSpec("fp32")
        assert parse_precision(spec) is spec


# ---------------------------------------------------------------------------
# Casting helpers and reduced-precision regions
# ---------------------------------------------------------------------------

class TestCastingAndDomains:
    def test_cast_vector_dtypes(self):
        x = np.ones(4)
        assert cast_vector(x, parse_precision("fp32")).dtype == np.float32
        assert cast_vector(x, parse_precision("fp64")).dtype == np.float64

    def test_cast_operator_identity_for_default_spec(self):
        matrix, _ = _problem()
        assert cast_operator(matrix, parse_precision("fp64")) is matrix

    def test_cast_operator_csr_dtypes(self):
        matrix, _ = _problem()
        low = cast_operator(matrix, parse_precision("fp32:storage=fp16"))
        assert low.dtype == np.float32
        assert low.data.dtype == np.float16
        x = np.ones(matrix.n_cols, dtype=np.float32)
        assert low.matvec(x).dtype == np.float32

    def test_cast_operator_callable_rounds_results(self):
        low = cast_operator(lambda x: x * 3.0, parse_precision("fp32"))
        assert low(np.ones(3)).dtype == np.float32

    def test_cast_operator_callable_keeps_the_operators_attributes(self):
        class Scaled:
            n_rows = 3

            def __call__(self, x):
                return np.float64(1.0 / 3.0) * x

        low = cast_operator(Scaled(), parse_precision("fp32"))
        assert low.n_rows == 3
        assert np.array_equal(low(np.ones(3)), np.full(3, np.float32(1.0 / 3.0)))
        with pytest.raises(AttributeError):
            low.n_cols

    def test_low_precision_operator_keeps_caller_in_fp64(self):
        matrix, b = _problem()
        with Region(precision="fp32") as dom:
            wrapped = dom.operator(matrix)
            result = wrapped(b)
        assert isinstance(wrapped, RegionStage)
        assert result.dtype == np.float64
        assert dom.applications == 1
        exact = matrix.matvec(b)
        # Bounded rounding error, not silent passthrough.
        scale = np.linalg.norm(exact)
        assert 0 < np.linalg.norm(result - exact) <= 1e-5 * scale

    def test_low_precision_preconditioner_protocol(self):
        domain = Region(precision="fp32")
        ident = domain.preconditioner(None)
        assert isinstance(ident, RegionStage)
        v = np.full(5, 1.0 + 2.0**-40)  # rounds away in fp32
        out = ident.apply(v)
        assert out.dtype == np.float64
        assert np.all(out == 1.0)
        assert domain.applications == 1

    def test_inner_solve_wrapper_hands_down_rounded_input(self):
        seen = {}

        def inner(v):
            seen["dtype"] = v.dtype
            return v

        domain = Region(precision="fp32")
        out = domain.inner_solve(inner)(np.ones(3))
        assert seen["dtype"] == np.float32
        assert out.dtype == np.float64


# ---------------------------------------------------------------------------
# fp64 parity: precision="fp64" is the default path, bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", default_solver_registry().names())
class TestFp64Parity:
    def test_fp64_is_bitwise_the_default_path(self, name):
        solver = REGISTRY.get(name)
        matrix, b = _problem()
        params = _solver_params(solver)
        default = solver.solve(matrix, b, **params)
        explicit = solver.solve(matrix, b, precision="fp64", **params)
        assert np.array_equal(np.asarray(default.x), np.asarray(explicit.x))
        assert default.iterations == explicit.iterations
        assert default.residual_norms == explicit.residual_norms
        assert default.converged == explicit.converged

    def test_precision_recorded_only_when_passed(self, name):
        # The golden-stability contract: E1-E9 never pass precision=,
        # so their info dicts (and hence the pinned tables) are
        # untouched by the precision layer.
        solver = REGISTRY.get(name)
        matrix, b = _problem(grid=6)
        params = _solver_params(solver)
        default = solver.solve(matrix, b, **params)
        explicit = solver.solve(matrix, b, precision="fp64", **params)
        assert "precision" not in default.info
        assert explicit.info["precision"] == "fp64"


@pytest.mark.usefixtures("force_lockstep")  # 3-4 lanes, below the gmres crossover
class TestBatchPrecision:
    def test_batch_fp64_matches_sequential_bitwise(self):
        matrix, _ = _problem()
        rng = np.random.default_rng(5)
        bs = [rng.standard_normal(matrix.n_rows) for _ in range(4)]
        batched = batch_solve(
            "gmres", matrix, bs, precision="fp64", tol=1e-8, maxiter=400
        )
        for b, result in zip(bs, batched):
            solo = REGISTRY.get("gmres").solve(
                matrix, b, precision="fp64", tol=1e-8, maxiter=400
            )
            assert np.array_equal(np.asarray(result.x), np.asarray(solo.x))
            assert result.residual_norms == solo.residual_norms
            assert result.info["precision"] == "fp64"

    def test_per_lane_precision_matches_sequential_bitwise(self):
        matrix, _ = _problem()
        rng = np.random.default_rng(5)
        bs = [rng.standard_normal(matrix.n_rows) for _ in range(3)]
        lane_params = [{}, {"precision": "fp32"}, {"precision": "fp32:storage=fp16"}]
        batched = batch_solve(
            "gmres", matrix, bs, lane_params=lane_params, tol=1e-5, maxiter=400
        )
        for b, extra, result in zip(bs, lane_params, batched):
            solo = REGISTRY.get("gmres").solve(
                matrix, b, tol=1e-5, maxiter=400, **extra
            )
            assert np.array_equal(np.asarray(result.x), np.asarray(solo.x))
            assert result.info.get("precision") == solo.info.get("precision")

    def test_fp32_results_are_fp64_arrays(self):
        matrix, b = _problem()
        result = REGISTRY.get("gmres").solve(
            matrix, b, precision="fp32", tol=1e-5, maxiter=400
        )
        assert result.info["precision"] == "fp32"
        assert np.asarray(result.x).dtype == np.float64
        assert result.converged


# ---------------------------------------------------------------------------
# The selective-precision claim (E10 in executable form)
# ---------------------------------------------------------------------------

class TestSelectivePrecisionClaim:
    def test_fp32_inner_reaches_fp64_answer_fp32_outer_does_not(self):
        kwargs = dict(
            grid=8,
            solvers=("gmres", "fgmres"),
            precisions=("fp64", "fp32"),
            preconds=("jacobi",),
            faults=None,
            tol=1e-8,
            error_tolerance=1e-5,
            seed=2013,
        )
        inner = e10_precision.run(target="inner", **kwargs)
        outer = e10_precision.run(target="outer", **kwargs)

        # Selective placement: every reduced-precision inner stage still
        # reaches the fp64-accurate answer.
        assert inner.summary["n_lowprecision_runs"] > 0
        assert (
            inner.summary["n_lowprecision_correct"]
            == inner.summary["n_lowprecision_runs"]
        )

        # Whole-solve placement: the fp32 residual floor sits above the
        # fp64 tolerance, so the same sweep fails for the GMRES family.
        assert (
            outer.summary["n_lowprecision_correct"]
            < outer.summary["n_lowprecision_runs"]
        )
        by_cell = {
            (row[0], row[2]): row[-1] for row in outer.table.rows
        }
        assert by_cell[("gmres", "fp32")] == "crash"
        assert by_cell[("fgmres", "fp32")] == "crash"

    @pytest.mark.parametrize("target", ["inner", "outer"])
    def test_ft_gmres_runs_in_both_placements(self, target):
        # E10 hands every solver its maxiter through the same budget
        # translation E8 and E9 use (ft_gmres takes outer/inner budgets).
        params = dict(e10_precision.SPEC.smoke, solvers=("ft_gmres",), target=target)
        result = e10_precision.run(**params)
        assert result.table.column("solver") == ["ft_gmres", "ft_gmres"]
        assert result.table.column("converged")[0]  # the fp64 row
