"""Tests for the declarative preconditioning layer (``repro.precond``).

Four contract surfaces, mirroring ``tests/test_solver_registry.py``:

* :class:`PrecondSpec` -- string/dict round-trips (hypothesis-driven),
  kind/parameter validation.
* The registry -- lookup semantics, the builder contract for every
  named entry, actionable error messages that name the offending spec
  string.
* Solver wiring -- ``precond=`` on every registered solver is bitwise
  the explicitly-constructed preconditioner path.
* Selective reliability -- the paper's claim as an executable
  assertion: FGMRES with an ``unreliable(...)``-wrapped preconditioner
  converges to the reliable answer while the same fault model on the
  reliable-path operator degrades it.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import precond, reliability
from repro.krylov.registry import default_solver_registry
from repro.krylov.fgmres import fgmres
from repro.krylov.gmres import gmres
from repro.linalg import poisson_2d
from repro.linalg.precond import (
    BlockJacobiPreconditioner,
    JacobiPreconditioner,
    Preconditioner,
    SsorPreconditioner,
)
from repro.precond import (
    PRECOND_KINDS,
    PrecondSpec,
    build_preconditioner,
    default_precond_registry,
    parse_precond,
    precond_names,
    resolve_preconds,
)

REGISTRY = default_precond_registry()


def _problem(grid: int = 8, seed: int = 17):
    matrix = poisson_2d(grid)
    rng = np.random.default_rng(seed)
    return matrix, rng.standard_normal(matrix.n_rows)


# ---------------------------------------------------------------------------
# PrecondSpec round-trips and validation
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=64,
              min_value=-1e12, max_value=1e12),
)


def _spec_strategy():
    def params_for(kind):
        names = PRECOND_KINDS[kind]
        if not names:
            return st.just({})
        return st.fixed_dictionaries(
            {}, optional={name: _scalars for name in names}
        )

    return st.sampled_from(sorted(PRECOND_KINDS)).flatmap(
        lambda kind: params_for(kind).map(lambda p: PrecondSpec(kind, p))
    )


class TestPrecondSpec:
    @settings(max_examples=50, deadline=None)
    @given(_spec_strategy())
    def test_string_roundtrip_exact(self, spec):
        assert PrecondSpec.parse(spec.to_string()) == spec

    @settings(max_examples=50, deadline=None)
    @given(_spec_strategy())
    def test_dict_roundtrip_exact(self, spec):
        assert PrecondSpec.from_dict(spec.to_dict()) == spec

    def test_parse_examples(self):
        assert PrecondSpec.parse("none") == PrecondSpec("none")
        assert PrecondSpec.parse("ssor:omega=1.2") == PrecondSpec(
            "ssor", {"omega": 1.2}
        )
        assert PrecondSpec.parse("poly:k=4").get("k") == 4
        assert PrecondSpec.parse("bjacobi:bs=8").to_string() == "bjacobi:bs=8"

    def test_loose_dict_form(self):
        assert PrecondSpec.from_dict({"kind": "ssor", "omega": 1.5}) == (
            PrecondSpec("ssor", {"omega": 1.5})
        )

    def test_unknown_kind_rejected_with_known_kinds(self):
        with pytest.raises(ValueError, match="bjacobi"):
            PrecondSpec("ilu")

    def test_unknown_parameter_rejected_with_valid_set(self):
        with pytest.raises(ValueError, match="omega"):
            PrecondSpec("ssor", {"omeag": 1.2})

    def test_with_params_drops_none_overrides(self):
        spec = PrecondSpec("ssor", {"omega": 1.0})
        assert spec.with_params(omega=None) == spec
        assert spec.with_params(omega=1.5).get("omega") == 1.5

    def test_case_insensitive_kind(self):
        assert PrecondSpec("SSOR", {"omega": 1.0}).kind == "ssor"


# ---------------------------------------------------------------------------
# Registry entries (the lookup contract every registry shares is
# tests/test_axis_contract.py)
# ---------------------------------------------------------------------------

class TestRegistryLookup:
    def test_names_cover_the_builtin_set(self):
        assert {"none", "jacobi", "ssor", "ssor_over", "poly2", "poly4",
                "bjacobi8"} <= set(precond_names())

    def test_every_entry_round_trips_and_builds(self):
        matrix, _ = _problem()
        for entry in REGISTRY:
            assert PrecondSpec.parse(entry.spec.to_string()) == entry.spec
            assert PrecondSpec.from_dict(entry.spec.to_dict()) == entry.spec
            built = resolve_preconds(entry.name, matrix)
            if entry.spec.kind == "none":
                assert built is None
                continue
            assert isinstance(built, Preconditioner)
            z = built.apply(np.ones(matrix.n_rows))
            assert z.shape == (matrix.n_rows,)
            assert np.all(np.isfinite(z))


class TestResolution:
    def test_none_resolves_to_no_preconditioner(self):
        matrix, _ = _problem()
        assert resolve_preconds(None, matrix=matrix) is None
        assert resolve_preconds("none", matrix=matrix) is None

    def test_registry_names_and_inline_specs_resolve(self):
        matrix, _ = _problem()
        assert isinstance(resolve_preconds("jacobi", matrix=matrix),
                          JacobiPreconditioner)
        assert isinstance(resolve_preconds("ssor:omega=1.2", matrix=matrix),
                          SsorPreconditioner)
        assert isinstance(resolve_preconds({"kind": "bjacobi", "bs": 4},
                                           matrix=matrix),
                          BlockJacobiPreconditioner)

    def test_built_objects_pass_through(self):
        matrix, _ = _problem()
        built = JacobiPreconditioner(matrix)
        assert resolve_preconds(built, matrix=matrix) is built
        with pytest.raises(ValueError, match="already-built"):
            resolve_preconds(built, matrix=matrix, omega=1.2)

    def test_overrides_merge_and_ignore_none(self):
        matrix, _ = _problem()
        ssor = resolve_preconds("ssor", matrix=matrix, omega=1.5)
        assert ssor._omega == 1.5
        assert parse_precond("ssor").get("omega") == 1.0

    def test_parse_precond_prefers_registry_names(self):
        assert parse_precond("bjacobi8") == PrecondSpec("bjacobi", {"bs": 8})
        assert parse_precond("bjacobi:bs=16").get("bs") == 16

    def test_building_without_matrix_is_actionable(self):
        with pytest.raises(ValueError, match="precond_matrix"):
            build_preconditioner("jacobi", None)
        with pytest.raises(ValueError, match="jacobi"):
            build_preconditioner("jacobi", lambda v: v)

    def test_validation_errors_name_the_offending_spec(self):
        matrix, _ = _problem()
        with pytest.raises(ValueError, match=r"ssor:omega=2\.5"):
            resolve_preconds("ssor:omega=2.5", matrix=matrix)
        with pytest.raises(ValueError, match=r"ssor:omega=-1\.0"):
            resolve_preconds("ssor:omega=-1.0", matrix=matrix)
        with pytest.raises(ValueError, match="bjacobi:bs=0"):
            resolve_preconds("bjacobi:bs=0", matrix=matrix)
        with pytest.raises(ValueError, match="poly:k=-1"):
            resolve_preconds("poly:k=-1", matrix=matrix)

    def test_bjacobi_block_size_maps_to_block_count(self):
        matrix, _ = _problem(grid=8)  # 64 rows
        built = resolve_preconds("bjacobi:bs=8", matrix=matrix)
        assert len(built._ranges) == 8
        whole = resolve_preconds("bjacobi:bs=100000", matrix=matrix)
        assert len(whole._ranges) == 1


# ---------------------------------------------------------------------------
# Solver wiring: precond= by spec on every registered solver
# ---------------------------------------------------------------------------

class TestSolverWiring:
    def test_spec_path_is_bitwise_the_explicit_path(self):
        matrix, b = _problem()
        solvers = default_solver_registry()
        via_spec = solvers.get("gmres").solve(matrix, b, precond="jacobi",
                                              tol=1e-9, maxiter=300)
        direct = gmres(matrix, b, preconditioner=JacobiPreconditioner(matrix),
                       tol=1e-9, maxiter=300)
        assert np.array_equal(np.asarray(via_spec.x), np.asarray(direct.x))
        assert via_spec.residual_norms == direct.residual_norms
        assert via_spec.info["precond"] == "jacobi"

    def test_fgmres_precond_is_the_inner_solve(self):
        matrix, b = _problem()
        solvers = default_solver_registry()
        via_spec = solvers.get("fgmres").solve(matrix, b,
                                               precond="ssor:omega=1.2",
                                               tol=1e-9, maxiter=300)
        direct = fgmres(matrix, b, tol=1e-9, maxiter=300,
                        inner_solve=SsorPreconditioner(matrix, omega=1.2))
        assert np.array_equal(np.asarray(via_spec.x), np.asarray(direct.x))
        assert via_spec.info["precond"] == "ssor:omega=1.2"

    @pytest.mark.parametrize(
        "name", ["gmres", "fgmres", "pipelined_gmres", "cg", "pipelined_cg",
                 "sdc_gmres", "ft_gmres"]
    )
    def test_every_registered_solver_accepts_precond_specs(self, name):
        matrix, b = _problem()
        solver = default_solver_registry().get(name)
        params = (
            {"tol": 1e-8, "outer_maxiter": 30, "inner_maxiter": 10}
            if name == "ft_gmres" else {"tol": 1e-8, "maxiter": 400}
        )
        result = solver.solve(matrix, b, precond="jacobi", **params)
        assert result.converged
        assert result.info["precond"] == "jacobi"
        residual = np.linalg.norm(matrix.matvec(np.asarray(result.x)) - b)
        assert residual <= 1e-6 * np.linalg.norm(b)

    def test_unknown_precond_name_is_actionable(self):
        matrix, b = _problem()
        with pytest.raises(ValueError, match="ilu"):
            default_solver_registry().get("gmres").solve(
                # repro: allow(spec-strings) -- unknown kind is the point
                matrix, b, precond="ilu", tol=1e-8, maxiter=100
            )

    def test_wrapped_operator_needs_precond_matrix(self):
        matrix, b = _problem()
        solver = default_solver_registry().get("gmres")
        with pytest.raises(ValueError, match="precond_matrix"):
            solver.solve(matrix.matvec, b, precond="jacobi",
                         tol=1e-8, maxiter=100)
        result = solver.solve(matrix.matvec, b, precond="jacobi",
                              precond_matrix=matrix, tol=1e-8, maxiter=100)
        assert result.converged

    def test_proxy_objects_pass_through_and_are_labelled(self):
        matrix, b = _problem()
        with reliability.unreliable("none") as dom:
            proxy = dom.preconditioner(JacobiPreconditioner(matrix))
            result = default_solver_registry().get("fgmres").solve(
                matrix, b, precond=proxy, tol=1e-8, maxiter=300
            )
        assert result.converged
        assert result.info["precond"] == "RegionStage"


# ---------------------------------------------------------------------------
# Region preconditioner mechanics
# ---------------------------------------------------------------------------

class TestDomainPreconditioner:
    def test_counts_applications_and_charges_flops(self):
        matrix, _ = _problem(grid=6)
        with reliability.unreliable("none") as dom:
            proxy = dom.preconditioner(JacobiPreconditioner(matrix),
                                       flops_per_call=10.0)
            v = np.ones(matrix.n_rows)
            z1 = proxy(v)
            z2 = proxy.apply(v)
        assert dom.applications == 2
        assert dom.flops == 20.0
        assert np.array_equal(z1, z2)
        assert dom.faults_injected() == 0

    def test_identity_wrap_copies_and_injects(self):
        with reliability.unreliable("bitflip:p=1.0,bits=52..62",
                                    seed=5) as dom:
            proxy = dom.preconditioner(None)
            v = np.ones(16)
            z = proxy(v)
        assert np.array_equal(v, np.ones(16))  # input untouched
        assert dom.faults_injected() == 1
        assert np.sum(z != 1.0) == 1

    def test_deterministic_injection_stream(self):
        matrix, _ = _problem(grid=6)
        outputs = []
        for _ in range(2):
            with reliability.unreliable("bitflip:p=0.5", seed=42) as dom:
                proxy = dom.preconditioner(JacobiPreconditioner(matrix))
                outputs.append(
                    np.concatenate([proxy(np.ones(matrix.n_rows))
                                    for _ in range(5)])
                )
        assert np.array_equal(outputs[0], outputs[1])

    def test_bare_callable_base(self):
        with reliability.unreliable("none") as dom:
            proxy = dom.preconditioner(lambda v: 2.0 * np.asarray(v))
            assert np.array_equal(proxy(np.ones(4)), 2.0 * np.ones(4))


# ---------------------------------------------------------------------------
# The paper's claim as an executable assertion
# ---------------------------------------------------------------------------

class TestSelectiveReliabilityParity:
    """FGMRES converges with an unreliable preconditioner; the same
    fault model on the reliable-path operator degrades the solve."""

    TOL = 1e-8
    # Pinned parity tolerance: the unreliable-preconditioner answer
    # must match the reliable answer to this relative error.
    PARITY = 1e-6

    def _reference(self, matrix, b, ssor):
        result = fgmres(matrix, b, tol=self.TOL, maxiter=300,
                        inner_solve=ssor)
        assert result.converged
        return np.asarray(result.x)

    def test_unreliable_preconditioner_converges_to_reliable_answer(self):
        matrix, b = _problem(grid=10, seed=7)
        ssor = SsorPreconditioner(matrix, omega=1.2)
        x_ref = self._reference(matrix, b, ssor)

        # The issue's literal spec first: a realistically rare rate.
        for spec, seed in (("bitflip:p=1e-4", 3), ("bitflip:p=0.5,bits=52..62", 3)):
            with reliability.unreliable(spec, seed=seed) as dom:
                # Exponent-bit flips can produce ~1e300 values in the
                # unreliable domain; the reliable outer iteration vets
                # and discards them, so the overflow is expected noise.
                with np.errstate(over="ignore", invalid="ignore"), \
                        warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    result = fgmres(matrix, b, tol=self.TOL, maxiter=300,
                                    inner_solve=dom.preconditioner(ssor))
            assert result.converged, spec
            error = np.linalg.norm(np.asarray(result.x) - x_ref)
            assert error <= self.PARITY * np.linalg.norm(x_ref), spec

        # The aggressive rate must actually have exercised the injector,
        # otherwise the parity assertion proves nothing.
        assert dom.faults_injected() > 0

    def test_same_fault_in_reliable_domain_degrades_the_solve(self):
        matrix, b = _problem(grid=10, seed=7)
        ssor = SsorPreconditioner(matrix, omega=1.2)
        x_ref = self._reference(matrix, b, ssor)

        with reliability.unreliable("bitflip:p=0.5,bits=52..62", seed=3) as dom:
            operator = dom.operator(matrix.matvec,
                                    flops_per_call=2.0 * matrix.nnz)
            with np.errstate(over="ignore", invalid="ignore"):
                result = fgmres(operator, b, tol=self.TOL, maxiter=300,
                                inner_solve=ssor)
        assert dom.faults_injected() > 0
        x = np.asarray(result.x)
        finite = bool(np.all(np.isfinite(x)))
        error = (
            np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
            if finite else np.inf
        )
        degraded = (not result.converged) or error > self.PARITY
        assert degraded, (result.converged, error)


# ---------------------------------------------------------------------------
# E9 driver contract
# ---------------------------------------------------------------------------

class TestE9Driver:
    def test_smoke_configuration(self):
        from repro.experiments import e9_precond

        result = e9_precond.run(**e9_precond.SPEC.smoke)
        assert result.experiment == "E9"
        assert result.summary["n_runs"] == 4
        assert result.summary["n_correct"] == 4
        assert result.summary["total_faults_injected"] == 0

    def test_registered_and_swept_by_the_campaign_layer(self):
        from repro.campaign.builtin import builtin_campaign
        from repro.campaign.registry import default_registry

        driver = default_registry().get("E9")
        assert driver.name == "precond"
        assert driver.accepts("preconds")
        scenarios = builtin_campaign("precond")
        assert scenarios and all(s.experiment == "E9" for s in scenarios)
        targets = {s.params.get("target") for s in scenarios}
        assert {"precond", "operator"} <= targets

    def test_selective_target_beats_operator_target_under_faults(self):
        from repro.experiments import e9_precond

        common = dict(grid=8, solvers=("fgmres",),
                      preconds=("ssor", "poly2", "bjacobi8"),
                      faults="bitflip:p=0.2,bits=52..62", seed=2013)
        selective = e9_precond.run(target="precond", **common)
        control = e9_precond.run(target="operator", **common)
        assert selective.summary["total_faults_injected"] > 0
        assert (
            selective.summary["n_correct"] >= control.summary["n_correct"]
        )
        # Selective reliability keeps every flexible solve correct.
        assert selective.summary["n_correct"] == selective.summary["n_runs"]

    def test_rejects_unknown_target(self):
        from repro.experiments import e9_precond

        with pytest.raises(ValueError):
            e9_precond.run(grid=6, target="everything")
